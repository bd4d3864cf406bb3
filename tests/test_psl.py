from fractions import Fraction
from itertools import product

import pytest

from psl_reference import (
    discrete,
    kripke_cross_check,
    probability_presheaf,
    pullback_space,
    uniform,
)
from sheafsep.errors import NotMeasurableError, PslBoundError, UnknownIdentifierError
from sheafsep.psl import (
    ProbSpace,
    RandomVariable,
    independence_oracle,
    law_of,
    psl_sat,
    set_partitions,
)
from sheafsep.seplogic import DistAtom, Star, parse_formula


def unif(n):
    return uniform(n)


def bits4():
    """Four-point uniform space with the two bit projections."""
    sp = unif(4)
    x = RandomVariable((0, 0, 1, 1))
    y = RandomVariable((0, 1, 0, 1))
    return sp, x, y


def fair_coin():
    return ((0, Fraction(1, 2)), (1, Fraction(1, 2)))


def test_space_validation():
    with pytest.raises(ValueError):
        ProbSpace.of(2, [(1,), (2,)], [Fraction(1, 2), Fraction(1, 3)])
    with pytest.raises(ValueError):
        ProbSpace.of(2, [(1,)], [Fraction(1)])
    with pytest.raises(ValueError):
        discrete([0.5, 0.5])  # floats are rejected


def test_pullback_identity():
    sp = unif(3)
    assert pullback_space((1, 2, 3), sp) == sp


def test_pullback_by_parity():
    sp = unif(2)
    pulled = pullback_space((1, 2, 1, 2), sp)
    assert pulled.blocks == ((1, 3), (2, 4))
    assert pulled.measure == (Fraction(1, 2), Fraction(1, 2))


def test_pullback_preserves_total_mass():
    sp = discrete([Fraction(1, 4), Fraction(3, 4)])
    pulled = pullback_space((2, 1, 2), sp)
    assert sum(pulled.measure, Fraction(0)) == 1


def test_pullback_functorial():
    sp = ProbSpace.of(2, [(1,), (2,)], [Fraction(1, 3), Fraction(2, 3)])
    f = (1, 2, 1)  # 3 ->> 2
    g = (1, 3, 2, 3)  # 4 ->> 3
    composite = tuple(f[g[i] - 1] for i in range(4))
    assert pullback_space(composite, sp) == pullback_space(g, pullback_space(f, sp))


def test_law_of_constant():
    sp = unif(3)
    assert law_of(RandomVariable((3, 3, 3)), sp) == {3: Fraction(1)}


def test_law_of_first_bit():
    sp, x, _ = bits4()
    assert law_of(x, sp) == {0: Fraction(1, 2), 1: Fraction(1, 2)}


def test_law_not_measurable():
    sp = ProbSpace.of(2, [(1, 2)], [Fraction(1)])
    with pytest.raises(NotMeasurableError):
        law_of(RandomVariable((0, 1)), sp)


def test_independence_oracle_fair_bits():
    sp, x, y = bits4()
    assert independence_oracle(sp, x, y)


def test_independence_oracle_correlated():
    sp = unif(2)
    x = RandomVariable((0, 1))
    assert not independence_oracle(sp, x, x)


def test_independence_oracle_constant():
    sp, x, _ = bits4()
    assert independence_oracle(sp, RandomVariable((5, 5, 5, 5)), x)


def test_psl_star_independent_bits():
    sp, x, y = bits4()
    phi = Star(DistAtom("X", fair_coin()), DistAtom("Y", fair_coin()))
    res = psl_sat(sp, phi, {"X": x, "Y": y})
    assert res.result
    assert res.witness["q1"] == [1, 1, 2, 2]
    assert res.witness["q2"] == [1, 2, 1, 2]


def test_psl_star_correlated_embedded():
    """The two-point space embedded in four points with zero mass on the
    off-diagonal: the bits are perfectly correlated."""
    sp = discrete([Fraction(1, 2), Fraction(0), Fraction(0), Fraction(1, 2)])
    x = RandomVariable((0, 0, 1, 1))
    y = RandomVariable((0, 1, 0, 1))
    phi = Star(DistAtom("X", fair_coin()), DistAtom("Y", fair_coin()))
    assert not psl_sat(sp, phi, {"X": x, "Y": y}).result
    assert not independence_oracle(sp, x, y)


def test_dist_atom_reflexive():
    sp = discrete([Fraction(1, 3), Fraction(2, 3)])
    x = RandomVariable((7, 9))
    atom = DistAtom("X", tuple(sorted(law_of(x, sp).items())))
    assert psl_sat(sp, atom, {"X": x}).result


def test_dist_atom_unknown_variable():
    with pytest.raises(UnknownIdentifierError):
        psl_sat(unif(2), DistAtom("Z", fair_coin()), {})


def test_psl_bound():
    with pytest.raises(PslBoundError):
        psl_sat(unif(7), DistAtom("X", ((0, Fraction(1)),)), {"X": RandomVariable((0,) * 7)})


def test_star_commutative_on_samples():
    sp, x, y = bits4()
    a = DistAtom("X", fair_coin())
    b = DistAtom("Y", fair_coin())
    assert (
        psl_sat(sp, Star(a, b), {"X": x, "Y": y}).result
        == psl_sat(sp, Star(b, a), {"X": x, "Y": y}).result
    )
    sp2 = discrete([Fraction(1, 2), Fraction(0), Fraction(0), Fraction(1, 2)])
    assert (
        psl_sat(sp2, Star(a, b), {"X": x, "Y": y}).result
        == psl_sat(sp2, Star(b, a), {"X": x, "Y": y}).result
    )


def test_heyting_connectives_classical():
    sp, x, y = bits4()
    env = {"X": x, "Y": y}
    t = DistAtom("X", fair_coin())
    phi = parse_formula("X ~ {0: 1/2, 1: 1/2} -> F")
    assert not psl_sat(sp, phi, env).result
    assert psl_sat(sp, parse_formula("F -> F"), env).result


def test_star_oracle_agreement_small():
    """Star agrees with the factorisation oracle on every variable pair
    with values in {0,1} over positive-measure spaces up to 4 points."""
    for n in (2, 3, 4):
        spaces = [
            unif(n),
            discrete(
                [Fraction(i + 1, n * (n + 1) // 2) for i in range(n)]
            ),
        ]
        for sp in spaces:
            for xs in product((0, 1), repeat=n):
                for ys in product((0, 1), repeat=n):
                    x, y = RandomVariable(xs), RandomVariable(ys)
                    phi = Star(
                        DistAtom("X", tuple(sorted(law_of(x, sp).items()))),
                        DistAtom("Y", tuple(sorted(law_of(y, sp).items()))),
                    )
                    assert (
                        psl_sat(sp, phi, {"X": x, "Y": y}).result
                        == independence_oracle(sp, x, y)
                    ), (n, sp, xs, ys)


def test_set_partitions_bell_numbers():
    assert len(list(set_partitions(range(1, 4)))) == 5
    assert len(list(set_partitions(range(1, 5)))) == 15
    assert len(list(set_partitions(range(1, 6)))) == 52


def test_probability_presheaf_functorial():
    from sheafsep.fincat import build_finsurj_category
    from presheaf_reference import validate_presheaf

    cat, _ = build_finsurj_category(3)
    pres = probability_presheaf(cat, denominator=2)
    assert validate_presheaf(pres).ok


def test_kripke_cross_check_sizes_two_and_three():
    assert kripke_cross_check(max_size=2, denominator=4, samples=12) > 0
    assert kripke_cross_check(max_size=3, denominator=2, samples=8) > 0
