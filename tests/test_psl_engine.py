"""Differential tests of the exact-integer PSL star against the Fraction
reference in `psl_reference.py`: pair lists, component spaces,
marginals, verdicts and witnesses, plus the per-size pair table and the
absence of per-space state between calls."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import psl_reference as ref
from test_acceptance import _agreement_spaces

from sheafsep import psl
from sheafsep.errors import NotMeasurableError, UnknownIdentifierError
from sheafsep.psl import (
    DEFAULT_SPACE_BOUND,
    ProbSpace,
    RandomVariable,
    independence_oracle,
    law_of,
    psl_sat,
    set_partitions,
)
from sheafsep.seplogic import (
    And,
    Bottom,
    DistAtom,
    Imp,
    Or,
    PointsToStrict,
    Star,
    Top,
    parse_formula,
)


def weighted(*weights):
    total = sum(weights)
    return ProbSpace.discrete([Fraction(w, total) for w in weights])


SPACES = {
    **{f"agreement-{k}": sp for k, sp in enumerate(_agreement_spaces())},
    "coarse-4": ProbSpace.of(4, [(1, 2), (3, 4)], [Fraction(1, 2), Fraction(1, 2)]),
    "coarse-6": ProbSpace.of(
        6, [(1, 2), (3, 4), (5, 6)], [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)]
    ),
    "coarse-6-interleaved": ProbSpace.of(
        6, [(1, 4), (2, 5), (3, 6)], [Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)]
    ),
    "zero-mass-4": weighted(1, 0, 0, 1),
    "zero-mass-5": weighted(2, 0, 1, 0, 3),
    # the four 6-point measures of the psl benchmark workload
    "uniform-6": weighted(1, 1, 1, 1, 1, 1),
    "product-6": weighted(1, 2, 3, 2, 4, 6),
    "random-6": weighted(4, 1, 5, 2, 6, 3),
    "correlated-6": weighted(6, 1, 0, 1, 5, 1),
}


def as_prob(space):
    """An integer component space as the reference's `ProbSpace`."""
    return ProbSpace.discrete([Fraction(w, space.denominator) for w in space.weights])


def engine_pairs(sp):
    """The engine's factorising pairs in the reference's shape."""
    search = psl._StarSearch()
    parts = psl._pair_table(sp.size)[0]
    out = []
    for i, j, key1, key2 in search.factorisations(psl._Space.scaled(sp)):
        c1, c2 = search.component(key1), search.component(key2)
        out.append(
            (parts[i][0], parts[j][0], as_prob(c1), as_prob(c2), c1.marginals(), c2.marginals())
        )
    return out


@pytest.mark.parametrize("name", sorted(SPACES))
def test_factorising_pairs_match_the_reference(name):
    sp = SPACES[name]
    expected = ref.factorising_pairs(sp)
    assert expected  # the trivial factorisation always exists
    assert engine_pairs(sp) == expected


@pytest.mark.parametrize(
    "weights, denominator",
    [((1, -1, 2), 2), ((1, 1), 3), ((2, 1), 2), ((0, 0), 0)],
)
def test_integer_space_rejects_an_invalid_measure(weights, denominator):
    """Weights must be non-negative and sum to the denominator D > 0."""
    blocks = tuple((i,) for i in range(1, len(weights) + 1))
    with pytest.raises(ValueError):
        psl._Space(len(weights), blocks, weights, denominator)
    assert psl._Space(2, ((1,), (2,)), (0, 3), 3).marginals() == ["0", "1"]


def test_uniform_six_has_705_factorising_pairs():
    assert len(engine_pairs(SPACES["uniform-6"])) == 705


@pytest.mark.parametrize("n", range(1, DEFAULT_SPACE_BOUND + 1))
def test_pair_table_matches_brute_force(n):
    parts = list(set_partitions(range(1, n + 1)))
    meeting = [
        (p1, p2)
        for p1 in parts
        for p2 in parts
        if all(set(b1) & set(b2) for b1 in p1 for b2 in p2)
    ]
    table_parts, rows = psl._pair_table(n)
    assert [p for p, _ in table_parts] == parts
    assert [
        (table_parts[i][0], table_parts[j][0]) for i, row in rows for j, _ in row
    ] == meeting
    for i, row in rows:
        for j, grid in row:
            assert grid == tuple(
                psl._mask(set(b1) & set(b2))
                for b1 in table_parts[i][0]
                for b2 in table_parts[j][0]
            )
    if n == 6:
        assert len(meeting) == 915


def _random_formula(rng, atoms, depth):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(atoms + [Top(), Bottom()])
    op = rng.choice([And, Or, Imp, Star, Star])
    return op(_random_formula(rng, atoms, depth - 1), _random_formula(rng, atoms, depth - 1))


def _atoms(rng, sp, variables):
    """Atoms with each variable's true law, a perturbed law, or a point
    mass; a variable that is not measurable gets an arbitrary law."""
    atoms = []
    for name, x in variables.items():
        try:
            law = law_of(x, sp)
        except Exception:
            law = {x.values[0]: Fraction(1)}
        atoms.append(DistAtom(name, tuple(sorted(law.items()))))
        if len(law) > 1:
            (a, p), (b, q) = list(law.items())[:2]
            shifted = dict(law)
            shifted[a], shifted[b] = p - min(p, q) / 2, q + min(p, q) / 2
            atoms.append(DistAtom(name, tuple(sorted(shifted.items()))))
        atoms.append(DistAtom(name, ((x.values[-1], Fraction(1)),)))
    return atoms


def test_verdicts_and_witnesses_match_the_reference():
    rng = random.Random(6)
    spaces = [sp for sp in SPACES.values() if sp.size <= 4]
    spaces += [weighted(*(rng.randrange(4) + (i == 0) for i in range(rng.randint(2, 4))))
               for _ in range(12)]
    checked = 0
    for sp in spaces:
        n = sp.size
        variables = {
            "X": RandomVariable(tuple(rng.randrange(2) for _ in range(n))),
            "Y": RandomVariable(tuple(rng.randrange(3) for _ in range(n))),
        }
        atoms = _atoms(rng, sp, variables)
        for k in range(8):
            if k % 2:
                phi = _random_formula(rng, atoms, 3)
            else:  # a top-level star, so that witnesses are compared too
                phi = Star(_random_formula(rng, atoms, 2), _random_formula(rng, atoms, 2))
            got = psl_sat(sp, phi, variables)
            assert got.as_dict() == ref.psl_sat(sp, phi, variables).as_dict(), (sp, phi)
            checked += 1
    assert checked == 8 * len(spaces)


@pytest.mark.parametrize("name", ["uniform-6", "product-6", "random-6", "correlated-6"])
def test_six_point_stars_match_the_reference(name):
    sp = SPACES[name]
    variables = {
        "X": RandomVariable((0, 0, 0, 1, 1, 1)),
        "Y": RandomVariable((0, 1, 2, 0, 1, 2)),
    }
    lx, ly = (tuple(sorted(law_of(v, sp).items())) for v in variables.values())
    star = Star(DistAtom("X", lx), DistAtom("Y", ly))
    for phi in (star, Star(DistAtom("Y", ly), DistAtom("X", lx)), And(star, DistAtom("X", lx))):
        assert psl_sat(sp, phi, variables).as_dict() == ref.psl_sat(sp, phi, variables).as_dict()


def test_atoms_need_measurable_variables():
    """On a coarse space a variable that splits a block has no law, so
    no atom on it holds, whatever its first point says."""
    sp = SPACES["coarse-4"]
    split = {"X": RandomVariable((0, 1, 0, 1))}
    for law in (((0, Fraction(1)),), ((0, Fraction(1, 2)), (1, Fraction(1, 2)))):
        phi = DistAtom("X", law)
        assert not psl_sat(sp, phi, split).result
        assert not ref.psl_sat(sp, phi, split).result
    whole = {"X": RandomVariable((0, 0, 1, 1))}
    phi = DistAtom("X", ((0, Fraction(1, 2)), (1, Fraction(1, 2))))
    assert psl_sat(sp, phi, whole).result


def test_variables_are_resolved_before_the_search():
    sp = ProbSpace.uniform(2)
    variables = {"X": RandomVariable((0, 1))}
    for text in ("T \\/ (Z ~ {0: 1})", "F /\\ (Z ~ {0: 1})", "F * (Z ~ {0: 1})"):
        with pytest.raises(UnknownIdentifierError):
            psl_sat(sp, parse_formula(text), variables)
    with pytest.raises(TypeError):
        psl_sat(sp, Or(Top(), PointsToStrict("x", 0)), variables)
    # a declared variable that does not descend is false, not unknown
    assert not psl_sat(sp, DistAtom("X", ((0, Fraction(1, 2)), (1, Fraction(1, 2)))),
                       {"X": None}).result


def test_no_per_space_state_outlives_a_call():
    """Only the measure-free per-size table survives psl_sat calls."""
    rng = random.Random(11)
    seen = set()
    while len(seen) < 60:
        n = rng.randint(1, DEFAULT_SPACE_BOUND)
        sp = weighted(*(rng.randrange(5) + (i == 0) for i in range(n)))
        x = RandomVariable(tuple(rng.randrange(2) for _ in range(n)))
        y = RandomVariable(tuple(rng.randrange(2) for _ in range(n)))
        phi = Star(
            DistAtom("X", tuple(sorted(law_of(x, sp).items()))),
            DistAtom("Y", tuple(sorted(law_of(y, sp).items()))),
        )
        psl_sat(sp, Star(phi, Top()), {"X": x, "Y": y})
        seen.add(sp)
    held = {
        name: value
        for name, value in vars(psl).items()
        if not name.startswith("__")
        and (isinstance(value, (dict, list, set)) or hasattr(value, "cache_info"))
    }
    assert list(held) == ["_PAIR_TABLES"]
    assert set(psl._PAIR_TABLES) <= set(range(1, DEFAULT_SPACE_BOUND + 1))


def _oracle_or_error(oracle, sp, x, y):
    try:
        return oracle(sp, x, y)
    except (NotMeasurableError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def test_independence_oracle_matches_the_reference():
    """Every pair of variables with values in {0, 1, 2} up to 3 points,
    and seeded pairs beyond, measurable or not, on the agreement spaces
    and on two spaces with zero block masses."""
    rng = random.Random(11)
    for sp in [*_agreement_spaces(), SPACES["zero-mass-4"], SPACES["zero-mass-5"]]:
        variables = [RandomVariable(v) for v in itertools.product((0, 1, 2), repeat=sp.size)]
        pairs = [(x, y) for x in variables for y in variables]
        if len(pairs) > 3000:
            pairs = rng.sample(pairs, 3000)
        for x, y in pairs + [(RandomVariable((0,) * (sp.size + 1)), variables[0])]:
            assert _oracle_or_error(independence_oracle, sp, x, y) == _oracle_or_error(
                ref.independence_oracle, sp, x, y
            ), (sp, x, y)


def test_nested_star_builds_no_prob_space(monkeypatch):
    """The search runs on integer spaces end to end: a nested star on six
    points constructs no `ProbSpace`, component spaces included."""
    sp = SPACES["product-6"]
    variables = {
        "X": RandomVariable((0, 0, 0, 1, 1, 1)),
        "Y": RandomVariable((0, 1, 2, 0, 1, 2)),
    }
    lx, ly = (tuple(sorted(law_of(v, sp).items())) for v in variables.values())
    phi = Star(Star(DistAtom("X", lx), DistAtom("Y", ly)), Top())
    built = []
    validate = ProbSpace.__post_init__

    def counted(self):
        built.append(self)
        validate(self)

    monkeypatch.setattr(ProbSpace, "__post_init__", counted)
    got = psl_sat(sp, phi, variables)
    assert got.result
    assert built == []
    ProbSpace.uniform(2)
    assert len(built) == 1  # the counter sees a construction


@st.composite
def psl_cases(draw):
    """A space of two to five points (random blocks, zero masses
    allowed), two variables, and a top-level star whose operands each
    centre on one variable's atom, with its true law where it has one,
    so that most stars ask whether the two variables are independent."""
    n = draw(st.integers(2, 5))
    labels = list(range(n))
    if draw(st.booleans()):  # a coarser algebra than the discrete one
        labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    blocks = {}
    for point, label in enumerate(labels, start=1):
        blocks.setdefault(label, []).append(point)
    k = len(blocks)
    weights = draw(st.lists(st.sampled_from([1, 2, 3, 0]), min_size=k, max_size=k))
    if not any(weights):
        weights[0] = 1
    sp = ProbSpace.of(n, blocks.values(), [Fraction(w, sum(weights)) for w in weights])
    # shuffles of one balanced 0/1 pattern, so that the fibres of the two
    # variables usually cross
    variables = {
        name: RandomVariable(tuple(draw(st.permutations([i % 2 for i in range(n)]))))
        for name in ("X", "Y")
    }
    laws = {}
    for name, x in variables.items():
        try:
            laws[name] = tuple(sorted(law_of(x, sp).items()))
        except NotMeasurableError:
            laws[name] = ((x.values[0], Fraction(1)),)
    other_laws = [*laws.values(), ((0, Fraction(1)),), ((0, Fraction(1, 2)), (1, Fraction(1, 2)))]
    leaves = st.one_of(
        st.builds(DistAtom, st.sampled_from(sorted(variables)), st.sampled_from(other_laws)),
        st.sampled_from([Top(), Bottom()]),
    )

    def operand(name):
        core = DistAtom(name, laws[name])
        op = draw(st.sampled_from([None, None, None, And, Or, Imp, Star]))
        return core if op is None else op(core, draw(leaves))

    first = draw(st.sampled_from(["X", "Y"]))
    second = draw(st.sampled_from(["Y", "X"]))
    return sp, variables, Star(operand(first), operand(second))


@given(psl_cases())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_random_stars_match_the_reference(case):
    sp, variables, phi = case
    assert psl_sat(sp, phi, variables).as_dict() == ref.psl_sat(sp, phi, variables).as_dict()
