"""Differential tests of the exact-integer PSL star against the Fraction
reference in `psl_reference.py`: pair lists, component spaces,
marginals, verdicts and witnesses, plus the per-size pair table and the
absence of per-space state between calls."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
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
    return ref.discrete([Fraction(w, total) for w in weights])


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
    return ref.discrete([Fraction(w, space.denominator) for w in space.weights])


def engine_pairs(sp):
    """The engine's factorising pairs in the reference's shape."""
    search = psl._StarSearch()
    parts = psl._pair_table(sp.size)[0]
    out = []
    for i, key1, pairs in search.rows(psl._Space.scaled(sp)):
        c1 = search.component(key1)
        for j, key2 in pairs:
            c2 = search.component(key2)
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
    table_parts, rows, _ = psl._pair_table(n)
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


@pytest.mark.parametrize("n", range(1, DEFAULT_SPACE_BOUND + 1))
def test_every_row_of_the_pair_table_holds_the_trivial_partition(n):
    """The measure-free half of the lemma behind the row walk: every
    partition meets the one-block partition, so every partition has a
    row and every row holds it."""
    parts, rows, _ = psl._pair_table(n)
    trivial = [p for p, _ in parts].index((tuple(range(1, n + 1)),))
    assert [i for i, _ in rows] == list(range(len(parts)))
    assert all(trivial in [j for j, _ in row] for _, row in rows)


@pytest.mark.parametrize("name", sorted(SPACES))
def test_every_measurable_row_factorises_with_the_trivial_partition(name):
    """The measure half: the search walks exactly the measurable
    partitions' rows, and (i, trivial) factorises on each, with key (1,),
    so a row's left operand is read iff the partition is measurable."""
    sp = SPACES[name]
    parts = psl._pair_table(sp.size)[0]
    trivial = [p for p, _ in parts].index((tuple(range(1, sp.size + 1)),))
    walked = []
    for i, _, pairs in psl._StarSearch().rows(psl._Space.scaled(sp)):
        walked.append(i)
        assert (trivial, (1,)) in list(pairs)
    assert walked == [
        i for i, (p, _) in enumerate(parts) if all(ref.measurable(sp, b) for b in p)
    ]


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
            assert got == ref.psl_sat(sp, phi, variables), (sp, phi)
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
        assert psl_sat(sp, phi, variables) == ref.psl_sat(sp, phi, variables)


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
    sp = ref.uniform(2)
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


@pytest.fixture
def memoised_reference(monkeypatch):
    """The reference's pair lists, memoised for one test: it rebuilds them
    on every visit, so a nested star on six points would take seconds."""
    memo = {}
    pairs = ref.factorising_pairs

    def memoised(sp):
        if sp not in memo:
            memo[sp] = pairs(sp)
        return memo[sp]

    monkeypatch.setattr(ref, "factorising_pairs", memoised)


def grid_variables(sp):
    """X halves the points and Y counts them mod 3 (the psl workload's
    grid on six points), each with its true law, or a point mass where it
    is not measurable."""
    n = sp.size
    variables = {
        "X": RandomVariable(tuple(2 * i // n for i in range(n))),
        "Y": RandomVariable(tuple(i % 3 for i in range(n))),
    }
    atoms = {}
    for name, x in variables.items():
        try:
            atoms[name] = DistAtom(name, tuple(sorted(law_of(x, sp).items())))
        except NotMeasurableError:
            atoms[name] = DistAtom(name, ((x.values[0], Fraction(1)),))
    return variables, atoms["X"], atoms["Y"]


def star_shapes(a, b):
    """Stars whose operands are F, T, atoms or nested stars on either
    side, and stars whose left operand fails on every partition."""
    never = DistAtom("X", ((-1, Fraction(1)),))  # X takes no negative value
    ab = Star(a, b)
    return [
        Star(Bottom(), Top()), Star(Top(), Bottom()), Star(Top(), Top()), Star(Bottom(), Bottom()),
        ab, Star(b, a), Star(a, Bottom()), Star(Top(), a),
        Star(ab, Top()), Star(Top(), ab), Star(ab, Bottom()), Star(Bottom(), ab),
        Star(ab, Star(b, a)), Star(Star(a, Top()), b),
        Star(never, Top()), Star(never, ab), Star(And(a, never), b),
    ]


@pytest.mark.parametrize("name", sorted(SPACES))
def test_star_shapes_match_the_reference(name, memoised_reference):
    sp = SPACES[name]
    variables, a, b = grid_variables(sp)
    for phi in star_shapes(a, b):
        got = psl_sat(sp, phi, variables)
        assert got == ref.psl_sat(sp, phi, variables), (name, phi)


def search(sp, phi, variables):
    """The verdict of phi on sp, the search memo that gave it and the
    resolved formula, set up as `psl_sat` sets them up."""
    positions = {}
    phi = psl._resolve(phi, variables, positions)
    values = tuple(variables[name].values for name in positions)
    memo = psl._StarSearch()
    return memo.holds(phi, psl._Space.scaled(sp), values), memo, phi


SIX_POINTS = ["uniform-6", "product-6", "random-6", "correlated-6"]


@pytest.mark.parametrize("name", SIX_POINTS)
def test_a_left_operand_that_never_holds_compares_no_pair(name):
    held, memo, _ = search(SPACES[name], Star(Bottom(), Top()), {})
    assert not held and memo.compared == 0


@pytest.mark.parametrize("name", SIX_POINTS)
def test_a_star_of_truths_compares_one_pair(name):
    """(discrete, trivial) is the first pair in search order."""
    held, memo, _ = search(SPACES[name], Star(Top(), Top()), {})
    assert held and memo.compared == 1


@pytest.mark.parametrize("name, lazy, eager", [("random-6", 25, 7216), ("correlated-6", 25, 5214)])
def test_a_nested_star_compares_a_tenth_of_the_eager_pairs(name, lazy, eager):
    """Deterministic work gate: `((X ~ mu) * (Y ~ nu)) * T` with the true
    laws, where X and Y are dependent.  The eager walk read the inner
    star on the component of every measurable row and compared every
    pair with measurable margins on each space it evaluated a star at.
    The walk by persistence reads the inner star only on rows that
    refine X's fibres and skips the coarsenings of every inner partition
    whose Y atom fails."""
    sp = SPACES[name]
    variables, a, b = grid_variables(sp)
    held, memo, _ = search(sp, Star(Star(a, b), Top()), variables)
    assert not held
    full = psl._StarSearch()
    top = psl._Space.scaled(sp)
    reached = {top} | {full.component(key) for _, key, _ in full.rows(top)}
    for space in reached:
        for _, _, pairs in full.rows(space):
            for _ in pairs:
                pass
    assert (memo.compared, full.compared) == (lazy, eager)
    assert 10 * memo.compared <= full.compared


def shifted(atom):
    """The atom with a law of the same support that differs from its own."""
    law = dict(atom.law())
    (a, p), (b, q) = list(law.items())[:2]
    law[a], law[b] = p - min(p, q) / 2, q + min(p, q) / 2
    return DistAtom(atom.var, tuple(sorted(law.items())))


@pytest.mark.parametrize("name", SIX_POINTS)
def test_a_right_atom_with_a_wrong_law_compares_no_pair(name):
    """Work gate: the right atom is read on the finest partition when the
    walk first reaches a row whose left atom holds, before any of its
    cells; it fails there, so no pair exists (the walk without
    persistence compared 49 pairs on each of these measures)."""
    variables, a, b = grid_variables(SPACES[name])
    held, memo, _ = search(SPACES[name], Star(a, shifted(b)), variables)
    assert not held and memo.compared == 0


@pytest.mark.parametrize(
    "name, reads", [("uniform-6", 20), ("product-6", 25), ("random-6", 34), ("correlated-6", 29)]
)
def test_a_failing_left_atom_rules_out_its_coarsenings(name, reads):
    """Work gate: the left atom of `(X ~ mu) * (Y ~ nu)` is read `reads`
    times over the 203 rows (once per distinct component and variables),
    since a row where it fails rules out every coarsening of that row.
    Without persistence the walk made 35, 66, 180 and 91 reads."""
    variables, a, b = grid_variables(SPACES[name])
    _, memo, phi = search(SPACES[name], Star(a, b), variables)
    assert sum(1 for key, _, _ in memo.truth if key == id(phi.left)) == reads


def test_a_failing_right_atom_rules_out_its_coarsenings():
    """Work gate: on the uniform measure with the grid's points relabelled
    (as the psl workload relabels them), `(X ~ mu) * (Y ~ nu)` compares
    17 pairs, since an inner partition where the Y atom fails rules out
    its coarsenings; ruling out only that partition compares 25."""
    sp = SPACES["uniform-6"]
    variables = {"X": RandomVariable((0, 1, 0, 1, 0, 1)), "Y": RandomVariable((0, 1, 2, 2, 1, 0))}
    a, b = (DistAtom(name, tuple(sorted(law_of(x, sp).items()))) for name, x in variables.items())
    held, memo, _ = search(sp, Star(a, b), variables)
    assert held and memo.compared == 17


def test_an_implication_is_not_persistent():
    """`A -> F` holds where X does not descend and fails where it does, so
    its truth does not carry to finer partitions: were `->` counted as
    persistent, the left operand would fail on the discrete partition
    and the star would answer false."""
    phi = parse_formula("(X ~ {0: 1/2, 1: 1/2} -> F) * T")
    variables = {"X": RandomVariable((0, 0, 1, 1))}
    got = psl_sat(ref.uniform(4), phi, variables)
    assert got.result and got.witness["blocks1"] == [[1], [2, 3], [4]]
    assert got == ref.psl_sat(ref.uniform(4), phi, variables)


@pytest.mark.parametrize("sp, variables, text, blocks", [
    # a right operand with `->` fails on the discrete partition and holds on
    # a coarsening of it: only the failing partition itself is ruled out
    (weighted(1, 0, 0), {"X": RandomVariable((1, 0, 1)), "Y": RandomVariable((0, 1, 1))},
     "T * ((Y ~ {0: 1} -> X ~ {1: 1}) -> F)", ([[1, 2, 3]], [[1], [2, 3]])),
    # on a coarse space a row whose left atom fails rules out its
    # coarsenings, and no row next to them in search order
    (ProbSpace.of(4, [(1, 4), (2,), (3,)], [Fraction(1, 3), Fraction(2, 3), Fraction(0)]),
     {"Y": RandomVariable((1, 1, 0, 1))}, "(Y ~ {1: 1}) * T", ([[1, 2, 4], [3]], [[1, 2, 3, 4]])),
])
def test_a_ruled_out_partition_holds_only_a_failing_operand(sp, variables, text, blocks):
    phi = parse_formula(text)
    got = psl_sat(sp, phi, variables)
    assert (got.witness["blocks1"], got.witness["blocks2"]) == blocks
    assert got == ref.psl_sat(sp, phi, variables)


def test_a_persistent_operand_is_read_on_the_finest_partition_first():
    """Work gate on a space whose finest measurable partition comes last
    in search order: an atom that fails everywhere is read once, on the
    space's own blocks, on either side of the star, and no pair is
    compared."""
    sp = SPACES["coarse-6-interleaved"]
    variables = {"X": RandomVariable((0, 0, 0, 1, 1, 1))}
    never = DistAtom("X", ((-1, Fraction(1)),))
    for phi in (Star(never, Top()), Star(Top(), never)):
        held, memo, resolved = search(sp, phi, variables)
        atom = resolved.left if isinstance(phi.left, DistAtom) else resolved.right
        assert not held and memo.compared == 0
        assert sum(1 for key, _, _ in memo.truth if key == id(atom)) == 1


def finer(q, p):
    """Whether partition q refines partition p."""
    return all(any(set(b) <= set(a) for a in p) for b in q)


@pytest.mark.parametrize("n", range(1, DEFAULT_SPACE_BOUND + 1))
def test_coarsenings_match_brute_force(n):
    parts, _, coarser = psl._pair_table(n)
    for k, (fine, _) in enumerate(parts):
        assert coarser[k] == sum(
            1 << c for c, (coarse, _) in enumerate(parts) if finer(fine, coarse)
        )


def random_space(rng, n):
    """A space on n points with random blocks and integer weights in 0-3,
    zero masses included."""
    labels = [rng.randrange(n) for _ in range(n)] if rng.random() < 0.5 else range(n)
    blocks = {}
    for point, label in enumerate(labels, start=1):
        blocks.setdefault(label, []).append(point)
    weights = [rng.randrange(4) for _ in blocks]
    weights[0] += not any(weights)
    return ProbSpace.of(n, blocks.values(), [Fraction(w, sum(weights)) for w in weights])


@pytest.mark.parametrize("n", range(1, DEFAULT_SPACE_BOUND + 1))
def test_the_cells_outside_the_last_row_and_column_decide_a_pair(n):
    """`_factorises` against the full r·c cell test on every pair of the
    table, under uniform, product and random measures with zero masses
    and coarse blocks."""
    rng = random.Random(n)
    spaces = [ref.uniform(n), weighted(*(2 ** (i % 2) * 3 ** (i % 3) for i in range(n)))]
    spaces += [random_space(rng, n) for _ in range(30)]
    parts, rows, _ = psl._pair_table(n)
    verdicts = set()
    for sp in spaces:
        space = psl._Space.scaled(sp)
        mass, d = space.masses(), space.denominator
        cell = {u: m * d for u, m in mass.items()}.get
        margins = [[mass.get(m) for m in masks] for _, masks in parts]
        for i, row in rows:
            for j, grid in row:
                m1, m2 = margins[i], margins[j]
                if None in m1 or None in m2:
                    continue
                full = all(cell(g) == a * b for g, (a, b) in zip(grid, itertools.product(m1, m2)))
                assert psl._factorises(grid, m1, m2, cell) == full, (sp, parts[i][0], parts[j][0])
                verdicts.add(full)
    # below four points every meeting pair has a one-block side, which factorises
    assert verdicts == ({True, False} if n >= 4 else {True})


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
    ref.uniform(2)
    assert len(built) == 1  # the counter sees a construction


@st.composite
def psl_cases(draw):
    """A space of two to five points (random blocks, zero masses
    allowed), two variables, and a top-level star whose operands mostly
    centre on one variable's atom, with its true law where it has one,
    so that most stars ask whether the two variables are independent.
    An operand may also be T, F, a nested star with the atom on either
    side, or an atom that fails on every partition."""
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
        shape = draw(st.sampled_from(["atom", "atom", "atom", "op", "op", "T", "F", "never"]))
        if shape == "atom":
            return core
        if shape == "op":  # a connective or a nested star, the atom on either side
            op, leaf = draw(st.sampled_from([And, Or, Imp, Star, Star])), draw(leaves)
            return op(core, leaf) if draw(st.booleans()) else op(leaf, core)
        # "never" fails on every partition: the variables take only 0 and 1
        return {"T": Top(), "F": Bottom(), "never": DistAtom(name, ((-1, Fraction(1)),))}[shape]

    first = draw(st.sampled_from(["X", "Y"]))
    second = draw(st.sampled_from(["Y", "X"]))
    return sp, variables, Star(operand(first), operand(second))


@given(psl_cases())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_random_stars_match_the_reference(case):
    sp, variables, phi = case
    assert psl_sat(sp, phi, variables) == ref.psl_sat(sp, phi, variables)


@st.composite
def persistence_cases(draw):
    """A space of two to six points (random blocks, zero masses allowed),
    two variables, and a formula built from atoms, T and F by /\\, \\/ and
    stars, with `->` allowed inside a star only."""
    n = draw(st.integers(2, 6))
    labels = list(range(n))
    if draw(st.booleans()):
        labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    blocks = {}
    for point, label in enumerate(labels, start=1):
        blocks.setdefault(label, []).append(point)
    weights = draw(st.lists(st.sampled_from([1, 2, 0]), min_size=len(blocks),
                            max_size=len(blocks)))
    weights[0] += not any(weights)
    sp = ProbSpace.of(n, blocks.values(), [Fraction(w, sum(weights)) for w in weights])
    variables = {
        name: RandomVariable(tuple(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))))
        for name in ("X", "Y")
    }
    atoms = []
    for name, x in variables.items():
        for values in ((0,), (1,), (0, 1)):  # point masses and the uniform law
            atoms.append(DistAtom(name, tuple((v, Fraction(1, len(values))) for v in values)))
        try:
            atoms.append(DistAtom(name, tuple(sorted(law_of(x, sp).items()))))
        except NotMeasurableError:
            pass

    def formula(depth, persistent):  # a connective at the top
        if depth == 0 or depth < 3 and draw(st.integers(0, 2)) == 0:
            return draw(st.sampled_from([*atoms, Top(), Bottom()]))
        op = draw(st.sampled_from([And, Or, Star] if persistent else [And, Or, Imp, Star]))
        inner = persistent and op is not Star
        return op(formula(depth - 1, inner), formula(depth - 1, inner))

    return sp, variables, formula(3, True)


@given(persistence_cases())
@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_truth_persists_to_finer_partitions(memoised_reference, case):
    """The persistence lemma on the reference semantics: a formula with no
    `->` outside a star that holds on the component of a measurable
    partition holds on the component of every finer measurable one."""
    sp, variables, phi = case
    measurable = [
        p for p in set_partitions(range(1, sp.size + 1))
        if all(ref.measurable(sp, b) for b in p)
    ]
    held = [
        p for p in measurable
        if ref.psl_sat(ref.discrete([ref.mass(sp, b) for b in p]), phi,
                       ref.descend_variables(variables, p)).result
    ]
    for p in held:
        assert all(q in held for q in measurable if finer(q, p)), (sp, phi, p)
