"""Differential tests: the bitmask site core against the frozenset-level
reference in `site_reference`."""

import pytest

import site_reference as ref
from sheafsep.errors import BudgetExceededError, CoverageKindError
from sheafsep.fincat import bits, build_finsurj_category, build_powerset_category
from sheafsep.site import (
    Coverage,
    Sieve,
    _pull,
    build_coverage,
    sieve_masks,
    validate_coverage,
)

KINDS = ("downward-closed", "finite-covers")


def _violations(rep):
    return [(v.kind, v.detail) for v in rep.violations]


def _sieves(cat, a):
    """Every sieve on a, as `SieveMasks.all` lists them."""
    sm = sieve_masks(cat)
    return [sm.sieve(a, m) for m in sm.all(a)]


def assert_same_covers(cov, expected):
    assert cov.cat.objects == expected.cat.objects
    for a in cov.cat.objects:
        assert cov.covers(a) == expected.covers(a)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_powerset_coverage_agrees(n, kind):
    cat, _ = build_powerset_category(n)
    cov = build_coverage(cat, kind)
    assert_same_covers(cov, ref.build_coverage(cat, kind))
    assert _violations(validate_coverage(cat, cov)) == []
    if n <= 3:
        assert _violations(ref.validate_coverage(cat, cov)) == []
        for a in cat.objects:
            assert _sieves(cat, a) == ref.all_sieves(cat, a)


@pytest.mark.parametrize("kind", KINDS + ("atomic",))
def test_cover_counts_are_the_enumerated_counts(kind):
    """`Coverage.count` of the lub coverages is the closed form
    sum_k (-1)^k C(n, k) M(n - k), less 1 at n = 0 (M the Dedekind
    numbers), which is 1, 1, 2, 9 and 114 at 0-4 locations; it equals the
    number of covers enumerated at every stage of 0-4 locations, and on
    the atomic coverage it counts the covers it builds.  Counting builds
    no cover on the lub kinds."""
    for n in range(5):
        cat, _ = build_powerset_category(n)
        cov = build_coverage(cat, kind)
        counts = [cov.count(a) for a in cat.objects]
        if kind != "atomic":
            assert cov._covers == {}
            assert counts[-1] == (1, 1, 2, 9, 114)[n]
            assert sum(counts) == (1, 2, 5, 19, 167)[n]
        assert counts == [len(cov.covers(a)) for a in cat.objects]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_finsurj_coverages_agree(n):
    cat, _ = build_finsurj_category(n)
    enumerable = [a for a in cat.objects if len(cat.mors_into(a)) <= ref.SIEVE_ENUM_LIMIT]
    for a in enumerable:
        assert _sieves(cat, a) == ref.all_sieves(cat, a)
    for a in set(cat.objects) - set(enumerable):
        with pytest.raises(BudgetExceededError) as got:
            _sieves(cat, a)
        with pytest.raises(BudgetExceededError) as want:
            ref.all_sieves(cat, a)
        assert str(got.value) == str(want.value)
    if n <= 2:
        cov = build_coverage(cat, "atomic")
        assert_same_covers(cov, ref.build_coverage(cat, "atomic"))
        assert _violations(validate_coverage(cat, cov)) == []
    else:
        with pytest.raises(CoverageKindError):
            build_coverage(cat, "atomic")
    triv = ref.trivial_coverage(cat)
    if len(enumerable) == len(cat.objects):
        assert _violations(validate_coverage(cat, triv)) == _violations(
            ref.validate_coverage(cat, triv))
    else:
        with pytest.raises(BudgetExceededError) as got:
            validate_coverage(cat, triv)
        with pytest.raises(BudgetExceededError) as want:
            ref.validate_coverage(cat, triv)
        assert str(got.value) == str(want.value)


def assert_same_reports(cat, cov):
    assert _violations(validate_coverage(cat, cov)) == _violations(ref.validate_coverage(cat, cov))


@pytest.mark.parametrize("kind", KINDS)
def test_slice_coverages_agree_at_every_stage(kind):
    """On slice sites, whose objects are morphisms, the replay finds what
    its reference finds: nothing."""
    cat, _ = build_powerset_category(3)
    cov = build_coverage(cat, kind)
    for a in cat.objects:
        scov = ref.slice_coverage(cov, a)
        assert_same_reports(scov.cat, scov)
        assert _violations(validate_coverage(scov.cat, scov)) == []


def test_atomic_slice_coverages_agree():
    cat, _ = build_finsurj_category(2)
    cov = build_coverage(cat, "atomic")
    for a in cat.objects:
        scov = ref.slice_coverage(cov, a)
        assert_same_reports(scov.cat, scov)


def test_pullbacks_agree():
    cat, _ = build_powerset_category(3)
    fcat, _ = build_finsurj_category(3)
    for c in (cat, fcat):
        sm = sieve_masks(c)
        for a in c.objects:
            for s in ref.all_sieves(c, a):
                for h in c.mors_into(a):
                    pb = _pull(sm.pull(h), sm.mask(a, s.members))
                    assert sm.sieve(c.src(h), pb) == ref.pullback_sieve(c, s, h)


def _points(cat, a):
    """The sieve on a stage that its one-location substages generate."""
    return ref.generate_sieve(cat, a, [(1 << i, a) for i in bits(a)])


def _precover_fixtures():
    """The generated covers of tests/test_site.py, and the points of every
    stage of at least two locations at three locations."""
    cat2, _ = build_powerset_category(2)
    cat3, _ = build_powerset_category(3)
    return [
        (cat2, {}),
        (cat2, {0b11: [_points(cat2, 0b11)]}),
        (cat3, {}),
        (cat3, {a: [_points(cat3, a)] for a in cat3.objects if a.bit_count() >= 2}),
    ]


@pytest.mark.parametrize("case", range(4))
def test_saturation_agrees(case):
    """The replay and its reference agree on saturated coverages: both
    find nothing."""
    cat, generated = _precover_fixtures()[case]
    cov = ref.saturate(cat, generated)
    assert_same_reports(cat, cov)
    assert _violations(validate_coverage(cat, cov)) == []


def _tampered():
    """The broken coverages of tests/test_site.py and a few more, by name."""
    cat2, _ = build_powerset_category(2)
    dc2 = build_coverage(cat2, "downward-closed")
    top = 0b11  # {x, y}
    gen = ref.generate_sieve(cat2, top, [(0b01, top), (0b10, top)])
    cases = {}
    broken = {a: {s for s in dc2.by_object[a] if s != ref.maximal_sieve(cat2, a)}
              for a in cat2.objects}
    cases["missing-maximal"] = (cat2, Coverage(cat2, broken))
    broken = {a: set(dc2.by_object[a]) for a in cat2.objects}
    broken[0b01].discard(ref.pullback_sieve(cat2, gen, (0b01, top)))
    cases["missing-pullback"] = (cat2, Coverage(cat2, broken))
    broken = {a: set(dc2.by_object[a]) for a in cat2.objects}
    broken[0b01].add(ref.maximal_sieve(cat2, 0b10))
    cases["misfiled"] = (cat2, Coverage(cat2, broken))
    broken = {a: set(dc2.by_object[a]) for a in cat2.objects}
    broken[top].add(Sieve(top, frozenset(cat2.hom(0b01, top))))
    cases["not-a-sieve"] = (cat2, Coverage(cat2, broken))
    broken = {a: set(dc2.by_object[a]) for a in cat2.objects}
    broken[top].discard(ref.maximal_sieve(cat2, top))
    foreign = ref.maximal_sieve(cat2, top).members | set(cat2.hom(0, 0b01))
    broken[top].add(Sieve(top, foreign))
    cases["foreign-member"] = (cat2, Coverage(cat2, broken))
    cat3, _ = build_powerset_category(3)
    dc3 = build_coverage(cat3, "downward-closed")
    top3 = 0b111
    points = _points(cat3, top3)
    broken = {a: set(dc3.by_object[a]) for a in cat3.objects}
    broken[top3].discard(points)
    cases["transitivity-only"] = (cat3, Coverage(cat3, broken))
    broken = {a: set(dc3.by_object[a]) for a in cat3.objects}
    broken[top3] = {ref.maximal_sieve(cat3, top3), points}
    cases["top-points-only"] = (cat3, Coverage(cat3, broken))
    return cases


@pytest.mark.parametrize("name", sorted(_tampered()))
def test_tampered_reports_agree(name):
    cat, cov = _tampered()[name]
    got = _violations(validate_coverage(cat, cov))
    assert got
    assert got == _violations(ref.validate_coverage(cat, cov))


@pytest.mark.parametrize("name", ["misfiled", "not-a-sieve", "foreign-member"])
def test_slices_of_tampered_coverages_agree(name):
    """The replay and its reference agree on the slices of broken
    coverages, whose covers are the base covers that are sieves."""
    cat, cov = _tampered()[name]
    for a in cat.objects:
        scov = ref.slice_coverage(cov, a)
        assert_same_reports(scov.cat, scov)
