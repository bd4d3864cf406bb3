import pytest

from presheaf_reference import (
    CompatibleFamily,
    SquareError,
    amalgamate,
    components,
    matching_object,
    validate_presheaf,
)
from sheafsep.errors import NotASheafError
from sheafsep.fincat import build_powerset_category
from sheafsep.presheaf import (
    Heap,
    amalgamation_operator,
    build_resource_sheaf,
    matching_presheaf,
)
from sheafsep.site import Sieve, build_coverage
from site_reference import trivial_coverage


@pytest.fixture(scope="module")
def worked_example():
    cat, _ = build_powerset_category(3)
    m = build_resource_sheaf(cat, "strict-memory", ("x1", "x2", "x3"), values=(-1, 3, 7, 9))
    return cat, m


def test_matching_object_member(worked_example):
    cat, m = worked_example
    u, x2 = 0b111, 0b010  # x1, x2, x3 are bits 0-2
    u1, u2 = 0b011, 0b110
    f, g = (u1, u), (u2, u)
    pullback = (x2, (x2, u1), (x2, u2))
    pairs = matching_object(m, u, f, g, pullback)
    s1 = Heap.of(("x1", "x2"), {"x1": 7, "x2": 3})
    s2 = Heap.of(("x2", "x3"), {"x2": 3, "x3": 9})
    assert (s1, s2) in pairs


def test_matching_object_non_member(worked_example):
    cat, m = worked_example
    u, x2 = 0b111, 0b010
    u1, u2 = 0b011, 0b110
    f, g = (u1, u), (u2, u)
    pullback = (x2, (x2, u1), (x2, u2))
    pairs = matching_object(m, u, f, g, pullback)
    s1 = Heap.of(("x1", "x2"), {"x1": 7, "x2": 3})
    s2_bad = Heap.of(("x2", "x3"), {"x2": -1, "x3": 9})
    assert (s1, s2_bad) not in pairs


def test_matching_object_diagonal_at_identity(worked_example):
    cat, m = worked_example
    u = 0b001
    f = cat.id(u)
    pairs = matching_object(m, u, f, f, (u, f, f))
    assert pairs == tuple((s, s) for s in m.at(u))


def test_matching_object_rejects_non_commuting_square(worked_example):
    cat, m = worked_example
    u = 0b111
    f, g = (0b011, u), (0b110, u)
    bad_pullback = (0, (0, 0b011), (0, 0b110))
    # square commutes but apex projections mistyped
    with pytest.raises(SquareError):
        matching_object(m, u, f, g, (0b010, (0b010, 0b011), (0, 0b110)))


def test_matching_classes_single_location():
    cat, _ = build_powerset_category(1)
    mp = build_resource_sheaf(cat, "partial-memory", "x", values=(0, 1))
    cov = build_coverage(cat, "downward-closed")
    match = matching_presheaf(mp, cov)
    assert len(match.at(0b01)) == len(mp.at(0b01)) == 3


def test_matching_classes_trivial_coverage():
    cat, _ = build_powerset_category(2)
    mp = build_resource_sheaf(cat, "partial-memory", "xy", values=(0, 1))
    cov = trivial_coverage(cat)
    match = matching_presheaf(mp, cov)
    for a in cat.objects:
        assert len(match.at(a)) == len(mp.at(a))


def test_matching_presheaf_is_functorial():
    cat, _ = build_powerset_category(2)
    mp = build_resource_sheaf(cat, "partial-memory", "xy", values=(0, 1))
    cov = build_coverage(cat, "downward-closed")
    match = matching_presheaf(mp, cov)
    assert validate_presheaf(match).ok


def test_class_restriction_matches_family_restriction():
    cat, _ = build_powerset_category(2)
    mp = build_resource_sheaf(cat, "partial-memory", "xy", values=(0, 1))
    cov = build_coverage(cat, "downward-closed")
    match = matching_presheaf(mp, cov)
    top = 0b11
    h = (0b01, top)
    for cls in match.at(top):
        restricted = match.restrict(h, cls)
        fam = cls.family()
        for leg, val in restricted.family().items():
            assert val == fam[cat.compose(h, leg)]


def test_amalgamation_operator_examples():
    cat, _ = build_powerset_category(2)
    mp = build_resource_sheaf(cat, "partial-memory", "xy", values=(0, 1))
    cov = build_coverage(cat, "downward-closed")
    iso = amalgamation_operator(mp, cov)
    assert iso.report.ok
    top = 0b11
    target = Heap.of("xy", {"x": 0, "y": 1})
    cls = components(iso.inverse, top)[target]
    assert components(iso.forward, top)[cls] == target
    # the class over the minimum cover restricts to the sigma_x / sigma_y legs
    fam = cls.family()
    assert fam[(0b01, top)] == Heap.of(("x",), {"x": 0})
    assert fam[(0b10, top)] == Heap.of(("y",), {"y": 1})


def test_amalgamation_operator_stagewise_bijection_three_locations():
    cat, _ = build_powerset_category(3)
    mp = build_resource_sheaf(cat, "partial-memory", "xyz", values=(0, 1))
    cov = build_coverage(cat, "downward-closed")
    iso = amalgamation_operator(mp, cov)
    assert iso.report.ok
    for a in cat.objects:
        assert len(iso.match.at(a)) == len(mp.at(a))


def test_amalgamation_operator_replays_no_compatibility_square():
    """Matching classes are enumerated families, compatible by
    construction, so the operator reads each amalgamation straight from
    the signature index; the reference `amalgamate`, which replays every
    square of the class's family, finds the same element."""
    cat, _ = build_powerset_category(3)
    mp = build_resource_sheaf(cat, "partial-memory", "xyz", values=(0, 1))
    cov = build_coverage(cat, "downward-closed")
    iso = amalgamation_operator(mp, cov)
    assert iso.report.ok
    assert sum(len(iso.match.at(a)) for a in cat.objects) == 64
    cls = next(iter(iso.match.at(0b111)))
    fam = CompatibleFamily.of(Sieve(cls.stage, frozenset(cls.cover_members)), cls.family())
    assert amalgamate(mp, fam) == components(iso.forward, cls.stage)[cls]


def test_amalgamation_operator_rejects_non_sheaf():
    cat, _ = build_powerset_category(2)
    sb = build_resource_sheaf(cat, "support-bounded", "xy", values=(0, 1), bound=1)
    cov = build_coverage(cat, "downward-closed")
    with pytest.raises(NotASheafError) as exc:
        amalgamation_operator(sb, cov)
    assert exc.value.report is not None and not exc.value.report.ok
