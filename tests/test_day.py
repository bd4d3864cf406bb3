import pytest

import day_reference as ref
from presheaf_reference import constant, morphism, terminal, validate_presheaf, yoneda
from sheafsep.day import (
    Decomp,
    build_memory_monoid,
    check_day_stability,
    check_monoid_laws,
    day_coend,
    day_decomp,
    splittings,
)
from sheafsep.fincat import (
    MonoidalStructure,
    bits,
    build_finsurj_category,
    build_powerset_category,
)
from sheafsep.presheaf import Heap, build_resource_sheaf
from sheafsep.site import Site, build_coverage
from site_reference import trivial_coverage


@pytest.fixture(scope="module")
def pset1():
    cat, mon = build_powerset_category(1)
    return cat, mon


@pytest.fixture(scope="module")
def pset2():
    cat, mon = build_powerset_category(2)
    return cat, mon


@pytest.fixture(scope="module")
def mp1(pset1):
    cat, _ = pset1
    return build_resource_sheaf(cat, "partial-memory", "x", values=(0, 1))


@pytest.fixture(scope="module")
def mp2(pset2):
    cat, _ = pset2
    return build_resource_sheaf(cat, "partial-memory", "xy", values=(0, 1))


def brute_decomp_count(mp, stage_pairs):
    """Independent oracle: sum |F(B)| * |F(C)| over the decompositions."""
    return sum(len(mp.at(b)) * len(mp.at(c)) for b, c in stage_pairs)


def test_decomp_count_single_location(pset1, mp1):
    cat, mon = pset1
    d = day_decomp(mp1, mp1, mon)
    pairs = [(0b01, 0), (0, 0b01), (0b01, 0b01)]
    assert len(d.at(0b01)) == brute_decomp_count(mp1, pairs) == 15


def test_decomp_with_yoneda_unit(pset2, mp2):
    cat, mon = pset2
    yo_empty = yoneda(cat, 0)
    d = day_decomp(mp2, yo_empty, mon)
    for a in cat.objects:
        # hom(U, empty) is nonempty iff U is empty, so only (A, ()) decomposes
        assert len(d.at(a)) == len(mp2.at(a))


def test_decomp_yoneda_square(pset1):
    cat, mon = pset1
    yo_x = yoneda(cat, 0b01)
    d = day_decomp(yo_x, yo_x, mon)
    assert len(d.at(0b01)) == 3


def test_decomp_is_presheaf(pset2, mp2):
    cat, mon = pset2
    d = day_decomp(mp2, mp2, mon)
    assert validate_presheaf(d).ok


def test_decomp_restriction_recanonicalises(pset2, mp2):
    cat, mon = pset2
    d = day_decomp(mp2, mp2, mon)
    top = 0b11
    el = Decomp(
        top,
        0b01,
        0b10,
        Heap.of(("x",), {"x": 0}),
        Heap.of(("y",), {"y": 1}),
    )
    assert el in d.at(top)
    restricted = d.restrict((0b01, top), el)
    assert restricted.left_stage == 0b01 and restricted.right_stage == 0


def test_coend_yoneda_square_collapses(pset1):
    cat, mon = pset1
    yo_x = yoneda(cat, 0b01)
    c = day_coend(yo_x, yo_x, mon)
    assert len(c.at(0b01)) == 1


@pytest.mark.parametrize("n_locs", [2, 3])
def test_coend_yoneda_strong_monoidality(n_locs):
    """y(a) (x) y(b) has the stage sizes of y(a u b), empty stages
    included: representables are not flabby, so unlike the memory
    sheaves their coends are not terminal."""
    cat, mon = build_powerset_category(n_locs)
    yo = {a: yoneda(cat, a) for a in cat.objects}
    for a in cat.objects:
        for b in cat.objects:
            c = day_coend(yo[a], yo[b], mon)
            for v in cat.objects:
                assert len(c.at(v)) == len(yo[mon.tensor(a, b)].at(v))


def test_coend_unit_law(pset2, mp2):
    cat, mon = pset2
    yo_empty = yoneda(cat, 0)
    c = day_coend(mp2, yo_empty, mon)
    for a in cat.objects:
        assert len(c.at(a)) == len(mp2.at(a))


def test_coend_is_presheaf(pset2, mp2):
    cat, mon = pset2
    c = day_coend(mp2, mp2, mon)
    assert validate_presheaf(c).ok


def test_quotient_map_surjective_and_natural(pset2, mp2):
    cat, mon = pset2
    d = day_decomp(mp2, mp2, mon)
    c = day_coend(mp2, mp2, mon)
    for a in cat.objects:
        images = {c.class_of(el) for el in d.at(a)}
        assert images == set(c.at(a))
    for h in cat.all_morphisms():
        for el in d.at(cat.dst(h)):
            assert c.class_of(d.restrict(h, el)) == c.restrict(h, c.class_of(el))


def test_coend_restriction_well_defined_on_classes(pset2, mp2):
    """Restriction is representative-independent: every witnessed triple
    of a class restricts into the same class."""
    cat, mon = pset2
    c = day_coend(mp2, mp2, mon)
    for h in cat.all_morphisms():
        a = cat.dst(h)
        for t in ref.coend_triples(cat, mon, mp2, mp2, a):
            moved = Decomp(
                cat.src(h), t.left_stage, t.right_stage, t.left, t.right,
                witness=cat.compose(t.witness, h),
            )
            assert c.class_of(moved) == c.restrict(h, c.class_of(t))


def test_coend_budget_exceeded(pset2, mp2):
    from sheafsep.errors import BudgetExceededError

    cat, mon = pset2
    c = day_coend(mp2, mp2, mon, budget=3)
    with pytest.raises(BudgetExceededError):
        c.at(0b11)


def test_total_mult_not_dinatural(pset1, mp1):
    """The documented witness: conflicting pair and its coend-equal
    singleton pair multiply to different heaps."""
    cat, mon = pset1
    c = day_coend(mp1, mp1, mon)
    monoid = build_memory_monoid(mp1, "total")
    s1 = Heap.of(("x",), {"x": 0})
    s2 = Heap.of(("x",), {"x": 1})
    d_conflict = Decomp(0b01, 0b01, 0b01, s1, s2)
    d_single = Decomp(0b01, 0b01, 0, s1, Heap((), ()))
    assert c.class_of(d_conflict) == c.class_of(d_single)
    assert ref.apply(monoid, d_conflict) == Heap.of(("x",), {"x": None})
    assert ref.apply(monoid, d_single) == Heap.of(("x",), {"x": 0})
    assert ref.apply(monoid, d_conflict) != ref.apply(monoid, d_single)


def test_memory_monoid_total_conflict(pset1, mp1):
    monoid = build_memory_monoid(mp1, "total")
    d = Decomp(0b01, 0b01, 0b01, Heap.of(("x",), {"x": 0}), Heap.of(("x",), {"x": 1}))
    assert ref.apply(monoid, d) == Heap.of(("x",), {"x": None})


def test_memory_monoid_disjoint_union_all_variants(pset2, mp2):
    d = Decomp(
        0b11,
        0b01,
        0b10,
        Heap.of(("x",), {"x": 0}),
        Heap.of(("y",), {"y": 1}),
    )
    expected = Heap.of(("x", "y"), {"x": 0, "y": 1})
    for variant in ("total", "weak-partial", "strong-partial"):
        assert ref.apply(build_memory_monoid(mp2, variant), d) == expected


def test_memory_monoid_strong_rejects_overlap(pset1, mp1):
    monoid = build_memory_monoid(mp1, "strong-partial")
    s = Heap.of(("x",), {"x": 0})
    assert ref.apply(monoid, Decomp(0b01, 0b01, 0b01, s, s)) is None


def test_memory_monoid_weak_accepts_agreeing_overlap(pset1, mp1):
    monoid = build_memory_monoid(mp1, "weak-partial")
    s = Heap.of(("x",), {"x": 0})
    assert ref.apply(monoid, Decomp(0b01, 0b01, 0b01, s, s)) == s


def test_monoid_laws_all_variants(pset2, mp2):
    cat, mon = pset2
    for variant in ("total", "weak-partial", "strong-partial"):
        rep = check_monoid_laws(build_memory_monoid(mp2, variant), mon)
        assert rep.ok, rep.violations


def test_strong_associativity_shared_location_bothsides_undefined(pset1, mp1):
    cat, mon = pset1
    monoid = build_memory_monoid(mp1, "strong-partial")
    s = Heap.of(("x",), {"x": 0})
    st = ref.apply(monoid, Decomp(0b01, 0b01, 0b01, s, s))
    assert st is None  # and so both bracketings of s.s.s are undefined


def test_day_stability_powerset(pset2, mp2):
    cat, mon = pset2
    cov = build_coverage(cat, "downward-closed")
    site = Site(cat, cov, mon)
    m = build_resource_sheaf(cat, "strict-memory", "xy", values=(0, 1))
    yo_x = yoneda(cat, 0b01)
    strict_into_partial = morphism(
        m, mp2, {a: {h: h for h in m.at(a)} for a in cat.objects}, name="M>->Mp"
    )
    rep = check_day_stability(site, [m, mp2, yo_x], inclusions=[strict_into_partial])
    assert rep.ok, rep.violations


def test_day_stability_flags_injected_non_mono(pset2, mp2):
    cat, mon = pset2
    cov = build_coverage(cat, "downward-closed")
    site = Site(cat, cov, mon)
    collapse = morphism(mp2, mp2, {
        a: {h: Heap.of(h.locations, dict.fromkeys(h.locations)) for h in mp2.at(a)}
        for a in cat.objects
    }, name="collapse")
    rep = check_day_stability(site, [mp2], inclusions=[collapse])
    kinds = [v.kind for v in rep.violations]
    assert "mono" in kinds or "mono-preservation" in kinds


def test_day_stability_counts_a_repeated_element_once(pset2, mp2):
    """An element given twice is listed once, so a map injective on
    elements is a mono and one that merges elements is not."""
    cat, mon = pset2
    site = Site(cat, build_coverage(cat, "downward-closed"), mon)
    twice = constant(cat, (1, 0, 1))
    pair = constant(cat, (0, 1))
    one = constant(cat, (0,))
    ident = morphism(twice, pair, {a: {0: 0, 1: 1} for a in cat.objects}, name="dedupe")
    assert check_day_stability(site, [mp2], inclusions=[ident]).ok
    squash = morphism(twice, one, {a: {0: 0, 1: 0} for a in cat.objects}, name="squash")
    kinds = [v.kind for v in check_day_stability(site, [mp2], inclusions=[squash]).violations]
    assert "mono" in kinds and "mono-preservation" in kinds


def test_apply_is_the_cell_rule_on_one_stage(pset2, mp2):
    """`ResourceMonoid.apply` against the reference product of two heaps
    over the same locations, for every pair at every stage."""
    cat, _ = pset2
    for variant in ("total", "weak-partial", "strong-partial"):
        monoid = build_memory_monoid(mp2, variant)
        for a in cat.objects:
            for s in mp2.at(a):
                for t in mp2.at(a):
                    want = ref.apply(monoid, Decomp(a, a, a, s, t))
                    got = monoid.apply(s.values, t.values)
                    assert got == (None if want is None else want.values), (variant, s, t)


def test_day_stability_finsurj_two():
    from sheafsep.fincat import build_finsurj_category

    cat, mon = build_finsurj_category(2)
    cov = build_coverage(cat, "atomic")
    site = Site(cat, cov, mon)
    yo1 = yoneda(cat, 1)
    term = terminal(cat)
    rep = check_day_stability(site, [yo1, term])
    assert rep.ok, rep.violations


def test_day_stability_requires_gamma_witness():
    """gamma is the tensor on morphisms, so a base whose tensor has no
    entry on the identity pair has no gamma there: a violation, not an
    error."""
    from sheafsep.fincat import FinCat

    cat = FinCat(
        "custom",
        ("a",),
        {("a", "a"): (("id", "a"),)},
        {((("id", "a")), ("id", "a")): ("id", "a")},
        {"a": ("id", "a")},
    )
    mon = MonoidalStructure({("a", "a"): "a"}, {}, unit="a", symmetric=True)
    rep = check_day_stability(Site(cat, trivial_coverage(cat), mon), [])
    assert [v.kind for v in rep.violations] == ["gamma"]


def _with_tensor(mon, pair, value):
    """`mon` with the tensor sending `pair` to `value`, or without an
    entry for `pair` when `value` is None."""
    table = dict(mon.tensor_mor)
    if value is None:
        del table[pair]
    else:
        table[pair] = value
    return MonoidalStructure(mon.tensor_obj, table, unit=mon.unit, symmetric=mon.symmetric)


def _gamma_of(mon):
    """gamma read off the tensor: p (x) q on slice objects, and
    ("tri", g1 (x) g2, q1 (x) q2, p1 (x) p2) on slice morphisms; None
    where the tensor has no entry."""

    def on_obj(p, q):
        return mon.tensor_mor.get((p, q))

    def on_mor(m1, m2):
        parts = [on_obj(x, y) for x, y in zip(m1[1:], m2[1:])]
        return None if None in parts else ("tri", *parts)

    return on_obj, on_mor


def _gamma_cases():
    """Clean tensors on powerset(1..3) and finsurj(1..3), and powerset(2)
    tensors with one entry mistyped, one missing, and the identity pair
    sent to a non-identity."""
    cases = {}
    for n in (1, 2, 3):
        cases[f"powerset{n}"] = build_powerset_category(n)
    for n in (1, 2, 3):
        cases[f"finsurj{n}"] = build_finsurj_category(n)
    cat, mon = build_powerset_category(2)
    x, y, xy = 0b01, 0b10, 0b11
    pair = ((0, x), cat.id(y))
    cases["mistyped"] = (cat, _with_tensor(mon, pair, cat.id(xy)))
    cases["undefined"] = (cat, _with_tensor(mon, pair, None))
    cases["identity"] = (cat, _with_tensor(mon, (cat.id(x), cat.id(y)), (0, xy)))
    return cases


GAMMA_CASES = _gamma_cases()


@pytest.mark.parametrize("name", sorted(GAMMA_CASES))
def test_gamma_certificate_reports_as_the_replay(name):
    """Condition (3) reads gamma's functoriality off the tensor's.  Its
    verdict is the replay's over every pair of slice morphisms and their
    precomposites, with gamma read off the same tensor; where the tensor
    has a missing entry the replay skips the pairs gamma leaves
    undefined, and condition (3) flags it."""
    cat, mon = GAMMA_CASES[name]
    rep = check_day_stability(Site(cat, trivial_coverage(cat), mon), [])
    replayed = ref.gamma_report(cat, mon, *_gamma_of(mon))
    assert {v.kind for v in rep.violations} <= {"gamma"}
    if name == "undefined":
        assert replayed.ok and not rep.ok
    else:
        clean = name not in ("mistyped", "identity")
        assert rep.ok == replayed.ok == clean, rep.violations


@pytest.mark.parametrize("build", [lambda: build_powerset_category(4),
                                   lambda: build_finsurj_category(4)],
                         ids=["powerset4", "finsurj4"])
def test_gamma_holds_at_the_size_bounds(build):
    """Where the slice replay of `test_gamma_certificate_reports_as_the_replay`
    is too slow to run, condition (3) still passes."""
    cat, mon = build()
    assert check_day_stability(Site(cat, trivial_coverage(cat), mon), []).ok


@pytest.mark.parametrize("build,key", [
    (lambda: build_powerset_category(3), lambda bc: (bits(bc[0]), bits(bc[1]))),
    (lambda: build_finsurj_category(4), None)], ids=["powerset3", "finsurj4"])
def test_splittings_are_tabulated_once_in_sorted_order(build, key, monkeypatch):
    """`splittings` returns, for every v, the pairs (b, c) with b (x) c = v
    in sorted order, on the powerset that of the location tuples the
    masks stand for.  They are tabulated for every v in one pass over
    the tensor on the first call and kept on the monoidal structure, so
    the tensor is asked about no pair."""
    cat, mon = build()
    scans = []
    defined = MonoidalStructure.tensor_defined
    monkeypatch.setattr(MonoidalStructure, "tensor_defined",
                        lambda self, a, b: scans.append((a, b)) or defined(self, a, b))
    splittings(cat, mon, cat.objects[0])
    table = mon.memo["splittings"]
    for v in cat.objects:
        assert list(splittings(cat, mon, v)) == sorted(
            ((b, c) for b in cat.objects for c in cat.objects
             if (b, c) in mon.tensor_obj and mon.tensor_obj[b, c] == v), key=key)
    assert mon.memo["splittings"] is table
    assert scans == []
