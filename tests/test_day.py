import pytest

import day_reference as ref
from sheafsep.day import (
    Decomp,
    build_memory_monoid,
    check_day_stability,
    check_monoid_laws,
    day_coend,
    day_decomp,
    powerset_gamma,
    splittings,
)
from sheafsep.fincat import (
    MonoidalStructure,
    build_finsurj_category,
    build_powerset_category,
    incl,
)
from sheafsep.presheaf import Heap, SheafMorphism, build_resource_sheaf, validate_presheaf
from sheafsep.site import Site, build_coverage, trivial_coverage


@pytest.fixture(scope="module")
def pset1():
    cat, mon = build_powerset_category({"x"})
    return cat, mon


@pytest.fixture(scope="module")
def pset2():
    cat, mon = build_powerset_category({"x", "y"})
    return cat, mon


@pytest.fixture(scope="module")
def mp1(pset1):
    cat, _ = pset1
    return build_resource_sheaf(cat, "partial-memory", values=(0, 1))


@pytest.fixture(scope="module")
def mp2(pset2):
    cat, _ = pset2
    return build_resource_sheaf(cat, "partial-memory", values=(0, 1))


def brute_decomp_count(mp, stage_pairs):
    """Independent oracle: sum |F(B)| * |F(C)| over the decompositions."""
    return sum(len(mp.at(b)) * len(mp.at(c)) for b, c in stage_pairs)


def test_decomp_count_single_location(pset1, mp1):
    cat, mon = pset1
    d = day_decomp(mp1, mp1, mon)
    pairs = [(("x",), ()), ((), ("x",)), (("x",), ("x",))]
    assert len(d.at(("x",))) == brute_decomp_count(mp1, pairs) == 15


def test_decomp_with_yoneda_unit(pset2, mp2):
    cat, mon = pset2
    yo_empty = build_resource_sheaf(cat, "yoneda", at_object=())
    d = day_decomp(mp2, yo_empty, mon)
    for a in cat.objects:
        # hom(U, empty) is nonempty iff U is empty, so only (A, ()) decomposes
        assert len(d.at(a)) == len(mp2.at(a))


def test_decomp_yoneda_square(pset1):
    cat, mon = pset1
    yo_x = build_resource_sheaf(cat, "yoneda", at_object=("x",))
    d = day_decomp(yo_x, yo_x, mon)
    assert len(d.at(("x",))) == 3


def test_decomp_is_presheaf(pset2, mp2):
    cat, mon = pset2
    d = day_decomp(mp2, mp2, mon)
    assert validate_presheaf(d).ok


def test_decomp_restriction_recanonicalises(pset2, mp2):
    cat, mon = pset2
    d = day_decomp(mp2, mp2, mon)
    top = ("x", "y")
    el = Decomp(
        top,
        ("x",),
        ("y",),
        Heap.of(("x",), {"x": 0}),
        Heap.of(("y",), {"y": 1}),
    )
    assert el in d.at(top)
    restricted = d.restrict(incl(("x",), top), el)
    assert restricted.left_stage == ("x",) and restricted.right_stage == ()


def test_coend_yoneda_square_collapses(pset1):
    cat, mon = pset1
    yo_x = build_resource_sheaf(cat, "yoneda", at_object=("x",))
    c = day_coend(yo_x, yo_x, mon)
    assert len(c.at(("x",))) == 1


@pytest.mark.parametrize("n_locs", [2, 3])
def test_coend_yoneda_strong_monoidality(n_locs):
    """y(a) (x) y(b) has the stage sizes of y(a u b), empty stages
    included: representables are not flabby, so unlike the memory
    sheaves their coends are not terminal."""
    cat, mon = build_powerset_category(["x", "y", "z"][:n_locs])
    yo = {a: build_resource_sheaf(cat, "yoneda", at_object=a) for a in cat.objects}
    for a in cat.objects:
        for b in cat.objects:
            c = day_coend(yo[a], yo[b], mon)
            for v in cat.objects:
                assert len(c.at(v)) == len(yo[mon.tensor(a, b)].at(v))


def test_coend_unit_law(pset2, mp2):
    cat, mon = pset2
    yo_empty = build_resource_sheaf(cat, "yoneda", at_object=())
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
        c.at(("x", "y"))


def test_total_mult_not_dinatural(pset1, mp1):
    """The documented witness: conflicting pair and its coend-equal
    singleton pair multiply to different heaps."""
    cat, mon = pset1
    c = day_coend(mp1, mp1, mon)
    monoid = build_memory_monoid(mp1, "total")
    s1 = Heap.of(("x",), {"x": 0})
    s2 = Heap.of(("x",), {"x": 1})
    d_conflict = Decomp(("x",), ("x",), ("x",), s1, s2)
    d_single = Decomp(("x",), ("x",), (), s1, Heap((), ()))
    assert c.class_of(d_conflict) == c.class_of(d_single)
    assert ref.apply(monoid, d_conflict) == Heap.of(("x",), {"x": None})
    assert ref.apply(monoid, d_single) == Heap.of(("x",), {"x": 0})
    assert ref.apply(monoid, d_conflict) != ref.apply(monoid, d_single)


def test_memory_monoid_total_conflict(pset1, mp1):
    monoid = build_memory_monoid(mp1, "total")
    d = Decomp(("x",), ("x",), ("x",), Heap.of(("x",), {"x": 0}), Heap.of(("x",), {"x": 1}))
    assert ref.apply(monoid, d) == Heap.of(("x",), {"x": None})


def test_memory_monoid_disjoint_union_all_variants(pset2, mp2):
    d = Decomp(
        ("x", "y"),
        ("x",),
        ("y",),
        Heap.of(("x",), {"x": 0}),
        Heap.of(("y",), {"y": 1}),
    )
    expected = Heap.of(("x", "y"), {"x": 0, "y": 1})
    for variant in ("total", "weak-partial", "strong-partial"):
        assert ref.apply(build_memory_monoid(mp2, variant), d) == expected


def test_memory_monoid_strong_rejects_overlap(pset1, mp1):
    monoid = build_memory_monoid(mp1, "strong-partial")
    s = Heap.of(("x",), {"x": 0})
    assert ref.apply(monoid, Decomp(("x",), ("x",), ("x",), s, s)) is None


def test_memory_monoid_weak_accepts_agreeing_overlap(pset1, mp1):
    monoid = build_memory_monoid(mp1, "weak-partial")
    s = Heap.of(("x",), {"x": 0})
    assert ref.apply(monoid, Decomp(("x",), ("x",), ("x",), s, s)) == s


def test_monoid_laws_all_variants(pset2, mp2):
    cat, mon = pset2
    for variant in ("total", "weak-partial", "strong-partial"):
        rep = check_monoid_laws(build_memory_monoid(mp2, variant), mon)
        assert rep.ok, rep.summary()


def test_strong_associativity_shared_location_bothsides_undefined(pset1, mp1):
    cat, mon = pset1
    monoid = build_memory_monoid(mp1, "strong-partial")
    s = Heap.of(("x",), {"x": 0})
    st = ref.apply(monoid, Decomp(("x",), ("x",), ("x",), s, s))
    assert st is None  # and so both bracketings of s.s.s are undefined


def test_day_stability_powerset(pset2, mp2):
    cat, mon = pset2
    cov = build_coverage(cat, "downward-closed")
    site = Site(cat, cov, mon)
    m = build_resource_sheaf(cat, "strict-memory", values=(0, 1))
    yo_x = build_resource_sheaf(cat, "yoneda", at_object=("x",))
    strict_into_partial = SheafMorphism(
        m, mp2, {a: {h: h for h in m.at(a)} for a in cat.objects}, name="M>->Mp"
    )
    rep = check_day_stability(site, [m, mp2, yo_x], inclusions=[strict_into_partial])
    assert rep.ok, rep.summary()


def test_day_stability_flags_injected_non_mono(pset2, mp2):
    cat, mon = pset2
    cov = build_coverage(cat, "downward-closed")
    site = Site(cat, cov, mon)
    collapse = SheafMorphism(mp2, mp2, {
        a: {h: Heap.of(a, {x: None for x in a}) for h in mp2.at(a)}
        for a in cat.objects
    }, name="collapse")
    rep = check_day_stability(site, [mp2], inclusions=[collapse])
    kinds = rep.kinds()
    assert "mono" in kinds or "mono-preservation" in kinds


def test_day_stability_counts_a_repeated_element_once(pset2, mp2):
    """An element given twice is listed once, so a map injective on
    elements is a mono and one that merges elements is not."""
    cat, mon = pset2
    site = Site(cat, build_coverage(cat, "downward-closed"), mon)
    twice = build_resource_sheaf(cat, "constant", elements=(1, 0, 1))
    pair = build_resource_sheaf(cat, "constant", elements=(0, 1))
    one = build_resource_sheaf(cat, "constant", elements=(0,))
    ident = SheafMorphism(twice, pair, {a: {0: 0, 1: 1} for a in cat.objects}, name="dedupe")
    assert check_day_stability(site, [mp2], inclusions=[ident]).ok
    squash = SheafMorphism(twice, one, {a: {0: 0, 1: 0} for a in cat.objects}, name="squash")
    kinds = check_day_stability(site, [mp2], inclusions=[squash]).kinds()
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
    yo1 = build_resource_sheaf(cat, "yoneda", at_object=1)
    term = build_resource_sheaf(cat, "terminal")
    rep = check_day_stability(site, [yo1, term])
    assert rep.ok, rep.summary()


def test_day_stability_requires_gamma_witness():
    from sheafsep.errors import NoGammaWitnessError
    from sheafsep.fincat import FinCat, MonoidalStructure
    from sheafsep.site import trivial_coverage

    cat = FinCat(
        "custom",
        ("a",),
        {("a", "a"): (("id", "a"),)},
        {((("id", "a")), ("id", "a")): ("id", "a")},
        {"a": ("id", "a")},
    )
    mon = MonoidalStructure({("a", "a"): "a"}, {}, unit="a", symmetric=True)
    site = Site(cat, trivial_coverage(cat), mon)
    with pytest.raises(NoGammaWitnessError):
        check_day_stability(site, [])


def _corrupted(gamma, pair, value):
    """The witness `gamma` with on_mor sending `pair` to `value`."""
    on_obj, on_mor = gamma
    return on_obj, lambda m1, m2: value if (m1, m2) == pair else on_mor(m1, m2)


def _gamma_cases():
    """Clean witnesses on powerset(1..3) and finsurj(2..3), and powerset(2)
    witnesses with one pair of slice morphisms sent to a mistyped
    morphism, to nothing, and an identity pair to a non-identity."""
    from sheafsep.day import finsurj_gamma
    from sheafsep.fincat import slice_category

    cases = {}
    for n in (1, 2, 3):
        cat, mon = build_powerset_category(["x", "y", "z"][:n])
        cases[f"powerset{n}"] = (cat, mon, powerset_gamma(cat))
    for n in (2, 3):
        cat, mon = build_finsurj_category(n)
        cases[f"finsurj{n}"] = (cat, mon, finsurj_gamma(cat, mon))
    cat, mon = build_powerset_category(["x", "y"])
    sl_x, _ = slice_category(cat, ("x",))
    sl_y, _ = slice_category(cat, ("y",))
    sl_xy, _ = slice_category(cat, ("x", "y"))
    m1 = sl_x.homs[incl((), ("x",)), incl(("x",), ("x",))][0]
    e1 = sl_x.identities[incl(("x",), ("x",))]
    e2 = sl_y.identities[incl(("y",), ("y",))]
    wrong = sl_xy.identities[incl(("x", "y"), ("x", "y"))]
    cases["mistyped"] = (cat, mon, _corrupted(powerset_gamma(cat), (m1, e2), wrong))
    cases["undefined"] = (cat, mon, _corrupted(powerset_gamma(cat), (m1, e2), None))
    not_id = sl_xy.homs[incl((), ("x", "y")), incl(("x", "y"), ("x", "y"))][0]
    cases["identity"] = (cat, mon, _corrupted(powerset_gamma(cat), (e1, e2), not_id))
    return cases


GAMMA_CASES = _gamma_cases()


@pytest.mark.parametrize("name", sorted(GAMMA_CASES))
def test_gamma_certificate_reports_as_the_replay(name, monkeypatch):
    """On thin slices a typed gamma is certified by the thinness lemma;
    every witness gets the report of the replay over all pairs of slice
    morphisms and their precomposites, and an untyped one is replayed."""
    import sheafsep.day as day

    cat, mon, gamma = GAMMA_CASES[name]
    monkeypatch.setattr(day, "powerset_gamma", lambda _: gamma)
    monkeypatch.setattr(day, "finsurj_gamma", lambda *_: gamma)
    rep = check_day_stability(Site(cat, trivial_coverage(cat), mon), [])
    assert rep.as_dict() == ref.gamma_report(cat, mon, *gamma).as_dict()
    if name in ("mistyped", "identity"):
        assert "gamma" in rep.kinds()
    elif name != "undefined":  # the replay skips pairs gamma leaves undefined
        assert rep.ok, rep.summary()


def test_gamma_on_powerset_slices_composes_nothing(monkeypatch):
    """Deterministic work gate: at 3 locations the gamma check composes no
    slice morphisms."""
    from sheafsep.fincat import FinCat

    cat, mon = build_powerset_category(["x", "y", "z"])
    site = Site(cat, build_coverage(cat, "downward-closed"), mon)
    kinds = []
    compose = FinCat.compose
    monkeypatch.setattr(FinCat, "compose",
                        lambda self, g, f: kinds.append(self.kind) or compose(self, g, f))
    assert check_day_stability(site, []).ok
    assert kinds and set(kinds) == {"powerset"}


def test_powerset_gamma_preserves_identities(pset2):
    cat, _ = pset2
    on_obj, on_mor = powerset_gamma(cat)
    p = incl(("x",), ("x", "y"))
    q = incl((), ("y",))
    assert on_obj(p, q) == incl(("x",), ("x", "y"))
    from sheafsep.fincat import slice_category

    sl_xy, _ = slice_category(cat, ("x", "y"))
    sl_y, _ = slice_category(cat, ("y",))
    gid = on_mor(sl_xy.identities[p], sl_y.identities[q])
    assert gid == sl_xy.identities[on_obj(p, q)]


@pytest.mark.parametrize("build", [lambda: build_powerset_category({"x", "y", "z"}),
                                   lambda: build_finsurj_category(4)],
                         ids=["powerset3", "finsurj4"])
def test_splittings_are_tabulated_once_in_object_order(build, monkeypatch):
    """`splittings` scans the object pairs once per monoidal structure and
    returns, for every v, the pairs (b, c) with b (x) c = v in object
    order."""
    cat, mon = build()
    scans = []
    defined = MonoidalStructure.tensor_defined
    monkeypatch.setattr(MonoidalStructure, "tensor_defined",
                        lambda self, a, b: scans.append((a, b)) or defined(self, a, b))
    for v in cat.objects:
        assert list(splittings(cat, mon, v)) == [
            (b, c) for b in cat.objects for c in cat.objects
            if (b, c) in mon.tensor_obj and mon.tensor_obj[b, c] == v]
    assert len(scans) == len(cat.objects) ** 2
