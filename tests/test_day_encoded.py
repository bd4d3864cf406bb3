"""Differential tests: the Day convolutions on ids and the pointwise
monoid-law certificate in `sheafsep.day` against the element-level
references in `day_reference`, which are fed the element-level memory
sheaves of `presheaf_reference`."""

import functools
import re
from dataclasses import replace

import pytest

import day_reference as ref
from fincat_reference import element_key
import presheaf_reference
from presheaf_reference import constant, names, terminal, yoneda
from sheafsep import day
from sheafsep.day import (
    UNDEFINED,
    ResourceMonoid,
    build_memory_monoid,
    check_monoid_laws,
    day_coend,
    day_decomp,
    dinaturality_generators,
)
from sheafsep.errors import BudgetExceededError, MonoidalStructureError
from sheafsep.fincat import build_finsurj_category, build_powerset_category
from sheafsep.presheaf import build_resource_sheaf, check_sheaf
from sheafsep.site import Site, build_coverage

KINDS = {
    "M": ("strict-memory", {}),
    "Mp": ("partial-memory", {}),
    "bounded": ("support-bounded", {"bound": 1}),
}
VARIANTS = ("total", "weak-partial", "strong-partial")
COVERAGES = ("downward-closed", "finite-covers")


@functools.cache
def _powerset(n_locs):
    return build_powerset_category(n_locs)


@functools.cache
def _sheaf(kind, n_locs, n_values):
    name, kwargs = KINDS[kind]
    cat = _powerset(n_locs)[0]
    return build_resource_sheaf(cat, name, names(cat), values=(0, 1)[:n_values],
                                **kwargs)


@functools.cache
def _ref_sheaf(kind, n_locs, n_values):
    name, kwargs = KINDS[kind]
    cat = _powerset(n_locs)[0]
    return presheaf_reference.memory_sheaf(cat, name, names(cat),
                                           (0, 1)[:n_values], **kwargs)


def _as_decomposition(cat, mon, t):
    """A witnessed triple as an element of the decomposition presheaf, or
    None: on the powerset base only the exact triples, without their
    witness; on other bases every triple."""
    if cat.kind != "powerset":
        return t
    return replace(t, witness=None) if mon.tensor(t.left_stage, t.right_stage) == t.stage else None


def assert_same_coend(f_sheaf, g_sheaf, mon, ref_f=None, ref_g=None):
    """The coend on decomposition ids against the all-pairs reference.

    Both quotient maps cut the witnessed triples of every stage into the
    same classes (their pairing is a bijection); each class is named by
    the least exact member of its reference class; and the restriction
    tables agree through that bijection.  Returns both coends and the
    bijection, per stage from reference classes to classes.  The
    reference convolves ref_f and ref_g, default f_sheaf and g_sheaf."""
    ref_f, ref_g = ref_f or f_sheaf, ref_g or g_sheaf
    new, old = day_coend(f_sheaf, g_sheaf, mon), ref.day_coend(ref_f, ref_g, mon)
    cat, to_new, ids = f_sheaf.base, {}, {}
    for a in cat.objects:
        triples = ref.coend_triples(cat, mon, ref_f, ref_g, a)
        pairs = {(old.class_of(t), new.class_of(t)) for t in triples}
        to_new[a] = dict(pairs)
        # a function both ways, onto both stages
        assert len(to_new[a]) == len(pairs) == len(set(to_new[a].values()))
        assert len(pairs) == len(old.at(a)) == len(new.at(a))
        least = {}
        for t in triples:
            d = _as_decomposition(cat, mon, t)
            if d is not None:
                o = old.class_of(t)
                least[o] = min(least.get(o, d), d, key=element_key)
        assert {o: to_new[a][o].rep for o in old.at(a)} == least
        ids[a] = [new.index(a)[to_new[a][o]] for o in old.at(a)]
    for h in cat.all_morphisms():
        v, a = cat.src(h), cat.dst(h)
        assert [new.table(h)[i] for i in ids[a]] == [ids[v][k] for k in old.table(h)]
    return new, old, to_new


@functools.cache
def _memory_coends(left, right, n_locs, n_values):
    f_sheaf, g_sheaf = _sheaf(left, n_locs, n_values), _sheaf(right, n_locs, n_values)
    mon = _powerset(n_locs)[1]
    new, old, to_new = assert_same_coend(f_sheaf, g_sheaf, mon, _ref_sheaf(left, n_locs, n_values),
                                         _ref_sheaf(right, n_locs, n_values))
    # canonical poset decompositions go through their canonical witness
    decomp = day_decomp(f_sheaf, g_sheaf, mon)
    for a in f_sheaf.base.objects:
        for d in decomp.at(a):
            assert new.class_of(d) == to_new[a][old.class_of(d)]
    return new, old


@pytest.mark.parametrize("coverage", COVERAGES)
@pytest.mark.parametrize("n_values", [1, 2])
@pytest.mark.parametrize("n_locs", [2, 3])
@pytest.mark.parametrize("right", KINDS)
@pytest.mark.parametrize("left", KINDS)
def test_memory_coend_agrees_with_reference(left, right, n_locs, n_values, coverage):
    new, old = _memory_coends(left, right, n_locs, n_values)
    cov = build_coverage(_powerset(n_locs)[0], coverage)
    assert check_sheaf(new, cov) == check_sheaf(old, cov)


@pytest.mark.parametrize("n_locs", [2, 3])
@pytest.mark.parametrize("right", KINDS)
@pytest.mark.parametrize("left", KINDS)
def test_memory_decompositions_agree_with_reference(left, right, n_locs):
    """Offset arithmetic over the halves' tables against restricting
    every Decomp of the element-level sheaves."""
    mon = _powerset(n_locs)[1]
    new = day_decomp(_sheaf(left, n_locs, 2), _sheaf(right, n_locs, 2), mon)
    old = ref.day_decomp(_ref_sheaf(left, n_locs, 2), _ref_sheaf(right, n_locs, 2), mon)
    presheaf_reference.assert_same_presheaf(new, old)


def test_witnessed_decompositions_agree_with_reference_on_surjections():
    cat, mon = build_finsurj_category(3)
    sheaves = [yoneda(cat, n) for n in cat.objects]
    sheaves += [terminal(cat), constant(cat, (1, 0, 1))]
    for f_sheaf in sheaves:
        for g_sheaf in sheaves:
            presheaf_reference.assert_same_presheaf(
                day_decomp(f_sheaf, g_sheaf, mon), ref.day_decomp(f_sheaf, g_sheaf, mon))


def test_decomposition_of_a_stage_with_a_repeated_element_agrees_with_reference():
    cat, mon = _powerset(2)
    twice = constant(cat, (1, 0, 1))
    mp, ref_mp = _sheaf("Mp", 2, 1), _ref_sheaf("Mp", 2, 1)
    for new, old in (((twice, twice), (twice, twice)), ((twice, mp), (twice, ref_mp)),
                     ((mp, twice), (ref_mp, twice))):
        presheaf_reference.assert_same_presheaf(day_decomp(*new, mon), ref.day_decomp(*old, mon))


def test_yoneda_coends_agree_with_reference_on_the_powerset():
    cat, mon = _powerset(3)
    yo = {a: yoneda(cat, a) for a in cat.objects}
    for a in cat.objects:
        for b in cat.objects:
            assert_same_coend(yo[a], yo[b], mon)


def test_yoneda_coends_agree_with_reference_on_surjections():
    cat, mon = build_finsurj_category(3)
    yo = {n: yoneda(cat, n) for n in cat.objects}
    for n in cat.objects:
        for m in cat.objects:
            assert_same_coend(yo[n], yo[m], mon)


def test_coend_of_a_stage_with_a_repeated_element_agrees_with_reference():
    cat, mon = _powerset(2)
    twice = constant(cat, (1, 0, 1))
    assert twice.at(0b01) == (0, 1)
    assert_same_coend(twice, twice, mon)
    mp, ref_mp = _sheaf("Mp", 2, 1), _ref_sheaf("Mp", 2, 1)
    assert_same_coend(twice, mp, mon, twice, ref_mp)
    assert_same_coend(mp, twice, mon, ref_mp, twice)


def test_budget_counts_decompositions_and_comes_before_any_decomp(monkeypatch):
    mp, ref_mp = _sheaf("Mp", 2, 2), _ref_sheaf("Mp", 2, 2)
    mon, top = _powerset(2)[1], 0b11
    n = len(ref.day_decomp(ref_mp, ref_mp, mon).at(top))

    def no_decomp(*args, **kwargs):
        raise AssertionError("a Decomp was built before the budget check")

    with monkeypatch.context() as m:
        m.setattr(day, "Decomp", no_decomp)
        with pytest.raises(BudgetExceededError) as got:
            day_coend(mp, mp, mon, budget=3).at(top)
    assert str(got.value) == f"{n} coend decompositions at ('x', 'y') exceed budget 3"
    assert got.value.size == n
    # the budget is inclusive
    assert day_coend(mp, mp, mon, budget=n).at(top)


def test_four_location_coend_stays_within_a_decomposition_budget():
    """The work gate: with one value, Mp (x) Mp has 8^4 decompositions at
    the top of the 4-location powerset and fewer below it, so a budget of
    8^4 evaluates all 16 stages.  Numbering every witnessed pair would
    put 3^8 = 6561 triples at the empty stage."""
    cat, mon = build_powerset_category(4)
    mp = build_resource_sheaf(cat, "partial-memory", names(cat), values=(0,))
    coend = day_coend(mp, mp, mon, budget=8 ** 4)
    assert [len(coend.at(a)) for a in cat.objects] == [1] * 16
    with pytest.raises(BudgetExceededError):
        day_coend(mp, mp, mon, budget=8 ** 4 - 1).at(0b1111)


@pytest.mark.parametrize("n_values", [1, 2])
@pytest.mark.parametrize("n_locs", [2, 3])
@pytest.mark.parametrize("right", KINDS)
@pytest.mark.parametrize("left", KINDS)
def test_memory_coends_have_one_class_per_stage(left, right, n_locs, n_values):
    """The memory sheaves hold one element at the empty stage and every
    section extends, so each decomposition at a is related to (a, a, s, t)
    and from there to both one-sided halves: the coend is terminal."""
    f_sheaf, g_sheaf = _sheaf(left, n_locs, n_values), _sheaf(right, n_locs, n_values)
    coend = day_coend(f_sheaf, g_sheaf, _powerset(n_locs)[1])
    assert [len(coend.at(a)) for a in f_sheaf.base.objects] == [1] * 2 ** n_locs


@pytest.mark.parametrize("left", ["M", "Mp"])
def test_memory_coends_have_one_class_per_stage_at_four_locations(left):
    cat, mon = build_powerset_category(4)
    mp = build_resource_sheaf(cat, "partial-memory", names(cat), values=(0, 1))
    f_sheaf = mp if left == "Mp" else build_resource_sheaf(cat, "strict-memory", names(cat),
                                                            values=(0, 1))
    coend = day_coend(f_sheaf, mp, mon)
    assert [len(coend.at(a)) for a in cat.objects] == [1] * 16


# -- Day stability by lemma against the replay --------------------------------


def _stability_samples(cat):
    """M, Mp, the support-bounded carrier at every bound, representables
    at {}, at a singleton and at the top, a two-point constant and the
    terminal presheaf, on the powerset at `cat`."""
    top = cat.objects[-1]
    samples = [build_resource_sheaf(cat, kind, names(cat), values=(0, 1))
               for kind in ("strict-memory", "partial-memory")]
    samples += [build_resource_sheaf(cat, "support-bounded", names(cat), values=(0, 1), bound=k)
                for k in range(top.bit_count() + 1)]
    samples += [yoneda(cat, a) for a in dict.fromkeys([0, cat.objects[1], top])]
    return samples + [constant(cat, (0, 1)), terminal(cat)]


def _one_point_onto(ps):
    """Lemma C's premise, read off the elements: one element at {} and
    every restriction onto."""
    cat = ps.base
    return len(ps.at(0)) == 1 and all(
        {ps.restrict(f, x) for x in ps.at(cat.dst(f))} == set(ps.at(cat.src(f)))
        for f in cat.all_morphisms())


@pytest.mark.parametrize("n_locs,coverage", [
    (n, coverage) for n in (1, 2, 3) for coverage in COVERAGES + ("atomic",)
    if n < 3 or coverage == "downward-closed"])
def test_day_stability_by_lemma_is_the_replay(n_locs, coverage, monkeypatch):
    """Lemmas B and C decide the sheaf condition of a convolution from its
    factors.  The report equals the one `check_sheaf` gives on every
    convolution built, and `check_sheaf` runs on exactly the convolutions
    whose lemma's premise fails, each premise read here off the
    element-level sheaf check and the samples' elements.  Atomic least
    covers are not the lub ones, so under it every decomposition form is
    replayed.  Finite-covers (downward-closed under another name on a
    finite base) and atomic stop at 2 locations: at 3 the oracle's
    replays under them take about 20 s."""
    cat, mon = _powerset(n_locs)
    cov = build_coverage(cat, coverage)
    site = Site(cat, cov, mon)
    samples = _stability_samples(cat)
    sheaf = [coverage != "atomic" and presheaf_reference.check_sheaf(ps, cov).ok
             for ps in samples]
    point = [_one_point_onto(ps) for ps in samples]
    if coverage != "atomic" and n_locs > 1:  # one location: every least cover is maximal
        assert any(sheaf) and not all(sheaf)
    assert any(point) and not all(point)
    replayed = []
    monkeypatch.setattr(day, "check_sheaf", lambda conv, c, **kw: replayed.append(conv.name)
                        or check_sheaf(conv, c, **kw))
    got = day.check_day_stability(site, samples)
    monkeypatch.undo()
    want, premise_fails = [], []
    for i, f_sheaf in enumerate(samples):
        for j, g_sheaf in enumerate(samples):
            coend = day_coend(f_sheaf, g_sheaf, mon)
            for kind, conv, certified in (("decomp-sheaf", coend.decomp, sheaf[i] and sheaf[j]),
                                          ("coend-sheaf", coend, point[i] and point[j])):
                rep = check_sheaf(conv, cov)
                assert rep.ok or not certified, conv.name
                want += [(kind, f"{conv.name}: {v.detail}") for v in rep.violations]
                if not certified:
                    premise_fails.append(conv.name)
    assert [(v.kind, v.detail) for v in got.violations] == want
    assert replayed == premise_fails
    if n_locs > 1:
        assert any(kind == "decomp-sheaf" for kind, _ in want)


@pytest.mark.parametrize("n_locs", [2, 3])
def test_day_stability_of_the_memory_sheaves_encodes_no_convolution_cover(n_locs, built):
    """Deterministic work gate: on M and Mp every convolution is decided
    by lemma, so the only covers encoded are the samples' own least
    covers, read by `is_sheaf` for lemma B's premise."""
    cat, mon = _powerset(n_locs)
    site = Site(cat, build_coverage(cat, "downward-closed"), mon)
    m, mp = (build_resource_sheaf(cat, kind, names(cat), values=(0, 1))
             for kind in ("strict-memory", "partial-memory"))
    built.clear()
    assert day.check_day_stability(site, [m, mp]).ok
    assert built["_EncodedCover"] == len(m._covers) + len(mp._covers)
    assert built["_EncodedCover"] == 2 * sum(a.bit_count() >= 2 for a in cat.objects)


def _raised(run):
    """The message, size and cover of the `BudgetExceededError` that
    `run()` raises, or None."""
    try:
        run()
    except BudgetExceededError as exc:
        return str(exc), exc.size, getattr(exc, "cover", None)
    return None


def test_certified_convolutions_raise_the_budget_errors_of_the_replay():
    """A convolution decided by lemma raises what `check_sheaf` on it
    would.  The coend's decomposition budget, at the same stage; and
    under every family budget from 0 past the largest stage, the
    decomposition form's, at the same cover with the same count."""
    cat, mon = _powerset(2)
    site = Site(cat, build_coverage(cat, "downward-closed"), mon)
    mp = build_resource_sheaf(cat, "partial-memory", names(cat), values=(0, 1))
    certified = _raised(lambda: day.check_day_stability(site, [mp], budget=20))
    assert certified is not None
    assert certified == _raised(lambda: check_sheaf(day_coend(mp, mp, mon, budget=20), site.cov))
    for n_locs in (2, 3):
        cat, mon = _powerset(n_locs)
        cov = build_coverage(cat, "downward-closed")
        m, mp = (build_resource_sheaf(cat, kind, names(cat), values=(0, 1))
                 for kind in ("strict-memory", "partial-memory"))
        for decomp in (day_decomp(m, mp, mon), day_decomp(mp, mp, mon)):
            sizes = sorted({decomp.size(a) for a in cat.objects})
            for budget in sorted({0, *sizes, *(n - 1 for n in sizes)}):
                want = _raised(lambda: check_sheaf(decomp, cov, budget=budget))
                assert _raised(lambda: day._certified_sheaf(decomp, cov, budget)) == want


@pytest.mark.parametrize("base,pairs", [("powerset", 192), ("finsurj", 28)])
def test_dinaturality_generator_count(base, pairs, monkeypatch):
    """The work gate: 192 generators on the 3-location powerset, against
    729 pairs of morphisms; 28 on the size-3 surjection base, against 33."""
    if base == "powerset":
        cat, mon = _powerset(3)
        sheaf = yoneda(cat, 0b01)
    else:
        cat, mon = build_finsurj_category(3)
        sheaf = yoneda(cat, 1)
    used = []

    def counted(*args):
        used.append(dinaturality_generators(*args))
        return used[-1]

    monkeypatch.setattr(day, "dinaturality_generators", counted)
    coend = day_coend(sheaf, sheaf, mon)
    for a in cat.objects:
        coend.at(a)
    assert [len(gens) for gens in used] == [pairs]


@pytest.mark.parametrize("n_locs", [1, 2, 3])
@pytest.mark.parametrize("variant", VARIANTS)
def test_certificate_agrees_with_the_triple_walk(variant, n_locs):
    mp, mon = _sheaf("Mp", n_locs, 2), _powerset(n_locs)[1]
    new = check_monoid_laws(build_memory_monoid(mp, variant), mon)
    old = ref.check_monoid_laws(build_memory_monoid(mp, variant), mon)
    assert new.ok and old.ok
    n_unit = sum(len(mp.at(a)) for a in mp.base.objects)
    assert old.notes[0].startswith(f"checked {n_unit} unit and ")
    # the cells are None, 0 and 1
    assert new.notes == [f"checked {n_unit} unit and 27 associativity instances"]


BROKEN_CELLS = {
    "commutativity": lambda x, y: x,
    "associativity": lambda x, y: (
        None if x == y else y if x is None else x if y is None else UNDEFINED
    ),
}


@pytest.mark.parametrize("law", BROKEN_CELLS)
def test_both_flag_a_broken_cell_rule(law):
    mp, mon = _sheaf("Mp", 2, 2), _powerset(2)[1]

    def broken():
        return ResourceMonoid(mp, "broken", BROKEN_CELLS[law])

    assert {v.kind for v in check_monoid_laws(broken(), mon).violations} == {law}
    assert {v.kind for v in ref.check_monoid_laws(broken(), mon).violations} == {law}


@pytest.mark.parametrize("defined", [True, False])
def test_certificate_flags_a_tampered_product_entry(defined):
    mp, mon = _sheaf("Mp", 2, 2), _powerset(2)[1]
    monoid = build_memory_monoid(mp, "weak-partial")
    assert check_monoid_laws(monoid, mon).ok
    rows = monoid.products(0b01, 0b11)
    i, j = next((i, j) for i, row in enumerate(rows) for j, k in enumerate(row)
                if (k != -1) == defined)
    rows[i][j] = -1 if defined else 0
    rep = check_monoid_laws(monoid, mon)
    assert [v.kind for v in rep.violations] == ["pointwise"]
    s, t = mp.at(0b01)[i], mp.at(0b11)[j]
    assert rep.violations[0].detail.startswith(f"{s}.{t} is ")


def test_certificate_flags_products_that_leave_the_carrier():
    """Under a cell rule on partial memory whose product of two cells is
    no cell (7, which is not a value of the carrier) a heap with a shared
    location multiplies to a heap outside the carrier.  The product
    table holds -1 there though no cell is UNDEFINED, so the certificate
    flags it; the triple walk multiplies heaps outside the carrier and
    does not notice."""
    mp, mon = _sheaf("Mp", 2, 1), _powerset(2)[1]
    leaky = ResourceMonoid(mp, "leaky", lambda x, y: 7)
    rep = check_monoid_laws(leaky, mon)
    assert {v.kind for v in rep.violations} == {"pointwise"}
    assert "<x:0>.<x:0> is None in the product table, but outside the carrier" in {
        v.detail for v in rep.violations}
    assert ref.check_monoid_laws(leaky, mon).ok


BOUNDED = [(n, k) for n in (1, 2, 3) for k in range(n + 1)]


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("n_values", [1, 2, 3])
@pytest.mark.parametrize("n_locs,bound", BOUNDED)
def test_products_on_support_bounded_carriers_match_apply(n_locs, bound, n_values, variant):
    """A support-bounded carrier takes no monoid at any bound, even one
    that admits every heap.  Its heaps multiply in partial memory, and
    the product (`apply`) is a heap of the bounded carrier iff it
    allocates at most `bound` cells: the carrier is not closed under
    the star."""
    cat, mon = _powerset(n_locs)
    values = (0, 1, 2)[:n_values]
    bounded = build_resource_sheaf(cat, "support-bounded", names(cat), values=values, bound=bound)
    with pytest.raises(MonoidalStructureError, match="need a partial-memory sheaf"):
        build_memory_monoid(bounded, variant)
    mp = build_resource_sheaf(cat, "partial-memory", names(cat), values=values)
    monoid = build_memory_monoid(mp, variant)
    v = cat.objects[-1]
    for b, c in day.splittings(cat, mon, v):
        for s in bounded.at(b):
            for t in bounded.at(c):
                prod = ref.apply(monoid, day.Decomp(v, b, c, s, t))
                if prod is not None:
                    allocated = sum(x is not None for x in prod.values)
                    assert (prod in bounded.index(v)) == (allocated <= bound), (s, t)


@pytest.mark.parametrize("carrier", ["yoneda", "constant", "terminal", "strict", "bounded"])
def test_memory_monoid_needs_a_memory_sheaf(carrier):
    """A carrier other than partial memory is refused when the monoid is
    built, not at its first product: one without the memory numbering,
    strict memory, and support-bounded memory, whose bound admits every
    heap at 2 locations."""
    cat, _ = build_powerset_category(2)
    mp = {"yoneda": lambda: yoneda(cat, 0b01), "constant": lambda: constant(cat, (0, 1)),
          "terminal": lambda: terminal(cat), "strict": lambda: _sheaf("M", 2, 2),
          "bounded": lambda: build_resource_sheaf(cat, "support-bounded", names(cat),
                                                  values=(0, 1), bound=2)}[carrier]()
    want = f"memory monoids need a partial-memory sheaf, got {re.escape(mp.name)}$"
    with pytest.raises(MonoidalStructureError, match=want):
        build_memory_monoid(mp, "weak-partial")


def test_a_capped_report_lists_the_first_violations_and_counts_the_rest():
    """Day stability with `keep` lists the first `keep` violations of the
    report without it, in order, and counts the others in `unlisted`,
    those of the sheaf replays it runs included; so does `check_sheaf`.
    A capped report with violations is not ok.  The model is the
    3-location, two-value, bound-1 support-bounded one, whose
    convolutions fail on 12,600 families."""
    cat, mon = _powerset(3)
    site = Site(cat, build_coverage(cat, "downward-closed"), mon)
    xyz = ("x", "y", "z")
    bounded = build_resource_sheaf(cat, "support-bounded", xyz, values=(0, 1), bound=1)
    samples = [build_resource_sheaf(cat, "strict-memory", xyz, values=(0, 1)), bounded]
    full, sheaf = day.check_day_stability(site, samples), check_sheaf(bounded, site.cov)
    assert len(full.violations) == 12_600 and full.unlisted == 0
    assert len(sheaf.violations) == 68
    for keep in (1, 32, 12_599, 12_600):
        capped = day.check_day_stability(site, samples, keep=keep)
        assert capped.violations == full.violations[:keep]
        assert capped.unlisted == 12_600 - keep and not capped.ok
    for keep in (1, 32, 68):
        alone = check_sheaf(bounded, site.cov, keep=keep)
        assert alone.violations == sheaf.violations[:keep]
        assert alone.unlisted == 68 - keep and not alone.ok
        assert alone.notes == sheaf.notes
