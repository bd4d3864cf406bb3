"""Differential tests: the presheaf core on ids against the element-level
reference in `presheaf_reference`."""

import functools
import random

import pytest

import presheaf_reference as ref
from sheafsep.day import day_coend, day_decomp
from sheafsep.errors import BudgetExceededError, NotASheafError
from sheafsep.fincat import build_finsurj_category, build_powerset_category
from sheafsep.presheaf import (
    DEFAULT_FAMILY_BUDGET,
    Heap,
    amalgamation_operator,
    _EncodedCover,
    _encoded_cover,
    build_resource_sheaf,
    check_sheaf,
    is_sheaf,
    matching_presheaf,
)
from sheafsep.report import Report
from sheafsep.site import build_coverage, sieve_masks
from site_reference import slice_coverage, trivial_coverage

MEMORY_KINDS = ("strict-memory", "partial-memory", "support-bounded")

BUILDERS = {
    **{kind: lambda cat, kind=kind: build_resource_sheaf(cat, kind, ref.names(cat), values=(0, 1))
       for kind in ("strict-memory", "partial-memory")},
    "support-bounded": lambda cat: build_resource_sheaf(cat, "support-bounded", ref.names(cat),
                                                        values=(0, 1), bound=1),
    "constant": lambda cat: ref.constant(cat, (0, 1, 2)),
    "yoneda": lambda cat: ref.yoneda(cat, 0b01),
    "terminal": ref.terminal,
}


def _site(n_locs):
    cat, mon = build_powerset_category(n_locs)
    return cat, mon, build_coverage(cat, "downward-closed")


def assert_agrees(ps, cov):
    """Equal reports, and on every cover the encoded families and each
    one's hits in the signature index, decoded, are the reference's
    family list and amalgamation candidates."""
    assert check_sheaf(ps, cov) == ref.check_sheaf(ps, cov)
    src = ps.base.src
    for a in ps.base.objects:
        for cover in cov.covers(a):
            code = _encoded_cover(ps, cover)
            partials, index = code.families(DEFAULT_FAMILY_BUDGET), code.signature_index()
            fams = ref.enumerate_compatible_families(ps, cover)
            assert [ref.CompatibleFamily.of(cover, {
                f: ps.element(src(f), i) for f, i in zip(code.members, code.legs(partial))
            }) for partial in partials] == fams
            for partial, fam in zip(partials, fams):
                hits = [ps.element(a, p) for p in index.get(partial, ())]
                assert hits == ref.amalgamation_candidates(ps, fam)


@pytest.mark.parametrize("n_locs", [2, 3])
@pytest.mark.parametrize("kind", BUILDERS)
def test_builders_agree_with_reference(kind, n_locs):
    cat, _, cov = _site(n_locs)
    assert_agrees(BUILDERS[kind](cat), cov)


def test_trivial_coverage_and_finsurj_yoneda_agree():
    cat, _, _ = _site(2)
    sb = build_resource_sheaf(cat, "support-bounded", ref.names(cat), values=(0,), bound=1)
    assert_agrees(sb, trivial_coverage(cat))
    fcat, _ = build_finsurj_category(2)
    fcov = build_coverage(fcat, "atomic")
    for obj in fcat.objects:
        assert_agrees(ref.yoneda(fcat, obj), fcov)


def test_slice_presheaf_agrees():
    cat, _, cov = _site(2)
    mp = build_resource_sheaf(cat, "partial-memory", ref.names(cat), values=(0, 1))
    for a in cat.objects:
        scov = slice_coverage(cov, a)
        sl = ref.slice_restrict(mp, a, prebuilt=(scov.cat, _dom_functor(scov.cat, cat)))
        assert_agrees(sl, scov)


def _dom_functor(slice_cat, base):
    from fincat_reference import FunctorData

    return FunctorData(
        source=slice_cat,
        target=base,
        obj_map={p: base.src(p) for p in slice_cat.objects},
        mor_map={m: m[1] for ms in slice_cat.homs.values() for m in ms},
    )


def test_day_convolutions_agree():
    cat, mon, cov = _site(2)
    mp = build_resource_sheaf(cat, "partial-memory", ref.names(cat), values=(0,))
    sb = build_resource_sheaf(cat, "support-bounded", ref.names(cat), values=(0,), bound=1)
    assert_agrees(day_decomp(mp, mp, mon), cov)
    assert_agrees(day_decomp(sb, mp, mon), cov)
    assert_agrees(day_coend(mp, mp, mon), cov)


def test_restriction_leaving_the_stage_agrees():
    """Images outside the stage get fresh ids; equal images share one,
    distinct ones never collide with stage elements."""
    cat, _, cov = _site(2)
    mp = build_resource_sheaf(cat, "partial-memory", ref.names(cat), values=(0, 1))
    stray = Heap(("x",), (7,))

    def restr(f, heap):
        # along x <= {x,y}, heaps holding 1 at y leave the stage
        if f == (0b01, 0b11) and heap.get("y") == 1:
            return stray
        return mp.restrict(f, heap)

    leaky = ref.listed(cat, mp.at, restr, name="leaky")
    n = leaky.size(0b01)
    fresh = {i for i in leaky.table((0b01, 0b11)) if i >= n}
    assert len(fresh) == 1 and leaky.element(0b01, fresh.pop()) == stray
    assert_agrees(leaky, cov)
    assert not check_sheaf(leaky, cov).ok


def test_duplicate_stage_elements_agree():
    """A stage is a set: an element given twice is listed once, so the
    constant presheaf on {0, 1} is a sheaf."""
    cat, _, cov = _site(2)
    dup = ref.listed(cat, lambda a: [0, 1, 0], lambda f, x: x, name="dup")
    assert dup.at(0b01) == (0, 1)
    assert_agrees(dup, cov)
    assert check_sheaf(dup, cov).ok


@pytest.mark.parametrize("n_locs", [2, 3])
def test_matching_classes_agree(n_locs):
    """Least-cover classes against the refinement union-find, on
    downward-closed covers, and at 2 locations also on the trivial
    coverage and on the non-thin finsurj base."""
    cat, _, cov = _site(n_locs)
    memory = [
        build_resource_sheaf(cat, "partial-memory", ref.names(cat), values=(0, 1)),
        build_resource_sheaf(cat, "support-bounded", ref.names(cat), values=(0, 1), bound=1),
    ]
    cases = [(ps, cov) for ps in memory]
    if n_locs == 2:
        cases += [(ps, trivial_coverage(cat)) for ps in memory]
        fcat, _ = build_finsurj_category(2)
        fcov = build_coverage(fcat, "atomic")
        cases += [(ref.yoneda(fcat, obj), fcov)
                  for obj in fcat.objects]
    for ps, c in cases:
        match = matching_presheaf(ps, c)
        for a in ps.base.objects:
            assert match.at(a) == ref.matching_stage(ps, c, a)


def test_budget_error_agrees():
    cat, _, cov = _site(2)
    mp = build_resource_sheaf(cat, "partial-memory", ref.names(cat), values=(0, 1))
    with pytest.raises(BudgetExceededError) as ours:
        check_sheaf(mp, cov, budget=2)
    with pytest.raises(BudgetExceededError) as theirs:
        ref.check_sheaf(mp, cov, budget=2)
    assert str(ours.value) == str(theirs.value)
    assert ours.value.size == theirs.value.size
    assert ours.value.cover == theirs.value.cover


def test_amalgamation_operator_budget_error_is_check_sheafs():
    """The iso enumerates least covers, so a budget blown on a least
    cover that is also the sheaf check's first blown cover raises the
    same error."""
    cat, _, cov = _site(2)
    mp = build_resource_sheaf(cat, "partial-memory", ref.names(cat), values=(0, 1))
    with pytest.raises(BudgetExceededError) as iso:
        amalgamation_operator(mp, cov, budget=2)
    with pytest.raises(BudgetExceededError) as sheaf:
        check_sheaf(mp, cov, budget=2)
    assert str(iso.value) == str(sheaf.value)
    assert iso.value.size == sheaf.value.size
    assert iso.value.cover == sheaf.value.cover


def test_four_locations_agree_with_reference():
    cat, _ = build_powerset_category(4)
    cov = build_coverage(cat, "downward-closed")
    sb = build_resource_sheaf(cat, "support-bounded", ref.names(cat), values=(0, 1), bound=1)
    rep = check_sheaf(sb, cov)
    assert rep == ref.check_sheaf(sb, cov)
    assert "existence" in [v.kind for v in rep.violations]


@pytest.mark.parametrize("n_locs", [1, 2, 3, 4])
def test_memory_sheaves_agree_with_the_element_level_builder(n_locs):
    """Digit projection against restricting heaps cell by cell, for every
    kind and every support bound 0..n."""
    cat, _ = build_powerset_category(n_locs)
    cases = [("strict-memory", None), ("partial-memory", None)]
    cases += [("support-bounded", k) for k in range(n_locs + 1)]
    for kind, bound in cases:
        kwargs = {} if bound is None else {"bound": bound}
        new = build_resource_sheaf(cat, kind, ref.names(cat), values=(0, 1), **kwargs)
        ref.assert_same_presheaf(new, ref.memory_sheaf(cat, kind, ref.names(cat), (0, 1), bound))
        assert new.name == ref.memory_sheaf(cat, kind, ref.names(cat), (0, 1), bound).name


@pytest.mark.parametrize("coverage", ["downward-closed", "finite-covers"])
@pytest.mark.parametrize("n_locs", [2, 3])
def test_matching_presheaf_agrees_with_the_element_level_reference(n_locs, coverage):
    cat, _ = build_powerset_category(n_locs)
    cov = build_coverage(cat, coverage)
    for kind, kwargs in (("partial-memory", {}), ("support-bounded", {"bound": 1})):
        names = ref.names(cat)
        mp = build_resource_sheaf(cat, kind, names, values=(0, 1), **kwargs)
        new = matching_presheaf(mp, cov)
        old = ref.matching_presheaf(ref.memory_sheaf(cat, kind, names, (0, 1), kwargs.get("bound")),
                                    cov)
        ref.assert_same_presheaf(new, old)


def test_matching_presheaf_of_a_stage_with_a_repeated_element_agrees():
    cat, _, cov = _site(2)
    dup = ref.listed(cat, lambda a: [0, 1, 0], lambda f, x: x, name="dup")
    assert dup.at(0b01) == (0, 1)
    ref.assert_same_presheaf(matching_presheaf(dup, cov), ref.matching_presheaf(dup, cov))


def test_table_fills_and_sheaf_checks_construct_no_elements(built):
    """Deterministic work gate: every restriction table of 4-location
    Mp[0,1], of Mp (*) Mp and of M (x) Mp at 3 locations, and the sheaf
    checks of all three, are computed on ids alone."""
    big, _ = build_powerset_category(4)
    cat, mon = build_powerset_category(3)
    mp, m = (build_resource_sheaf(cat, kind, ref.names(cat), values=(0, 1))
             for kind in ("partial-memory", "strict-memory"))
    cases = [(build_resource_sheaf(big, "partial-memory", ref.names(big), values=(0, 1)),
              build_coverage(big, "downward-closed")),
             (day_decomp(mp, mp, mon), build_coverage(cat, "downward-closed")),
             (day_coend(m, mp, mon), build_coverage(cat, "downward-closed"))]
    built.clear()
    for ps, cov in cases:
        for f in ps.base.all_morphisms():
            ps.table(f)
        assert check_sheaf(ps, cov).ok
    assert sum(built[name] for name in ("Heap", "Decomp", "CoendClass", "MatchClass")) == 0, built


# -- least-cover certificates against the all-cover check -------------------


def _least_cover_sites():
    """The powerset base at 1 to 4 locations under the downward-closed
    coverage, at 2 and 3 also under finite-covers (and the trivial one at
    2), finsurj(2) atomic, finsurj(3) trivial."""
    sites = []
    for n_locs in (1, 2, 3, 4):
        cat, mon = build_powerset_category(n_locs)
        kinds = ("downward-closed", "finite-covers") if n_locs in (2, 3) else ("downward-closed",)
        covs = {kind: build_coverage(cat, kind) for kind in kinds}
        if n_locs == 2:
            covs["trivial"] = trivial_coverage(cat)
        sites += [(f"powerset{n_locs}-{kind}", cat, mon, cov) for kind, cov in covs.items()]
    fcat2, fmon2 = build_finsurj_category(2)
    fcat3, fmon3 = build_finsurj_category(3)
    sites.append(("finsurj2-atomic", fcat2, fmon2, build_coverage(fcat2, "atomic")))
    sites.append(("finsurj3-trivial", fcat3, fmon3, trivial_coverage(fcat3)))
    return sites


def _sub_presheaf(ps, rng, name):
    """A random sub-presheaf of ps: a random subset per stage, closed
    under restriction."""
    cat = ps.base
    keep = {a: {i for i in range(ps.size(a)) if rng.random() < 0.6} for a in cat.objects}
    changed = True
    while changed:
        changed = False
        for f in cat.all_morphisms():
            image = {ps.table(f)[i] for i in keep[cat.dst(f)]}
            if not image <= keep[cat.src(f)]:
                keep[cat.src(f)] |= image
                changed = True
    return ref.listed(cat, lambda a: [ps.element(a, i) for i in keep[a]], ps.restrict, name=name)


def _doubled(ps, top):
    """ps with two copies of each element at `top`, restrictions out of
    `top` forgetting the copy: a presheaf that is not separated at top
    unless top's least cover is maximal."""
    cat = ps.base

    def stages(a):
        return [(x, c) for x in ps.at(a) for c in (0, 1)] if a == top else ps.at(a)

    def restr(f, y):
        if cat.dst(f) != top:
            return ps.restrict(f, y)
        x, c = y
        return (ps.restrict(f, x), c) if cat.src(f) == top else ps.restrict(f, x)

    return ref.listed(cat, stages, restr, name=f"{ps.name}x2@{top!r}")


def _least_cover_cases(cat, mon):
    """Sheaves and non-sheaves on one base: the builders, Day convolution
    pairs, random sub-presheaves and doubled presheaves of `base`, as a
    pair (cases, decompositions).  At 4 locations the memory sheaves carry
    one value, two representables stand for all sixteen, and only the
    decompositions with left factor M[0] are taken."""
    rng = random.Random(11)
    top = max(cat.objects, key=lambda a: len(cat.mors_into(a)))
    large = len(cat.objects) > 8
    const = ref.constant(cat, (0, 1))
    cases = [const, ref.terminal(cat)]
    at = (cat.objects[1], top) if large else cat.objects
    cases += [ref.yoneda(cat, a) for a in at]
    if cat.kind == "powerset":
        values = (0,) if large else (0, 1)
        base = build_resource_sheaf(cat, "partial-memory", ref.names(cat), values=values)
        cases += [base, build_resource_sheaf(cat, "strict-memory", ref.names(cat), values=values)]
        cases += [build_resource_sheaf(cat, "support-bounded", ref.names(cat), values=values,
                                       bound=k) for k in range(3)]
        values = (0, 1) if top.bit_count() == 2 else (0,)
        small = [build_resource_sheaf(cat, kind, ref.names(cat), values=values)
                 for kind in ("strict-memory", "partial-memory")]
        small.append(build_resource_sheaf(cat, "support-bounded", ref.names(cat), values=values,
                                          bound=1))
    else:
        base = ref.yoneda(cat, top)
        small = [ref.yoneda(cat, a) for a in cat.objects[:2]]
    pairs = [(f_sheaf, g_sheaf) for f_sheaf in small for g_sheaf in small]
    cases += [day_coend(f_sheaf, g_sheaf, mon) for f_sheaf, g_sheaf in pairs]
    cases += [_sub_presheaf(base, rng, f"sub{i}({base.name})") for i in range(2 if large else 6)]
    cases += [_doubled(base, top), _doubled(const, top)]
    decomp_pairs = pairs[:len(small)] if large else pairs
    return cases, [day_decomp(f_sheaf, g_sheaf, mon) for f_sheaf, g_sheaf in decomp_pairs]


LEAST_COVER_SITES = {site[0]: site for site in _least_cover_sites()}


@functools.cache
def _reference_reports(name):
    """Per case of the named site, the presheaf and its all-cover report:
    the element-level reference's, but on Day decompositions, which have
    too many elements per stage for it, the reference's replay on ids
    (`ref.replay_sheaf`: every cover, maximal sieves included, each
    family looked up by its generators' factorisations)."""
    _, cat, mon, cov = LEAST_COVER_SITES[name]
    cases, decomps = _least_cover_cases(cat, mon)
    return ([(ps, ref.check_sheaf(ps, cov)) for ps in cases]
            + [(ps, ref.replay_report(ps, cov)) for ps in decomps])


@pytest.mark.parametrize("name", sorted(LEAST_COVER_SITES))
def test_least_cover_verdict_is_the_all_cover_verdict(name):
    """`is_sheaf` reads least covers only; an all-cover check is the
    oracle.  Every site with a cover other than a maximal sieve has both
    sheaves and non-sheaves among the cases."""
    cov = LEAST_COVER_SITES[name][3]
    verdicts = []
    for ps, want in _reference_reports(name):
        assert is_sheaf(ps, cov) == want.ok, ps.name
        verdicts.append(want.ok)
    if any(len(cov.covers(a)) > 1 for a in cov.cat.objects):
        assert True in verdicts and False in verdicts


@pytest.mark.parametrize("name", sorted(LEAST_COVER_SITES))
def test_check_sheaf_agrees_with_the_all_cover_reference(name):
    """The certified count on sheaves and the replay on non-sheaves give
    the all-cover check's report, note included."""
    cov = LEAST_COVER_SITES[name][3]
    for ps, want in _reference_reports(name):
        assert check_sheaf(ps, cov) == want, ps.name


def _smallest_budget(run):
    """The smallest family budget under which `run(budget)` raises no
    `BudgetExceededError`."""
    lo, hi = 0, 1
    while True:
        try:
            run(hi)
            break
        except BudgetExceededError:
            lo, hi = hi + 1, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            run(mid)
            hi = mid
        except BudgetExceededError:
            lo = mid + 1
    return lo


@pytest.mark.parametrize("name", sorted(LEAST_COVER_SITES))
def test_sheaf_budget_is_the_all_cover_budget(name):
    """On a sheaf `check_sheaf` enumerates least covers only, so its
    budget bounds their partial families alone.  On the built-in
    coverages that is no weaker than the all-cover replay's bound: the
    partials after i generators of a cover are the matching families of
    the sieve the first i generate, which covers the union of their
    sources (downward-closed), the stage itself (atomic), or is the
    maximal sieve (trivial); on a sheaf they number |F| there, which that
    stage's least cover reaches as well."""
    cov = LEAST_COVER_SITES[name][3]
    for ps, want in _reference_reports(name):
        if want.ok:
            least = _smallest_budget(lambda b: check_sheaf(ps, cov, budget=b))
            replay = _smallest_budget(lambda b: ref.replay_sheaf(Report(""), ps, cov, b))
            assert least == replay, ps.name


def test_check_sheaf_of_a_four_location_sheaf_encodes_least_covers_only(built):
    """Deterministic work gate: on a sheaf `check_sheaf` encodes the least
    cover of each object whose least cover is not its maximal sieve (the
    11 stages of two or more locations; 16 when maximal sieves were
    encoded too), and counts the other covers' families in closed form."""
    cat, _ = build_powerset_category(4)
    cov = build_coverage(cat, "downward-closed")
    mp = build_resource_sheaf(cat, "partial-memory", ref.names(cat), values=(0, 1))
    built.clear()
    rep = check_sheaf(mp, cov)
    assert rep.ok
    assert built["_EncodedCover"] == sum(a.bit_count() >= 2 for a in cat.objects) == 11
    n_families = sum(len(cov.covers(a)) * mp.size(a) for a in cat.objects)
    assert rep.notes == [f"checked {n_families} families"]


def test_check_sheaf_of_a_non_sheaf_enumerates_each_cover_once(monkeypatch):
    """Deterministic work gate: on a presheaf that is not a sheaf,
    `check_sheaf` enumerates each cover's families at most once: the
    replay reads the families of the least covers that the verdict
    enumerated, and neither pass enumerates a maximal sieve.  On the
    3-location, 4-value, bound-2 support-bounded memory model that is one
    enumeration for each of the 11 covers that are not maximal sieves
    (19 covers in all; 27 enumerations before the replay read the least
    covers' families, 19 before maximal sieves were counted in closed
    form), with the report of the reference replay that enumerates every
    cover."""
    cat, _, cov = _site(3)
    ps = build_resource_sheaf(cat, "support-bounded", ref.names(cat), values=(0, 1, 2, 3), bound=2)
    calls = []
    families = _EncodedCover.families
    monkeypatch.setattr(_EncodedCover, "families",
                        lambda self, budget: calls.append(self.cover) or families(self, budget))
    rep = check_sheaf(ps, cov)
    assert not rep.ok
    assert sum(len(cov.covers(a)) for a in cat.objects) == 19
    assert len(calls) == len(set(calls)) == 19 - len(cat.objects) == 11
    assert all(len(s.members) < len(cat.mors_into(s.target)) for s in calls)
    assert rep == ref.replay_report(ps, cov)


def test_the_amalgamation_iso_enumerates_each_least_cover_once(monkeypatch):
    """Deterministic work gate: building the amalgamation iso of a sheaf
    enumerates each least cover's families once.  The sheaf verdict
    (`require_sheaf`) enumerates the 11 least covers that are not maximal
    sieves, and the matching presheaf reads those and enumerates the 5
    maximal ones: 16 enumerations on the 16 stages of the 4-location,
    2-value weak-partial model (27 when both enumerated afresh)."""
    from sheafsep.seplogic import make_memory_model

    m = make_memory_model(("w", "x", "y", "z"), (0, 1), monoid_variant="weak-partial")
    calls = []
    families = _EncodedCover.families
    monkeypatch.setattr(_EncodedCover, "families",
                        lambda self, budget: calls.append(self.cover) or families(self, budget))
    iso = amalgamation_operator(m.sheaf, m.site.cov)
    assert iso.report.ok
    assert len(calls) == len(set(calls)) == len(m.site.cat.objects) == 16
    assert set(calls) == {m.site.cov.min_cover(a) for a in m.site.cat.objects}


@pytest.mark.parametrize("kind", MEMORY_KINDS)
@pytest.mark.parametrize("n_locs", [2, 3])
def test_fibres_agree_with_the_tables(n_locs, kind):
    """`Presheaf.fibres(f)` holds, per id at src f, the ids that `table(f)`
    sends there, on stages on either side of 64 ids."""
    cat, _ = build_powerset_category(n_locs)
    for bound in (1, n_locs) if kind == "support-bounded" else (None,):
        ps = build_resource_sheaf(cat, kind, ref.names(cat), values=(0, 1, 2), bound=bound)
        for f in cat.all_morphisms():
            table = ps.table(f)
            assert ps.fibres(f) == tuple(sum(1 << i for i, y in enumerate(table) if y == j)
                                         for j in range(ps.size(cat.src(f))))


CATEGORIES = {
    **{f"powerset{n}": lambda n=n: build_powerset_category(n)[0]
       for n in (2, 3, 4)},
    **{f"finsurj{n}": lambda n=n: build_finsurj_category(n)[0] for n in (2, 3)},
}


@pytest.mark.parametrize("name", sorted(CATEGORIES))
def test_cover_generators_from_masks_agree_with_factorisations(name):
    """Generators and factor positions read from `SieveMasks` against the
    `factorisations`-based reference, on every nonempty sieve."""
    cat = CATEGORIES[name]()
    sm = sieve_masks(cat)
    for a in cat.objects:
        for m in sm.all(a)[1:]:  # the empty sieve sorts first
            sieve, skeleton = sm.sieve(a, m), sm.skeleton(a, m)
            assert skeleton.gens == ref.generators(cat, sieve)
            assert list(skeleton.factors) == ref.factors(cat, sieve, skeleton.gens)


@pytest.mark.parametrize("base, kind, n", [("powerset", "downward-closed", n) for n in range(5)]
                         + [("finsurj", "atomic", n) for n in (1, 2)])
def test_cover_skeletons_agree_with_the_per_cover_construction(base, kind, n):
    """Oracle: on every cover of the lub coverage at 0-4 locations and of
    the atomic coverage on finite surjections, the site half the site
    keeps (`SieveMasks.skeleton`) is the one each carrier's cover built
    for itself, members sorted per cover and squares read from
    `FinCat.squares` (`presheaf_reference.cover_skeleton`); it is built
    once and read again."""
    cat, _ = (build_powerset_category if base == "powerset" else build_finsurj_category)(n)
    cov, sm, point = build_coverage(cat, kind), sieve_masks(cat), ref.terminal(cat)
    for a in cat.objects:
        for cover in cov.covers(a):
            m = sm.mask(a, cover.members)
            skeleton = sm.skeleton(a, m)
            assert skeleton == ref.cover_skeleton(cat, cover)
            assert sm.skeleton(a, m) is skeleton
            assert _EncodedCover(point, cover).skeleton is skeleton


@pytest.mark.parametrize("n_locs", [2, 3])
def test_amalgamation_operator_on_a_non_sheaf_reports_check_sheafs(n_locs):
    cat, _, cov = _site(n_locs)
    top = cat.objects[-1]
    names = ref.names(cat)
    mp = build_resource_sheaf(cat, "partial-memory", names, values=(0, 1))
    for ps in (build_resource_sheaf(cat, "support-bounded", names, values=(0, 1), bound=1),
               _doubled(mp, top)):
        with pytest.raises(NotASheafError) as exc:
            amalgamation_operator(ps, cov)
        assert exc.value.report == check_sheaf(ps, cov)
        assert not exc.value.report.ok
