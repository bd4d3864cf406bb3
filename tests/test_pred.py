import random

import pytest

import pred_reference as ref
from day_reference import apply
from presheaf_reference import IncompatibleFamilyError, constant, morphism, restrict_heap
from sheafsep.day import Decomp, build_memory_monoid, day_decomp
from sheafsep.fincat import build_powerset_category
from sheafsep.pred import (
    bottom_predicate,
    combine_alpha,
    direct_image,
    implication,
    join,
    meet,
    random_closed_predicate,
    raw_image,
    reindex_preimage,
    top_predicate,
)
from sheafsep.presheaf import Heap, build_resource_sheaf, validate_sheaf_morphism
from sheafsep.site import Site, build_coverage
from site_reference import generate_sieve, maximal_sieve


def make_site(locs, vals=(0, 1)):
    cat, mon = build_powerset_category(len(locs))
    cov = build_coverage(cat, "downward-closed")
    site = Site(cat, cov, mon)
    mp = build_resource_sheaf(cat, "partial-memory", locs, values=vals)
    return site, mp


@pytest.fixture(scope="module")
def site1():
    return make_site({"x"})


@pytest.fixture(scope="module")
def site2():
    return make_site({"x", "y"})


def singleton_pred(site, mp, stage, v, heap):
    """The downward closure of a single heap at a sub-stage."""
    cat = site.cat
    fam = {p: set() for p in cat.mors_into(stage)}
    fam[cat.hom(v, stage)[0]].add(heap)
    return ref.predicate(mp, site, stage, ref.close(mp, site, stage, fam))


def test_meet_with_top_is_identity(site1):
    site, mp = site1
    stage = 0b01
    p = singleton_pred(site, mp, stage, 0b01, Heap.of(("x",), {"x": 0}))
    assert meet(p, top_predicate(mp, site, stage)) == p


def test_join_with_bottom_is_identity(site1):
    site, mp = site1
    stage = 0b01
    p = singleton_pred(site, mp, stage, 0b01, Heap.of(("x",), {"x": 0}))
    assert join(bottom_predicate(mp, site, stage), p) == p


def test_join_of_two_singletons(site1):
    site, mp = site1
    stage = 0b01
    p0 = singleton_pred(site, mp, stage, 0b01, Heap.of(("x",), {"x": 0}))
    p1 = singleton_pred(site, mp, stage, 0b01, Heap.of(("x",), {"x": 1}))
    j = join(p0, p1)
    assert ref.at_subset(j, 0b01) == frozenset(
        {Heap.of(("x",), {"x": 0}), Heap.of(("x",), {"x": 1})}
    )
    assert ref.at_subset(j, 0) == frozenset({Heap((), ())})


def test_lattice_op_dispatch(site1):
    """On memory and on a constant presheaf given an element twice, top
    holds every element and is the unit of meet against bottom."""
    site, mp = site1
    stage = 0b01
    twice = constant(site.cat, (1, 0, 1))
    for ps in (mp, twice):
        t = top_predicate(ps, site, stage)
        b = bottom_predicate(ps, site, stage)
        every = {p: ps.at(site.cat.src(p)) for p in site.cat.mors_into(stage)}
        assert t == ref.predicate(ps, site, stage, every)
        assert meet(t, b) == b
        assert join(t, b) == t


def test_implication_vacuous_and_reflexive(site1):
    site, mp = site1
    stage = 0b01
    p = singleton_pred(site, mp, stage, 0b01, Heap.of(("x",), {"x": 0}))
    bot = bottom_predicate(mp, site, stage)
    assert implication(bot, p) == top_predicate(mp, site, stage)
    assert implication(p, p) == top_predicate(mp, site, stage)


def nonstrict_pointsto(site, mp, stage, loc, val):
    cat = site.cat
    fam = {}
    for p in cat.mors_into(stage):
        v = cat.src(p)
        fam[p] = frozenset(
            s for s in mp.at(v) if loc not in mp.named(v) or s.get(loc) == val
        )
    return ref.predicate(mp, site, stage, fam)


def test_implication_to_bottom_is_kripke_negation(site1):
    """not (x ~> 0) is empty at {x}: every heap restricts to the empty
    heap, which satisfies the antecedent at the empty stage."""
    site, mp = site1
    stage = 0b01
    atom = nonstrict_pointsto(site, mp, stage, "x", 0)
    neg = implication(atom, bottom_predicate(mp, site, stage))
    assert ref.at_subset(neg, 0b01) == frozenset()
    assert ref.at_subset(neg, 0) == frozenset()


def test_residuation_exhaustive_single_location(site1):
    """meet(P,Q) <= R iff P <= (Q -> R), over every predicate triple."""
    site, mp = site1
    stage = 0b01
    cat = site.cat
    preds = all_predicates(site, mp, stage)
    assert len(preds) == 9
    for p in preds:
        for q in preds:
            for r in preds:
                lhs = meet(p, q).issubset(r)
                rhs = p.issubset(implication(q, r))
                assert lhs == rhs


def all_predicates(site, mp, stage):
    """Enumerate every restriction-closed, locally-closed family."""
    from itertools import product as iproduct

    cat = site.cat
    slice_objs = cat.mors_into(stage)
    pools = [
        [frozenset(c) for c in _subsets_of(mp.at(cat.src(p)))] for p in slice_objs
    ]
    out = []
    for combo in iproduct(*pools):
        fam = dict(zip(slice_objs, combo))
        cand = ref.predicate(mp, site, stage, fam)
        if ref.validate_predicate_bits(cand).ok:
            out.append(cand)
    return out


def _subsets_of(xs):
    out = [()]
    for x in xs:
        out += [s + (x,) for s in out]
    return out


def test_residuation_sampled_two_locations(site2):
    site, mp = site2
    stage = 0b11
    rng = random.Random(420)
    for _ in range(120):
        p = random_closed_predicate(rng, mp, site, stage)
        q = random_closed_predicate(rng, mp, site, stage)
        r = random_closed_predicate(rng, mp, site, stage)
        assert meet(p, q).issubset(r) == p.issubset(implication(q, r))


def test_distributivity_sampled(site2):
    site, mp = site2
    stage = 0b11
    rng = random.Random(7)
    for _ in range(60):
        p = random_closed_predicate(rng, mp, site, stage)
        q = random_closed_predicate(rng, mp, site, stage)
        r = random_closed_predicate(rng, mp, site, stage)
        assert meet(p, join(q, r)) == join(meet(p, q), meet(p, r))


def total_mult_morphism(site, mp, variant="total"):
    mon = build_memory_monoid(mp, variant)
    decomp = day_decomp(mp, mp, site.monoidal)
    components = {}
    for a in site.cat.objects:
        components[a] = {
            d: apply(mon, d) for d in decomp.at(a) if apply(mon, d) is not None
        }
    return decomp, morphism(decomp, mp, components, name=f"mult[{variant}]")


def test_mult_is_natural(site2):
    site, mp = site2
    _, alpha = total_mult_morphism(site, mp)
    assert validate_sheaf_morphism(alpha).ok
    for variant in ("weak-partial", "strong-partial"):
        _, alpha = total_mult_morphism(site, mp, variant)
        assert validate_sheaf_morphism(alpha).ok


def test_preimage_rejects_non_natural_map(site2):
    """Naturality is `validate_sheaf_morphism`'s to check: `reindex_preimage`
    assumes it."""
    site, mp = site2
    stage = 0b11
    swap01 = {0: 1, 1: 0, None: None}
    components = {
        a: {
            x: (
                Heap(x.locations, tuple(swap01[v] for v in x.values))
                if a == stage  # tamper only the top component
                else x
            )
            for x in mp.at(a)
        }
        for a in site.cat.objects
    }
    crooked = morphism(mp, mp, components, name="crooked")
    assert not validate_sheaf_morphism(crooked).ok


def test_preimage_identity_and_top(site1):
    site, mp = site1
    stage = 0b01
    ident = morphism(
        mp, mp, {a: {x: x for x in mp.at(a)} for a in site.cat.objects}, name="id"
    )
    q = singleton_pred(site, mp, stage, 0b01, Heap.of(("x",), {"x": 0}))
    assert reindex_preimage(ident, q) == q
    assert reindex_preimage(ident, top_predicate(mp, site, stage)) == top_predicate(
        mp, site, stage
    )


def test_preimage_of_conflict_heap_under_total_mult(site1):
    site, mp = site1
    stage = 0b01
    decomp, alpha = total_mult_morphism(site, mp)
    q = singleton_pred(site, mp, stage, 0b01, Heap.of(("x",), {"x": None}))
    pre = reindex_preimage(alpha, q)
    conflict = Decomp(
        0b01, 0b01, 0b01,
        Heap.of(("x",), {"x": 0}), Heap.of(("x",), {"x": 1}),
    )
    assert conflict in ref.at_subset(pre, 0b01)


def test_direct_image_closes_raw_image(site2):
    site, mp = site2
    stage = 0b11
    decomp, alpha = total_mult_morphism(site, mp)
    rng = random.Random(31)
    for _ in range(20):
        p = random_closed_predicate(rng, decomp, site, stage)
        raw = raw_image(alpha, p)
        closed = direct_image(alpha, p)
        assert raw.issubset(closed)


def test_image_identity_and_bottom(site1):
    site, mp = site1
    stage = 0b01
    ident = morphism(
        mp, mp, {a: {x: x for x in mp.at(a)} for a in site.cat.objects}, name="id"
    )
    p = singleton_pred(site, mp, stage, 0b01, Heap.of(("x",), {"x": 1}))
    assert direct_image(ident, p) == p
    assert direct_image(ident, bottom_predicate(mp, site, stage)) == bottom_predicate(
        mp, site, stage
    )


def test_existential_image_of_decomposition_predicate(site1):
    site, mp = site1
    stage = 0b01
    decomp, alpha = total_mult_morphism(site, mp)
    d = Decomp(0b01, 0b01, 0, Heap.of(("x",), {"x": 0}), Heap((), ()))
    fam = {p: set() for p in site.cat.mors_into(stage)}
    fam[site.cat.id(stage)].add(d)
    p = ref.predicate(decomp, site, stage, ref.close(decomp, site, stage, fam))
    img = direct_image(alpha, p)
    assert Heap.of(("x",), {"x": 0}) in ref.at_subset(img, 0b01)


def test_galois_connection_sampled(site2):
    site, mp = site2
    stage = 0b11
    decomp, alpha = total_mult_morphism(site, mp)
    rng = random.Random(99)
    for _ in range(60):
        p = random_closed_predicate(rng, decomp, site, stage)
        q = random_closed_predicate(rng, mp, site, stage)
        assert direct_image(alpha, p).issubset(q) == p.issubset(
            reindex_preimage(alpha, q)
        )


def test_preimage_preserves_meets_and_top(site2):
    site, mp = site2
    stage = 0b11
    decomp, alpha = total_mult_morphism(site, mp)
    rng = random.Random(5)
    for _ in range(30):
        q1 = random_closed_predicate(rng, mp, site, stage)
        q2 = random_closed_predicate(rng, mp, site, stage)
        assert reindex_preimage(alpha, meet(q1, q2)) == meet(
            reindex_preimage(alpha, q1), reindex_preimage(alpha, q2)
        )
    assert reindex_preimage(alpha, top_predicate(mp, site, stage)) == top_predicate(
        decomp, site, stage
    )


def test_image_preserves_joins_and_bottom(site2):
    site, mp = site2
    stage = 0b11
    decomp, alpha = total_mult_morphism(site, mp)
    rng = random.Random(6)
    for _ in range(30):
        p1 = random_closed_predicate(rng, decomp, site, stage)
        p2 = random_closed_predicate(rng, decomp, site, stage)
        assert direct_image(alpha, join(p1, p2)) == join(
            direct_image(alpha, p1), direct_image(alpha, p2)
        )
    assert direct_image(alpha, bottom_predicate(decomp, site, stage)) == bottom_predicate(
        mp, site, stage
    )


def test_glue_two_compatible_parts(site2):
    site, mp = site2
    top = 0b11
    cat = site.cat
    cover = generate_sieve(cat, top, [(0b01, top), (0b10, top)])
    px = nonstrict_pointsto(site, mp, 0b01, "x", 0)
    py = nonstrict_pointsto(site, mp, 0b10, "y", 1)
    glued = ref.glue_predicates(
        site, mp, cover, {(0b01, top): px, (0b10, top): py}
    )
    assert ref.restrict_predicate(glued, (0b01, top)) == px
    assert ref.restrict_predicate(glued, (0b10, top)) == py
    # the glued predicate at the top stage is forced by the cover
    want = frozenset(
        s for s in mp.at(top) if s.get("x") == 0 and s.get("y") == 1
    )
    assert ref.at_subset(glued, top) == want


def test_glue_over_maximal_sieve_returns_part(site1):
    site, mp = site1
    stage = 0b01
    p = nonstrict_pointsto(site, mp, stage, "x", 0)
    cover = maximal_sieve(site.cat, stage)
    glued = ref.glue_predicates(site, mp, cover, {site.cat.id(stage): p})
    assert glued == p


def test_glue_rejects_incompatible_parts(site2):
    site, mp = site2
    top = 0b11
    cat = site.cat
    cover = generate_sieve(cat, top, [(0b01, top), (0b10, top)])
    px = nonstrict_pointsto(site, mp, 0b01, "x", 0)
    py = nonstrict_pointsto(site, mp, 0b10, "y", 1)
    # tamper the empty-stage family of one part to clash at the overlap
    bad_fam = dict(py.family)
    bad_fam[(0, 0b10)] = frozenset()
    py_bad = ref.predicate(mp, site, 0b10, bad_fam)
    with pytest.raises(IncompatibleFamilyError):
        ref.glue_predicates(
            site, mp, cover, {(0b01, top): px, (0b10, top): py_bad}
        )


def test_glued_predicate_is_unique_by_exhaustion(site1):
    """Among all subsheaf predicates, exactly one restricts to the parts."""
    site, mp = site1
    stage = 0b01
    part = nonstrict_pointsto(site, mp, stage, "x", 0)
    cover = maximal_sieve(site.cat, stage)
    glued = ref.glue_predicates(site, mp, cover, {site.cat.id(stage): part})
    matches = [
        cand
        for cand in all_predicates(site, mp, stage)
        if all(
            ref.restrict_predicate(cand, f).family == ref.restrict_predicate(glued, f).family
            for f in cover.members
        )
    ]
    assert len(matches) == 1 and matches[0] == glued


def test_combine_alpha_top_and_bottom(site2):
    site, mp = site2
    stage = 0b11
    decomp = day_decomp(mp, mp, site.monoidal)
    t = top_predicate(mp, site, stage)
    b = bottom_predicate(mp, site, stage)
    assert combine_alpha(t, t, decomp) == top_predicate(decomp, site, stage)
    assert combine_alpha(t, b, decomp) == bottom_predicate(decomp, site, stage)


def test_combine_alpha_pointsto_pair(site2):
    site, mp = site2
    stage = 0b11
    decomp = day_decomp(mp, mp, site.monoidal)
    # allocated atoms: empty below their location
    def alloc(loc, val):
        cat = site.cat
        fam = {}
        for p in cat.mors_into(stage):
            v = cat.src(p)
            fam[p] = frozenset(
                s for s in mp.at(v) if loc in mp.named(v) and s.get(loc) == val
            )
        return ref.predicate(mp, site, stage, fam)

    combined = combine_alpha(alloc("x", 0), alloc("y", 1), decomp)
    d = Decomp(
        stage, 0b01, 0b10,
        Heap.of(("x",), {"x": 0}), Heap.of(("y",), {"y": 1}),
    )
    assert d in ref.at_subset(combined, stage)


def test_allocated_atom_breaks_restriction_closure_as_documented(site1):
    site, mp = site1
    stage = 0b01
    cat = site.cat
    fam = {
        p: frozenset(
            s for s in mp.at(cat.src(p)) if "x" in mp.named(cat.src(p)) and s.get("x") == 0
        )
        for p in cat.mors_into(stage)
    }
    alloc = ref.predicate(mp, site, stage, fam)
    rep = ref.validate_predicate_bits(alloc)
    assert "restriction" in [v.kind for v in rep.violations]


@pytest.mark.parametrize("cells", [{"x": 0, "y": 1}, {"x": 0, "y": 1, "z": 0}])
def test_local_character_witness_reported_once(cells):
    """The restrictions of one heap sit at every slice below the top, so
    local character forces the heap in at the top, which lacks it: one
    local-character witness, however many covers force it (one at two
    locations, several at three), and no restriction witness."""
    site, mp = make_site(set(cells))
    cat = site.cat
    top = cat.objects[-1]
    glued = Heap.of(cells, cells)
    fam = {
        p: frozenset() if cat.src(p) == top
        else frozenset({restrict_heap(glued, mp.named(cat.src(p)))})
        for p in cat.mors_into(top)
    }
    rep = ref.validate_predicate_bits(ref.predicate(mp, site, top, fam))
    assert [v.kind for v in rep.violations] == ["local-character"]
    assert rep.violations[0].detail == f"{glued} is locally present at {cat.id(top)!r} but missing"
