"""Differential tests: the bitset predicate fibre and the table-driven
star against the element-level reference in `pred_reference`."""

import functools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import day_reference
import pred_reference as ref
from presheaf_reference import yoneda
from psl_reference import probability_presheaf
from sheafsep.day import (
    UNDEFINED,
    Decomp,
    ResourceMonoid,
    build_memory_monoid,
    day_decomp,
    splittings,
)
from sheafsep.fincat import bits, build_finsurj_category, build_powerset_category
import sheafsep.pred as pred
from sheafsep.pred import (
    KripkePredicate,
    _bitset,
    _close,
    _image,
    _members,
    _preimage,
    direct_image,
    implication,
    join,
    random_closed_predicate,
    reindex_preimage,
)
from sheafsep.errors import (
    AtomTypeError,
    MonoidalStructureError,
)
from sheafsep.presheaf import (
    amalgamation_operator,
    build_resource_sheaf,
    matching_presheaf,
)
from sheafsep.seplogic import (
    PointsToAlloc,
    PointsToNonStrict,
    PointsToStrict,
    ResourceModel,
    _pipeline_pieces,
    _star_bits,
    _star_terms,
    _star_witness,
    atom_predicate,
    eval_formula,
    make_memory_model,
    parse_formula,
    sat,
    sep_conj,
)
from sheafsep.site import Site, build_coverage
from site_reference import trivial_coverage

VARIANTS = ("total", "weak-partial", "strong-partial")
COVERAGES = ("downward-closed", "finite-covers")
MODELS = [(n, v, c) for n in (2, 3) for v in VARIANTS for c in COVERAGES]


@functools.cache
def model(n, variant, coverage="downward-closed"):
    locs = ("x", "y", "z", "w")[:n]
    return make_memory_model(locs, (0, 1), monoid_variant=variant, coverage_kind=coverage)


def predicates(m, seed):
    """Seeded closed predicates and one atom of each kind."""
    rng = random.Random(seed)
    preds = [random_closed_predicate(rng, m.sheaf, m.site, m.stage) for _ in range(4)]
    for kind, loc, val in ((PointsToStrict, "x", 0), (PointsToNonStrict, "y", 1),
                           (PointsToAlloc, "x", 1)):
        preds.append(atom_predicate(m, kind(loc, val)))
    return preds


def violations(rep):
    return sorted((v.kind, v.detail) for v in rep.violations)


def random_family(rng, resource, site, stage, density):
    cat = site.cat
    return {
        p: frozenset(x for x in resource.at(cat.src(p)) if rng.random() < density)
        for p in cat.mors_into(stage)
    }


@pytest.mark.parametrize("n,variant,coverage", MODELS)
def test_lattice_closure_and_reports_match_reference(n, variant, coverage):
    m = model(n, variant, coverage)
    preds = predicates(m, seed=n)
    for p in preds:
        assert violations(ref.validate_predicate_bits(p)) == violations(ref.validate_predicate(p))
        for q in preds[::2]:
            assert join(p, q).family == ref.join(p, q)
            assert implication(p, q).family == ref.implication(p, q)
    rng = random.Random(7)
    for density in (0.05, 0.2, 0.5):
        fam = random_family(rng, m.sheaf, m.site, m.stage, density)
        raw = ref.predicate(m.sheaf, m.site, m.stage, fam)
        assert violations(ref.validate_predicate_bits(raw)) == violations(ref.validate_predicate(raw))
        closed = KripkePredicate(m.sheaf, m.site, m.stage, _close(m.sheaf, m.site, raw.bits))
        assert closed.family == ref.close(m.sheaf, m.site, m.stage, fam)


@pytest.mark.parametrize("n", [2, 3])
def test_predicates_on_a_non_thin_base_match_reference(n):
    """On finite surjections several slice morphisms share a source, and
    under the atomic coverage (n = 2) a stage has several covers: the
    base reading of slice morphisms and of the least cover against the
    slice category and every slice cover, on the probability presheaf
    and on representables."""
    cat, _ = build_finsurj_category(n)
    site = Site(cat, build_coverage(cat, "atomic") if n == 2 else trivial_coverage(cat))
    resources = [probability_presheaf(cat, 2)] + [
        yoneda(cat, a) for a in (1, n)]
    rng, kinds = random.Random(n), set()
    for res in resources:
        for stage in cat.objects:
            preds = []
            for density in (0.1, 0.3, 0.6) * 3:
                fam = random_family(rng, res, site, stage, density)
                raw = ref.predicate(res, site, stage, fam)
                found = violations(ref.validate_predicate_bits(raw))
                assert found == violations(ref.validate_predicate(raw))
                kinds.update(kind for kind, _ in found)
                closed = KripkePredicate(res, site, stage, _close(res, site, raw.bits))
                assert closed.family == ref.close(res, site, stage, fam)
                preds += [raw, closed]
            for p in preds[::2]:
                for q in preds[1::3]:
                    assert implication(p, q).family == ref.implication(p, q)
    assert kinds == {"restriction", "local-character"} if n == 2 else {"restriction"}


@functools.cache
def closure_site(base, size, coverage):
    """A built-in site and the resources the closure test draws from: on
    the powerset M, Mp, a support-bounded Mp, Mp's Day decompositions
    and Match(Mp) (one value at 4 locations for the decompositions,
    whose top stage would hold 50,625 pairs with two); on finite
    surjections the probability presheaf and every representable."""
    if base == "powerset":
        cat, mon = build_powerset_category(size)
        cov = build_coverage(cat, coverage)
        locs = ("x", "y", "z", "w")[:size]
        mp = build_resource_sheaf(cat, "partial-memory", locs, values=(0, 1))
        mp0 = build_resource_sheaf(cat, "partial-memory", locs,
                                   values=(0, 1) if size < 4 else (0,))
        return Site(cat, cov, mon), (
            build_resource_sheaf(cat, "strict-memory", locs, values=(0, 1)), mp,
            build_resource_sheaf(cat, "support-bounded", locs, values=(0, 1), bound=1),
            day_decomp(mp0, mp0, mon), matching_presheaf(mp, cov))
    cat, _ = build_finsurj_category(size)
    cov = trivial_coverage(cat) if coverage == "trivial" else build_coverage(cat, coverage)
    return Site(cat, cov), (probability_presheaf(cat, 2),) + tuple(
        yoneda(cat, a) for a in cat.objects)


CLOSURE_SITES = ([("powerset", n, "downward-closed") for n in (1, 2, 3, 4)]
                 + [("finsurj", n, "trivial") for n in (1, 2, 3, 4)]
                 + [("finsurj", n, "atomic") for n in (1, 2)])


@pytest.mark.parametrize("base,size,coverage", CLOSURE_SITES)
@settings(max_examples=30, derandomize=True, deadline=None)
@given(data=st.data(), density=st.floats(0, 0.5), seed=st.integers(0, 2**32))
def test_two_pass_closure_is_the_fixpoint(base, size, coverage, data, density, seed):
    """`_close`'s down and up passes give the fixpoint of `forced_bits` on
    every built-in site (finite-covers builds the covers of
    downward-closed), and the result is a closed subsheaf predicate."""
    site, resources = closure_site(base, size, coverage)
    res = data.draw(st.sampled_from(resources))
    stage = data.draw(st.sampled_from(site.cat.objects))
    rng, src = random.Random(seed), site.cat.src
    bits = {p: _bitset([rng.random() < density for _ in range(res.size(src(p)))])
            for p in site.cat.mors_into(stage)}
    closed = _close(res, site, bits)
    assert closed == ref.close_bits(res, site, bits)
    assert _close(res, site, closed) == closed
    assert ref.validate_predicate_bits(KripkePredicate(res, site, stage, closed)).ok


@pytest.mark.parametrize("n,variant,coverage", MODELS)
def test_images_along_the_pipeline_maps_match_reference(n, variant, coverage):
    """Preimage and existential image along the amalgamation iso, both
    ways, and along the multiplication into Match(F) at two locations."""
    m = model(n, variant, coverage)
    iso = amalgamation_operator(m.sheaf, m.site.cov)
    rng = random.Random(n)
    maps = [iso.forward, iso.inverse]
    if n == 2:
        maps.append(_pipeline_pieces(m, iso)[1])
    for alpha in maps:
        for _ in range(3):
            p = random_closed_predicate(rng, alpha.source, m.site, m.stage)
            q = random_closed_predicate(rng, alpha.target, m.site, m.stage)
            assert direct_image(alpha, p).family == ref.direct_image(alpha, p)
            assert reindex_preimage(alpha, q).family == ref.reindex_preimage(alpha, q)


@pytest.mark.parametrize("n,variant,coverage", MODELS)
def test_stars_and_witnesses_match_reference(n, variant, coverage):
    m = model(n, variant, coverage)
    preds, maps = predicates(m, seed=10 + n), ref.pipeline_maps(m)
    for p, q in zip(preds, preds[1:] + preds[:1]):
        assert sep_conj(m, p, q, "unfolded").family == ref.unfolded_star(m, p, q)
        assert sep_conj(m, p, q, "pipeline").family == ref.pipeline_star(m, p, q, maps)
    ident = m.site.cat.id(m.stage)
    for text in ("x ~> 0 * y |-> 1", "x |->! 1 * T", "(x ~> 1 \\/ y |->! 0) * y ~> 0"):
        phi = parse_formula(text)
        for mode in ("unfolded", "pipeline"):
            p = eval_formula(m, phi.left, mode=mode)
            q = eval_formula(m, phi.right, mode=mode)
            star = sep_conj(m, p, q, mode)
            for h in m.sheaf.at(m.stage)[::n]:
                res = sat(m, phi, m.stage, h, mode)
                assert res.result == (h in star.family[ident])
                want = ref.star_witness(m, p, q, h) if res.result else None
                assert res.witness == want, (text, mode, h)


@pytest.mark.parametrize("variant", VARIANTS)
def test_product_tables_match_apply_at_three_locations(variant):
    m = model(3, variant)
    mp, cat = m.sheaf, m.site.cat
    for a in cat.objects:
        index = mp.index(a)
        for b, c in splittings(cat, m.site.monoidal, a):
            rows = m.monoid.products(b, c)
            for i, s in enumerate(mp.at(b)):
                for j, t in enumerate(mp.at(c)):
                    prod = day_reference.apply(m.monoid, Decomp(a, b, c, s, t))
                    assert rows[i][j] == (-1 if prod is None else index[prod])


@pytest.mark.parametrize("variant", VARIANTS)
def test_nested_star_at_four_locations_matches_reference(variant):
    m = model(4, variant)
    phi = parse_formula("(x ~> 0 * y |-> 1) * (z ~> 1 \\/ w |-> 0)")
    left = eval_formula(m, phi.left.left)
    inner = ref.predicate(m.sheaf, m.site, m.stage,
                          ref.unfolded_star(m, left, eval_formula(m, phi.left.right)))
    want = ref.unfolded_star(m, inner, eval_formula(m, phi.right))
    assert eval_formula(m, phi, mode="unfolded").family == want
    assert eval_formula(m, phi, mode="pipeline").family == want


@functools.cache
def within(n, bound):
    """Per stage of the n-location model, the bitset of its heaps with at
    most `bound` cells allocated (all of them when bound is None): the
    heaps of the support-bounded carrier, read in partial memory."""
    mp = model(n, "total").sheaf
    return {a: sum(1 << i for i, h in enumerate(mp.at(a))
                   if bound is None or len(h.values) - h.values.count(None) <= bound)
            for a in mp.base.objects}


@pytest.mark.parametrize("bound", [None, 1], ids=["Mp", "bounded"])
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("n", [2, 3])
@settings(max_examples=25, derandomize=True, deadline=None)
@given(data=st.data())
def test_arithmetic_star_matches_the_pair_loop(n, variant, bound, data):
    """The bitset star at every slice stage and the witness search at the
    stage, on random bit predicates at 2-3 locations, against a pair loop
    over `day_reference.apply`.  Every exact splitting is visited, so
    b = c = v, an empty half and the empty stage are among them.  Under
    "bounded" the predicates hold only heaps of at most one allocated
    cell, those of the support-bounded carrier of bound 1, whose
    products in partial memory may allocate more."""
    m = model(n, variant)
    cat, mp, stage, heaps = m.site.cat, m.sheaf, m.stage, within(n, bound)

    def predicate():
        bits = {}
        for sl in cat.mors_into(stage):
            full = (1 << mp.size(cat.src(sl))) - 1
            bits[sl] = heaps[cat.src(sl)] & data.draw(
                st.one_of(st.just(0), st.just(full), st.integers(0, full)),
                label=repr(cat.src(sl)))
        return KripkePredicate(mp, m.site, stage, bits)

    p, q = predicate(), predicate()
    star, firsts = sep_conj(m, p, q, "unfolded"), {}
    for sl in cat.mors_into(stage):
        v, want = cat.src(sl), 0
        first = firsts[v] = {}  # product id -> its least (b, c, i, j)
        for b, c in sorted(splittings(cat, m.site.monoidal, v),
                           key=lambda bc: (bits(bc[0]), bits(bc[1]))):
            left, right = p.bits[cat.hom(b, stage)[0]], q.bits[cat.hom(c, stage)[0]]
            for i in (i for i in range(mp.size(b)) if left >> i & 1):
                for j in (j for j in range(mp.size(c)) if right >> j & 1):
                    prod = day_reference.apply(
                        m.monoid, Decomp(v, b, c, mp.element(b, i), mp.element(c, j)))
                    k = mp.index(v).get(prod)
                    if k is not None:
                        want |= 1 << k
                        first.setdefault(k, (b, c, i, j))
        assert star.bits[sl] == want, v
    first = firsts[stage]
    for k in range(mp.size(stage)):
        got = _star_witness(m, p, q, mp.element(stage, k))
        if k not in first:
            assert got is None
            continue
        b, c, i, j = first[k]
        assert got == {"left_stage": list(mp.named(b)), "right_stage": list(mp.named(c)),
                       "left": mp.element(b, i).as_dict(), "right": mp.element(c, j).as_dict()}


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("n_values", [1, 2, 3])
@pytest.mark.parametrize("n,bound", [(n, k) for n in (1, 2, 3) for k in range(n + 1)])
def test_stars_on_support_bounded_carriers_match_reference(n, bound, n_values, variant):
    """A support-bounded model has no star: `make_memory_model` lets the
    monoid's refusal of the carrier through, at every bound, and on the
    model built without a monoid a star is refused at either mode while
    `sat` of its star-free operands reads their denotation on every heap
    of the carrier."""
    values, locations = (0, 1, 2)[:n_values], ("x", "y", "z")[:n]
    with pytest.raises(MonoidalStructureError, match="need a partial-memory sheaf"):
        make_memory_model(locations, values, "support-bounded", variant, support_bound=bound)
    m = make_memory_model(locations, values, "support-bounded", None, support_bound=bound)
    mp, stage = m.sheaf, m.stage
    x, y, v, ident = locations[0], locations[-1], values[-1], m.site.cat.id(stage)
    for text in (f"{x} ~> {v} * T", f"{x} |->! 0 * {y} |-> {v}",
                 f"T * ({y} ~> 0 \\/ {x} |->! {v})"):
        phi = parse_formula(text)
        for mode in ("unfolded", "pipeline"):
            for half in (phi.left, phi.right):
                want = eval_formula(m, half, mode=mode).bits[ident]
                for k, h in enumerate(mp.at(stage)):
                    assert sat(m, half, stage, h, mode).result == bool(want >> k & 1)
            with pytest.raises(AtomTypeError, match="no resource monoid"):
                eval_formula(m, phi, mode=mode)
            with pytest.raises(AtomTypeError, match="no resource monoid"):
                sat(m, phi, stage, mp.element(stage, 0), mode)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("n", [2, 3])
def test_stage_only_sat_matches_the_full_star(n, variant):
    """`sat` reads a top-level star, or one under /\\, at the identity
    slice alone: its verdict is the bit of the denotation evaluated at
    every slice, `sep_conj(...).bits[id(stage)]`, on every heap, in both
    modes, with the allocated atoms, which are not subsheaves, among the
    operands."""
    m = model(n, variant)
    cat, stage, x, y = m.site.cat, m.stage, m.locations[0], m.locations[-1]
    ident = cat.id(stage)
    texts = (f"{x} ~> 0 * {y} |-> 1", f"{x} |->! 1 * T", f"T * ({y} ~> 0 \\/ {x} |->! 1)",
             f"({x} |->! 0 * T) /\\ (T * {y} |->! 1)", f"{y} ~> 1 /\\ ({x} |-> 0 * T)",
             f"({x} ~> 0 * {y} ~> 1) * T")
    for text in texts:
        phi = parse_formula(text)
        for mode in ("unfolded", "pipeline"):
            want = eval_formula(m, phi, mode=mode).bits[ident]  # every slice, by sep_conj
            for k, h in enumerate(m.sheaf.at(stage)):
                assert sat(m, phi, stage, h, mode).result == bool(want >> k & 1), (text, mode, h)


# Cell rules: the three variants and two outside them.  "null-only"
# combines two unallocated cells and nothing else, so it is
# agreement-only with D = {null}; "total-named-weak" is the total rule
# under the weak-partial name, so it is not agreement-only.  Together
# they pin that the star's path follows the digit rule, not the name.
RULES = VARIANTS + ("null-only", "total-named-weak")


def rule_monoid(mp, rule):
    if rule in VARIANTS:
        return build_memory_monoid(mp, rule)
    if rule == "null-only":
        return ResourceMonoid(mp, rule, lambda x, y: None if x is None and y is None
                              else UNDEFINED)
    return ResourceMonoid(mp, "weak-partial", build_memory_monoid(mp, "total").cell)


@functools.cache
def rule_model(n, rule):
    """Two values at n locations of partial memory under the rule, with
    the reference pipeline's maps at 1-3 locations (None at 4)."""
    base = make_memory_model(("x", "y", "z", "w")[:n], (0, 1), monoid_variant=None)
    m = ResourceModel(base.site, base.sheaf, rule_monoid(base.sheaf, rule), base.locations,
                      base.values, base.stage)
    return m, ref.pipeline_maps(m) if n < 4 else None


# 4-location stages, sampled under the rules that multiply codes, at the
# stage alone
STAGE_SAMPLES = [(4, rule) for rule in ("total", "total-named-weak")]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(case=st.sampled_from([(n, rule) for n in (1, 2, 3) for rule in RULES]
                            + STAGE_SAMPLES), data=st.data())
def test_star_under_every_cell_rule_matches_the_reference(case, data):
    """Both star modes, the stage-only star and the witness of every heap
    at the stage, against `pred_reference`, on random families that are
    not restriction-closed (as the allocated atoms are not): 1 to 3
    locations, the three variants and two other cell rules.  At
    4-location stages under the code-multiplying rules the star at the
    stage and every heap's least pair are checked (the splitting
    b = c = v, whose overlap has 4 locations, always holds a product
    there)."""
    m, maps = rule_model(*case)
    cat, mp, stage = m.site.cat, m.sheaf, m.stage
    four = stage.bit_count() == 4

    def predicate():
        bits = {}
        if four:  # each heap in with probability 2^-k, and one heap at the stage
            rng = random.Random(data.draw(st.integers(0, 2 ** 32), label="seed"))
            k = data.draw(st.integers(1, 3), label="sparsity")
            for sl in cat.mors_into(stage):
                bits[sl] = functools.reduce(
                    int.__and__, (rng.getrandbits(mp.size(cat.src(sl))) for _ in range(k)))
            bits[cat.id(stage)] |= 1 << rng.randrange(mp.size(stage))
            return KripkePredicate(mp, m.site, stage, bits)
        for sl in cat.mors_into(stage):
            full = (1 << mp.size(cat.src(sl))) - 1
            bits[sl] = data.draw(st.one_of(st.just(0), st.just(full), st.integers(0, full)),
                                 label=repr(cat.src(sl)))
        return KripkePredicate(mp, m.site, stage, bits)

    p, q = predicate(), predicate()
    witnesses = ref.star_witnesses(m, p, q)
    if four:
        want = {}
        for b, c, _, _, prod in ref.star_products(m, p, q, stage):
            want[b, c] = want.get((b, c), 0) | 1 << mp.index(stage)[prod]
        terms = {(b, c): bits for b, c, bits in _star_terms(m, p, q, stage) if bits}
        assert terms == want
        assert want[stage, stage]
        for h in mp.at(stage):
            assert _star_witness(m, p, q, h) == witnesses.get(h), h
        return
    star = sep_conj(m, p, q, "unfolded")
    assert star.family == ref.unfolded_star(m, p, q)
    assert _star_bits(m, p, q, stage) == star.bits[cat.id(stage)]
    for h in mp.at(stage):
        assert _star_witness(m, p, q, h) == witnesses.get(h), h
    assert sep_conj(m, p, q, "pipeline").family == ref.pipeline_star(m, p, q, maps)


@pytest.mark.parametrize("rule", RULES)
def test_the_star_path_follows_the_digit_rule(rule, monkeypatch):
    """The agreement-only rules (weak- and strong-partial, null-only)
    read no overlap table of the cell rule; the others (total, and the
    total rule under the weak-partial name) do, and all agree with the
    reference."""
    m, _ = rule_model(3, rule)
    cells = m.sheaf.cells
    want = {"weak-partial": frozenset(range(len(cells))), "strong-partial": frozenset(),
            "null-only": frozenset({cells.index(None)})}.get(rule)
    assert m.monoid.agreement() == want
    overlap, calls = ResourceMonoid.overlap, []

    def counted(self, o, v):
        calls.append((o, v))
        return overlap(self, o, v)

    monkeypatch.setattr(ResourceMonoid, "overlap", counted)
    rng = random.Random(3)
    p, q = (random_closed_predicate(rng, m.sheaf, m.site, m.stage) for _ in range(2))
    assert sep_conj(m, p, q, "unfolded").family == ref.unfolded_star(m, p, q)
    witnesses = ref.star_witnesses(m, p, q)
    assert witnesses
    for h in witnesses:
        assert _star_witness(m, p, q, h) == witnesses[h]
    assert bool(calls) == (want is None)


def test_random_closed_predicate_keeps_its_draws():
    """`random_closed_predicate` builds its bits with `_bitset` from one
    `rng.random()` draw per id, in slice order, each id in when its draw
    is below 2/n for the n ids over all slices, as a sum over the ids
    gives them, at 2 and 4 locations (stages on either side of
    `_SCAN_BITS`)."""
    for n in (2, 4):
        m = model(n, "weak-partial")
        cat, mp = m.site.cat, m.sheaf
        new, old = random.Random(n), random.Random(n)
        got = random_closed_predicate(new, mp, m.site, m.stage)
        density = 2 / sum(mp.size(cat.src(sl)) for sl in cat.mors_into(m.stage))
        bits = {sl: sum(1 << i for i in range(mp.size(cat.src(sl))) if old.random() < density)
                for sl in cat.mors_into(m.stage)}
        assert got.bits == _close(mp, m.site, bits)
        assert new.random() == old.random()


def test_sampled_predicates_are_seldom_top():
    """Deterministic: of 20 draws at the top stage (seed 7, two values)
    on the carrier, on its Day decompositions and on Match(F), few close
    to the top predicate, and few to one without a heap at the stage,
    so `laws`' residuation and adjunction samples do not compare top
    with top.  Each id had probability one half before, and 20 of 20
    draws on the carrier were top at 3 and at 4 locations."""
    counts = {}
    for n in (2, 3, 4):
        m = make_memory_model(("w", "x", "y", "z")[:n], (0, 1))
        cat, site, stage = m.site.cat, m.site, m.stage
        carriers = {"F": m.sheaf, "decomp": day_decomp(m.sheaf, m.sheaf, site.monoidal)}
        if n < 4:
            carriers["Match"] = matching_presheaf(m.sheaf, site.cov)
        for name, resource in carriers.items():
            rng, top = random.Random(7), (1 << resource.size(stage)) - 1
            tops = empties = 0
            for _ in range(20):
                at_stage = random_closed_predicate(rng, resource, site, stage).bits[cat.id(stage)]
                tops, empties = tops + (at_stage == top), empties + (at_stage == 0)
            counts[n, name] = tops, empties
    assert counts == {
        (2, "F"): (1, 5), (2, "decomp"): (0, 1), (2, "Match"): (1, 5),
        (3, "F"): (0, 2), (3, "decomp"): (0, 3), (3, "Match"): (0, 2),
        (4, "F"): (0, 5), (4, "decomp"): (0, 6)}


SIZES = (st.sampled_from([0, 1, 2, 27, 63, 64, 65, 81, 256, 1296])
         | st.integers(0, 12 * pred._SCAN_BITS))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(size=SIZES, target=SIZES, data=st.data())
def test_bitset_helpers_agree_with_a_scan(size, target, data):
    """`_members`, `_preimage` (also with undefined positions in), `_image`
    and `_bitset` agree with a scan of the bits on sets, tables and
    components from the empty stage to stages on either side of
    `_SCAN_BITS`, above which they go through strings of binary digits."""
    assume(target or not size)  # nothing maps into an empty stage
    bits = data.draw(st.integers(0, (1 << size) - 1), label="bits")
    on_target = data.draw(st.integers(0, (1 << target) - 1), label="on_target")
    table = data.draw(st.lists(st.integers(0, max(target - 1, 0)), min_size=size, max_size=size))
    ids = data.draw(st.lists(st.integers(-1, target - 1), min_size=size, max_size=size))
    members = [i for i in range(size) if bits >> i & 1]
    assert list(_members(bits)) == members
    assert _preimage(table, on_target) == sum(1 << x for x, y in enumerate(table)
                                              if on_target >> y & 1)
    assert _preimage(ids, on_target, undefined=True) == sum(
        1 << x for x, y in enumerate(ids) if y < 0 or on_target >> y & 1)
    flags = [bool(bits >> i & 1) for i in range(size)]
    assert _bitset(flags) == sum(1 << i for i, flag in enumerate(flags) if flag) == bits
    assert _image(ids, bits) == sum(1 << j for j in {ids[i] for i in members if ids[i] >= 0})
