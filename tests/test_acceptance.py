"""Acceptance suite: one test per criterion, each printing a PASS line
and enforcing its wall-clock budget.  Run with `pytest -s` to see the
per-criterion lines."""

import random
import time
from fractions import Fraction
from itertools import product

import pytest

import day_reference
from pred_reference import (
    at_subset,
    glue_predicates,
    predicate,
    restrict_predicate,
    validate_predicate_bits,
)
from presheaf_reference import components, matching_object, yoneda
from psl_reference import discrete, fibre_partition, uniform
from sheafsep.day import Decomp, build_memory_monoid, day_coend
from sheafsep.fincat import build_finsurj_category, build_powerset_category
from sheafsep.pred import (
    direct_image,
    implication,
    meet,
    random_closed_predicate,
    reindex_preimage,
)
from sheafsep.presheaf import (
    Heap,
    amalgamation_operator,
    build_resource_sheaf,
    check_sheaf,
)
from sheafsep.psl import (
    ProbSpace,
    RandomVariable,
    independence_oracle,
    law_of,
    psl_sat,
)
from sheafsep.seplogic import (
    DistAtom,
    Star,
    eval_formula,
    make_memory_model,
    parse_formula,
    sat,
    sep_conj,
)
from sheafsep.site import build_coverage, validate_coverage
from site_reference import generate_sieve


class budget:
    """Context manager asserting the wall-clock budget and printing the
    acceptance line."""

    def __init__(self, number, label, seconds):
        self.number = number
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.started
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number:02d} {self.label}: {status} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded its {self.seconds}s budget: {elapsed:.2f}s"
            )
        return False


def test_criterion_01_matching_object_worked_example():
    with budget(1, "matching-object worked example", 1.0):
        cat, _ = build_powerset_category(3)
        m = build_resource_sheaf(cat, "strict-memory", ("x1", "x2", "x3"), values=(-1, 3, 7, 9))
        u, x2 = 0b111, 0b010  # x1, x2, x3 are bits 0-2
        u1, u2 = 0b011, 0b110
        pullback = (x2, (x2, u1), (x2, u2))
        pairs = matching_object(m, u, (u1, u), (u2, u), pullback)
        s1 = Heap.of(("x1", "x2"), {"x1": 7, "x2": 3})
        s2 = Heap.of(("x2", "x3"), {"x2": 3, "x3": 9})
        s2_bad = Heap.of(("x2", "x3"), {"x2": -1, "x3": 9})
        assert (s1, s2) in pairs
        assert (s1, s2_bad) not in pairs


def test_criterion_02_amalgamation_isomorphism():
    with budget(2, "amalgamation isomorphism Match(Mp) ~ Mp", 30.0):
        cat, _ = build_powerset_category(3)
        mp = build_resource_sheaf(cat, "partial-memory", "xyz", values=(0, 1))
        cov = build_coverage(cat, "downward-closed")
        iso = amalgamation_operator(mp, cov)
        assert iso.report.ok, iso.report.violations
        for a in cat.objects:
            assert len(iso.match.at(a)) == len(mp.at(a))
            assert set(components(iso.forward, a).values()) == set(mp.at(a))


def _displayed_star_oracle(model, phi_l, phi_r, stage, disjoint):
    """The two displayed comprehensions, written out directly: a heap is
    in the star iff some subset pair (disjoint for the strong reading,
    agreeing on the overlap for the weak one) unions to it with the
    halves in the conjunct denotations."""
    cat = model.site.cat
    p = eval_formula(model, phi_l, stage)
    q = eval_formula(model, phi_r, stage)
    members = set()
    for m in model.sheaf.at(stage):
        for u1 in cat.objects:
            for u2 in cat.objects:
                if u1 | u2 != stage:
                    continue
                if disjoint and u1 & u2:
                    continue
                for m1 in p.family[cat.hom(u1, stage)[0]]:
                    for m2 in q.family[cat.hom(u2, stage)[0]]:
                        if not disjoint and any(
                            m1.get(z) != m2.get(z) for z in model.sheaf.named(u1 & u2)
                        ):
                            continue
                        cells = dict(m1.as_dict())
                        cells.update(m2.as_dict())
                        if Heap.of(m.locations, cells) == m:
                            members.add(m)
    return members


def test_criterion_03_weak_strong_divergence():
    with budget(3, "weak/strong divergence on x|->!0 * x|->!0", 1.0):
        phi = parse_formula("x |->! 0 * x |->! 0")
        h = Heap.of(("x",), {"x": 0})
        weak = make_memory_model({"x", "y"}, (0, 1), monoid_variant="weak-partial")
        strong = make_memory_model({"x", "y"}, (0, 1), monoid_variant="strong-partial")
        assert sat(weak, phi, 0b01, h).result is True
        assert sat(strong, phi, 0b01, h).result is False
        # the unfolded mode must equal the displayed comprehensions verbatim
        for model, disjoint in ((weak, False), (strong, True)):
            for stage in (0b01, 0b11):
                denot = eval_formula(model, phi, stage)
                displayed = _displayed_star_oracle(
                    model, phi.left, phi.right, stage, disjoint
                )
                got = set(denot.family[model.site.cat.id(stage)])
                assert got == displayed


def test_criterion_04_pipeline_oracle_equivalence():
    with budget(4, "pipeline vs unfolded on 200 seeded pairs x 3 variants", 60.0):
        rng = random.Random(20240)
        for variant in ("total", "weak-partial", "strong-partial"):
            model = make_memory_model({"x", "y"}, (0, 1), monoid_variant=variant)
            stage = model.stage
            for _ in range(200):
                p = random_closed_predicate(rng, model.sheaf, model.site, stage)
                q = random_closed_predicate(rng, model.sheaf, model.site, stage)
                lhs = sep_conj(model, p, q, "pipeline")
                rhs = sep_conj(model, p, q, "unfolded")
                assert lhs == rhs


def _all_predicates(site, mp, stage):
    from itertools import product as iproduct

    cat = site.cat
    slice_objs = cat.mors_into(stage)
    subsets = []
    for p in slice_objs:
        xs = mp.at(cat.src(p))
        pool = [()]
        for x in xs:
            pool += [s + (x,) for s in pool]
        subsets.append([frozenset(s) for s in pool])
    out = []
    for combo in iproduct(*subsets):
        cand = predicate(mp, site, stage, dict(zip(slice_objs, combo)))
        if validate_predicate_bits(cand).ok:
            out.append(cand)
    return out


def test_criterion_05_heyting_residuation():
    with budget(5, "Heyting residuation exhaustive + 500 samples", 60.0):
        model1 = make_memory_model({"x"}, (0, 1))
        preds = _all_predicates(model1.site, model1.sheaf, 0b01)
        for p in preds:
            for q in preds:
                for r in preds:
                    assert meet(p, q).issubset(r) == p.issubset(implication(q, r))
        model2 = make_memory_model({"x", "y"}, (0, 1))
        rng = random.Random(5050)
        for _ in range(500):
            p = random_closed_predicate(rng, model2.sheaf, model2.site, model2.stage)
            q = random_closed_predicate(rng, model2.sheaf, model2.site, model2.stage)
            r = random_closed_predicate(rng, model2.sheaf, model2.site, model2.stage)
            assert meet(p, q).issubset(r) == p.issubset(implication(q, r))


def test_criterion_06_adjunction():
    with budget(6, "existential image adjoint to preimage, 200 cases", 30.0):
        from sheafsep.seplogic import _pipeline_pieces

        model = make_memory_model({"x", "y"}, (0, 1), monoid_variant="total")
        iso = amalgamation_operator(model.sheaf, model.site.cov)
        decomp, mult_mor, amalg_mor = _pipeline_pieces(model, iso)
        match = mult_mor.target
        rng = random.Random(606)
        stage = model.stage
        for alpha, source in ((mult_mor, decomp), (amalg_mor, match)):
            for _ in range(100):
                p = random_closed_predicate(rng, source, model.site, stage)
                q = random_closed_predicate(rng, alpha.target, model.site, stage)
                lhs = direct_image(alpha, p).issubset(q)
                rhs = p.issubset(reindex_preimage(alpha, q))
                assert lhs == rhs, alpha.name


def test_criterion_07_monoid_laws():
    with budget(7, "memory monoid laws, exhaustive / Kleene", 30.0):
        cat, mon = build_powerset_category(2)
        mp = build_resource_sheaf(cat, "partial-memory", "xy", values=(0, 1))
        from sheafsep.day import check_monoid_laws

        for variant in ("total", "weak-partial", "strong-partial"):
            rep = check_monoid_laws(build_memory_monoid(mp, variant), mon)
            assert rep.ok, rep.violations


def test_criterion_08_yoneda_strong_monoidality_and_non_dinaturality():
    with budget(8, "Yo(A) (x) Yo(B) ~ Yo(A u B); total mult not dinatural", 10.0):
        cat, mon = build_powerset_category(3)
        yo = {a: yoneda(cat, a) for a in cat.objects}
        for a in cat.objects:
            for b in cat.objects:
                coend = day_coend(yo[a], yo[b], mon)
                target = yo[mon.tensor(a, b)]
                for v in cat.objects:
                    assert len(coend.at(v)) == len(target.at(v))
        # documented witness: the conflicting pair is coend-equal to a
        # singleton pair, but the total multiplication separates them
        cat1, mon1 = build_powerset_category(1)
        mp1 = build_resource_sheaf(cat1, "partial-memory", "x", values=(0, 1))
        coend = day_coend(mp1, mp1, mon1)
        monoid = build_memory_monoid(mp1, "total")
        s0 = Heap.of(("x",), {"x": 0})
        s1 = Heap.of(("x",), {"x": 1})
        d_conflict = Decomp(0b01, 0b01, 0b01, s0, s1)
        d_single = Decomp(0b01, 0b01, 0, s0, Heap((), ()))
        assert coend.class_of(d_conflict) == coend.class_of(d_single)
        assert day_reference.apply(monoid, d_conflict) != day_reference.apply(monoid, d_single)


def test_criterion_09_sheaf_checks():
    with budget(9, "sheaf checks for M, Mp, support-bounded; coverages", 30.0):
        cat, _ = build_powerset_category(2)
        cov = build_coverage(cat, "downward-closed")
        m = build_resource_sheaf(cat, "strict-memory", "xy", values=(0, 1))
        mp = build_resource_sheaf(cat, "partial-memory", "xy", values=(0, 1))
        assert check_sheaf(m, cov).ok
        assert check_sheaf(mp, cov).ok
        sb = build_resource_sheaf(cat, "support-bounded", "xy", values=(0, 1), bound=1)
        rep = check_sheaf(sb, cov)
        assert "existence" in [v.kind for v in rep.violations]
        # the witness family is the sigma_x / sigma_y pair over {{x},{y}}
        top = 0b11
        cover = generate_sieve(cat, top, [(0b01, top), (0b10, top)])
        from presheaf_reference import CompatibleFamily, NoAmalgamationError, amalgamate

        fam = CompatibleFamily.of(
            cover,
            {
                (0b01, top): Heap.of(("x",), {"x": 0}),
                (0b10, top): Heap.of(("y",), {"y": 0}),
                (0, top): Heap((), ()),
            },
        )
        with pytest.raises(NoAmalgamationError):
            amalgamate(sb, fam)
        for kind in ("downward-closed", "finite-covers"):
            assert validate_coverage(cat, build_coverage(cat, kind)).ok
        fcat, _ = build_finsurj_category(2)
        assert validate_coverage(fcat, build_coverage(fcat, "atomic")).ok


def _naive_kripke_implication(cat, mp, stage, antecedent_at, consequent_at):
    """Independent evaluator of the displayed implication semantics:
    s is in the result at A iff every restriction satisfying the
    antecedent also satisfies the consequent."""
    out = {}
    for a in [v for v in cat.objects if cat.hom(v, stage)]:
        members = []
        for s in mp.at(a):
            good = True
            for b in cat.objects:
                for f in cat.hom(b, a):
                    fs = mp.restrict(f, s)
                    if fs in antecedent_at(b) and fs not in consequent_at(b):
                        good = False
            if good:
                members.append(s)
        out[a] = set(members)
    return out


def test_criterion_10_kripke_implication():
    with budget(10, "Kripke implication vs naive evaluator", 1.0):
        model = make_memory_model({"x"}, (0, 1))
        phi = parse_formula("x ~> 0 -> F")
        denot = eval_formula(model, phi, 0b01)
        assert at_subset(denot, 0b01) == frozenset()
        cat, mp = model.site.cat, model.sheaf

        def antecedent_at(v):
            return {
                s for s in mp.at(v) if "x" not in mp.named(v) or s.get("x") == 0
            }

        def consequent_at(v):
            return set()

        naive = _naive_kripke_implication(cat, mp, 0b01, antecedent_at, consequent_at)
        for v, members in naive.items():
            assert at_subset(denot, v) == frozenset(members)


def _agreement_spaces():
    spaces = []
    for n in range(1, 6):
        spaces.append(uniform(n))
        if n >= 2:
            total = n * (n + 1) // 2
            spaces.append(
                discrete([Fraction(i + 1, total) for i in range(n)])
            )
    spaces.append(
        ProbSpace.of(4, [(1, 2), (3, 4)], [Fraction(1, 2), Fraction(1, 2)])
    )
    return spaces


def test_criterion_11_psl():
    with budget(11, "PSL worked examples + star/oracle agreement |S|<=5", 120.0):
        fair = ((0, Fraction(1, 2)), (1, Fraction(1, 2)))
        phi = Star(DistAtom("X", fair), DistAtom("Y", fair))
        unif4 = uniform(4)
        x = RandomVariable((0, 0, 1, 1))
        y = RandomVariable((0, 1, 0, 1))
        assert psl_sat(unif4, phi, {"X": x, "Y": y}).result is True
        corr = discrete(
            [Fraction(1, 2), Fraction(0), Fraction(0), Fraction(1, 2)]
        )
        assert psl_sat(corr, phi, {"X": x, "Y": y}).result is False

        for sp in _agreement_spaces():
            n = sp.size
            variables = [
                RandomVariable(vals)
                for vals in product((0, 1, 2), repeat=n)
            ]
            measurable = []
            laws = {}
            for v in variables:
                try:
                    laws[v] = tuple(sorted(law_of(v, sp).items()))
                    measurable.append(v)
                except Exception:
                    continue
            # each variable's partition, computed once per space
            fibres = {v: fibre_partition(v) for v in measurable}
            cache = {}
            for xv in measurable:
                for yv in measurable:
                    key = (fibres[xv], fibres[yv])
                    if key not in cache:
                        star = Star(DistAtom("X", laws[xv]), DistAtom("Y", laws[yv]))
                        cache[key] = psl_sat(sp, star, {"X": xv, "Y": yv}).result
                    assert cache[key] == independence_oracle(sp, xv, yv), (sp, xv, yv)


def test_criterion_12_predicate_gluing():
    with budget(12, "predicate gluing with exhaustive uniqueness", 30.0):
        model = make_memory_model({"x", "y"}, (0, 1))
        site, mp = model.site, model.sheaf
        cat = site.cat
        top = 0b11
        cover = generate_sieve(cat, top, [(0b01, top), (0b10, top)])

        def nonstrict(stage, loc, val):
            fam = {}
            for p in cat.mors_into(stage):
                v = cat.src(p)
                fam[p] = frozenset(
                    s for s in mp.at(v) if loc not in mp.named(v) or s.get(loc) == val
                )
            return predicate(mp, site, stage, fam)

        px = nonstrict(0b01, "x", 0)
        py = nonstrict(0b10, "y", 1)
        glued = glue_predicates(
            site, mp, cover, {(0b01, top): px, (0b10, top): py}
        )

        assert restrict_predicate(glued, (0b01, top)) == px
        assert restrict_predicate(glued, (0b10, top)) == py
        assert validate_predicate_bits(glued).ok

        # exhaustive uniqueness: the lower slice families are forced by
        # the parts, so scan every top-stage family and keep the valid
        # predicates restricting to them
        fixed = {
            (0b01, top): px.family[cat.id(0b01)],
            (0b10, top): py.family[cat.id(0b10)],
            (0, top): px.family[(0, 0b01)],
        }
        pool = [()]
        for s in mp.at(top):
            pool += [c + (s,) for c in pool]
        matches = []
        for combo in pool:
            fam = dict(fixed)
            fam[cat.id(top)] = frozenset(combo)
            cand = predicate(mp, site, top, fam)
            if not validate_predicate_bits(cand).ok:
                continue
            if (
                restrict_predicate(cand, (0b01, top)) == px
                and restrict_predicate(cand, (0b10, top)) == py
            ):
                matches.append(cand)
        assert len(matches) == 1
        assert matches[0] == glued
