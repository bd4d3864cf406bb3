import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tokenizer_reference
from pred_reference import at_subset, predicate
from sheafsep.day import ResourceMonoid
from sheafsep.errors import (
    AtomTypeError,
    FormulaSyntaxError,
    MonoidalStructureError,
    UnknownIdentifierError,
)
from sheafsep.pred import random_closed_predicate
from sheafsep.presheaf import Heap
from sheafsep.seplogic import (
    And,
    Bottom,
    DistAtom,
    Imp,
    Or,
    PointsToAlloc,
    PointsToNonStrict,
    PointsToStrict,
    Star,
    MAX_FORMULA_DEPTH,
    Top,
    atom_predicate,
    eval_formula,
    make_memory_model,
    parse_formula,
    sat,
    sep_conj,
    _tokenize,
)


@pytest.fixture(scope="module")
def weak2():
    return make_memory_model({"x", "y"}, (0, 1), monoid_variant="weak-partial")


@pytest.fixture(scope="module")
def strong2():
    return make_memory_model({"x", "y"}, (0, 1), monoid_variant="strong-partial")


@pytest.fixture(scope="module")
def total2():
    return make_memory_model({"x", "y"}, (0, 1), monoid_variant="total")


# -- parser -------------------------------------------------------------------


def test_parse_star_of_pointsto():
    phi = parse_formula("x |-> 0 * y |-> 1")
    assert phi == Star(PointsToStrict("x", 0), PointsToStrict("y", 1))


def test_parse_star_left_associative():
    phi = parse_formula("x |-> 0 * y |-> 1 * x |-> 0")
    assert phi == Star(
        Star(PointsToStrict("x", 0), PointsToStrict("y", 1)),
        PointsToStrict("x", 0),
    )


def test_parse_precedence_imp_or():
    phi = parse_formula("T -> F \\/ T")
    assert phi == Imp(Top(), Or(Bottom(), Top()))


def test_parse_error_position():
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_formula("x |->")
    assert exc.value.position == 5


def test_parse_star_binds_tighter_than_and():
    phi = parse_formula("x ~> 0 /\\ y ~> 1 * x ~> 0")
    assert phi == And(
        PointsToNonStrict("x", 0),
        Star(PointsToNonStrict("y", 1), PointsToNonStrict("x", 0)),
    )


def test_parse_imp_right_associative():
    phi = parse_formula("T -> F -> T")
    assert phi == Imp(Top(), Imp(Bottom(), Top()))


def test_parse_alloc_and_unicode():
    assert parse_formula("x |->! 0") == PointsToAlloc("x", 0)
    assert parse_formula("⊤ ∧ x ↦ 1") == And(Top(), PointsToStrict("x", 1))
    assert parse_formula("x ↪ 0 ∗ y ↪ 1") == Star(
        PointsToNonStrict("x", 0), PointsToNonStrict("y", 1)
    )


def test_parse_negative_value():
    assert parse_formula("x |-> -1") == PointsToStrict("x", -1)


def test_parse_distribution_atom():
    phi = parse_formula("X ~ {0: 1/2, 1: 1/2}")
    assert phi == DistAtom("X", ((0, Fraction(1, 2)), (1, Fraction(1, 2))))


def test_parse_distribution_must_normalise():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("X ~ {0: 1/2, 1: 1/4}")


def test_parse_trailing_garbage():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("T T")


def test_parse_depth_bound():
    """A chain of n operands is a tree of height n, for the recursive
    implication and the looping connectives alike; brackets count one
    level each on top of the formula's own."""
    for op in (" -> ", " \\/ ", " /\\ ", " * "):
        parse_formula(op.join(["T"] * MAX_FORMULA_DEPTH))
        with pytest.raises(FormulaSyntaxError):
            parse_formula(op.join(["T"] * (MAX_FORMULA_DEPTH + 1)))
    depth = MAX_FORMULA_DEPTH - 1
    assert parse_formula("(" * depth + "T" + ")" * depth) == Top()
    with pytest.raises(FormulaSyntaxError):
        parse_formula("(" * (depth + 1) + "T" + ")" * (depth + 1))


# -- atoms --------------------------------------------------------------------


def test_strict_atom_at_location_stage(weak2):
    pred = atom_predicate(weak2, PointsToStrict("x", 0), stage=0b01)
    assert at_subset(pred, 0b01) == frozenset(
        s for s in weak2.sheaf.at(0b01) if s.get("x") == 0
    )


def test_nonstrict_atom_vacuous_at_empty_stage(weak2):
    pred = atom_predicate(weak2, PointsToNonStrict("x", 0), stage=0b11)
    assert at_subset(pred, 0) == frozenset(weak2.sheaf.at(0))


def test_alloc_atom_empty_when_location_out_of_view(weak2):
    pred = atom_predicate(weak2, PointsToAlloc("x", 0), stage=0b10)
    assert at_subset(pred, 0b10) == frozenset()


def test_atom_unknown_identifier(weak2):
    with pytest.raises(UnknownIdentifierError):
        atom_predicate(weak2, PointsToStrict("z", 0))
    with pytest.raises(UnknownIdentifierError):
        atom_predicate(weak2, PointsToStrict("x", 7))


def test_dist_atom_rejected_on_memory(weak2):
    with pytest.raises(AtomTypeError):
        atom_predicate(weak2, DistAtom("X", ((0, Fraction(1)),)))


# -- separating conjunction ---------------------------------------------------


def heap(stage, cells):
    return Heap.of(stage, cells)


def test_weak_star_shares_location(weak2):
    phi = parse_formula("x |->! 0 * x |->! 0")
    res = sat(weak2, phi, 0b01, heap(("x",), {"x": 0}))
    assert res.result
    assert res.witness == {
        "left_stage": ["x"],
        "right_stage": ["x"],
        "left": {"x": 0},
        "right": {"x": 0},
    }


def test_strong_star_rejects_shared_location(strong2):
    phi = parse_formula("x |->! 0 * x |->! 0")
    res = sat(strong2, phi, 0b01, heap(("x",), {"x": 0}))
    assert not res.result and res.witness is None


def test_star_disjoint_locations_any_variant(weak2, strong2, total2):
    phi = parse_formula("x |->! 0 * y |->! 1")
    h = heap(("x", "y"), {"x": 0, "y": 1})
    for model in (weak2, strong2, total2):
        assert sat(model, phi, 0b11, h).result


def test_unfolded_matches_displayed_comprehension(weak2, strong2):
    """Independent oracle: the two displayed set comprehensions for the
    weak and strong readings, written out directly over subsets."""
    locs = 0b11  # {x, y}
    phi = parse_formula("x |->! 0 * y |->! 1")
    for model, disjoint in ((weak2, False), (strong2, True)):
        px = eval_formula(model, phi.left, locs)
        py = eval_formula(model, phi.right, locs)
        star = sep_conj(model, px, py, mode="unfolded")
        cat, named = model.site.cat, model.sheaf.named
        for m in model.sheaf.at(locs):
            expected = False
            for u1 in cat.objects:
                for u2 in cat.objects:
                    if u1 | u2 != locs:
                        continue
                    if disjoint and u1 & u2:
                        continue
                    for m1 in px.family[cat.hom(u1, locs)[0]]:
                        for m2 in py.family[cat.hom(u2, locs)[0]]:
                            if not disjoint and any(
                                m1.get(z) != m2.get(z) for z in named(u1 & u2)
                            ):
                                continue
                            merged = dict(m1.as_dict())
                            merged.update(m2.as_dict())
                            if Heap.of(named(u1 | u2), merged) == m:
                                expected = True
            got = m in star.family[cat.id(locs)]
            assert got == expected, (model.name, m)


@pytest.mark.parametrize("variant", ["total", "weak-partial", "strong-partial"])
def test_pipeline_equals_unfolded_sampled(variant):
    model = make_memory_model({"x", "y"}, (0, 1), monoid_variant=variant)
    rng = random.Random(2024)
    stage = 0b11
    for _ in range(25):
        p = random_closed_predicate(rng, model.sheaf, model.site, stage)
        q = random_closed_predicate(rng, model.sheaf, model.site, stage)
        assert sep_conj(model, p, q, "pipeline") == sep_conj(model, p, q, "unfolded")


def test_pipeline_closes_allocated_atoms_below_stage(weak2):
    """On the non-subsheaf allocated atoms the pipeline closes the
    result under restriction below the stage, while the unfolded
    comprehension stays raw; at the stage itself both agree."""
    phi = parse_formula("x |->! 0 * y |->! 1")
    top = 0b11
    p = eval_formula(weak2, phi.left, top)
    q = eval_formula(weak2, phi.right, top)
    unfolded = sep_conj(weak2, p, q, "unfolded")
    pipeline = sep_conj(weak2, p, q, "pipeline")
    ident = weak2.site.cat.id(top)
    assert unfolded.family[ident] == pipeline.family[ident]
    assert unfolded.issubset(pipeline)
    assert at_subset(unfolded, 0b01) == frozenset()
    assert at_subset(pipeline, 0b01) == frozenset({heap(("x",), {"x": 0})})


def test_star_commutative(weak2, strong2, total2):
    rng = random.Random(11)
    for model in (weak2, strong2, total2):
        stage = model.stage
        for _ in range(15):
            p = random_closed_predicate(rng, model.sheaf, model.site, stage)
            q = random_closed_predicate(rng, model.sheaf, model.site, stage)
            assert sep_conj(model, p, q) == sep_conj(model, q, p)


def test_star_monotone(weak2):
    from sheafsep.pred import join

    rng = random.Random(13)
    stage = weak2.stage
    for _ in range(10):
        p = random_closed_predicate(rng, weak2.sheaf, weak2.site, stage)
        q = random_closed_predicate(rng, weak2.sheaf, weak2.site, stage)
        p_big = join(p, random_closed_predicate(rng, weak2.sheaf, weak2.site, stage))
        q_big = join(q, random_closed_predicate(rng, weak2.sheaf, weak2.site, stage))
        assert sep_conj(weak2, p, q).issubset(sep_conj(weak2, p_big, q_big))


def test_star_associative_total_strong_and_weak_report(weak2, strong2, total2):
    """Associativity is asserted for the total and strong variants; the
    weak variant is measured and its status recorded, not asserted."""
    rng = random.Random(17)
    weak_counterexamples = 0
    for model, assert_it in ((total2, True), (strong2, True), (weak2, False)):
        stage = model.stage
        for _ in range(10):
            p = random_closed_predicate(rng, model.sheaf, model.site, stage)
            q = random_closed_predicate(rng, model.sheaf, model.site, stage)
            r = random_closed_predicate(rng, model.sheaf, model.site, stage)
            lhs = sep_conj(model, sep_conj(model, p, q), r)
            rhs = sep_conj(model, p, sep_conj(model, q, r))
            if assert_it:
                assert lhs == rhs
            elif lhs != rhs:
                weak_counterexamples += 1
    print(f"weak-variant associativity counterexamples: {weak_counterexamples}")


def test_star_unit_contains_conjunct(weak2, strong2, total2):
    """P * emp_top contains P; exact equality is measured per variant."""
    rng = random.Random(23)
    for model in (weak2, strong2, total2):
        stage = model.stage
        cat = model.site.cat
        fam = {
            p: frozenset([Heap.of(model.sheaf.named(cat.src(p)), {})])
            for p in cat.mors_into(stage)
        }
        emp_top = predicate(model.sheaf, model.site, stage, fam)
        equal = 0
        for _ in range(10):
            p = random_closed_predicate(rng, model.sheaf, model.site, stage)
            starred = sep_conj(model, p, emp_top)
            assert p.issubset(starred)
            equal += starred == p
        print(f"{model.monoid.variant}: P * emp_top == P in {equal}/10 samples")


# -- evaluation and satisfaction ----------------------------------------------


def test_eval_top_and_identity(weak2):
    phi = parse_formula("T /\\ x ~> 0")
    just_atom = eval_formula(weak2, parse_formula("x ~> 0"))
    assert eval_formula(weak2, phi) == just_atom


def test_eval_kripke_negation_empty(weak2):
    phi = parse_formula("x ~> 0 -> F")
    denot = eval_formula(weak2, phi, 0b01)
    assert at_subset(denot, 0b01) == frozenset()


def test_eval_disjunction_of_alloc_atoms(weak2):
    phi = parse_formula("x |->! 0 \\/ x |->! 1")
    denot = eval_formula(weak2, phi, 0b01)
    assert at_subset(denot, 0b01) == frozenset(
        {heap(("x",), {"x": 0}), heap(("x",), {"x": 1})}
    )


def test_sat_top_every_heap(weak2):
    for h in weak2.sheaf.at(0b11):
        assert sat(weak2, Top(), 0b11, h).result


def test_sat_atom_mismatch(weak2):
    assert not sat(weak2, parse_formula("x ~> 1"), 0b01, heap(("x",), {"x": 0})).result


def test_sat_rejects_foreign_element(weak2):
    from sheafsep.errors import StageMismatchError

    with pytest.raises(StageMismatchError):
        sat(weak2, Top(), 0b01, heap(("y",), {"y": 0}))


def test_check_formula_flags_unknowns(weak2):
    with pytest.raises(UnknownIdentifierError):
        weak2.check_formula(parse_formula("z |-> 0"))
    with pytest.raises(AtomTypeError):
        weak2.check_formula(parse_formula("X ~ {0: 1}"))


def test_monoid_requires_partial_memory():
    with pytest.raises(MonoidalStructureError, match="need a partial-memory sheaf"):
        make_memory_model({"x"}, (0, 1), sheaf_kind="strict-memory",
                          monoid_variant="weak-partial")


# -- tokenizer against the character-by-character reference -------------------

_TOKEN_PIECES = [
    "|->!", "|->", "|-", "~>", "->", "-", "/\\", "\\/", "/", "\\", "*", "~", "(", ")",
    "{", "}", ":", ",", "T", "F", "TF", "x1", "_a", "-1", "-", "007", "²", "x²", "½",
    "٣", "é", "ǅ", "⊤", "∧", "∨", "→", "↦", "↪", " ", "\t", " ", " ", "\x1c",
]


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except FormulaSyntaxError as exc:
        return ("error", str(exc), exc.position)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.one_of(st.text(), st.lists(st.sampled_from(_TOKEN_PIECES)).map("".join)))
def test_tokenizer_matches_reference(text):
    assert _tokens_or_error(_tokenize, text) == _tokens_or_error(
        tokenizer_reference.tokenize, text
    )


def test_tokenizer_time_is_linear_in_whitespace():
    """A run of whitespace, trailing or not, is read once: a match that
    starts inside a trailing run fails, so the matches stop before it.
    Rescanning the run from each of its positions took 23 s on 16,000
    trailing spaces."""
    n = 200_000
    started = time.perf_counter()
    for text, kinds in ((" " * n, ["EOF"]), ("T" + " " * n, ["TOP", "EOF"]),
                        ("T" + "\t\n" * n + "F" + " " * n, ["TOP", "BOT", "EOF"])):
        tokens = _tokenize(text)
        assert [t.kind for t in tokens] == kinds and tokens[-1].pos == len(text)
    assert time.perf_counter() - started < 2


# -- deterministic work gate ---------------------------------------------------


@pytest.mark.parametrize("mode", ["unfolded", "pipeline"])
def test_nested_star_work_at_the_size_bound(mode, built):
    """Deterministic work gate: at four locations and two values a nested
    star multiplies codes and builds the pipeline's maps on ids, so it
    constructs no Decomp or MatchClass.  It builds no heap either: an
    atom's probe id is its value's cell position, and the monoid's digit
    table applies the cell rule to the cells."""
    model = make_memory_model(("a", "b", "c", "d"), (0, 1), monoid_variant="weak-partial")
    built.clear()
    phi = parse_formula("(a ~> 0 * b |-> 1) * (c ~> 1 \\/ d |-> 0)")
    eval_formula(model, phi, mode=mode)
    assert built["Decomp"] == built["MatchClass"] == 0
    assert built["Heap"] == 0


@pytest.mark.parametrize("mode", ["unfolded", "pipeline"])
def test_sat_builds_only_the_witness_heaps(mode, built):
    """Deterministic work gate: at four locations and three values, sat
    of a nested star encodes the given heap's cells to find its id, so
    the only heaps it builds are the two halves of its witness."""
    model = make_memory_model(("a", "b", "c", "d"), (0, 1, 2), monoid_variant="weak-partial")
    heap = Heap.of(model.locations, {"a": 0, "b": 1, "c": 2})
    phi = parse_formula("(a ~> 0 * b |-> 1) * (c ~> 2 \\/ d |-> 0)")
    built.clear()
    res = sat(model, phi, model.stage, heap, mode)
    assert res.result and res.witness is not None
    assert built["Heap"] <= 2


@pytest.mark.parametrize("query", ["eval", "sat"])
def test_pipeline_certifies_its_carrier_once(query, built, monkeypatch):
    """Deterministic work gate: the pipeline star is the closure of the
    unfolded bits on a sheaf (the README's transport lemma), so at four
    locations a pipeline eval or sat of a nested star builds neither
    Match(F) nor the amalgamation iso, and it certifies the carrier a
    sheaf once, not once per star."""
    import sheafsep.presheaf as presheaf

    model = make_memory_model(("a", "b", "c", "d"), (0, 1), monoid_variant="weak-partial")
    calls = Counter()
    for name in ("is_sheaf", "matching_presheaf", "amalgamation_operator"):
        def counted(*args, _name=name, _fn=getattr(presheaf, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(presheaf, name, counted)
    phi = parse_formula("(a ~> 0 * b |-> 1) * (c ~> 1 \\/ d |-> 0)")
    if query == "eval":
        eval_formula(model, phi, mode="pipeline")
    else:
        heap = Heap.of(model.locations, {"a": 0, "b": 1, "c": 1})
        assert sat(model, phi, model.stage, heap, "pipeline").result
    assert calls == {"is_sheaf": 1}
    assert built["AmalgamationIso"] == built["MatchClass"] == 0


@pytest.mark.parametrize("mode", ["unfolded", "pipeline"])
@pytest.mark.parametrize("variant", ["total", "weak-partial", "strong-partial"])
def test_eval_and_sat_build_no_product_table(variant, mode, monkeypatch):
    """The star multiplies codes, so at four locations neither eval nor
    sat (with its witness) fills a product table; under the agreement-only
    rules (weak- and strong-partial) it reads restriction tables alone, so
    it builds no `overlap` table of the cell rule either."""
    model = make_memory_model(("a", "b", "c", "d"), (0, 1), monoid_variant=variant)

    def refused(self, b, c):
        raise AssertionError(f"({b!r}, {c!r}) tabulated")

    monkeypatch.setattr(ResourceMonoid, "products", refused)
    if variant != "total":
        monkeypatch.setattr(ResourceMonoid, "overlap", refused)
    phi = parse_formula("(a ~> 0 * b ~> 1) * (c ~> 1 \\/ T)")
    eval_formula(model, phi, mode=mode)
    heap = Heap.of(model.locations, {"a": 0, "b": 1, "c": 1})
    res = sat(model, phi, model.stage, heap, mode)
    assert res.result and res.witness is not None


def test_unfolded_sat_multiplies_at_the_stage_alone(monkeypatch):
    """Deterministic work gate: an unfolded `sat` reads a star's
    denotation at the identity slice only, so a top-level star walks
    `_star_terms` once (the walk that decides it also gives its witness),
    and so does each star under a top-level /\\ (meet is pointwise).  A
    full evaluation, and the pipeline, whose closure reads the lower
    slices, walk it once per slice: 16 at four locations, and the
    pipeline's witness one walk more."""
    import sheafsep.seplogic as seplogic

    model = make_memory_model(("a", "b", "c", "d"), (0, 1), monoid_variant="weak-partial")
    heap = Heap.of(model.locations, {"a": 0, "b": 1, "c": 1})
    calls = 0
    star_terms = seplogic._star_terms

    def counted(*args):
        nonlocal calls
        calls += 1
        return star_terms(*args)

    monkeypatch.setattr(seplogic, "_star_terms", counted)
    for text, mode, want in (("a ~> 0 * (b |-> 1 \\/ c ~> 1)", "unfolded", 1),
                             ("(a |->! 0 * T) /\\ (T * b |-> 1)", "unfolded", 2),
                             ("a ~> 0 * (b |-> 1 \\/ c ~> 1)", "pipeline", 17)):
        calls = 0
        assert sat(model, parse_formula(text), model.stage, heap, mode).result
        assert calls == want, (text, mode)
    calls = 0
    eval_formula(model, parse_formula("a ~> 0 * T"), mode="unfolded")
    assert calls == 16
