from itertools import product

import pytest

import fincat_reference as ref
from sheafsep.errors import SizeBoundError, TensorUndefinedError
from sheafsep.fincat import (
    FinCat,
    MonoidalStructure,
    build_finsurj_category,
    build_powerset_category,
    surj,
    validate_category,
    validate_monoidal,
)


def count_inclusion_pairs(locations):
    """Independent oracle: ordered pairs (A, B) with A subset of B."""
    n = 0
    subs = [()]
    for x in locations:
        subs += [s + (x,) for s in subs]
    for a in subs:
        for b in subs:
            if set(a) <= set(b):
                n += 1
    return n


def brute_force_surjections(n, m):
    """Independent oracle: enumerate all maps and keep the surjective ones."""
    return [
        vals
        for vals in product(range(1, m + 1), repeat=n)
        if set(vals) == set(range(1, m + 1))
    ]


def test_powerset_object_and_morphism_counts():
    cat, _ = build_powerset_category(2)
    assert len(cat.objects) == 4
    assert sum(len(ms) for ms in cat.homs.values()) == count_inclusion_pairs(("x", "y"))
    assert sum(len(ms) for ms in cat.homs.values()) == 9


def test_powerset_hom_empty_when_not_subset():
    cat, _ = build_powerset_category(2)
    assert cat.hom(1, 0) == ()
    assert len(cat.hom(0, 1)) == 1


def test_powerset_tensor_union_and_unit():
    _, mon = build_powerset_category(2)
    assert mon.tensor(1, 2) == 3
    assert mon.unit == 0
    assert mon.symmetric


def test_powerset_tensor_commutative_idempotent():
    cat, mon = build_powerset_category(3)
    for a in cat.objects:
        for b in cat.objects:
            assert mon.tensor(a, b) == mon.tensor(b, a)
        assert mon.tensor(a, a) == a


def test_powerset_size_bound():
    with pytest.raises(SizeBoundError):
        build_powerset_category(5)


def test_powerset_empty_location_set():
    cat, mon = build_powerset_category(0)
    assert cat.objects == (0,)
    assert mon.tensor(0, 0) == 0
    assert validate_category(cat).ok


def test_finsurj_counts():
    cat, _ = build_finsurj_category(3)
    assert len(cat.hom(2, 2)) == len(brute_force_surjections(2, 2)) == 2
    assert len(cat.hom(1, 2)) == 0
    assert len(cat.hom(3, 2)) == len(brute_force_surjections(3, 2)) == 6


def test_finsurj_tensor_partial():
    _, mon = build_finsurj_category(3)
    assert mon.tensor(1, 3) == 3
    assert not mon.tensor_defined(2, 2)
    with pytest.raises(TensorUndefinedError):
        mon.tensor(2, 2)


def test_finsurj_tensor_on_morphisms():
    cat, mon = build_finsurj_category(4)
    f = surj(2, 1, (1, 1))
    g = surj(2, 2, (2, 1))
    fg = mon.tensor_m(f, g)
    # (i,j) |-> (f(i), g(j)) under the row-major coding
    assert fg == surj(4, 2, (2, 1, 2, 1))


def test_slice_over_top_is_downset():
    cat, _ = build_powerset_category(2)
    sl, dom = ref.slice_category(cat, 3)
    assert len(sl.objects) == 4
    assert all(len(ms) <= 1 for ms in sl.homs.values())
    assert ref.validate_functor(dom).ok
    # order isomorphism with the downset of {x,y}
    downset = {a for a in cat.objects if a | 3 == 3}
    assert {dom.on_obj(p) for p in sl.objects} == downset


def test_slice_over_empty():
    cat, _ = build_powerset_category(2)
    sl, dom = ref.slice_category(cat, 0)
    assert len(sl.objects) == 1
    assert dom.on_obj(sl.objects[0]) == 0


def test_validate_builtin_categories():
    for cat, mon in (
        build_powerset_category(2),
        build_finsurj_category(3),
    ):
        assert validate_category(cat).ok
        assert validate_monoidal(cat, mon).ok


def test_validate_detects_mistyped_composition():
    cat, _ = build_powerset_category(1)
    f = (0, 1)
    bad = dict(cat.compose_table)
    bad[(f, (0, 0))] = (1, 1)  # wrong source
    from sheafsep.fincat import FinCat

    broken = FinCat(cat.kind, cat.objects, cat.homs, bad, cat.identities)
    rep = validate_category(broken)
    assert not rep.ok
    assert {"typing", "identity"} & {v.kind for v in rep.violations}


def test_validate_finsurj_exhaustive_associativity():
    cat, _ = build_finsurj_category(3)
    assert validate_category(cat).ok


def test_slice_of_poset_hom_cardinality():
    cat, _ = build_powerset_category(3)
    for a in cat.objects:
        sl, _ = ref.slice_category(cat, a)
        assert all(len(ms) <= 1 for ms in sl.homs.values())
        assert len(sl.objects) == 2 ** a.bit_count()


def test_validate_monoidal_flags_a_corrupted_tensor_entry():
    cat, mon = build_powerset_category(2)
    f, g = (0, 1), (2, 2)
    bad = dict(mon.tensor_mor)
    bad[(f, g)] = (2, 2)
    broken = MonoidalStructure(mon.tensor_obj, bad, unit=mon.unit, symmetric=mon.symmetric)
    rep = validate_monoidal(cat, broken)
    assert "functoriality" in [v.kind for v in rep.violations]


def _outcome(check, cat, mon):
    """The check's report, or the text of the lookup error it raised on
    a table entry keyed by a non-morphism."""
    try:
        return check(cat, mon)
    except KeyError as exc:
        return "KeyError", str(exc)


def _corrupted_tensors():
    """Powerset(2) tensors with one mistyped entry, one missing entry (on
    a pair of inclusions or of identities), an entry over a pair whose
    ends have no tensor, and an entry keyed by a non-morphism; finsurj(3)
    tensors with one missing entry and one over a pair whose ends have
    no tensor."""
    cat, mon = build_powerset_category(2)
    f, g = (0, 1), (2, 2)
    mistyped = dict(mon.tensor_mor)
    mistyped[(f, g)] = (2, 2)
    missing = dict(mon.tensor_mor)
    del missing[(f, g)]
    missing_id = dict(mon.tensor_mor)
    del missing_id[((1, 1), g)]
    cat3, mon3 = build_finsurj_category(3)
    missing3 = dict(mon3.tensor_mor)
    del missing3[next(iter(missing3))]
    extra3 = dict(mon3.tensor_mor)
    extra3[cat3.id(2), cat3.id(2)] = cat3.id(3)  # 2 x 2 exceeds the bound 3
    partial_obj = {k: v for k, v in mon.tensor_obj.items()
                   if k not in ((1, 2), (2, 1))}
    junk = dict(mon.tensor_mor)
    junk[(f, "junk")] = f
    return {
        "mistyped": (cat, MonoidalStructure(mon.tensor_obj, mistyped, unit=0, symmetric=True)),
        "missing": (cat, MonoidalStructure(mon.tensor_obj, missing, unit=0, symmetric=True)),
        "missing-identity": (cat, MonoidalStructure(mon.tensor_obj, missing_id, unit=0,
                                                    symmetric=True)),
        "finsurj3-missing": (cat3, MonoidalStructure(mon3.tensor_obj, missing3, unit=1)),
        "finsurj3-extra": (cat3, MonoidalStructure(mon3.tensor_obj, extra3, unit=1)),
        "extra": (cat, MonoidalStructure(partial_obj, dict(mon.tensor_mor), unit=0,
                                         symmetric=True)),
        "junk-key": (cat, MonoidalStructure(mon.tensor_obj, junk, unit=0, symmetric=True)),
    }


MONOIDAL_CASES = {
    **{f"powerset{n}": lambda n=n: build_powerset_category(n)
       for n in (1, 2, 3)},
    **{name: lambda name=name: _corrupted_tensors()[name] for name in _corrupted_tensors()},
    **{f"finsurj{n}": lambda n=n: build_finsurj_category(n) for n in (2, 3)},
}


@pytest.mark.parametrize("name", sorted(MONOIDAL_CASES))
def test_validate_monoidal_agrees_with_the_quadruple_replay(name):
    """The thinness certificate and the replay give the same report on
    clean, corrupted and non-thin tensors, but for the definedness and
    typing flags of the tensor's entries.  The replay has none: it skips
    pairs without an entry, so it passes the missing and extra entries,
    and it raises on an entry keyed by a non-morphism.  Each corrupted
    entry is flagged, as typing where it is mistyped and as definedness
    otherwise."""
    cat, mon = MONOIDAL_CASES[name]()
    ours = validate_monoidal(cat, mon)
    entries = [v for v in ours.violations if v.kind in ("definedness", "typing")]
    rest = [v for v in ours.violations if v not in entries]
    replayed = _outcome(ref.validate_monoidal, cat, mon)
    if name == "junk-key":
        assert replayed[0] == "KeyError" and not rest
    else:
        assert rest == replayed.violations and ours.notes == replayed.notes
    if name in _corrupted_tensors():
        assert {v.kind for v in entries} == {"typing" if name == "mistyped" else "definedness"}
    else:
        assert ours.ok


@pytest.mark.parametrize("n_locs", [3, 4])
def test_validate_monoidal_on_a_thin_base_composes_nothing(n_locs, monkeypatch):
    """Deterministic work gate: a well-typed tensor on the powerset base is
    certified by its typing alone."""
    cat, mon = build_powerset_category(n_locs)
    calls = []
    compose = FinCat.compose
    monkeypatch.setattr(FinCat, "compose",
                        lambda self, g, f: calls.append((g, f)) or compose(self, g, f))
    assert validate_monoidal(cat, mon).ok
    assert calls == []


def test_thin_composition_needs_composites_with_the_right_ends():
    cat, _ = build_powerset_category(1)
    assert cat.thin_composition
    f = (0, 1)
    bad = dict(cat.compose_table)
    bad[(f, (0, 0))] = (1, 1)
    assert not FinCat(cat.kind, cat.objects, cat.homs, bad, cat.identities).thin_composition
    del bad[(f, (0, 0))]
    assert not FinCat(cat.kind, cat.objects, cat.homs, bad, cat.identities).thin_composition
    assert not build_finsurj_category(2)[0].thin_composition


def test_powerset_tensor_on_morphisms_is_built_on_first_read():
    """Loading a memory model reads the tensor on objects only; the
    (3^n)^2-entry table on morphisms waits for its first reader."""
    from sheafsep.seplogic import eval_formula, make_memory_model, parse_formula

    model = make_memory_model(("w", "x", "y", "z"), (0, 1))
    mon = model.site.monoidal
    eval_formula(model, parse_formula("(w ~> 0 * x |-> 1) * (y ~> 1 \\/ z |-> 0)"))
    assert "tensor_mor" not in vars(mon)
    assert validate_monoidal(model.site.cat, mon).ok
    assert len(mon.tensor_mor) == 81 ** 2
    # w, x, y, z are bits 0-3: {x} is 2, {y} 4 and {x, y} 6
    assert mon.tensor_m((0, 2), (4, 4)) == (4, 6)


@pytest.mark.parametrize("n", range(5))
def test_mask_site_orders_as_the_name_tuple_reference(n):
    """A memory model's site on location masks, rendered back to names,
    lists what the name-tuple powerset lists, in its order: the objects,
    the morphisms into each stage in sorted order (the `SieveMasks`
    bits), each stage's splittings, its least cover in sorted order and
    its number of covers.  The names are given out of sorted order."""
    from site_reference import build_coverage as reference_coverage
    from sheafsep.day import splittings
    from sheafsep.seplogic import make_memory_model
    from sheafsep.site import sieve_masks

    names = ("y", "w", "z", "x")[:n]
    model = make_memory_model(names, (0, 1))
    cat, mon, cov, named = model.site.cat, model.site.monoidal, model.site.cov, model.sheaf.named
    ref_cat, ref_mon = ref.build_name_powerset(names)
    ref_cov = reference_coverage(ref_cat, "downward-closed")

    def named_mor(f):
        return "incl", named(f[0]), named(f[1])

    assert [named(a) for a in cat.objects] == list(ref_cat.objects)
    for a in cat.objects:
        stage = named(a)
        assert list(map(named_mor, sieve_masks(cat).bit(a))) == sorted(ref_cat.mors_into(stage))
        assert [(named(b), named(c)) for b, c in splittings(cat, mon, a)] == sorted(
            bc for bc, v in ref_mon.tensor_obj.items() if v == stage)
        covers = ref_cov.covers(stage)
        least = frozenset(ref_cat.mors_into(stage)).intersection(*(s.members for s in covers))
        assert list(map(named_mor, cov.min_cover(a).sorted_members())) == sorted(least)
        assert cov.count(a) == len(covers)


# -- the FinCat helpers against brute-force filters over all_morphisms() --


@pytest.fixture(
    scope="module",
    params=[lambda: build_powerset_category(3), lambda: build_finsurj_category(3)],
    ids=["powerset3", "finsurj3"],
)
def small_cat(request):
    return request.param()[0]


def test_mors_from_matches_brute_force(small_cat):
    cat = small_cat
    for a in cat.objects:
        assert list(cat.mors_from(a)) == [m for m in cat.all_morphisms() if cat.src(m) == a]


def test_factorisations_match_brute_force(small_cat):
    cat = small_cat
    mors = list(cat.all_morphisms())
    for f in mors:
        for g in mors:
            expected = [
                k
                for k in mors
                if cat.src(k) == cat.src(f) and cat.dst(k) == cat.src(g)
                and cat.compose(g, k) == f
            ]
            assert cat.factorisations(f, g) == expected


def test_squares_match_brute_force(small_cat):
    cat = small_cat
    mors = list(cat.all_morphisms())
    for f in mors:
        for g in mors:
            if cat.dst(f) != cat.dst(g):
                continue
            expected = [
                (k, h)
                for k in mors
                if cat.dst(k) == cat.src(f)
                for h in mors
                if cat.src(h) == cat.src(k) and cat.dst(h) == cat.src(g)
                and cat.compose(f, k) == cat.compose(g, h)
            ]
            assert cat.squares(f, g) == expected
