import pytest

from fincat_reference import slice_category
from sheafsep.errors import CoverageKindError
from sheafsep.fincat import build_finsurj_category, build_powerset_category
from sheafsep.site import (
    Coverage,
    Sieve,
    _pull,
    build_coverage,
    sieve_masks,
    validate_coverage,
)
from site_reference import (
    generate_sieve,
    is_cover,
    maximal_sieve,
    saturate,
    slice_coverage,
    trivial_coverage,
)


def _sieves(cat, a):
    """Every sieve on a, as `SieveMasks.all` lists them."""
    sm = sieve_masks(cat)
    return [sm.sieve(a, m) for m in sm.all(a)]


def _pullback(cat, s, h):
    """h*(S), pulled back on the masks as `validate_coverage` does."""
    sm = sieve_masks(cat)
    return sm.sieve(cat.src(h), _pull(sm.pull(h), sm.mask(s.target, s.members)))


@pytest.fixture(scope="module")
def pset2():
    return build_powerset_category(2)


@pytest.fixture(scope="module")
def dc2(pset2):
    cat, _ = pset2
    return cat, build_coverage(cat, "downward-closed")


def test_downward_closed_contains_singleton_cover(dc2):
    cat, cov = dc2
    top = 0b11  # {x, y}
    gen = generate_sieve(cat, top, [(0b01, top), (0b10, top)])
    assert is_cover(cov, gen)
    # the generated sieve is the downward closure: sources are all subsets
    assert {cat.src(f) for f in gen.members} == {0, 0b01, 0b10}


def test_maximal_sieve_always_covers(dc2):
    cat, cov = dc2
    for a in cat.objects:
        assert is_cover(cov, maximal_sieve(cat, a))


def test_empty_sieve_never_covers(dc2):
    cat, cov = dc2
    for a in cat.objects:
        assert not is_cover(cov, Sieve(a, frozenset()))


def _subset_sieves(cat, a):
    """Reference: filter every subset of the morphisms into a."""
    mors = cat.mors_into(a)
    out = []
    for bits in range(1 << len(mors)):
        chosen = {f for i, f in enumerate(mors) if bits >> i & 1}
        if all(cat.compose(f, k) in chosen for f in chosen for k in cat.mors_into(cat.src(f))):
            out.append(Sieve(a, frozenset(chosen)))
    return sorted(out, key=lambda s: (len(s.members), s.sorted_members()))


def test_all_sieves_matches_subset_filter():
    pcat, _ = build_powerset_category(3)
    fcat, _ = build_finsurj_category(3)
    scat, _ = slice_category(pcat, 0b111)
    for cat in (pcat, fcat, scat):
        for a in cat.objects:
            assert _sieves(cat, a) == _subset_sieves(cat, a)
    # the Dedekind number M(4) - 168 down-sets of the subsets of 4 points
    qcat, _ = build_powerset_category(4)
    assert len(_sieves(qcat, 0b1111)) == 168


def test_atomic_on_finsurj2():
    cat, _ = build_finsurj_category(2)
    cov = build_coverage(cat, "atomic")
    for s in _sieves(cat, 2):
        assert is_cover(cov, s) == bool(s.members)
    assert validate_coverage(cat, cov).ok


def test_atomic_rejected_beyond_two():
    # truncating the surjection category at 3 breaks cospan completion:
    # fibre profiles (2,1) vs (1,2) over a 2-element base need a
    # 4-element apex, which the bound excludes.
    cat, _ = build_finsurj_category(3)
    with pytest.raises(CoverageKindError):
        build_coverage(cat, "atomic")


def test_finite_covers_coincide_with_downward_closed(pset2):
    cat, _ = pset2
    dc = build_coverage(cat, "downward-closed")
    fc = build_coverage(cat, "finite-covers")
    assert dc.by_object == fc.by_object
    assert any("coincides" in n for n in fc.notes)


def test_pullback_of_generated_sieve(dc2):
    cat, _ = dc2
    top = 0b11
    s = generate_sieve(cat, top, [(0b01, top), (0b10, top)])
    pb = _pullback(cat, s, (0b01, top))
    assert pb == maximal_sieve(cat, 0b01)


def test_pullback_identity_and_maximal(dc2):
    cat, cov = dc2
    top = 0b11
    for s in cov.covers(top):
        assert _pullback(cat, s, cat.id(top)) == s
    for h in cat.all_morphisms():
        pb = _pullback(cat, maximal_sieve(cat, cat.dst(h)), h)
        assert pb == maximal_sieve(cat, cat.src(h))


def test_pullback_of_cover_is_cover(dc2):
    cat, cov = dc2
    for a in cat.objects:
        for s in cov.covers(a):
            for h in cat.all_morphisms():
                if cat.dst(h) == a:
                    assert is_cover(cov, _pullback(cat, s, h))


def test_validate_builtin_coverages(pset2):
    cat, _ = pset2
    for kind in ("downward-closed", "finite-covers"):
        assert validate_coverage(cat, build_coverage(cat, kind)).ok
    fcat, _ = build_finsurj_category(2)
    assert validate_coverage(fcat, build_coverage(fcat, "atomic")).ok


def test_validate_flags_missing_maximal(dc2):
    cat, cov = dc2
    broken = {
        a: {s for s in cov.by_object[a] if s != maximal_sieve(cat, a)}
        for a in cat.objects
    }
    rep = validate_coverage(cat, Coverage(cat, broken))
    assert "maximality" in [v.kind for v in rep.violations]


def test_validate_flags_missing_pullback(dc2):
    cat, cov = dc2
    top = 0b11
    gen = generate_sieve(cat, top, [(0b01, top), (0b10, top)])
    pb = _pullback(cat, gen, (0b01, top))
    broken = {a: set(cov.by_object[a]) for a in cat.objects}
    broken[0b01].discard(pb)
    rep = validate_coverage(cat, Coverage(cat, broken))
    assert "stability" in [v.kind for v in rep.violations]


def test_validate_flags_misfiled_sieve_without_raising(dc2):
    """A cover of {y} filed under {x} is a typing fault; the stability
    and transitivity sweeps skip it instead of pulling it back along
    morphisms into {x}."""
    cat, cov = dc2
    broken = {a: set(cov.by_object[a]) for a in cat.objects}
    broken[0b01].add(maximal_sieve(cat, 0b10))
    rep = validate_coverage(cat, Coverage(cat, broken))
    assert [v.kind for v in rep.violations] == ["typing"]
    assert rep.violations[0].detail == "sieve on 2 filed under 1"


def test_saturate_precover_of_two_singletons(pset2):
    """Fixpoint computed by hand on the four-element poset: the top
    object gains exactly the downward closure of {{x},{y}}; every other
    object keeps only its maximal sieve."""
    cat, _ = pset2
    top = 0b11
    gen = generate_sieve(cat, top, [(0b01, top), (0b10, top)])
    cov = saturate(cat, {top: [gen]})
    assert is_cover(cov, gen)
    assert set(cov.covers(top)) == {gen, maximal_sieve(cat, top)}
    for a in cat.objects:
        if a != top:
            assert set(cov.covers(a)) == {maximal_sieve(cat, a)}
    assert validate_coverage(cat, cov).ok


def test_saturate_empty_assignment_gives_trivial(pset2):
    cat, _ = pset2
    cov = saturate(cat, {})
    assert cov.by_object == trivial_coverage(cat).by_object
    assert validate_coverage(cat, cov).ok


def test_slice_coverage_over_top(pset2):
    cat, _ = pset2
    cov = build_coverage(cat, "downward-closed")
    top = 0b11
    scov = slice_coverage(cov, top)
    assert validate_coverage(scov.cat, scov).ok
    # order isomorphism with the base coverage on the downset: counts match
    for p in scov.cat.objects:
        base_obj = cat.src(p)
        assert len(scov.covers(p)) == len(cov.covers(base_obj))


def test_slice_coverage_valid_at_every_object(pset2):
    cat, _ = pset2
    cov = build_coverage(cat, "downward-closed")
    for a in cat.objects:
        scov = slice_coverage(cov, a)
        assert validate_coverage(scov.cat, scov).ok


def test_slice_coverage_over_empty(pset2):
    cat, _ = pset2
    cov = build_coverage(cat, "downward-closed")
    scov = slice_coverage(cov, 0)
    (p,) = scov.cat.objects
    covers = scov.covers(p)
    assert len(covers) == 1
    assert covers[0] == maximal_sieve(scov.cat, p)


def test_slice_coverage_atomic_finsurj(dc2):
    fcat, _ = build_finsurj_category(2)
    cov = build_coverage(fcat, "atomic")
    scov = slice_coverage(cov, 2)
    assert validate_coverage(scov.cat, scov).ok
    for p in scov.cat.objects:
        for s in _sieves(scov.cat, p):
            dom_members = frozenset(m[1] for m in s.members)
            base = Sieve(fcat.src(p), dom_members)
            assert is_cover(scov, s) == is_cover(cov, base)


def _builtin_coverages():
    coverages = []
    for n in range(5):
        cat, _ = build_powerset_category(n)
        coverages += [build_coverage(cat, "downward-closed"), build_coverage(cat, "finite-covers")]
    for n in range(1, 5):
        cat, _ = build_finsurj_category(n)
        coverages.append(build_coverage(cat, "atomic") if n <= 2 else trivial_coverage(cat))
    return coverages


def test_min_cover_is_intersection():
    """The least cover, in closed form on the lub coverages, is the
    intersection of the covers, computed here from `covers(a)` on
    frozensets: it is itself a cover and lies inside every cover, so
    local character may read it alone.  Every object of every built-in
    coverage, 72 cases."""
    cases = [(cov, a) for cov in _builtin_coverages() for a in cov.cat.objects]
    assert len(cases) == 72
    for cov, a in cases:
        covers = cov.covers(a)
        meet = frozenset(cov.cat.mors_into(a)).intersection(*(s.members for s in covers))
        mc = cov.min_cover(a)
        assert mc == Sieve(a, meet), (cov.cat.kind, a)
        assert mc in covers and is_cover(cov, mc), (cov.cat.kind, a)
        assert cov.min_cover(a) is mc  # computed once per object


def test_min_cover_intersects_the_covers_once_per_object(monkeypatch):
    """Deterministic work gate: the lub coverages give the least cover in
    closed form and read no cover for it; the atomic one intersects an
    object's covers, read on its first call only."""
    reads = []
    covers = Coverage.covers
    monkeypatch.setattr(Coverage, "covers", lambda self, a: reads.append(a) or covers(self, a))
    pcat, _ = build_powerset_category(3)
    fcat, _ = build_finsurj_category(2)
    for cat, kind, read in ((pcat, "downward-closed", []), (pcat, "finite-covers", []),
                            (fcat, "atomic", sorted(fcat.objects))):
        cov = build_coverage(cat, kind)
        for _ in range(3):
            for a in cat.objects:
                cov.min_cover(a)
        assert sorted(reads) == read, kind
        reads.clear()


def test_validate_flags_transitivity_without_stability():
    """Dropping the sieve generated by the three points from the top's
    covers breaks transitivity only: it is still locally covering, and no
    other cover pulls back to it.  The witness names the first cover in
    `Coverage.covers` order that it is locally covering via."""
    cat, _ = build_powerset_category(3)
    cov = build_coverage(cat, "downward-closed")
    top = 0b111
    points = generate_sieve(cat, top, [(1 << i, top) for i in range(3)])
    via = generate_sieve(cat, top, [(0b011, top), (0b100, top)])
    broken = {a: set(cov.by_object[a]) for a in cat.objects}
    broken[top].discard(points)
    rep = validate_coverage(cat, Coverage(cat, broken))
    assert [v.kind for v in rep.violations] == ["transitivity"]
    assert rep.violations[0].detail == (
        f"sieve {points.sorted_members()!r} on {top!r} is locally covering "
        f"via {via.sorted_members()!r} but not covering"
    )


def test_coverage_replay_pullbacks_at_the_size_bound(monkeypatch):
    """Deterministic work gate: replaying the axioms of the four-location
    downward-closed coverage pulls each sieve tested for transitivity
    back once per morphism, in sorted member order, so the count of
    encoded pullbacks does not depend on the hash seed."""
    import sheafsep.site as site

    cat, _ = build_powerset_category(4)
    cov = build_coverage(cat, "downward-closed")
    calls = 0
    pull = site._pull

    def counted(*args):
        nonlocal calls
        calls += 1
        return pull(*args)

    monkeypatch.setattr(site, "_pull", counted)
    assert validate_coverage(cat, cov).ok
    assert calls == 2803


def test_model_load_builds_sieves_only_for_covers(monkeypatch, tmp_path):
    """Work gate: a coverage builds its covers when they are read, and a
    model load reads none, so loading a four-location model constructs
    no `Sieve` and enumerates no sieve lattice; the covers read later
    are the 167 of the downward-closed coverage."""
    import json

    import sheafsep.site as site
    from sheafsep.cli import load_model

    path = tmp_path / "m4.json"
    path.write_text(json.dumps({
        "schema_version": 1, "kind": "memory", "locations": ["a", "b", "c", "d"],
        "values": [0, 1], "monoid": "weak-partial",
    }))
    built = enumerated = 0
    init, enumerate_all = Sieve.__init__, site.SieveMasks.all

    def counted(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    def counted_all(self, a):
        nonlocal enumerated
        enumerated += 1
        return enumerate_all(self, a)

    monkeypatch.setattr(Sieve, "__init__", counted)
    monkeypatch.setattr(site.SieveMasks, "all", counted_all)
    model = load_model(str(path))
    assert (built, enumerated) == (0, 0)
    cov = model.site.cov
    assert sum(len(cov.covers(a)) for a in cov.cat.objects) == 167
    assert built == 167


@pytest.mark.parametrize("coverage", ["downward-closed", "finite-covers"])
def test_model_load_replays_no_coverage_axiom(coverage, monkeypatch, tmp_path):
    """Work gate: the built-in coverages are coverages by construction,
    so loading a four-location model pulls no sieve back; check-site
    replays the axioms."""
    import json

    import sheafsep.site as site
    from sheafsep.cli import load_model, main

    path = tmp_path / "m4.json"
    path.write_text(json.dumps({
        "schema_version": 1, "kind": "memory", "locations": ["a", "b", "c", "d"],
        "values": [0, 1], "monoid": "weak-partial", "coverage": coverage,
    }))
    calls = 0
    pull = site._pull

    def counted(*args):
        nonlocal calls
        calls += 1
        return pull(*args)

    monkeypatch.setattr(site, "_pull", counted)
    load_model(str(path))
    assert calls == 0
    assert main(["check-site", "--model", str(path), "--json"]) == 0
    assert calls > 0


def test_lub_coverages_need_the_powerset():
    cat, _ = build_finsurj_category(2)
    for kind in ("downward-closed", "finite-covers"):
        with pytest.raises(CoverageKindError, match="requires a powerset base"):
            build_coverage(cat, kind)
