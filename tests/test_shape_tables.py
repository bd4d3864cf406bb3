"""The tables a memory model shares with every model of its shape.

A memory carrier's codes, ids, sizes, restriction tables and their
fibres, the monoids' `agreeing` and halves' tables, and the positive
sheaf certificates are kept in its shape's entry (`presheaf._Shape`),
which every live carrier of the shape holds and the registry
`presheaf._shapes` holds weakly, and its site with its location count
(`seplogic.powerset_site`), and a loaded model is kept with its memos
(`cli._model`).  These tests check that the sharing changes no output,
whatever was served before, that it does the work it promises (a
second model of a shape builds no site and no table and certifies
nothing, while another shape certifies once), and that an entry lives
exactly as long as some carrier of its shape.
The benchmark's own generator supplies the requests; the test only
reads `perfbench/`."""

import contextlib
import gc
import importlib.util
import io
import json
import re
from collections import Counter
from pathlib import Path

import pytest

import presheaf_reference as ref
from sheafsep import cli, day, fincat, presheaf, seplogic, site
from sheafsep.errors import NotASheafError
from sheafsep.presheaf import build_resource_sheaf, check_sheaf, require_sheaf
from sheafsep.seplogic import eval_formula, make_memory_model, parse_formula, powerset_site
from sheafsep.site import build_coverage

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 3


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _plans(root, seed=SEED, kinds=("verify", "query")):
    """Every request of the plans of these workloads and seed, with their
    model files written under root, and the models by path."""
    requests, models = [], {}
    for workload in kinds:
        plan = workloads.generate(workload, seed)
        plan.write(root)
        requests += [req["argv"] for req in plan.requests]
        models.update(plan.models)
    return requests, models


def _renamed(doc, tag):
    """The renaming of a memory model's locations and values that keeps
    their sorted order: each location gets the suffix `tag`, each value
    moves up by 1000."""
    names = {x: f"{x}{tag}" for x in doc["locations"]}
    values = {v: v + 1000 for v in doc["values"]}

    def text(s):
        s = re.sub(r"[A-Za-z_]\w*", lambda m: names.get(m[0], m[0]), s)
        return re.sub(r"-?\d+", lambda m: str(values.get(int(m[0]), int(m[0]))), s)

    out = dict(doc, locations=[names[x] for x in doc["locations"]],
               values=[values[v] for v in doc["values"]])
    out["formulas"] = {k: text(f) for k, f in doc.get("formulas", {}).items()}
    return out, text


def _decoys(models, root):
    """Requests on models of the plans' shapes under other names, and on
    models that differ from them in the coverage kind or the sheaf kind
    (partial-memory against strict-memory and support-bounded ones of
    the same number of cells): a pipeline eval and a sat where there is
    a monoid, check-sheaf where there is none, and on two locations one
    sample of laws, whose amalgamation iso reads the certificate."""
    requests = []
    for i, doc in enumerate(models.values()):
        if doc["kind"] != "memory":
            continue
        other, _ = _renamed(doc, "d")
        cover = "finite-covers" if doc["coverage"] == "downward-closed" else "downward-closed"
        kinds = [dict(other), dict(other, coverage=cover)]
        if doc["sheaf"] == "partial-memory":
            n, bare = len(doc["locations"]), {k: v for k, v in other.items() if k != "monoid"}
            kinds += [dict(bare, sheaf="strict-memory", values=other["values"] + [2000]),
                      dict(bare, sheaf="support-bounded", support_bound=n - 1)]
        for j, decoy in enumerate(kinds):
            path = root / f"decoy{i}-{j}.json"
            decoy["formulas"] = {}
            path.write_text(json.dumps(decoy))
            x, v = decoy["locations"][0], decoy["values"][0]
            if decoy.get("monoid"):
                requests += [["eval", "--model", str(path), "--formula", f"{x} ~> {v} * T",
                              "--mode", "pipeline", "--json"],
                             ["sat", "--model", str(path), "--formula", f"T * {x} |-> {v}",
                              "--heap", json.dumps({y: v for y in decoy["locations"]}),
                              "--mode", "pipeline", "--json"]]
            else:
                requests.append(["check-sheaf", "--model", str(path), "--json"])
            if len(decoy["locations"]) == 2:
                requests.append(["laws", "--model", str(path), "--samples", "1", "--json"])
    return requests


def test_outputs_do_not_depend_on_the_models_served_before(tmp_path, monkeypatch):
    """Every verify, query and psl request of seeds 0-3 prints the same
    `--json` bytes and exits with the same code whether the shape caches
    and the kept models are cleared before it, or it is served a second
    time at once, on its kept model, or the process has already served
    the plan and models of the same shapes under other names and models
    of other coverage and sheaf kinds (a support-bounded carrier's laws
    among them, after partial-memory ones of the same locations and
    cells have been certified) and kept the models it read last."""
    for seed in range(4):
        root = tmp_path / f"seed{seed}"
        root.mkdir()
        monkeypatch.chdir(root)
        requests, models = _plans(root, seed, workloads.WORKLOADS)
        cold = []
        for argv in requests:
            ref.clear_shape_caches()
            cold.append(_run(argv))
            assert _run(argv) == cold[-1], argv
            assert cli._model.cache_info().hits == 1
        ref.clear_shape_caches()
        served = [_run(argv) for argv in _decoys(models, root)]
        assert {code for code, _ in served} <= {0, 1}
        assert [_run(argv) for argv in requests] == cold


def test_a_support_bounded_carrier_is_not_certified_by_a_partial_memory_one():
    """`require_sheaf` on a support-bounded carrier, after a
    partial-memory carrier of the same locations and cells was
    certified, still raises `NotASheafError` with `check_sheaf`'s
    report: the certificate's key holds the sheaf kind and the bound."""
    partial, cov = _carrier(("a", "b", "c"))
    require_sheaf(partial, cov)
    bounded, _ = _carrier(("x", "y", "z"), values=(5, 6), kind="support-bounded", bound=1)
    assert len(bounded.cells) == len(partial.cells)
    with pytest.raises(NotASheafError) as exc:
        require_sheaf(bounded, cov)
    assert not exc.value.report.ok
    assert exc.value.report == check_sheaf(bounded, cov)


def _entries(entry):
    """The number of tables kept in a shape's entry, and the misses of
    each shape cache."""
    return (len(entry.tables), [table.cache_info().misses for table in ref.SHAPE_CACHES])


@pytest.fixture
def certified(monkeypatch):
    """The number of `is_sheaf` calls made while the test runs."""
    calls = Counter()
    is_sheaf = presheaf.is_sheaf

    def counted(*args, **kwargs):
        calls["is_sheaf"] += 1
        return is_sheaf(*args, **kwargs)

    monkeypatch.setattr(presheaf, "is_sheaf", counted)
    return calls


def test_a_second_model_of_a_shape_builds_no_table_and_certifies_nothing(certified):
    """Deterministic work gate: after a pipeline eval on one 4-location
    model, the same eval on a model of its shape under other location
    names and values holds the first model's shape entry, builds no
    table (no new table kept, no shape cache misses), calls `is_sheaf`
    0 times, reads the first model's restriction tables themselves,
    and gives the same bits."""
    phi = "(a ~> 0 * b |-> 1) * (c ~> 1 \\/ d |-> 0)"
    first = make_memory_model(("a", "b", "c", "d"), (0, 1), monoid_variant="weak-partial")
    want = eval_formula(first, parse_formula(phi), mode="pipeline")
    assert certified["is_sheaf"] == 1
    built = _entries(first.sheaf.shape)
    second = make_memory_model(("p", "q", "r", "s"), (7, 9), monoid_variant="weak-partial")
    renamed = phi.translate(str.maketrans("abcd01", "pqrs79"))
    got = eval_formula(second, parse_formula(renamed), mode="pipeline")
    assert second.sheaf.shape is first.sheaf.shape
    assert _entries(second.sheaf.shape) == built
    assert certified["is_sheaf"] == 1
    assert list(got.bits.values()) == list(want.bits.values())
    for f, g in zip(first.site.cat.all_morphisms(), second.site.cat.all_morphisms()):
        assert second.sheaf.table(g) is first.sheaf.table(f)


def _carrier(locations, values=(0, 1), kind="partial-memory", bound=None, coverage=None):
    """A carrier on the shared site of its location count, and that
    site's coverage, or a coverage of the kind built apart."""
    shared = powerset_site(len(locations))
    carrier = build_resource_sheaf(shared.cat, kind, locations, values=values, bound=bound)
    return carrier, shared.cov if coverage is None else build_coverage(shared.cat, coverage)


@pytest.mark.parametrize("other", [
    {"coverage": "downward-closed"},
    {"kind": "support-bounded", "bound": 3},
    {"kind": "strict-memory", "values": (0, 1, 2)},
    {"budget": 10 ** 5},
])
def test_another_shape_certifies_again_once(other, certified):
    """Deterministic work gate: a positive verdict is kept per carrier
    shape, coverage and budget.  A carrier that differs from a certified
    partial-memory one in the coverage (one built apart from the shared
    site), the sheaf kind (with as many cells, or the same tables) or
    the budget is certified again, once, and then not for a renaming of
    it.  The carriers of a shape are built together, as a certificate
    lives only as long as some carrier of its shape.  (Both lub coverage
    kinds read the shared site, see
    `test_a_model_of_a_known_location_count_builds_no_site`.)"""
    other = dict(other)
    budget = other.pop("budget", presheaf.DEFAULT_FAMILY_BUDGET)
    partial = [_carrier(names) for names in (("a", "b", "c"), ("x", "y", "z"))]
    for carrier, cov in partial:
        require_sheaf(carrier, cov)
    assert certified["is_sheaf"] == 1
    cov = _carrier(("a", "b", "c"), **other)[1]
    others = [_carrier(names, **other)[0] for names in (("a", "b", "c"), ("u", "v", "w"))]
    for carrier in others:
        require_sheaf(carrier, cov, budget=budget)
    assert certified["is_sheaf"] == 2


def test_a_model_of_a_known_location_count_builds_no_site(tmp_path, monkeypatch):
    """Deterministic work gate: a memory model's category, monoidal
    structure, sieve masks and coverage depend on its number of
    locations alone, so after a model of three locations has been
    served, a model of three other locations and other values, under
    either lub coverage kind, constructs none of them and reads the
    first model's site."""
    built = Counter()
    for owner, name in ((fincat.FinCat, "__init__"), (site.SieveMasks, "__init__"),
                        (site.Coverage, "__init__"),
                        (fincat.MonoidalStructure, "__init__")):
        def counted(self, *args, _init=getattr(owner, name), _name=owner.__name__, **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    first = make_memory_model(("a", "b", "c"), (0, 1))
    eval_formula(first, parse_formula("a ~> 0 * b |-> 1"), mode="pipeline")
    assert built == {"FinCat": 1, "MonoidalStructure": 1, "SieveMasks": 1, "Coverage": 1}
    built.clear()
    for coverage in ("downward-closed", "finite-covers"):
        second = make_memory_model(("u", "v", "w"), (5, 6, 7), coverage_kind=coverage)
        eval_formula(second, parse_formula("w ~> 7 * u |-> 5"), mode="pipeline")
        assert second.site is first.site
    assert not built


def test_another_support_bound_certifies_again(certified):
    """Deterministic work gate: after a support-bounded carrier of bound 3
    on three locations is certified, one of bound 2 calls `is_sheaf`
    again and raises `NotASheafError`, each time, as a negative verdict
    is never kept; bounds 5 and 100 number the same heaps as 3, so while
    that carrier lives they share its shape entry and certify nothing."""
    first = _carrier(("a", "b", "c"), kind="support-bounded", bound=3)
    require_sheaf(*first)
    assert certified["is_sheaf"] == 1
    for names in (("a", "b", "c"), ("u", "v", "w")):
        before = certified["is_sheaf"]
        with pytest.raises(NotASheafError):
            require_sheaf(*_carrier(names, kind="support-bounded", bound=2))
        assert certified["is_sheaf"] > before
    before = certified["is_sheaf"]
    for bound in (5, 100):
        require_sheaf(*_carrier(("x", "y", "z"), kind="support-bounded", bound=bound))
    assert certified["is_sheaf"] == before


def test_a_bound_below_zero_admits_no_heap():
    """A support-bounded carrier whose bound is below 0 holds no heap at
    any stage, as every heap allocates at least 0 cells, and its tables
    are empty; any negative bound gives the same shape."""
    for bound in (-1, -3):
        carrier, _ = _carrier(("a", "b", "c"), kind="support-bounded", bound=bound)
        assert carrier.shape.key == ("support-bounded", 3, -1)
        cat = carrier.base
        assert [carrier.size(a) for a in cat.objects] == [0] * len(cat.objects)
        assert all(carrier.table(f) == () for f in cat.all_morphisms())
        assert all(carrier.codes(a) == () for a in cat.objects)


def test_a_bound_past_the_locations_shares_the_tables_of_that_bound():
    """A support bound of at least the number of locations admits every
    heap, so it is kept in the shape as that number: bounds 4 and 100 on
    four locations give one shape and the same table tuples, and the
    carrier is the partial-memory one, under its own name."""
    names = ("a", "b", "c", "d")
    at4, _ = _carrier(names, kind="support-bounded", bound=4)
    at100, _ = _carrier(names, kind="support-bounded", bound=100)
    partial, _ = _carrier(names)
    assert at4.shape is at100.shape
    assert at4.shape.key == ("support-bounded", 3, 4)
    assert at100.name == "Mp|supp<=100"
    for f in at4.base.all_morphisms():
        assert at100.table(f) is at4.table(f)
        assert at4.table(f) == partial.table(f)
    assert [at100.size(a) for a in at4.base.objects] == [partial.size(a) for a in at4.base.objects]


def _flat(x):
    """The atoms of a nested key or value."""
    if isinstance(x, (tuple, frozenset)):
        for y in x:
            yield from _flat(y)
    else:
        yield x


def _kept_tables(entries):
    """Every kept (shape, builder, key) and its table, in these entries."""
    return {(entry.key, build.__name__, key): table for entry in entries
            for (build, key), table in entry.tables.items()}


def test_shape_caches_hold_one_immutable_entry_per_shape_key(tmp_path, monkeypatch):
    """Deterministic work gate: `SHAPE_CACHES` names every cache of
    `presheaf`, `day` and `seplogic`.  After every verify and query
    request of one seed, each shape cache holds one entry per distinct
    key it was asked for, no key (nor a shape, nor a kept table's key,
    nor a certificate) holds a location name, and every kept table is an
    int or a tuple of ints and tuples.  With the registry a plain dict
    for the test, so that no entry dies, serving the same requests again
    on renamed models (other locations and values in the same order)
    adds no cache entry, no shape entry and no table: the keys are
    shapes and location counts, not models."""
    modules = (presheaf, day, seplogic)
    kept = {getattr(module, name) for module in modules for name in dir(module)
            if hasattr(getattr(module, name), "cache_clear")}
    assert kept == set(ref.SHAPE_CACHES)
    monkeypatch.chdir(tmp_path)
    requests, models = _plans(tmp_path)
    asked = {table: {} for table in ref.SHAPE_CACHES}
    for table in ref.SHAPE_CACHES:
        def recorded(*key, _table=table):
            out = asked[_table][key] = _table(*key)
            return out

        for module in modules:
            if getattr(module, table.__name__, None) is table:
                monkeypatch.setattr(module, table.__name__, recorded)
    held = {}  # the registry, holding its entries so that none dies during the test
    monkeypatch.setattr(presheaf, "_shapes", held)
    for argv in requests:
        _run(argv)
    sizes = [table.cache_info().currsize for table in ref.SHAPE_CACHES]
    assert sizes == [len(asked[table]) for table in ref.SHAPE_CACHES]
    entries = list(held.values())
    tables = _kept_tables(entries)
    certificates = [c for entry in entries for c in entry.certified]
    names = {x for doc in models.values() for x in doc["locations"]}
    for table in ref.SHAPE_CACHES:
        assert not names & set(_flat(tuple(asked[table]))), table.__name__
    assert not names & (set(_flat(tuple(held))) | set(_flat(tuple(tables)))
                        | set(_flat(tuple(certificates))))
    for value in tables.values():
        assert all(type(x) is int for x in _flat(value))
        assert isinstance(value, (int, tuple))

    for path, doc in models.items():
        other, text = _renamed(doc, "r")
        Path(path + ".renamed").write_text(json.dumps(other))
        models[path] = text
    for argv in requests:
        path = argv[argv.index("--model") + 1]
        text = models[path]
        _run([path + ".renamed" if a == path else text(a) if a.startswith(("{", "(")) or " " in a
              else a for a in argv])
    assert [table.cache_info().currsize for table in ref.SHAPE_CACHES] == sizes
    assert list(held.values()) == entries
    assert _kept_tables(entries).keys() == tables.keys()


def _total_model(tmp_path, r):
    """The path of a 2-location total-monoid model file of r values."""
    doc = {"schema_version": cli.SCHEMA_VERSION, "kind": "memory", "locations": ["a", "b"],
           "values": list(range(r)), "sheaf": "partial-memory", "monoid": "total",
           "coverage": "downward-closed"}
    path = tmp_path / f"total{r}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_overlap_tables_live_and_die_with_their_shape(tmp_path):
    """The halves' tables of a monoid's overlaps (`day._half`) are kept in
    its carrier's shape entry and in no cache of their own, and a shape's
    entry lives only while a carrier of it does, so the kept models
    bound what a process keeps: after MODELS_KEPT + 3 total-monoid
    models of as many cell counts have each been loaded and read an
    overlap, and `gc.collect()` has run, the registry holds the entries
    of the MODELS_KEPT models loaded last, each with its two tables, and
    none of the first three shapes."""
    half = day._half.__wrapped__
    assert not hasattr(day._half, "cache_clear")
    shapes = []
    for r in range(1, cli.MODELS_KEPT + 4):
        model = cli.load_model(_total_model(tmp_path, r))
        model.monoid.overlap(0b11, 0b11)  # the halves {a, b} and {}
        shapes.append(model.sheaf.shape.key)
    del model
    gc.collect()
    assert len(set(shapes)) == cli.MODELS_KEPT + 3
    assert sorted(presheaf._shapes) == sorted(shapes[3:])
    for shape in shapes[3:]:
        assert [build for build, _ in presheaf._shapes[shape].tables].count(half) == 2


def test_a_shape_entry_lives_as_long_as_a_carrier_of_its_shape(certified):
    """The registry holds a shape's entry, its tables and its
    certificates while some carrier of the shape lives, and no longer.
    While the first carrier lives, certifying MODELS_KEPT carriers of
    other shapes, dropped at once, leaves its entry whole, and a second
    carrier of its shape reads its very tables and its certificate.
    Once both are dropped and `gc.collect()` has run, no entry of any
    of these shapes is left; a new carrier of the first shape reads
    equal restriction tables, built again, and is certified again,
    once, for it and a further carrier of its shape."""
    first, cov = _carrier(("a", "b"))
    require_sheaf(first, cov)
    cat = first.base
    tables = [first.table(f) for f in cat.all_morphisms()]
    shape, built = first.shape.key, len(first.shape.tables)
    for values in range(1, cli.MODELS_KEPT + 1):
        require_sheaf(*_carrier(("a", "b"), values=tuple(range(100, 100 + values)),
                                kind="strict-memory"))
    gc.collect()
    assert list(presheaf._shapes) == [shape]
    assert len(first.shape.tables) == built
    assert certified["is_sheaf"] == cli.MODELS_KEPT + 1
    second, _ = _carrier(("x", "y"))
    require_sheaf(second, cov)
    assert certified["is_sheaf"] == cli.MODELS_KEPT + 1
    assert second.shape is first.shape
    assert all(second.table(f) is t for f, t in zip(cat.all_morphisms(), tables))
    del first, second
    gc.collect()
    assert not presheaf._shapes
    again, _ = _carrier(("x", "y"))
    assert [again.table(f) for f in again.base.all_morphisms()] == tables
    for carrier in (again, _carrier(("p", "q"))[0]):
        require_sheaf(carrier, cov)
    assert certified["is_sheaf"] == cli.MODELS_KEPT + 2


def test_a_failing_replay_keeps_least_covers_only(tmp_path, built):
    """Deterministic work gate: a failing `check-sheaf` on a kept model
    builds every cover it replays, but the carrier keeps the encoded
    covers of its least covers only, which `is_sheaf`, the replay and
    the matching presheaf read; a second request on the kept model
    prints the same bytes and builds every cover again but those."""
    doc = {"schema_version": cli.SCHEMA_VERSION, "kind": "memory",
           "locations": ["x", "y", "z"], "values": [0, 1], "sheaf": "support-bounded",
           "support_bound": 1, "monoid": None, "coverage": "downward-closed"}
    path = tmp_path / "bounded.json"
    path.write_text(json.dumps(doc))
    argv = ["check-sheaf", "--model", str(path), "--json"]
    first = _run(argv)
    assert first[0] == 1
    model = cli.load_model(str(path))
    cov, kept = model.site.cov, model.sheaf._covers
    assert kept and all(s == cov.min_cover(s.target) for s in kept)
    replayed = built["_EncodedCover"]
    assert len(kept) < replayed
    built.clear()
    assert _run(argv) == first
    assert built["_EncodedCover"] == replayed - len(kept)


def test_a_second_failing_replay_on_the_site_builds_no_skeleton(tmp_path, monkeypatch, built):
    """Deterministic work gate: a cover's site half (`SieveMasks.skeleton`)
    is kept with the shared site.  A failing `check-sheaf` on the
    3-location, 4-value, bound-2 support-bounded model builds one
    skeleton for each of the 11 covers it reads that are not maximal
    sieves; a failing one on a 3-location model with other names, values
    and bound then calls `FinCat.squares` 0 times and builds no
    skeleton.  Each report is the reference replay's."""
    squares = fincat.FinCat.squares
    calls = []
    monkeypatch.setattr(fincat.FinCat, "squares",
                        lambda self, f, g: calls.append((f, g)) or squares(self, f, g))
    kept = site.sieve_masks(powerset_site(3).cat)._skeleton
    assert not kept  # the shared site starts cold
    doc = {"schema_version": cli.SCHEMA_VERSION, "kind": "memory",
           "locations": ["x", "y", "z"], "values": [0, 1, 2, 3], "sheaf": "support-bounded",
           "support_bound": 2, "monoid": None, "coverage": "downward-closed"}
    other = dict(doc, locations=["p", "q", "r"], values=[5, 7], support_bound=1)
    outs = {}
    for name, doc, skeletons in (("first", doc, 11), ("second", other, 0)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        built.clear()
        calls.clear()
        code, outs[str(path)] = _run(["check-sheaf", "--model", str(path), "--json"])
        assert code == 1
        assert built["CoverSkeleton"] == skeletons
        assert bool(calls) == bool(skeletons)
    assert len(kept) == 11
    for path, out in outs.items():
        model = cli.load_model(path)
        want = ref.replay_report(model.sheaf, model.site.cov)
        assert json.loads(out)["witnesses"] == [
            {"kind": v.kind, "detail": v.detail} for v in want.violations]
