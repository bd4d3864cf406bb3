"""Tests for the benchmark itself: python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from run import tail  # noqa: E402
from spans import ROOT as ROOT_SPAN, Tracer, self_times  # noqa: E402
from verdicts import check, input_digest  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_for_a_seed(workload):
    a, b = generate(workload, 7), generate(workload, 7)
    assert a.requests == b.requests
    assert a.models == b.models
    c = generate(workload, 8)
    assert c.requests != a.requests
    # the canaries do not depend on the seed
    assert [r for r in a.requests if r["id"].startswith("g")] == \
        [r for r in c.requests if r["id"].startswith("g")]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_seed_gets_the_same_mix(workload):
    def mix(plan):
        out = []
        for req in plan.requests:
            argv = req["argv"]
            doc = plan.models[argv[argv.index("--model") + 1]]
            size = len(doc["locations"]) if doc["kind"] == "memory" else \
                doc["spaces"][argv[argv.index("--space") + 1]]["size"]
            out.append((argv[0], size, "pipeline" in argv))
        return sorted(out)

    assert mix(generate(workload, 1)) == mix(generate(workload, 2)) == mix(generate(workload, 9))


def test_self_time_with_same_name_recursion():
    # request [0, 10]
    #   eval [1, 9]
    #     eval [2, 6]
    #       eval [3, 4]
    #     meet [6.5, 8]
    spans = [
        (ROOT_SPAN, -1, 0, 0.0, 10.0),
        ("eval", 0, 0, 1.0, 9.0),
        ("eval", 1, 0, 2.0, 6.0),
        ("eval", 2, 0, 3.0, 4.0),
        ("meet", 1, 0, 6.5, 8.0),
    ]
    totals = self_times(spans)
    assert totals[ROOT_SPAN] == (2.0, 1)
    assert totals["eval"] == (pytest.approx(2.5 + 3.0 + 1.0), 3)
    assert totals["meet"] == (1.5, 1)
    assert sum(t for t, _ in totals.values()) == pytest.approx(10.0)
    # drift correction scales every span of a request by its factor
    scaled = self_times(spans + [(ROOT_SPAN, -1, 1, 20.0, 21.0)], scale=[0.5, 2.0])
    assert scaled[ROOT_SPAN] == (pytest.approx(1.0 + 2.0), 2)
    assert scaled["eval"][0] == pytest.approx(3.25)


@pytest.mark.parametrize("n", [11, 12, 20, 57, 100, 333])
def test_tail_keeps_ten_samples_beyond(n):
    values = random.Random(n).sample(range(10 * n), n)
    value, percentile, count = tail(values)
    assert count == n
    assert sum(v > value for v in values) == 10
    assert percentile == pytest.approx(100.0 * (n - 10) / n)


def test_tail_of_a_small_sample_is_its_minimum():
    value, percentile, count = tail([3.0, 1.0, 2.0])
    assert (value, count) == (1.0, 3)


def _healthy(plan):
    """Records a correct run would produce: expected exits, stable digests."""
    records = []
    for req in plan.requests:
        code = req["expect"].get("exit")
        records.append({"id": req["id"], "s": 0.01, "wall_s": 0.01,
                        "exit": 0 if code is None else code, "error": None,
                        "digest": f"digest-{req['id']}", "result": None})
    golden = {req["id"]: {"input": input_digest(plan, req), "output": f"digest-{req['id']}"}
              for req in plan.requests if req["id"].startswith("g")}
    return records, golden


def test_checker_accepts_a_healthy_run_and_flags_a_wrong_verdict():
    plan = generate("verify", 3)
    records, golden = _healthy(plan)
    assert check(plan, records + records, golden, 30.0) == []
    failing = next(r for r in records if r["exit"] == 1)
    failing["exit"] = 0  # a support-bounded sheaf reported as a sheaf
    assert [rid for rid, _ in check(plan, records, golden, 30.0)] == [failing["id"]]


def test_checker_flags_changed_digests():
    plan = generate("verify", 3)
    records, golden = _healthy(plan)
    again = [dict(r) for r in records]
    seeded = next(r for r in again if r["id"].startswith("s"))
    seeded["digest"] = "changed"
    failures = check(plan, records + again, golden, 30.0)
    assert failures == [(seeded["id"], "--json bytes differ from the first execution")]
    canary = next(r for r in records if r["id"].startswith("g"))
    canary["digest"] = "changed"
    failures = check(plan, records, golden, 30.0)
    assert failures == [(canary["id"], "--json bytes differ from golden.json")]


def test_checker_flags_errors_timeouts_and_twin_disagreement():
    plan = generate("query", 3)
    records, golden = _healthy(plan)
    twin = next(r for r in plan.requests if "twin" in r["expect"])
    for rec in records:
        if rec["id"] == twin["expect"]["twin"]:
            rec["result"] = True
        if rec["id"] == twin["id"]:
            rec["result"] = False
    records[0]["error"] = "ValueError: boom"
    records[1]["wall_s"] = 31.0
    failed = {rid for rid, _ in check(plan, records, golden, 30.0)}
    assert failed == {records[0]["id"], records[1]["id"], twin["id"]}


def test_checker_uses_the_independence_oracle():
    from verdicts import expected_psl

    plan = generate("psl", 3)
    records, golden = _healthy(plan)
    # every request with a known verdict claims result None, so all fail
    starred = {r["id"] for r in plan.requests if r["expect"]["psl"] is not None}
    assert {rid for rid, _ in check(plan, records, golden, 30.0)} == starred
    by_id = {r["id"]: r for r in plan.requests}
    verdicts = set()
    for rec in records:
        if rec["id"] in starred:
            want = expected_psl(plan, by_id[rec["id"]])
            rec["exit"], rec["result"] = (0 if want else 1), want
            verdicts.add(want)
    assert verdicts == {True, False}
    assert check(plan, records, golden, 30.0) == []
    rec = next(r for r in records if r["id"] in starred)
    rec["result"] = not rec["result"]
    assert [rid for rid, _ in check(plan, records, golden, 30.0)] == [rec["id"]]


def test_tracer_wraps_every_binding_and_accounts_for_request_time(tmp_path):
    from sheafsep import cli, day, presheaf

    model = tmp_path / "m.json"
    model.write_text(json.dumps({
        "schema_version": 1, "kind": "memory", "locations": ["x", "y"], "values": [0, 1],
        "sheaf": "partial-memory", "monoid": "weak-partial"}))
    original = presheaf.check_sheaf
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.check_sheaf is presheaf.check_sheaf is day.check_sheaf
        assert cli.check_sheaf is not original
        with contextlib.redirect_stdout(io.StringIO()):
            code = tracer.root(0, cli.main, ["check-sheaf", "--model", str(model), "--json"])
        assert code == 0
    finally:
        tracer.uninstall()
    assert presheaf.check_sheaf is original and cli.check_sheaf is original
    metrics = tracer.layer_metrics()
    assert metrics["cli.main.calls"] == 1
    assert metrics["presheaf.check_sheaf.calls"] == 1
    assert metrics["presheaf.check_sheaf.families"] > 0
    assert metrics["presheaf.restrict.calls"] > 0
    attributed = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert attributed == pytest.approx(metrics["request.total_s"])
