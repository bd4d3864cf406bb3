"""sheafsep benchmark: time to verdict on the verify, query and psl workloads.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 18 --trace 0

Run from the root of a checkout.  The seed generates the models and the
request list (workloads.py), which are written under perfbench/work/
before anything is timed.  Requests go through the public entry point
``sheafsep.cli.main([..., "--json"])`` in a fresh process with one
client in a closed loop (measure.py), so a request costs what one CLI
invocation costs minus interpreter start, model load included.

With ``--trace 0`` the last stdout line reports the end-to-end metrics,
with times drift-corrected as measure.py explains (the raw wall-clock
figures are printed beside them):

  setup_s         median over SETUP_REPEATS fresh processes of
                  ``import sheafsep`` plus a cold ``cli.load_model`` of
                  every model the workload uses
  verdict_p50_s   median verdict time (request sent to ``main`` returned)
  verdict_tail_s  verdict time at the highest percentile with at least
                  ten requests beyond it (percentile and count printed)
  verdicts_per_s  requests completed per second spent in requests
  peak_rss_mb     ``ru_maxrss`` of the serving process at the end

``fail_ratio`` (failed / attempted requests, verdicts.py) is printed and
carried by the ``failed`` and ``attempted`` fields.  It reads 0 on a
healthy tree, so it is not a relative-bound metric.

A run makes a fixed number of whole passes over the request list:
``--seconds`` divided by the pass's drift-corrected cost at the commit
that defined the benchmark (NOMINAL_PASS_S), rounded.  Every run of a
workload therefore has the same requests and sample count, and the tail
percentile means the same thing on both sides of a comparison.

With ``--trace 1`` an untraced phase of half the passes is followed by
a traced replay of exactly the same passes in another fresh process;
the per-layer metrics (spans.py) are per pass of the request list, and
the tracing overhead is traced minus untraced request time.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from spans import COUNTERS, LAYERS, SEP_CONJ_MODES, span_names  # noqa: E402
from verdicts import check, divergences, input_digest  # noqa: E402
from workloads import WORK_DIR, WORKLOADS, generate  # noqa: E402

SETUP_REPEATS = 3
REQUEST_LIMIT_S = 30.0
RUN_BUDGET_S = 170.0
GOLDEN = HERE / "golden.json"
# drift-corrected seconds one pass took at the commit that defined the
# benchmark; they turn --seconds into a fixed number of passes
NOMINAL_PASS_S = {"verify": 8.9, "query": 8.4, "psl": 2.5}


def pass_count(workload, seconds):
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


def tail(values):
    """(value, percentile, count): the sample at the highest percentile
    that still has at least ten samples beyond it."""
    xs = sorted(values)
    k = max(len(xs) - 11, 0)
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs)


class Runner:
    """Starts the measuring processes of one run within RUN_BUDGET_S."""

    def __init__(self, workload):
        self.dir = ROOT / WORK_DIR / workload
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.jobs = 0

    def child(self, mode, job):
        self.jobs += 1
        job_path = self.dir / f"job{self.jobs}.json"
        out_path = self.dir / f"out{self.jobs}.json"
        job_path.write_text(json.dumps(job))
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RuntimeError("run budget exhausted before the phase started")
        # subprocess.run kills and reaps the child on timeout
        proc = subprocess.run(
            [sys.executable, str(HERE / "measure.py"), mode, str(job_path), str(out_path)],
            cwd=ROOT, timeout=remaining, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"{mode} process failed:\n{proc.stderr.strip()}")
        return json.loads(out_path.read_text())


def prepare(workload, seed):
    plan = generate(workload, seed)
    work = ROOT / WORK_DIR / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    plan.write(ROOT)
    return plan


def serve_job(plan, trace, passes):
    return {
        "requests": plan.requests,
        "trace": trace,
        "passes": passes,
        "limit_s": REQUEST_LIMIT_S,
        "spans_path": str(WORK_DIR / plan.workload / "spans.jsonl"),
    }


def load_golden():
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def run_untraced(workload, seed, seconds):
    plan = prepare(workload, seed)
    runner = Runner(workload)
    job = {"models": sorted(plan.models)}
    # one set-up before the serving phase and the rest after it, so that
    # their median does not hang on one stretch of machine speed
    setups = [runner.child("setup", job)]
    passes = pass_count(workload, seconds)
    served = runner.child("serve", serve_job(plan, False, passes))
    setups += [runner.child("setup", job) for _ in range(SETUP_REPEATS - 1)]
    records = served["records"]
    failures = check(plan, records, load_golden().get(workload, {}), REQUEST_LIMIT_S)
    times = [rec["s"] for rec in records]
    walls = [rec["wall_s"] for rec in records]
    value, pct, n = tail(times)
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "verdict_p50_s": (statistics.median(times), "s"),
        "verdict_tail_s": (value, "s"),
        "verdicts_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mb": (served["peak_rss_mb"], "MB"),
    }
    notes = {
        "setup_s": f"median of {SETUP_REPEATS}, {len(job['models'])} models; wall "
                   f"{statistics.median(s['setup_wall_s'] for s in setups):.4f} s",
        "verdict_p50_s": f"wall {statistics.median(walls):.4f} s",
        "verdict_tail_s": f"p{pct:.1f} of {n} verdicts; wall {tail(walls)[0]:.4f} s",
        "verdicts_per_s": f"{passes} passes of {len(plan.requests)} requests; "
                          f"wall {len(walls) / sum(walls):.4f}/s",
    }
    return records, failures, divergences(plan, records), metrics, notes


def run_traced(workload, seed, seconds):
    plan = prepare(workload, seed)
    runner = Runner(workload)
    passes = pass_count(workload, seconds / 2)
    plain = runner.child("serve", serve_job(plan, False, passes))
    traced = runner.child("serve", serve_job(plan, True, passes))
    golden = load_golden().get(workload, {})
    failures = check(plan, plain["records"], golden, REQUEST_LIMIT_S)
    failures += check(plan, traced["records"], golden, REQUEST_LIMIT_S)
    records = plain["records"] + traced["records"]
    layers = traced["layers"]
    plain_s = sum(rec["s"] for rec in plain["records"])
    traced_s = sum(rec["s"] for rec in traced["records"])
    metrics = {}
    for name in span_names():
        metrics[f"{name}.self_s"] = (layers[f"{name}.self_s"] / passes, "s")
    sep_calls = sum(layers[f"seplogic.sep_conj.{m}.calls"] for m in SEP_CONJ_MODES)
    metrics["seplogic.sep_conj.calls"] = (sep_calls / passes, "count")
    metrics["psl.psl_sat.calls"] = (layers["psl.psl_sat.calls"] / passes, "count")
    for name in COUNTERS:
        metrics[name] = (layers[name] / passes, "count")
    mult = layers["day.mult.calls"]
    metrics["day.mult.defined_ratio"] = (layers["day.mult.defined"] / mult if mult else 0.0, "ratio")
    for layer in LAYERS:
        metrics[f"{layer}.raised"] = (layers[f"{layer}.raised"] / passes, "count")
    metrics["trace.request_s"] = (layers["request.total_s"] / passes, "s")
    metrics["trace.unattributed_s"] = (layers["request.self_s"] / passes, "s")
    metrics["trace.overhead_s"] = ((traced_s - plain_s) / passes, "s")
    metrics["trace.overhead_ratio"] = (traced_s / plain_s - 1.0, "ratio")
    request_s = metrics["trace.request_s"][0]
    attributed = sum(metrics[f"{n}.self_s"][0] for n in span_names())
    unattributed = metrics["trace.unattributed_s"][0]
    notes = {f"{n}.self_s": f"{100 * metrics[f'{n}.self_s'][0] / request_s:.1f}% of request time"
             for n in span_names()}
    notes["trace.request_s"] = f"per pass; {passes} passes of {len(plan.requests)} requests"
    notes["trace.unattributed_s"] = (f"layers {attributed:.4f} s + unattributed {unattributed:.4f} s "
                                     f"= {attributed + unattributed:.4f} s of {request_s:.4f} s")
    notes["trace.overhead_s"] = f"traced {traced_s:.3f} s vs untraced {plain_s:.3f} s"
    return records, failures, divergences(plan, records), metrics, notes


def record_golden(workload):
    """Pin the --json digests of the canary requests (run once, untraced)."""
    plan = prepare(workload, 0)
    runner = Runner(workload)
    served = runner.child("serve", serve_job(plan, False, 1))
    by_id = {req["id"]: req for req in plan.requests}
    pinned = {rec["id"]: {"input": input_digest(plan, by_id[rec["id"]]), "output": rec["digest"]}
              for rec in served["records"] if rec["id"].startswith("g")}
    golden = load_golden()
    golden[workload] = dict(sorted(pinned.items()))
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"{workload}: pinned {len(pinned)} canary digests in {GOLDEN.name}")


def report(workload, records, failures, divergent, metrics, notes):
    attempted = len(records)
    print(f"== {workload}: {attempted} requests attempted, {len(failures)} failed, "
          f"fail_ratio {len(failures) / max(attempted, 1):.4f} ratio")
    if divergent:
        print(f"  {len(divergent)} sat requests where the star modes may and do differ: "
              f"{' '.join(divergent)}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:40s} {value:14.6f} {unit}{note}")
    for rid, reason in failures[:20]:
        print(f"  FAILED {rid}: {reason}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="re-pin the canary digests in golden.json and exit")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sheafsep" / "__init__.py").is_file():
        print(f"error: no sheafsep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.record_golden:
        for workload in workloads:
            record_golden(workload)
        return 0
    run = run_traced if args.trace else run_untraced
    results = []
    try:
        for workload in workloads:
            results.append(report(workload, *run(workload, args.seed, args.seconds)))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
