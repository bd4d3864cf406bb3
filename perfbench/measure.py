"""The benchmark's measuring process: one fresh interpreter per phase.

    python3 perfbench/measure.py setup <job.json> <out.json>
    python3 perfbench/measure.py serve <job.json> <out.json>

`setup` times ``import sheafsep`` plus a cold ``cli.load_model`` of every
model in the job.  `serve` drives ``sheafsep.cli.main`` in-process with
one client in a closed loop: the next request is sent when the previous
verdict has returned.  It makes ``passes`` whole passes over the request
list, so every run executes the same mix.  Timing covers only the
``main`` call with its captured stdout; digests and result fields are
taken after the clock stops.  run.py starts these processes and checks
what they write.

Drift correction.  The CPU speed of a shared machine drifts: the same
request was measured at 0.14 s for a minute and at 0.25 s for the next
two.  So a fixed pure-Python calibration loop runs before every request
(and once after the last), and each verdict time is scaled by
CALIBRATION_REF_S over the mean of the calibrations on either side of
it; set-up is corrected the same way, segment by segment.  The ratio of
request time to calibration time kept a quartile spread of 1-2 % through
those phases while raw wall time spread by 23-25 %.  Both the corrected
and the raw wall time are recorded; the calibration itself is outside
the timed interval.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


# the loop's duration on an idle core of the 2-vCPU machine the benchmark
# was defined on; corrected times are seconds at that speed
CALIBRATION_REF_S = 0.002


def calibrate():
    """Wall time of a fixed pure-Python loop (about 2 ms on an idle core)."""
    started = time.perf_counter()
    table = {}
    for i in range(20000):
        table[i % 97] = table.get(i % 97, 0) + i
    return time.perf_counter() - started


class RequestTimeout(BaseException):
    """Raised in a request that outlives the per-request limit.  A
    BaseException, so no handler inside the program can swallow it."""


def _on_alarm(signum, frame):
    raise RequestTimeout()


def setup(job):
    """The import and each model load are timed as separate segments, each
    corrected by the calibrations on either side of it."""
    segments = []
    calibrations = [calibrate()]
    started = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    from sheafsep import cli

    segments.append(time.perf_counter() - started)
    calibrations.append(calibrate())
    for path in job["models"]:
        started = time.perf_counter()
        cli.load_model(path)
        segments.append(time.perf_counter() - started)
        calibrations.append(calibrate())
    corrected = sum(
        wall * 2 * CALIBRATION_REF_S / (calibrations[i] + calibrations[i + 1])
        for i, wall in enumerate(segments))
    return {"setup_s": corrected, "setup_wall_s": sum(segments)}


def serve(job):
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from sheafsep import cli

    tracer = None
    if job["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    requests = job["requests"]
    limit = job["limit_s"]
    signal.signal(signal.SIGALRM, _on_alarm)
    records = []
    calibrations = [calibrate()]
    for _ in range(job["passes"]):
        for req in requests:
            rec = _one(cli, tracer, len(records), req, limit)
            calibrations.append(calibrate())
            rec["s"] = rec["wall_s"] * 2 * CALIBRATION_REF_S / (calibrations[-2] + calibrations[-1])
            records.append(rec)
    out = {
        "records": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.layer_metrics([rec["s"] / rec["wall_s"] for rec in records])
        tracer.write(job["spans_path"])
    return out


def _one(cli, tracer, index, req, limit):
    """Run one request and describe how it went."""
    buf = io.StringIO()
    argv = req["argv"]
    error = None
    code = None
    signal.setitimer(signal.ITIMER_REAL, limit)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.root(index, cli.main, argv)
    except RequestTimeout:
        error = f"exceeded the {limit} s request limit"
    except (Exception, SystemExit) as exc:  # a failed request, not a crash
        error = f"{type(exc).__name__}: {exc}"
    finally:
        seconds = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    text = buf.getvalue()
    digest = hashlib.sha256(text.encode()).hexdigest()
    result = None
    if error is None:
        try:
            result = json.loads(text).get("status", {}).get("result")
        except (ValueError, AttributeError):
            error = "stdout is not one JSON report"
    return {"id": req["id"], "wall_s": seconds, "exit": code, "error": error,
            "digest": digest, "result": result}


def main(argv):
    mode, job_path, out_path = argv
    job = json.loads(Path(job_path).read_text())
    out = {"setup": setup, "serve": serve}[mode](job)
    Path(out_path).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
