"""The benchmark's golden canaries, replayed in the test suite.

`perfbench/golden.json` pins the sha256 of each canary request's
`--json` stdout.  Here every workload's canaries are generated from the
benchmark's own generator, their model files are written under a
temporary directory (the requests name them by relative path), and
each request goes through `cli.main` in process.  A change of the
output bytes then fails here as well as in a benchmark run.  The test
only reads `perfbench/`."""

import contextlib
import hashlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from sheafsep import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load("workloads")
verdicts = load("verdicts")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_canaries_print_their_pinned_bytes(workload, tmp_path, monkeypatch):
    plan = workloads.generate(workload, workloads.GOLDEN_SEED)
    canaries = [req for req in plan.requests if req["id"].startswith("g")]
    pinned = GOLDEN[workload]
    assert sorted(req["id"] for req in canaries) == sorted(pinned)
    plan.write(tmp_path)
    monkeypatch.chdir(tmp_path)
    for req in canaries:
        assert verdicts.input_digest(plan, req) == pinned[req["id"]]["input"], req["id"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli.main(req["argv"])
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        assert digest == pinned[req["id"]]["output"], (req["id"], req["argv"])
