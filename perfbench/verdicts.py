"""Verdict checks, run after the clock stops.

A request fails when it raised or outlived the per-request limit, when
its exit code or result differs from the answer known by construction,
when its ``--json`` bytes differ from an earlier execution of the same
request in the run, or, for a canary, from the digest pinned in
golden.json.  Answers known by construction:

* check-site exits 0; check-sheaf exits 0 on partial and strict memory
  and 1 on support-bounded models with 1 <= bound < locations; laws
  exits 0 on every 2-location variant; eval exits 0.
* A pipeline-mode sat (at most 3 locations) gives the same result as
  its unfolded twin wherever the README promises it (workloads.py,
  ``_same_at_stage``).  The other twins are counted as divergences, not
  failures: with an allocated atom under a nested star the two modes
  differ by design.
* A psl star of two atoms holds exactly when both laws match the space
  and ``independence_oracle`` holds; under ``/\\`` and ``->`` the verdict
  follows from that and the atom's law.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction


def input_digest(plan, req):
    """Hash of a request's argv and the model document it reads."""
    path = req["argv"][req["argv"].index("--model") + 1]
    blob = json.dumps([req["argv"], plan.models[path]], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def check(plan, records, golden, limit_s):
    """Failure reasons as (request id, reason) pairs, one per failed
    execution of the records measure.py wrote."""
    by_id = {req["id"]: req for req in plan.requests}
    first = _first_executions(records)
    psl_expected = {}
    failures = []
    for rec in records:
        rid, code, digest, result = rec["id"], rec["exit"], rec["digest"], rec["result"]
        req = by_id[rid]
        expect = req["expect"]
        reason = None
        if rec["error"] is not None:
            reason = rec["error"]
        elif rec["wall_s"] > limit_s:
            reason = f"took {rec['wall_s']:.1f} s, over the {limit_s} s limit"
        elif code not in (0, 1):
            reason = f"exit {code}"
        elif expect.get("exit") is not None and code != expect["exit"]:
            reason = f"exit {code}, expected {expect['exit']}"
        elif digest != first[rid]["digest"]:
            reason = "--json bytes differ from the first execution"
        elif rid.startswith("g") and not _golden_ok(plan, req, digest, golden):
            reason = "--json bytes differ from golden.json"
        elif expect.get("agree") and result != first[expect["twin"]]["result"]:
            reason = f"unfolded sat gives {result}, pipeline twin {first[expect['twin']]['result']}"
        elif expect.get("psl") is not None:
            if rid not in psl_expected:
                psl_expected[rid] = expected_psl(plan, req)
            want = psl_expected[rid]
            if result is not want or code != (0 if want else 1):
                reason = f"psl result {result}, expected {want}"
        if reason is not None:
            failures.append((rid, reason))
    return failures


def divergences(plan, records):
    """Ids of unfolded sat requests whose pipeline twin gave another
    result where the modes are allowed to differ."""
    by_id = {req["id"]: req for req in plan.requests}
    first = _first_executions(records)
    return sorted(
        rid for rid, rec in first.items()
        if "twin" in by_id[rid]["expect"] and not by_id[rid]["expect"]["agree"]
        and rec["result"] != first[by_id[rid]["expect"]["twin"]]["result"]
    )


def _first_executions(records):
    first = {}
    for rec in records:
        first.setdefault(rec["id"], rec)
    return first


def _golden_ok(plan, req, digest, golden):
    entry = golden.get(req["id"])
    return (entry is not None and entry["input"] == input_digest(plan, req)
            and entry["output"] == digest)


def expected_psl(plan, req):
    """The verdict of a psl request, from the exact independence oracle."""
    from sheafsep.psl import ProbSpace, RandomVariable, independence_oracle, law_of

    argv = req["argv"]
    doc = plan.models[argv[argv.index("--model") + 1]]
    spec = req["expect"]["psl"]
    sp_doc = doc["spaces"][spec["space"]]
    sp = ProbSpace.of(sp_doc["size"], [tuple(b) for b in sp_doc["blocks"]],
                      [Fraction(m) for m in sp_doc["measure"]])
    x = RandomVariable(tuple(doc["variables"]["X"]))
    y = RandomVariable(tuple(doc["variables"]["Y"]))
    x_ok = law_of(x, sp) == _law(spec["x"])
    star = x_ok and law_of(y, sp) == _law(spec["y"]) and independence_oracle(sp, x, y)
    if spec["shape"] == "star":
        return star
    if spec["shape"] == "and":
        return star and x_ok
    if spec["shape"] == "imp":
        return (not x_ok) or star
    raise ValueError(f"unknown psl shape {spec['shape']!r}")


def _law(strings):
    return {int(v): Fraction(p) for v, p in strings.items()}
