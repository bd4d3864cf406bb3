"""Spans and counters around the public functions of each sheafsep layer.

The tracer wraps functions from outside the program: it replaces every
binding of a listed function in the ``sheafsep.*`` module namespaces
(``cli.py`` imports its callees by name, so patching the defining
module alone would miss those calls), and wraps a few hot methods with
count-only wrappers.  Spans stay in memory as parallel arrays and are
written out when the run ends.

No layer waits: sheafsep is single-threaded with no queues or locks, so
the tracer records busy time and counts only.
"""

from __future__ import annotations

import json
import re
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("cli", "fincat", "site", "presheaf", "day", "pred", "seplogic", "psl")

# span name -> (module, function) pairs timed under that name
SPANNED = {
    "cli.load_model": [("cli", "load_model")],
    "cli.main": [("cli", "main")],
    "fincat.build": [("fincat", "build_powerset_category"), ("fincat", "build_finsurj_category")],
    "fincat.validate": [("fincat", "validate_category"), ("fincat", "validate_monoidal")],
    "site.build_coverage": [("site", "build_coverage")],
    "site.validate_coverage": [("site", "validate_coverage")],
    "presheaf.check_sheaf": [("presheaf", "check_sheaf")],
    "presheaf.amalgamation_operator": [("presheaf", "amalgamation_operator")],
    "day.check_monoid_laws": [("day", "check_monoid_laws")],
    "day.check_day_stability": [("day", "check_day_stability")],
    "pred.join": [("pred", "join")],
    "pred.direct_image": [("pred", "direct_image")],
    "pred.implication": [("pred", "implication")],
    "pred.meet": [("pred", "meet")],
    "pred.reindex_preimage": [("pred", "reindex_preimage")],
    "pred.combine_alpha": [("pred", "combine_alpha")],
    "pred.random_closed_predicate": [("pred", "random_closed_predicate")],
    "seplogic.parse_formula": [("seplogic", "parse_formula")],
    "seplogic.atom_predicate": [("seplogic", "atom_predicate")],
    "seplogic.eval_formula": [("seplogic", "eval_formula")],
    "seplogic.sat": [("seplogic", "sat")],
    # split by the mode argument: seplogic.sep_conj.unfolded / .pipeline
    "seplogic.sep_conj": [("seplogic", "sep_conj")],
    "psl.psl_sat": [("psl", "psl_sat")],
}
SEP_CONJ_MODES = ("unfolded", "pipeline")
ROOT = "request"

_FAMILIES = re.compile(r"checked (\d+) families")
_INSTANCES = re.compile(r"checked (\d+) unit and (\d+) associativity instances")


def span_names():
    names = [n for n in SPANNED if n != "seplogic.sep_conj"]
    names += [f"seplogic.sep_conj.{m}" for m in SEP_CONJ_MODES]
    return names


# counts reported per pass besides the per-span call counts
COUNTERS = ("fincat.morphisms", "site.covers", "presheaf.check_sheaf.families",
            "presheaf.restrict.calls", "presheaf.at.calls", "day.monoid_instances",
            "day.mult.calls", "psl.ProbSpace.of.calls", "psl.law_of.calls")


class Tracer:
    """Records spans as (name, parent, request, start, end) rows."""

    def __init__(self):
        self.names = [ROOT]
        self._name_ids = {ROOT: 0}
        self.name_id = array("H")
        self.parent = array("l")
        self.request = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts = defaultdict(int)
        self._stack = []
        self._request = -1
        self._raised = defaultdict(set)
        self._installed = []

    # -- recording --------------------------------------------------------

    def _open(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self._request)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start[idx] = time.perf_counter()
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def root(self, request_index, fn, *args):
        """Run fn(*args) under the request's root span."""
        self._request = request_index
        idx = self._open(ROOT)
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self._request = -1

    def _spanned(self, name, layer, fn, observe=None):
        tracer = self

        def wrapper(*args, **kwargs):
            span = name
            if name == "seplogic.sep_conj":
                mode = kwargs.get("mode", args[3] if len(args) > 3 else "unfolded")
                span = f"{name}.{mode}"
            idx = tracer._open(span)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._note_raise(layer, exc)
                raise
            finally:
                tracer._close(idx)
            if observe is not None:
                observe(tracer, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, counter, layer, fn, observe=None):
        counts = self.counts
        tracer = self

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._note_raise(layer, exc)
                raise
            if observe is not None:
                observe(tracer, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _note_raise(self, layer, exc):
        from sheafsep.errors import SheafSepError

        if isinstance(exc, SheafSepError):
            self._raised[layer].add(id(exc))

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every binding of the listed functions and the hot methods."""
        import sheafsep  # noqa: F401  (loads every layer module)
        from sheafsep.day import ResourceMonoid
        from sheafsep.presheaf import Presheaf
        from sheafsep.psl import ProbSpace

        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "sheafsep" or n.startswith("sheafsep.")) and m is not None]
        replace = {}
        for name, targets in SPANNED.items():
            for module, attr in targets:
                fn = getattr(sys.modules[f"sheafsep.{module}"], attr)
                replace[id(fn)] = (fn, self._spanned(name, module, fn, _OBSERVERS.get(name)))
        law_of = sys.modules["sheafsep.psl"].law_of
        replace[id(law_of)] = (law_of, self._counted("psl.law_of.calls", "psl", law_of))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._installed.append((module, attr, value))
                    setattr(module, attr, hit[1])

        def defined(tracer, out):
            if out is not None:
                tracer.counts["day.mult.defined"] += 1

        for cls, attr, counter, layer, observe in (
            (Presheaf, "restrict", "presheaf.restrict.calls", "presheaf", None),
            (Presheaf, "at", "presheaf.at.calls", "presheaf", None),
            (ResourceMonoid, "apply", "day.mult.calls", "day", defined),
        ):
            original = cls.__dict__[attr]
            self._installed.append((cls, attr, original))
            setattr(cls, attr, self._counted(counter, layer, original, observe))
        original = ProbSpace.__dict__["of"]
        self._installed.append((ProbSpace, "of", original))
        ProbSpace.of = staticmethod(
            self._counted("psl.ProbSpace.of.calls", "psl", original.__func__))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- output -----------------------------------------------------------

    def spans(self):
        """(name, parent, request, start, end) tuples in opening order."""
        return [
            (self.names[self.name_id[i]], self.parent[i], self.request[i],
             self.start[i], self.end[i])
            for i in range(len(self.start))
        ]

    def write(self, path):
        """Write the spans as JSON lines, then drop them from memory."""
        with open(path, "w") as fh:
            for name, parent, request, start, end in self.spans():
                fh.write(json.dumps({"name": name, "parent": parent, "request": request,
                                     "start": start, "end": end}) + "\n")

    def layer_metrics(self, scale=None):
        """Per-span self time and calls, counters and raised counts.
        `scale[i]` multiplies the times of request i (drift correction)."""
        out = {}
        selfs = self_times(self.spans(), scale)
        for name in span_names() + [ROOT]:
            total, calls = selfs.get(name, (0.0, 0))
            out[f"{name}.self_s"] = total
            out[f"{name}.calls"] = calls
        for name in COUNTERS + ("day.mult.defined",):
            out[name] = self.counts.get(name, 0)
        for layer in LAYERS:
            out[f"{layer}.raised"] = len(self._raised.get(layer, ()))
        roots = [i for i in range(len(self.start)) if self.name_id[i] == 0]
        out["request.total_s"] = sum(
            (self.end[i] - self.start[i]) * (scale[self.request[i]] if scale else 1.0)
            for i in roots)
        return out


def self_times(spans, scale=None):
    """Sum of self time and number of spans per name.

    A span's self time is its duration minus the durations of its direct
    children.  Recursion needs no special case: a recursive call is a
    child span of its caller, so each interval is counted once, at the
    innermost span that covers it.  `scale[r]`, when given, multiplies
    the self times of request r.
    """
    child_time = defaultdict(float)
    for _name, parent, _request, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = {}
    for i, (name, _parent, request, start, end) in enumerate(spans):
        factor = scale[request] if scale else 1.0
        total, calls = totals.get(name, (0.0, 0))
        totals[name] = (total + ((end - start) - child_time[i]) * factor, calls + 1)
    return totals


# -- counters read from the results of spanned calls -------------------------


def _count_morphisms(tracer, out):
    cat = out[0]
    tracer.counts["fincat.morphisms"] += sum(1 for _ in cat.all_morphisms())


def _count_covers(tracer, cov):
    tracer.counts["site.covers"] += sum(len(sieves) for sieves in cov.by_object.values())


def _count_families(tracer, report):
    for note in report.notes:
        m = _FAMILIES.search(note)
        if m:
            tracer.counts["presheaf.check_sheaf.families"] += int(m.group(1))


def _count_instances(tracer, report):
    for note in report.notes:
        m = _INSTANCES.search(note)
        if m:
            tracer.counts["day.monoid_instances"] += int(m.group(1)) + int(m.group(2))


_OBSERVERS = {
    "fincat.build": _count_morphisms,
    "site.build_coverage": _count_covers,
    "presheaf.check_sheaf": _count_families,
    "day.check_monoid_laws": _count_instances,
}
