"""Model files and the command-line surface.

Model files are JSON with an explicit schema_version.  Heap literals use
null for the unallocated value ({"x": 0, "y": null}, with bare
identifiers also accepted on the command line), and stage literals are
brace-wrapped location lists ("{x,y}").

JSON reports contain no wall-clock data, so identical inputs produce
byte-identical output; text mode appends timing as an extra line.
Exit codes: 0 all checks pass / formula satisfied, 1 otherwise, 2 on
usage or model errors, and EXIT_CLOSED_STDOUT (141) when the reader of
stdout closed it before the report was written.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby
from operator import itemgetter

from .day import check_day_stability, check_monoid_laws
from .errors import ModelSchemaError, NotASheafError, SheafSepError, UnknownIdentifierError
from .fincat import POWERSET_SIZE_BOUND, validate_category, validate_monoidal
from .pred import (
    direct_image,
    implication,
    meet,
    random_closed_predicate,
    reindex_preimage,
)
from .presheaf import (
    Heap,
    SheafMorphism,
    amalgamation_operator,
    build_resource_sheaf,
    check_sheaf,
)
from .psl import PslModel, RandomVariable, check_space, psl_sat
from .seplogic import (
    DistAtom,
    ResourceModel,
    _pipeline_pieces,
    eval_formula,
    formula_atoms,
    heap_id,
    make_memory_model,
    parse_formula,
    sat,
)
from .site import validate_coverage

SCHEMA_VERSION = 1
TOP_STAGE_HEAP_BOUND = 11**4  # (|values| + 1) ** |locations| partial heaps
LAWS_WITNESSES_PER_LAW = 32  # then one witness counting the rest
LAWS_SAMPLES_BOUND = 1000  # the most --samples a laws request draws
EXIT_CLOSED_STDOUT = 141  # 128 + SIGPIPE, as a shell reports a process that SIGPIPE ended
MODELS_KEPT = 8  # loaded models kept by (path, text), the most recently loaded


# -- model loading -------------------------------------------------------------


def _require(cond, path, message):
    if not cond:
        raise ModelSchemaError(path, message)


def _is_int(v):
    """JSON integers only: true and false are not integers here."""
    return isinstance(v, int) and not isinstance(v, bool)


def _object_field(doc, key):
    """An optional object field: absent or null reads as empty."""
    value = doc.get(key)
    _require(value is None or isinstance(value, dict), key, "object required")
    return value or {}


def _load_memory_model(doc, name) -> ResourceModel:
    locations = doc.get("locations")
    _require(isinstance(locations, list) and locations, "locations", "nonempty list required")
    _require(all(isinstance(x, str) for x in locations), "locations", "location names must be strings")
    twice = next((x for x in locations if locations.count(x) > 1), None)
    _require(twice is None, "locations", f"location {twice!r} listed twice")
    _require(
        len(locations) <= POWERSET_SIZE_BOUND,
        "locations",
        f"bound exceeded: {len(locations)} > {POWERSET_SIZE_BOUND}",
    )
    values = doc.get("values")
    _require(isinstance(values, list) and values, "values", "nonempty list required")
    _require(all(_is_int(v) for v in values), "values", "values must be integers")
    n_values, n_locations = len(set(values)), len(locations)
    heaps = (n_values + 1) ** n_locations
    _require(heaps <= TOP_STAGE_HEAP_BOUND, "values", f"bound exceeded: {n_values} values at "
             f"{n_locations} locations give {heaps} heaps > {TOP_STAGE_HEAP_BOUND}")
    sheaf_kind = doc.get("sheaf", "partial-memory")
    _require(
        sheaf_kind in ("partial-memory", "strict-memory", "support-bounded"),
        "sheaf",
        f"unknown sheaf kind {sheaf_kind!r}",
    )
    coverage = doc.get("coverage", "downward-closed")
    _require(
        coverage in ("downward-closed", "finite-covers"),
        "coverage",
        f"unknown coverage kind {coverage!r}",
    )
    monoid = doc.get("monoid")
    _require(
        monoid in (None, "total", "weak-partial", "strong-partial"),
        "monoid",
        f"unknown monoid variant {monoid!r}",
    )
    if monoid is not None and sheaf_kind != "partial-memory":
        raise ModelSchemaError("monoid", "a partial monoid requires the partial-memory sheaf")
    support_bound = doc.get("support_bound")
    if sheaf_kind == "support-bounded":
        _require(_is_int(support_bound), "support_bound", "integer required")
    model = make_memory_model(
        locations,
        values,
        sheaf_kind=sheaf_kind,
        monoid_variant=monoid,
        coverage_kind=coverage,
        support_bound=support_bound,
        name=name,
    )
    model.formulas = _load_formulas(doc, model.check_formula)
    return model


def _rational_field(value, path):
    """A measure field as a (numerator, denominator) pair of integers with
    a positive denominator: a JSON integer, or a string that Fraction
    reads.  "p/q" and "p" in ASCII digits are read straight to integers,
    skipping Fraction's own string parser."""
    if isinstance(value, str):
        num, slash, den = value.partition("/")
        if not (value.isascii() and num.isdigit() and (den.isdigit() or not slash)):
            # Fraction expands an exponent into 10 ** e, so a short string can stall the load
            _require("e" not in value.lower(), path, f"exponent notation in {value!r}")
            num = den = None
        try:
            if num is None:
                f = Fraction(value)
                return f.numerator, f.denominator
            p, q = int(num), int(den or 1)  # ValueError past the integer digit limit
        except (ValueError, ZeroDivisionError) as exc:
            raise ModelSchemaError(path, f"bad rational {value!r}") from exc
        _require(q, path, f"bad rational {value!r}")
        return p, q
    if _is_int(value):
        return value, 1
    raise ModelSchemaError(path, "rationals must be strings like '1/2' or integers")


def _load_psl_model(doc, name) -> PslModel:
    """Every space is checked in integers (`psl.check_space`); the
    `ProbSpace` of a space is built only when a command reads it.  JSON
    gives exact `int`s and `list`s, so the type tests compare types."""
    spaces_doc = doc.get("spaces")
    _require(isinstance(spaces_doc, dict) and spaces_doc, "spaces", "nonempty object required")
    spaces = {}
    for sp_name, sp_doc in spaces_doc.items():
        path = f"spaces.{sp_name}"
        _require(isinstance(sp_doc, dict), path, "object required")
        size = sp_doc.get("size")
        _require(type(size) is int and size >= 1, f"{path}.size", "positive integer required")
        blocks = sp_doc.get("blocks")
        _require(type(blocks) is list and blocks and all(
            type(b) is list and b and all([type(x) is int for x in b]) for b in blocks),
            f"{path}.blocks", "nonempty list of nonempty integer lists required")
        measure = sp_doc.get("measure")
        _require(
            type(measure) is list and len(measure) == len(blocks),
            f"{path}.measure",
            "one rational per block required",
        )
        pairs = [_rational_field(m, f"{path}.measure[{i}]") for i, m in enumerate(measure)]
        try:
            check_space(size, blocks, pairs)
        except ValueError as exc:
            raise ModelSchemaError(path, str(exc)) from exc
        spaces[sp_name] = (size, blocks, pairs)
    variables = {}
    for var_name, vals in _object_field(doc, "variables").items():
        path = f"variables.{var_name}"
        _require(
            isinstance(vals, list) and all(_is_int(v) for v in vals),
            path,
            "list of integers required",
        )
        variables[var_name] = RandomVariable(tuple(vals))
    return PslModel(spaces, variables, _load_formulas(doc, None), name=name)


def _load_formulas(doc, checker):
    formulas = {}
    for fname, text in _object_field(doc, "formulas").items():
        _require(isinstance(text, str), f"formulas.{fname}", "formula text required")
        try:
            phi = parse_formula(text)
        except SheafSepError as exc:
            raise ModelSchemaError(f"formulas.{fname}", str(exc)) from exc
        if checker is not None:
            checker(phi)
        formulas[fname] = phi
    return formulas


def load_model(path):
    """Read a model file and return its ResourceModel or PslModel: the one
    built for the same path and text if it is kept (`_model`), else a
    new one.  The file is read on every call, so an edited file loads
    again whatever its mtime and size."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ModelSchemaError("<file>", str(exc)) from exc
    except ValueError as exc:  # not in the locale's encoding
        raise ModelSchemaError("<file>", f"invalid JSON: {exc}") from exc
    return _model(str(path), text)


@functools.lru_cache(maxsize=MODELS_KEPT)
def _model(name, text):
    """Parse and validate a model file's text into a model named by the
    file's path, built once while (path, text) is among the MODELS_KEPT
    loaded most recently; a load that raises keeps nothing.  A kept
    model keeps what its commands memoise on it (see the README's
    "Kept models"), each memo assigned only once it is built."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # bad syntax, or an integer past the digit limit
        raise ModelSchemaError("<file>", f"invalid JSON: {exc}") from exc
    _require(isinstance(doc, dict), "<root>", "object required")
    version = doc.get("schema_version")
    _require(_is_int(version) and version == SCHEMA_VERSION, "schema_version",
             f"expected {SCHEMA_VERSION}")
    kind = doc.get("kind")
    if kind == "memory":
        return _load_memory_model(doc, name)
    if kind == "psl":
        return _load_psl_model(doc, name)
    raise ModelSchemaError("kind", f"expected 'memory' or 'psl', got {kind!r}")


# -- literals -------------------------------------------------------------------


def parse_stage(text, model: ResourceModel):
    """A stage literal as the mask of its locations (`model.locations`' bits)."""
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ModelSchemaError("--stage", f"expected a brace literal, got {text!r}")
    body = text[1:-1].strip()
    locs = tuple(sorted(x.strip() for x in body.split(",") if x.strip()))
    for x, y in zip(locs, locs[1:]):
        if x == y:
            raise ModelSchemaError("--stage", f"location {x!r} listed twice")
    for x in locs:
        if x not in model.locations:
            raise ModelSchemaError("--stage", f"unknown location {x!r}")
    return sum(1 << model.locations.index(x) for x in locs)


def _excerpt(text, limit=40):
    """`text` cut to `limit` characters, for echoing in an error detail."""
    return text if len(text) <= limit else text[:limit] + "..."


def _heap_cells(pairs):
    """A heap literal's (location, value) pairs as a dict, refusing a location
    listed twice."""
    doc = {}
    for key, val in pairs:
        if key in doc:
            raise ModelSchemaError("--heap", f"location {key!r} listed twice")
        doc[key] = val
    return doc


def parse_heap(text, stage) -> Heap:
    """Accepts {"x": 0} JSON or the bare-identifier form {x:0, y:null}."""
    text = text.strip()
    try:
        doc = json.loads(text, object_pairs_hook=_heap_cells)
    except ValueError:  # not JSON, or an integer past the digit limit
        if not (text.startswith("{") and text.endswith("}")):
            raise ModelSchemaError("--heap", f"expected a brace literal, got {_excerpt(text)!r}")
        cells = []
        body = text[1:-1].strip()
        if body:
            for chunk in body.split(","):
                if ":" not in chunk:
                    raise ModelSchemaError("--heap", f"bad cell {_excerpt(chunk.strip())!r}")
                key, val = chunk.split(":", 1)
                val = val.strip()
                try:
                    cells.append((key.strip(), None if val == "null" else int(val)))
                except ValueError:
                    detail = f"bad value {_excerpt(val)!r}"
                    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
                    if val.lstrip("+-").isdecimal() and len(val) > limit > 0:
                        detail += (f": an integer of {len(val)} characters is past the "
                                   f"{limit}-digit limit")
                    raise ModelSchemaError("--heap", detail) from None
        doc = _heap_cells(cells)
    if not isinstance(doc, dict) or not all(v is None or _is_int(v) for v in doc.values()):
        raise ModelSchemaError("--heap", "cells must map locations to integers or null")
    if set(doc) != set(stage):
        raise ModelSchemaError(
            "--heap", f"heap domain {sorted(doc)!r} must equal the stage {sorted(stage)!r}"
        )
    return Heap.of(stage, doc)


# -- reports ---------------------------------------------------------------------


@dataclass
class CommandReport:
    command: str
    model: str
    status: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)
    exit_code: int = 0
    seconds: float = 0.0

    def as_dict(self):
        return {
            "command": self.command,
            "model": self.model,
            "status": self.status,
            "witnesses": self.witnesses,
            "exit_code": self.exit_code,
        }

    def render_text(self):
        lines = [f"command: {self.command}", f"model: {self.model}"]
        for key, value in self.status.items():
            if isinstance(value, (list, dict)):
                value = json.dumps(value, sort_keys=True)
            lines.append(f"{key}: {value}")
        for w in self.witnesses:
            lines.append(f"witness: {json.dumps(w, sort_keys=True)}")
        lines.append(f"exit: {self.exit_code}")
        lines.append(f"elapsed: {self.seconds:.3f}s")
        return "\n".join(lines)


def _family_table(pred):
    cat = pred.site.cat
    rows = []
    for p in cat.mors_into(pred.stage):
        rows.append(
            {
                "at": list(pred.resource.named(cat.src(p))),
                "members": [s.as_dict() for s in sorted(pred.family[p], key=str)],
            }
        )
    return rows


# -- commands ---------------------------------------------------------------------


def _cmd_check_site(model, args, report):
    site = model.site
    checks = {
        "category": validate_category(site.cat),
        "monoidal": validate_monoidal(site.cat, site.monoidal),
        "coverage": validate_coverage(site.cat, site.cov),
    }
    for key, rep in checks.items():
        report.status[key] = "ok" if rep.ok else "FAIL"
        report.witnesses += [
            {"check": key, "kind": v.kind, "detail": v.detail} for v in rep.violations
        ]
    report.exit_code = 0 if all(r.ok for r in checks.values()) else 1


def _cmd_check_sheaf(model, args, report):
    rep = check_sheaf(model.sheaf, model.site.cov)
    report.status["sheaf"] = "ok" if rep.ok else "FAIL"
    report.status["detail"] = rep.notes[0] if rep.notes else ""
    report.witnesses += [{"kind": v.kind, "detail": v.detail} for v in rep.violations]
    report.exit_code = 0 if rep.ok else 1


def _cmd_laws(model, args, report):
    if args.samples < 1:
        raise ModelSchemaError("--samples", f"at least 1 sample required, got {args.samples}")
    _require(args.samples <= LAWS_SAMPLES_BOUND, "--samples",  # before any sampling
             f"bound exceeded: {args.samples} > {LAWS_SAMPLES_BOUND}")
    rng = random.Random(args.seed)
    site, mp = model.site, model.sheaf
    stage = model.stage
    failures = []

    n = 0
    for _ in range(args.samples):
        p = random_closed_predicate(rng, mp, site, stage)
        q = random_closed_predicate(rng, mp, site, stage)
        r = random_closed_predicate(rng, mp, site, stage)
        if meet(p, q).issubset(r) != p.issubset(implication(q, r)):
            failures.append({"law": "residuation", "detail": "galois failure"})
        n += 1
    report.status["residuation"] = f"ok ({n} samples)" if not any(
        f["law"] == "residuation" for f in failures
    ) else "FAIL"

    if model.monoid is not None:
        rep = check_monoid_laws(model.monoid, site.monoidal)
        report.status["monoid-laws"] = "ok" if rep.ok else "FAIL"
        failures += [
            {"law": "monoid", "detail": v.detail} for v in rep.violations
        ]
    else:
        report.status["monoid-laws"] = "skipped (no monoid)"

    m_strict = build_resource_sheaf(site.cat, "strict-memory", model.locations,
                                    values=model.values)
    # partial where the model's sheaf holds fewer heaps (support-bounded)
    inclusion = SheafMorphism(m_strict, mp, {
        a: [heap_id(mp, a, h.values) for h in m_strict.at(a)] for a in site.cat.objects}, "M>->Mp")
    day_stability = check_day_stability(site, [m_strict, mp], inclusions=[inclusion],
                                        keep=LAWS_WITNESSES_PER_LAW)
    report.status["day-stability"] = "ok" if day_stability.ok else "FAIL"
    failures += [{"law": "day-stability", "detail": v.detail} for v in day_stability.violations]

    if model.monoid is not None:
        iso = amalgamation_operator(mp, site.cov)
        iso_report = iso.report
        decomp, mult_mor, amalg_mor = _pipeline_pieces(model, iso)
        match = mult_mor.target
        ok_adj = True
        for alpha, source in ((mult_mor, decomp), (amalg_mor, match)):
            for _ in range(args.samples):
                p = random_closed_predicate(rng, source, site, stage)
                q = random_closed_predicate(rng, alpha.target, site, stage)
                lhs = direct_image(alpha, p).issubset(q)
                rhs = p.issubset(reindex_preimage(alpha, q))
                if lhs != rhs:
                    ok_adj = False
                    failures.append(
                        {"law": "adjunction", "detail": f"galois failure for {alpha.name}"}
                    )
        report.status["adjunction"] = "ok" if ok_adj else "FAIL"
    else:
        report.status["adjunction"] = "skipped (no monoid)"
        try:
            iso_report = amalgamation_operator(mp, site.cov).report
        except NotASheafError as e:
            iso_report = e.report

    report.status["amalgamation-iso"] = "ok" if iso_report.ok else "FAIL"
    failures += [
        {"law": "amalgamation-iso", "detail": v.detail} for v in iso_report.violations
    ]

    report.witnesses += _capped(failures, {"day-stability": day_stability.unlisted})
    report.exit_code = 0 if not failures else 1


def _capped(failures, unlisted):
    """The first LAWS_WITNESSES_PER_LAW failures of each law, in order,
    and after the last of them one witness counting that law's failures
    not listed, `unlisted[law]` counted but not kept among them (each
    law's failures are contiguous)."""
    k, out = LAWS_WITNESSES_PER_LAW, []
    for law, group in groupby(failures, itemgetter("law")):
        group = list(group)
        out += group[:k]
        if (more := len(group) + unlisted.get(law, 0) - k) > 0:
            out.append({"law": law, "detail": f"{more} more violations not listed"})
    return out


def _cmd_eval(model, args, report):
    phi = _formula_from_args(model, args)
    stage = model.stage if args.stage is None else parse_stage(args.stage, model)
    pred = eval_formula(model, phi, stage, mode=args.mode)
    report.status["formula"] = args.name if args.formula is None else args.formula
    report.status["stage"] = "{" + ",".join(model.sheaf.named(stage)) + "}"
    report.status["family"] = _family_table(pred)
    report.exit_code = 0


def _cmd_sat(model, args, report):
    phi = _formula_from_args(model, args)
    stage = model.stage if args.stage is None else parse_stage(args.stage, model)
    if args.heap is None:
        raise ModelSchemaError("--heap", "a heap literal is required")
    heap = parse_heap(args.heap, model.sheaf.named(stage))
    res = sat(model, phi, stage, heap, mode=args.mode)
    report.status["result"] = res.result
    report.status["stage"] = "{" + ",".join(heap.locations) + "}"
    report.status["element"] = heap.as_dict()
    if res.witness is not None:
        report.witnesses.append(res.witness)
    report.exit_code = 0 if res.result else 1


def _cmd_psl(model, args, report):
    phi = _formula_from_args(model, args)
    if args.space is None:
        raise ModelSchemaError("--space", "a named space is required")
    sp = model.space(args.space)
    variables = model.variables_for(sp)
    for atom in formula_atoms(phi):
        if not isinstance(atom, DistAtom):
            raise ModelSchemaError("--formula", "psl formulas use distribution atoms only")
        x = model.variables.get(atom.var)
        if x is not None and atom.var not in variables:
            raise UnknownIdentifierError(
                f"unknown variable {atom.var!r} on space {args.space!r}: it has {x.size} "
                f"values and the space {sp.size} points")
    res = psl_sat(sp, phi, variables)
    report.status["result"] = res.result
    report.status["space"] = args.space
    if res.witness is not None:
        report.witnesses.append(res.witness)
    report.exit_code = 0 if res.result else 1


def _formula_from_args(model, args):
    if args.formula is not None:
        phi = parse_formula(args.formula)
        if isinstance(model, ResourceModel):
            model.check_formula(phi)
        return phi
    if args.name is not None:
        if args.name not in model.formulas:
            raise ModelSchemaError("--name", f"model has no formula named {args.name!r}")
        return model.formulas[args.name]
    raise ModelSchemaError("--formula", "a formula (or --name) is required")


_COMMANDS = {
    "check-site": (_cmd_check_site, "memory"),
    "check-sheaf": (_cmd_check_sheaf, "memory"),
    "laws": (_cmd_laws, "memory"),
    "eval": (_cmd_eval, "memory"),
    "sat": (_cmd_sat, "memory"),
    "psl": (_cmd_psl, "psl"),
}


def run_command(command, args) -> CommandReport:
    """Execute one CLI command against a loaded model; never raises for
    check failures (encoded in the exit code), only for usage errors."""
    report = CommandReport(command=command, model=args.model)
    model = load_model(args.model)
    handler, kind = _COMMANDS[command]
    got = "psl" if isinstance(model, PslModel) else "memory"
    _require(got == kind, "kind", f"command {command!r} needs a {kind} model, got a {got} model")
    started = time.perf_counter()
    handler(model, args, report)
    report.seconds = time.perf_counter() - started
    return report


# the options each command's handler reads, besides --model and --json
_OPTIONS = {
    "formula": (("--formula",), {"help": "formula text"}),
    "name": (("--name",), {"help": "named formula from the model file"}),
    "stage": (("--stage",), {"help": "stage literal like '{x,y}'"}),
    "heap": (("--heap",), {"help": "heap literal like '{x:0, y:null}'"}),
    "space": (("--space",), {"help": "named probability space"}),
    "mode": (("--mode",), {"choices": ["pipeline", "unfolded"], "default": "unfolded"}),
    "seed": (("--seed",), {"type": int, "default": 2024}),
    "samples": (("--samples",), {"type": int, "default": 50}),
}
_COMMAND_OPTIONS = {
    "check-site": (),
    "check-sheaf": (),
    "laws": ("seed", "samples"),
    "eval": ("formula", "name", "stage", "mode"),
    "sat": ("formula", "name", "stage", "heap", "mode"),
    "psl": ("formula", "name", "space"),
}


def build_arg_parser():
    """One subparser per command, with only the options its handler
    reads, so argparse refuses any other option with exit code 2.  An
    option must be spelled out: were abbreviations allowed, `--mode` on
    a command without it would be read as `--model`."""
    parser = argparse.ArgumentParser(
        prog="sheafsep",
        description="separation-logic model checking over finite sites",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--model", required=True, help="path to a model JSON file")
        for option in _COMMAND_OPTIONS[name]:
            flags, kwargs = _OPTIONS[option]
            p.add_argument(*flags, **kwargs)
        p.add_argument("--json", action="store_true", dest="as_json")
    return parser


@functools.cache
def _arg_parser():
    """The parser, built once: building it costs far more than a parse."""
    return build_arg_parser()


def main(argv=None) -> int:
    args = _arg_parser().parse_args(argv)
    try:
        report = run_command(args.command, args)
    except SheafSepError as exc:
        error = {"error": type(exc).__name__, "detail": str(exc)}
        if args.as_json:
            return _emit(json.dumps(error), 2)
        print(f"error: {error['detail']}", file=sys.stderr)
        return 2
    text = json.dumps(report.as_dict()) if args.as_json else report.render_text()
    return _emit(text, report.exit_code)


def _emit(text, code):
    """Print the report and return `code`, or EXIT_CLOSED_STDOUT when the
    reader of stdout has gone.  As the "Note on SIGPIPE" in the Python
    `signal` documentation advises, the flush happens here so a closed
    pipe raises inside the try, and stdout is then pointed at devnull so
    that the interpreter's flush at exit raises nothing either."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    return code


if __name__ == "__main__":
    sys.exit(main())
