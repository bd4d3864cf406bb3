"""Seeded request lists for the three benchmark workloads.

A workload is one *pass*: an ordered list of CLI requests plus the model
files they read.  A run repeats the pass a fixed number of times, so
every run executes the same mix; the seed chooses the concrete inputs
(location names, values, relabelled measures, atoms, heaps, law seeds)
and their order, never the mix itself, which keeps runs on different
seeds comparable.

Every pass also carries a fixed set of *canary* requests generated from
GOLDEN_SEED.  Their ``--json`` bytes are pinned in ``golden.json``, so a
byte change in the program's output is caught on every seed.

Generation imports nothing from sheafsep: the program sees only the
files written here and the argv lists.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("verify", "query", "psl")
GOLDEN_SEED = 0
WORK_DIR = Path("perfbench") / "work"

LOCATION_POOL = ("x", "y", "z", "w", "u", "v", "p", "q", "r", "s", "h", "k")
STAR_MONOIDS = ("total", "weak-partial", "strong-partial")
COVERAGES = ("downward-closed", "finite-covers")
ATOM_OPS = ("|->", "~>", "|->!")
LAWS_SAMPLES = 10


class Plan:
    """One pass of a workload: model documents by relative path and the
    ordered request list."""

    def __init__(self, workload):
        self.workload = workload
        self.models = {}
        self.requests = []

    def model(self, tag, doc):
        path = str(WORK_DIR / self.workload / f"{tag}.json")
        self.models[path] = doc
        return path

    def add(self, tag, argv, **expect):
        self.requests.append({"id": tag, "argv": list(argv) + ["--json"], "expect": expect})

    def write(self, root):
        """Write every model file under root."""
        for path, doc in self.models.items():
            target = Path(root) / path
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def generate(workload, seed) -> Plan:
    """The pass for `workload`: the seeded requests with the golden
    canaries spread evenly among them."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    plan = Plan(workload)
    build = _BUILDERS[workload]
    build(plan, random.Random(GOLDEN_SEED), "g", canary=True)
    canaries, plan.requests = plan.requests, []
    build(plan, random.Random(seed), "s", canary=False)
    plan.requests = _interleave(plan.requests, canaries)
    return plan


def _interleave(main, extra):
    """Spread `extra` evenly through `main`, keeping both orders."""
    if not extra:
        return list(main)
    out = []
    step = len(main) / len(extra)
    j = 0
    for i, req in enumerate(main):
        while j < len(extra) and j * step <= i:
            out.append(extra[j])
            j += 1
        out.append(req)
    out.extend(extra[j:])
    return out


def _spread(groups, rng):
    """Shuffle each group, then merge them so that every group's members
    sit at evenly spaced positions: the heavy requests of a pass are not
    bunched together."""
    keyed = []
    for group in groups:
        group = list(group)
        rng.shuffle(group)
        n = len(group)
        for i, item in enumerate(group):
            keyed.append(((i + 0.5) / n, rng.random(), item))
    keyed.sort(key=lambda t: (t[0], t[1]))
    return [item for _, _, item in keyed]


def _locations(rng, n):
    return sorted(rng.sample(LOCATION_POOL, n))


def _values(rng, n):
    return sorted(rng.sample(range(10), n))


def _memory_doc(locations, values, sheaf, *, monoid, coverage, bound=None):
    doc = {
        "schema_version": 1,
        "kind": "memory",
        "locations": locations,
        "values": values,
        "sheaf": sheaf,
        "coverage": coverage,
        "monoid": monoid,
    }
    if bound is not None:
        doc["support_bound"] = bound
    return doc


# -- verify: check-site, check-sheaf and laws ---------------------------------

# Every cost-relevant parameter is fixed per slot (two values cost more
# than one, four more than three); the seed picks names, values, law
# seeds and the order.  The slot counts put the median inside the
# check-site plateau (about 0.13 s) and the tail inside the cluster of
# 4-value support-bounded checks (about 0.4 s), so neither statistic
# sits on a step between request classes.  No request takes more than
# about 2 s: a few long ones would dominate the mean cost and its noise.
# (locations, values, sheaf kind, support bound, coverage, monoid)
_DC, _FC = COVERAGES
_SITE3 = [(3, 2, "partial-memory", None, _DC, "weak-partial"),
          (3, 3, "partial-memory", None, _FC, None),
          (3, 4, "strict-memory", None, _DC, None),
          (3, 2, "strict-memory", None, _FC, None),
          (3, 3, "support-bounded", 1, _DC, None),
          (3, 4, "support-bounded", 2, _FC, None)]
_SHEAF3 = [(3, 2, "strict-memory", None, _DC, None),
           (3, 2, "strict-memory", None, _FC, None),
           (3, 2, "strict-memory", None, _DC, None),
           (3, 3, "strict-memory", None, _DC, None),
           (3, 3, "strict-memory", None, _FC, None),
           (3, 2, "partial-memory", None, _DC, None),
           (3, 2, "partial-memory", None, _FC, None),
           (3, 2, "partial-memory", None, _FC, None),
           (3, 2, "support-bounded", 1, _DC, None),
           (3, 2, "support-bounded", 1, _FC, None),
           (3, 2, "support-bounded", 1, _DC, None),
           (3, 2, "support-bounded", 2, _DC, None),
           (3, 2, "support-bounded", 2, _FC, None),
           (3, 3, "partial-memory", None, _FC, None),
           (3, 3, "support-bounded", 2, _FC, None),
           (3, 4, "strict-memory", None, _FC, None),
           (3, 4, "partial-memory", None, _DC, None),
           (3, 4, "support-bounded", 2, _DC, None),
           (3, 4, "support-bounded", 2, _DC, None),
           (3, 4, "support-bounded", 2, _DC, None),
           (3, 4, "support-bounded", 2, _DC, None),
           (3, 4, "support-bounded", 2, _DC, None)]
# 4 locations, the documented bound, with one value: the check takes under
# a second while the model load pays the full 4-location site build
# (check-site at 4 locations takes about 19 s and is left out).
_SHEAF4 = [(4, 1, "partial-memory", None, _DC, None)]
# laws on every monoid variant and none, at 2 locations (3 do not finish)
# and one value: about 0.3 s each, where two values take about 3 s
_LAWS2 = [(2, 1, "partial-memory", None, _DC, None),
          (2, 1, "partial-memory", None, _FC, "total"),
          (2, 1, "partial-memory", None, _FC, "weak-partial"),
          (2, 1, "partial-memory", None, _DC, "strong-partial")]
# the canaries: a light cross-section pinned in golden.json
_VERIFY_CANARIES = {
    "check-site": [_SITE3[0], _SITE3[3]],
    "check-sheaf": [_SHEAF3[5], _SHEAF3[3], _SHEAF3[17]],
    "laws": [_LAWS2[0]],
}


def _build_verify(plan, rng, prefix, canary):
    n = 0

    def model(slot):
        nonlocal n
        n += 1
        locs, nvals, sheaf, bound, coverage, monoid = slot
        doc = _memory_doc(_locations(rng, locs), _values(rng, nvals), sheaf,
                          monoid=monoid, bound=bound, coverage=coverage)
        return plan.model(f"{prefix}m{n:02d}", doc)

    def expected(slot):
        locs, _, sheaf, bound, _, _ = slot
        return 1 if sheaf == "support-bounded" and 1 <= bound < locs else 0

    slots = _VERIFY_CANARIES if canary else {
        "check-site": _SITE3, "check-sheaf": _SHEAF3 + _SHEAF4, "laws": _LAWS2}
    groups = [
        [(["check-site", "--model", model(slot)], 0) for slot in slots["check-site"]],
        [(["check-sheaf", "--model", model(slot)], expected(slot))
         for slot in slots["check-sheaf"]],
        [(["laws", "--model", model(slot), "--seed", str(rng.randrange(1000)),
           "--samples", str(LAWS_SAMPLES)], 0) for slot in slots["laws"]],
    ]
    for i, (argv, code) in enumerate(_spread(groups, rng)):
        plan.add(f"{prefix}{i:03d}", argv, exit=code)


# -- query: sat and eval on seeded formulas -----------------------------------

# depth <= 3 shapes over atoms A..D; every shape has a separating conjunction
_SHAPES = [
    ("*", "A", "B"),
    ("/\\", ("*", "A", "B"), "C"),
    ("*", ("\\/", "A", "B"), "C"),
    ("->", "A", ("*", "B", "C")),
    ("*", ("*", "A", "B"), ("\\/", "C", "D")),
    ("*", ("->", ("*", "A", "B"), "C"), "D"),
    ("\\/", ("/\\", "A", "B"), ("*", "C", "D")),
    ("*", ("*", ("*", "A", "B"), "C"), "D"),
]


def _render(node, atoms):
    if isinstance(node, str):
        return atoms[node]
    op, left, right = node
    return f"({_render(left, atoms)} {op} {_render(right, atoms)})"


def _same_in_both_modes(node, atoms):
    """True when the two star modes give the same family at every slice.

    They coincide on subsheaf predicates (the README's design notes); the
    allocated atom ``|->!`` is not one, and a star over it differs below
    the stage.  Only a star makes the modes differ."""
    if isinstance(node, str):
        return True
    op, left, right = node
    same = _same_in_both_modes(left, atoms) and _same_in_both_modes(right, atoms)
    if op == "*":
        return same and "|->!" not in _render(node, atoms)
    return same


def _same_at_stage(node, atoms):
    """True when sat at the stage itself must agree between the modes: the
    README promises it for a star whose operands agree everywhere (even
    allocated atoms), and a meet keeps it.  A join closes over, and an
    implication or an outer star reads, the families below the stage."""
    if _same_in_both_modes(node, atoms) or isinstance(node, str):
        return True
    op, left, right = node
    if op == "*":
        return _same_in_both_modes(left, atoms) and _same_in_both_modes(right, atoms)
    if op == "/\\":
        return _same_at_stage(left, atoms) and _same_at_stage(right, atoms)
    return False


def _heap(rng, locations, values):
    cells = (f"{x}:{rng.choice(list(values) + ['null'])}" for x in locations)
    return "{" + ", ".join(cells) + "}"


def _build_query(plan, rng, prefix, canary):
    models = {}
    for locs in ((3,) if canary else (3, 4)):
        for i, monoid in enumerate(STAR_MONOIDS):
            doc = _memory_doc(_locations(rng, locs), _values(rng, 2), "partial-memory",
                              monoid=monoid, coverage=COVERAGES[i % 2])
            models[locs, i] = (plan.model(f"{prefix}q{locs}-{monoid}", doc), doc)

    def request(locs, slot, shape, command, mode):
        """argv, and whether sat must agree between the two modes.  The
        slot fixes the monoid variant and the atom kinds (a shape's cost
        depends on them); the seed picks locations, values and the heap."""
        path, doc = models[locs, slot % 3]
        atoms = {name: f"{rng.choice(doc['locations'])} {ATOM_OPS[(slot + j) % 3]} "
                       f"{rng.choice(doc['values'])}" for j, name in enumerate("ABCD")}
        node = _SHAPES[shape % len(_SHAPES)]
        argv = [command, "--model", path, "--formula", _render(node, atoms), "--mode", mode]
        if command == "sat":
            argv += ["--heap", _heap(rng, doc["locations"], doc["values"])]
        return argv, _same_at_stage(node, atoms)

    unfolded, pipeline, four = [], [], []
    n_unfolded, n_pairs, n_pipe_eval = (4, 1, 1) if canary else (48, 8, 6)
    for i in range(n_unfolded):
        unfolded.append([request(3, i, i // 4, ("eval", "sat")[i % 2], "unfolded")])
    # a pipeline sat travels with its unfolded twin
    for i in range(n_pairs):
        argv, agree = request(3, i, 2 * i + 1, "sat", "pipeline")
        pipeline.append([(argv, agree),
                         (["unfolded" if a == "pipeline" else a for a in argv], agree)])
    for i in range(n_pipe_eval):
        pipeline.append([request(3, i + 1, 2 * i, "eval", "pipeline")])
    # 4 locations: one request per monoid variant on fixed shapes; each pays
    # the 4-location model load (about 1.3 s of site building).  Three a pass
    # (six in a run of two passes) put the tail, with ten samples beyond
    # it, inside the cluster of pipeline requests, not on the step between.
    if not canary:
        for i in range(3):
            four.append([request(4, i, (1, 4, 6)[i], ("eval", "sat")[i % 2], "unfolded")])
    k = 0
    for bundle in _spread([unfolded, pipeline, four], rng):
        twin = None
        for argv, agree in bundle:
            tag = f"{prefix}{k:03d}"
            k += 1
            if twin is None:
                plan.add(tag, argv, exit=0 if argv[0] == "eval" else None)
                twin = tag
            else:
                plan.add(tag, argv, exit=None, twin=twin, agree=agree)


# -- psl: the probabilistic star --------------------------------------------

# X and Y on 4, 5 and 6 sample points (value indices into the seeded value
# pairs); on 5 points the (1, 1) cell holds two points, so product
# measures exist there too.
_GRIDS = {
    4: ((0, 0, 1, 1), (0, 1, 0, 1)),
    5: ((0, 0, 1, 1, 1), (0, 1, 0, 1, 1)),
    6: ((0, 0, 0, 1, 1, 1), (0, 1, 2, 0, 1, 2)),
}
# Integer point weights per measure kind.  The search cost depends on the
# measure's factorisations (uniform 6 has 705 factorising pairs), so the
# weights are fixed and the seed relabels the sample points and the
# values instead: runs on different seeds do the same amount of work.
_MEASURES = {
    4: {"uniform": (1, 1, 1, 1), "product": (1, 3, 2, 6),
        "random": (5, 2, 3, 1), "correlated": (4, 0, 1, 5)},
    5: {"uniform": (1, 1, 1, 1, 1), "product": (1, 2, 2, 1, 3),
        "random": (2, 5, 1, 3, 4), "correlated": (5, 1, 0, 3, 2)},
    6: {"uniform": (1, 1, 1, 1, 1, 1), "product": (1, 2, 3, 2, 4, 6),
        "random": (4, 1, 5, 2, 6, 3), "correlated": (6, 1, 0, 1, 5, 1)},
}


def _law(values, measure):
    law = {}
    for v, p in zip(values, measure):
        law[v] = law.get(v, 0) + p
    return {v: p for v, p in sorted(law.items()) if p}


def _law_text(law):
    return "{" + ", ".join(f"{v}: {p}" for v, p in law.items()) + "}"


def _law_strings(law):
    return {str(v): str(p) for v, p in law.items()}


def _other_law(law):
    """A law over the same support that differs from `law` (the same law
    when the support is a single value)."""
    values = list(law)
    if len(values) == 1:
        return dict(law)
    shifted = dict(law)
    delta = min(law.values()) / 2
    shifted[values[0]] -= delta
    shifted[values[1]] += delta
    return shifted


def _build_psl(plan, rng, prefix, canary):
    sizes = (4, 5) if canary else (4, 5, 6)
    groups = []
    for size in sizes:
        grid_x, grid_y = _GRIDS[size]
        order = list(range(size))
        rng.shuffle(order)
        x_vals, y_vals = rng.sample(range(10), 2), rng.sample(range(10), 3)
        xs = [x_vals[grid_x[i]] for i in order]
        ys = [y_vals[grid_y[i]] for i in order]
        doc = {
            "schema_version": 1,
            "kind": "psl",
            "spaces": {},
            "variables": {"X": xs, "Y": ys},
        }
        path = plan.model(f"{prefix}psl{size}", doc)
        group = []
        for kind, weights in _MEASURES[size].items():
            total = sum(weights)
            measure = [Fraction(weights[i], total) for i in order]
            doc["spaces"][kind] = {
                "size": size,
                "blocks": [[i] for i in range(1, size + 1)],
                "measure": [str(p) for p in measure],
            }
            lx, ly = _law(xs, measure), _law(ys, measure)
            atom = f"X ~ {_law_text(lx)}"
            formulas = []
            for y_law in (ly, _other_law(ly)):
                star = f"(X ~ {_law_text(lx)}) * (Y ~ {_law_text(y_law)})"
                formulas.append(("star", y_law, star))
            star = formulas[0][2]
            formulas += [("and", ly, f"({star}) /\\ ({atom})"),
                         ("imp", ly, f"({atom}) -> ({star})"),
                         (None, ly, f"({star}) * T")]
            for shape, y_law, text in formulas:
                # shape: how the verdict follows from the star of two atoms
                # (None: a nested star, checked by its digest only)
                expect = None if shape is None else {
                    "shape": shape, "space": kind,
                    "x": _law_strings(lx), "y": _law_strings(y_law)}
                group.append((["psl", "--model", path, "--space", kind, "--formula", text],
                              expect))
        groups.append(group)
    for i, (argv, expect) in enumerate(_spread(groups, rng)):
        plan.add(f"{prefix}{i:03d}", argv, psl=expect)


_BUILDERS = {"verify": _build_verify, "query": _build_query, "psl": _build_psl}
