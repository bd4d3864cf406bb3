"""Day convolution in two forms, resource monoids, and stability checks.

The decomposition presheaf indexes exact decompositions (on a poset base
the two halves union to the stage exactly) and is what the separating
conjunction pipeline consumes.  The coend form keeps every witnessed
triple and quotients by dinaturality; the two must not be conflated: the
coend collapses summands that the unfolded semantics distinguishes, and
the total memory multiplication is not dinatural (see the tests for the
concrete witness), so it only lives on the decomposition form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

from .errors import (
    BudgetExceededError,
    MonoidalStructureError,
    NoGammaWitnessError,
)
from .fincat import FinCat, MonoidalStructure, element_key
from .presheaf import Heap, Presheaf, check_sheaf
from .report import Report
from .site import Site

DEFAULT_COEND_BUDGET = 100_000


@dataclass(frozen=True)
class Decomp:
    """A decomposition-indexed pair of sections.

    stage A, halves (B, C) and sections s in F(B), t in G(C).  On poset
    bases the decomposition is canonical (tensor(B, C) = A) and no
    witness is stored; otherwise `witness` is a morphism A -> B tensor C.
    """

    stage: object
    left_stage: object
    right_stage: object
    left: object
    right: object
    witness: object = None

    def sort_key(self):
        return (
            self.stage,
            self.left_stage,
            self.right_stage,
            element_key(self.left),
            element_key(self.right),
            repr(self.witness),
        )


@dataclass(frozen=True)
class CoendClass:
    """Dinaturality class of witnessed triples, named by a canonical
    representative (the least member under the deterministic order)."""

    rep: Decomp

    def sort_key(self):
        return self.rep.sort_key()


def day_decomp(f_sheaf: Presheaf, g_sheaf: Presheaf, mon: MonoidalStructure) -> Presheaf:
    """The decomposition presheaf of two presheaves on a monoidal base.

    Powerset base: stages index exact decompositions (B union C = A) and
    restriction re-canonicalises componentwise through (B & V, C & V).
    Other bases: triples keep an explicit witness morphism and restrict
    by precomposition.
    """
    if mon is None:
        raise MonoidalStructureError("day_decomp needs a monoidal base")
    cat = f_sheaf.base
    if cat.kind == "powerset":
        def stages(a):
            return [
                Decomp(a, b, c, s, t)
                for b, c in splittings(cat, mon, a)
                for s in f_sheaf.at(b)
                for t in g_sheaf.at(c)
            ]

        def restr(h, d: Decomp):
            # objects are sorted location tuples, so B & V keeps B's order
            v = cat.src(h)
            b2 = tuple(x for x in d.left_stage if x in v)
            c2 = tuple(x for x in d.right_stage if x in v)
            fb = cat.hom(b2, d.left_stage)[0]
            gc = cat.hom(c2, d.right_stage)[0]
            return Decomp(v, b2, c2, f_sheaf.restrict(fb, d.left),
                          g_sheaf.restrict(gc, d.right))

        name = f"({f_sheaf.name} (*) {g_sheaf.name})"
        return Presheaf(cat, stages, restr, name=name)

    def stages(a):
        return _coend_triples(cat, mon, f_sheaf, g_sheaf, a)

    def restr(h, d: Decomp):
        return _precompose(cat, d, h)

    return Presheaf(cat, stages, restr, name=f"({f_sheaf.name} (*)w {g_sheaf.name})")


def splittings(cat: FinCat, mon: MonoidalStructure, v):
    """The exact splittings of v: pairs (b, c) with b tensor c = v, in
    object order."""
    return [
        (b, c)
        for b in cat.objects
        for c in cat.objects
        if mon.tensor_defined(b, c) and mon.tensor(b, c) == v
    ]


def _with_witness(d: Decomp, stage, witness) -> Decomp:
    return Decomp(stage, d.left_stage, d.right_stage, d.left, d.right, witness=witness)


def _precompose(cat: FinCat, d: Decomp, h) -> Decomp:
    """A witnessed triple restricted along h: its witness precomposed with h."""
    return _with_witness(d, cat.src(h), cat.compose(d.witness, h))


def _coend_triples(cat, mon, f_sheaf, g_sheaf, a):
    return [Decomp(a, b, c, s, t, witness=w)
            for b in cat.objects for c in cat.objects if mon.tensor_defined(b, c)
            for w in cat.hom(a, mon.tensor(b, c)) for s in f_sheaf.at(b) for t in g_sheaf.at(c)]


def dinaturality_generators(cat: FinCat, mon: MonoidalStructure):
    """The morphism pairs whose dinaturality squares generate the coend
    relation: (u, id) and (id, v) with u and v not identities; a general
    pair follows by transitivity, as u tensor v = (u tensor id).(id tensor
    v) for a bifunctor.  On the powerset base u and v are covering
    inclusions (one added location), of which every inclusion is a
    composite."""
    steps = [m for m in cat.all_morphisms() if not cat.is_identity(m)
             and (cat.kind != "powerset" or len(cat.dst(m)) == len(cat.src(m)) + 1)]
    pairs = [(u, cat.id(c)) for u in steps for c in cat.objects]
    pairs += [(cat.id(b), v) for v in steps for b in cat.objects]
    return [(u, v) for u, v in pairs if mon.tensor_defined(cat.src(u), cat.src(v))
            and mon.tensor_defined(cat.dst(u), cat.dst(v))]


def day_coend(f_sheaf: Presheaf, g_sheaf: Presheaf, mon: MonoidalStructure,
              budget=DEFAULT_COEND_BUDGET) -> Presheaf:
    """Day convolution proper: witnessed triples modulo dinaturality.

    At stage a the witnessed triple (b, c, w, s, t), with s and t ids of
    F(b) and G(c), is the node blocks[b, c, w] + s * |G(c)| + t.  The
    relation (w, F(u)s, G(v)t) ~ ((u tensor v).w, s, t) is closed off by
    a union-find over the nodes, on `dinaturality_generators` and the
    restriction tables.  A class is named by its least triple under
    `element_key`, the only `Decomp` built; restriction acts on
    representatives and is checked to be well-defined on classes.
    """
    if mon is None:
        raise MonoidalStructureError("day_coend needs a monoidal base")
    cat = f_sheaf.base
    found = {}  # stage -> (blocks, class per node, representative's node per class)
    gens, f_ids, g_ids = [], {}, {}

    def classes_at(a):
        if a in found:
            return found[a]
        blocks, n = {}, 0
        for b in cat.objects:
            for c in cat.objects:
                for w in cat.hom(a, mon.tensor(b, c)) if mon.tensor_defined(b, c) else ():
                    blocks[b, c, w] = n
                    n += len(f_sheaf.at(b)) * len(g_sheaf.at(c))
        if n > budget:
            raise BudgetExceededError(f"{n} coend triples at {a!r} exceed budget {budget}", size=n)
        if not gens:
            gens.extend(dinaturality_generators(cat, mon))
            for x in cat.objects:  # ids, not positions: at(x) may repeat an element
                f_ids[x] = sorted(set(f_sheaf.index(x).values()))
                g_ids[x] = sorted(set(g_sheaf.index(x).values()))
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            return x

        for u, v in gens:
            b, b2, c, c2 = cat.src(u), cat.dst(u), cat.src(v), cat.dst(v)
            fu, gv, uv = f_sheaf.table(u), g_sheaf.table(v), mon.tensor_m(u, v)
            width, width2 = len(g_sheaf.at(c)), len(g_sheaf.at(c2))
            for w in cat.hom(a, mon.tensor(b, c)):
                lo, hi = blocks[b, c, w], blocks[b2, c2, cat.compose(uv, w)]
                for s2 in f_ids[b2]:
                    x0, y0 = lo + fu[s2] * width, hi + s2 * width2
                    for t2 in g_ids[c2]:
                        rx, ry = find(x0 + gv[t2]), find(y0 + t2)
                        if rx != ry:
                            parent[ry] = rx
        # visit the nodes in the order of their Decomps' sort_key (ids follow
        # at() order), so the first node seen in a class is its representative
        by_pair, of, reps, named = {}, [None] * n, {}, {}
        for (b, c, w), off in blocks.items():
            by_pair.setdefault((b, c), []).append((repr(w), w, off))
        for (b, c), ws in sorted(by_pair.items()):
            ws.sort()
            width = len(g_sheaf.at(c))
            for s in f_ids[b]:
                for t in g_ids[c]:
                    for _, w, off in ws:
                        r = find(off + s * width + t)
                        if r not in named:
                            named[r] = CoendClass(Decomp(
                                a, b, c, f_sheaf.element(b, s), g_sheaf.element(c, t), witness=w))
                            reps[named[r]] = (b, c, w, s, t)
                        of[off + s * width + t] = named[r]
        found[a] = blocks, of, reps
        return found[a]

    def lookup(a, b, c, w, s, t):
        blocks, of, _ = classes_at(a)
        return of[blocks[b, c, w] + s * len(g_sheaf.at(c)) + t]

    def restr(h, cls: CoendClass):
        b, c, w, s, t = classes_at(cat.dst(h))[2][cls]
        return lookup(cat.src(h), b, c, cat.compose(w, h), s, t)

    def class_of(d: Decomp) -> CoendClass:
        """Quotient map from (possibly canonical-poset) triples to classes."""
        d = d if d.witness is not None else poset_witnessed(cat, mon, d)
        b, c = d.left_stage, d.right_stage
        return lookup(d.stage, b, c, d.witness, f_sheaf.index(b)[d.left], g_sheaf.index(c)[d.right])

    name = f"({f_sheaf.name} (x) {g_sheaf.name})"
    ps = Presheaf(cat, lambda a: classes_at(a)[2], restr, name=name)
    ps.class_of = class_of
    return ps


def poset_witnessed(cat: FinCat, mon: MonoidalStructure, d: Decomp) -> Decomp:
    """Attach the canonical witness to a poset decomposition element."""
    bc = mon.tensor(d.left_stage, d.right_stage)
    return _with_witness(d, d.stage, cat.hom(d.stage, bc)[0])


# -- resource monoids ------------------------------------------------------


# the cell rule's value where two cells do not combine
UNDEFINED = object()


@dataclass(frozen=True)
class ResourceMonoid:
    """A partial multiplication on a memory sheaf, defined cell by cell.

    `cell(x, y)` combines the values two halves store at a location they
    share, or is UNDEFINED; a location in one half only keeps its value.
    The product is defined iff every shared cell combines.  `apply` and
    the product tables are both read off that one rule.  The unit is the
    designated point of F at the unit object.
    """

    carrier: Presheaf
    variant: str
    cell: object  # callable (value, value) -> value | UNDEFINED
    unit_stage: object
    unit: object
    _tables: dict = field(default_factory=dict, repr=False, compare=False)

    def apply(self, d: Decomp):
        """The product of d's halves, or None when it is undefined."""
        left, right = d.left.as_dict(), d.right.as_dict()
        cells = {**left, **right}
        for x in left.keys() & right.keys():
            cells[x] = self.cell(left[x], right[x])
            if cells[x] is UNDEFINED:
                return None
        return Heap.of(cells, cells)

    def products(self, b, c):
        """The product table of the splitting (b, c), built on first use:
        row i, column j is the id at b u c of the product of the elements
        with ids i at b and j at c, or -1 when it is undefined.  An element
        at b u c is given by the ids of its restrictions to b only, c only
        and the overlap o, so a product is looked up from the halves'
        restrictions, their overlaps combined by the cell rule."""
        rows = self._tables.get((b, c))
        if rows is None:
            mp, cat = self.carrier, self.carrier.base
            v = tuple(sorted(set(b) | set(c)))
            o = tuple(x for x in b if x in c)
            only_b, only_c = tuple(x for x in b if x not in c), tuple(x for x in c if x not in b)

            def ids(a, part):
                return mp.table(cat.hom(part, a)[0])

            # glue[x][y][z]: the id at v with those ids at (only_b, only_c, o);
            # the extra last slot answers z = -1, an undefined overlap
            width = len(mp.at(o)) + 1
            glue = [[[-1] * width for _ in mp.at(only_c)] for _ in mp.at(only_b)]
            for k, (x, y, z) in enumerate(zip(ids(v, only_b), ids(v, only_c), ids(v, o))):
                glue[x][y][z] = k
            meets, right = self._meets(o), list(zip(ids(c, only_c), ids(c, o)))
            rows = self._tables[b, c] = [
                [glue[x][y][meets[z][t]] for y, t in right]
                for x, z in zip(ids(b, only_b), ids(b, o))
            ]
        return rows

    def _meets(self, o):
        """The cell rule at o: row s, column t is the id of the cellwise
        product of the elements with ids s and t, or -1."""
        meets = self._tables.get(o)
        if meets is None:
            heaps = self.carrier.at(o)
            index = {h.values: i for h, i in self.carrier.index(o).items()}
            meets = self._tables[o] = [
                [index.get(tuple(map(self.cell, s.values, t.values)), -1) for t in heaps]
                for s in heaps
            ]
        return meets


def build_memory_monoid(mp: Presheaf, variant: str) -> ResourceMonoid:
    """The partial-memory monoid in its three flavours, by their cell rule.

    total          conflicting cells collapse to the unallocated value
    weak-partial   defined iff the halves agree on the overlap
    strong-partial defined iff the halves touch disjoint regions
    The unit is the empty heap at the empty region in all variants.
    """
    if mp.base.kind != "powerset":
        raise MonoidalStructureError("memory monoids need the powerset base")
    cells = {
        "total": lambda x, y: x if x == y else None,
        "weak-partial": lambda x, y: x if x == y else UNDEFINED,
        "strong-partial": lambda x, y: UNDEFINED,
    }
    if variant not in cells:
        raise MonoidalStructureError(f"unknown monoid variant {variant!r}")
    return ResourceMonoid(mp, variant, cells[variant], (), Heap((), ()))


def check_monoid_laws(monoid: ResourceMonoid, mon: MonoidalStructure) -> Report:
    """Unit, associativity and commutativity on heaps, by a pointwise
    certificate.  A pointwise product of partial commutative monoids is
    one (Calcagno, O'Hearn and Yang, "Local Action and Abstract Separation
    Logic", LICS 2007), so the heap laws follow from: every product-table
    entry is the cellwise product of its pair, -1 exactly when a shared
    cell is UNDEFINED ("pointwise"); and the cell rule is commutative and
    associative on the carrier's values and None, UNDEFINED absorbing.
    The unit law is read off the tables' unit rows and columns."""
    rep = Report(f"monoid laws ({monoid.variant})")
    mp, cell, e = monoid.carrier, monoid.cell, monoid.unit_stage
    cat = mp.base

    def product(b, c, k):
        return None if k == -1 else mp.element(mon.tensor(b, c), k)

    for b in cat.objects:
        for c in cat.objects:
            v = mon.tensor(b, c)
            index = {h.values: i for h, i in mp.index(v).items()}
            # where each location of v is read: from b, from c, or both
            where = [(b.index(x) if x in b else None, c.index(x) if x in c else None) for x in v]
            for s, row in zip(mp.at(b), monoid.products(b, c)):
                for t, got in zip(mp.at(c), row):
                    cells = [t.values[j] if i is None else s.values[i] if j is None
                             else cell(s.values[i], t.values[j]) for i, j in where]
                    want = -1 if UNDEFINED in cells else index.get(tuple(cells))
                    if got != want:
                        cellwise = ("outside the carrier" if want is None
                                    else f"{product(b, c, want)} cellwise")
                        rep.flag("pointwise", f"{s}.{t} is {product(b, c, got)} in the "
                                              f"product table, but {cellwise}")
    unit = mp.index(e)[monoid.unit]
    n_unit = 0
    for a in cat.objects:
        lefts, rights = monoid.products(e, a)[unit], monoid.products(a, e)
        for s, k, row in zip(mp.at(a), lefts, rights):
            left, right = product(e, a, k), product(a, e, row[unit])
            n_unit += 1
            if left != s:
                rep.flag("unit", f"unit . {s} = {left} != {s}")
            if right != s:
                rep.flag("unit", f"{s} . unit = {right} != {s}")

    def mul(x, y):
        return UNDEFINED if x is UNDEFINED or y is UNDEFINED else cell(x, y)

    def show(x):
        return "undefined" if x is UNDEFINED else repr(x)

    values = list(dict.fromkeys([None] + [x for a in cat.objects for h in mp.at(a)
                                          for x in h.values]))
    for x in values:
        for y in values:
            if cell(x, y) != cell(y, x):
                rep.flag("commutativity", f"cell {x!r}.{y!r} = {show(cell(x, y))} != "
                                          f"{show(cell(y, x))} = {y!r}.{x!r}")
            for z in values:
                lhs, rhs = mul(mul(x, y), z), mul(x, mul(y, z))
                if lhs != rhs:
                    rep.flag("associativity", f"cell ({x!r}.{y!r}).{z!r} = {show(lhs)} != "
                                              f"{show(rhs)} = {x!r}.({y!r}.{z!r})")
    rep.note(f"checked {n_unit} unit and {len(values) ** 3} associativity instances")
    return rep


# -- Day stability ----------------------------------------------------------


def powerset_gamma(cat: FinCat):
    """Lax-monoidal witness for powerset slices: unions of slice legs,
    tabulated per pair for the life of the returned maps."""

    @cache
    def on_obj(p, q):
        v = tuple(sorted(set(cat.src(p)) | set(cat.src(q))))
        a = tuple(sorted(set(cat.dst(p)) | set(cat.dst(q))))
        return ("incl", v, a)

    @cache
    def on_mor(m1, m2):
        # slice morphisms ("tri", g, q, p) map to the union inclusion
        return ("tri", on_obj(m1[1], m2[1]), on_obj(m1[2], m2[2]), on_obj(m1[3], m2[3]))

    return on_obj, on_mor


def finsurj_gamma(cat: FinCat, mon: MonoidalStructure):
    """Partial witness for the surjection base: products of slice legs."""

    def on_obj(p, q):
        if not mon.tensor_defined(cat.src(p), cat.src(q)):
            return None
        return mon.tensor_m(p, q)

    def on_mor(m1, m2):
        # a surjection's source is at least its target, so a tensor defined
        # on the sources of m1[1] and m2[1] is defined on their targets
        g, q, p = (on_obj(x, y) for x, y in zip(m1[1:], m2[1:]))
        return None if None in (g, q, p) else ("tri", g, q, p)

    return on_obj, on_mor


def _convolved_mono(cat, mon, inc_components, f_small, g_sheaf):
    """Stage-wise maps day(F', G) -> day(F, G) induced by F' >-> F."""
    day_small = day_decomp(f_small, g_sheaf, mon)
    return {
        a: {d: Decomp(d.stage, d.left_stage, d.right_stage, inc_components[d.left_stage][d.left],
                      d.right, witness=d.witness) for d in day_small.at(a)}
        for a in cat.objects
    }


def check_day_stability(site: Site, samples, inclusions=(), budget=DEFAULT_COEND_BUDGET) -> Report:
    """Runtime checks for the three Day-stability conditions.

    (1) decomposition and coend convolutions of the samples satisfy the
        sheaf condition for the site's coverage;
    (2) convolving a sampled subsheaf inclusion stays injective
        stage-wise;
    (3) the registered lax-monoidal witness for slices is functorial.

    `inclusions` holds (name, components, small) triples where
    components[stage] maps small-stage elements into big-stage elements.
    """
    rep = Report("Day stability")
    cat, mon = site.cat, site.monoidal
    if mon is None:
        raise MonoidalStructureError("site has no monoidal structure")
    for f_sheaf in samples:
        for g_sheaf in samples:
            dec = day_decomp(f_sheaf, g_sheaf, mon)
            for v in check_sheaf(dec, site.cov).violations:
                rep.flag("decomp-sheaf", f"{dec.name}: {v.detail}")
            coe = day_coend(f_sheaf, g_sheaf, mon, budget)
            for v in check_sheaf(coe, site.cov).violations:
                rep.flag("coend-sheaf", f"{coe.name}: {v.detail}")
    for name, components, small in inclusions:
        for a in cat.objects:
            col = components[a]
            if len(set(col.values())) != len(col):
                rep.flag("mono", f"{name}: supplied components not injective at {a!r}")
        for g_sheaf in samples:
            for a, table in _convolved_mono(cat, mon, components, small, g_sheaf).items():
                if len(set(table.values())) != len(table):
                    rep.flag("mono-preservation",
                             f"day({name}, {g_sheaf.name}) not injective at {a!r}")
    if cat.kind == "powerset":
        on_obj, on_mor = powerset_gamma(cat)
    elif cat.kind == "finsurj":
        on_obj, on_mor = finsurj_gamma(cat, mon)
    else:
        raise NoGammaWitnessError(f"no gamma witness registered for base {cat.kind!r}")
    pairs_checked = 0
    for a in cat.objects:
        for b in cat.objects:
            if not mon.tensor_defined(a, b):
                continue
            sl_a, _, _ = site.slice(a)
            sl_b, _, _ = site.slice(b)
            sl_ab, _, _ = site.slice(mon.tensor(a, b))
            for p in sl_a.objects:
                for q in sl_b.objects:
                    gp = on_obj(p, q)
                    if gp is None:
                        continue
                    ga = on_mor(sl_a.identities[p], sl_b.identities[q])
                    if ga != sl_ab.identities.get(gp):
                        rep.flag("gamma", f"gamma does not preserve identities at ({p!r}, {q!r})")
                    pairs_checked += 1
            for (q1, _), ms1 in sl_a.homs.items():
                for (q2, _), ms2 in sl_b.homs.items():
                    for m1 in ms1:
                        for m2 in ms2:
                            g12 = on_mor(m1, m2)
                            if g12 is None:
                                continue
                            for n1 in sl_a.mors_into(q1):
                                for n2 in sl_b.mors_into(q2):
                                    gn = on_mor(n1, n2)
                                    if gn is None:
                                        continue
                                    lhs = on_mor(sl_a.compose(m1, n1), sl_b.compose(m2, n2))
                                    if lhs != sl_ab.compose_table.get((g12, gn)):
                                        rep.flag("gamma",
                                                 f"gamma not functorial on ({m1!r}, {m2!r})")
    rep.note(f"gamma checked on {pairs_checked} object pairs")
    return rep
