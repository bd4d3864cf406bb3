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
from .errors import (
    BudgetExceededError,
    MonoidalStructureError,
    NoGammaWitnessError,
)
from .fincat import FinCat, MonoidalStructure, element_key
from .presheaf import Heap, Presheaf, check_sheaf, sorted_elements
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
    out = []
    for b in cat.objects:
        for c in cat.objects:
            if not mon.tensor_defined(b, c):
                continue
            for w in cat.hom(a, mon.tensor(b, c)):
                for s in f_sheaf.at(b):
                    for t in g_sheaf.at(c):
                        out.append(Decomp(a, b, c, s, t, witness=w))
    return out


class UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        r = x
        while self.parent[r] != r:
            r = self.parent[r]
        while self.parent[x] != r:
            self.parent[x], x = r, self.parent[x]
        return r

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx


def day_coend(f_sheaf: Presheaf, g_sheaf: Presheaf, mon: MonoidalStructure,
              budget=DEFAULT_COEND_BUDGET) -> Presheaf:
    """Day convolution proper: witnessed triples modulo dinaturality.

    The dinaturality relation (w, F(u)s, G(v)t) ~ ((u tensor v).w, s, t)
    is closed off by union-find per stage; restriction acts on canonical
    representatives and is checked to be well-defined on classes.
    """
    if mon is None:
        raise MonoidalStructureError("day_coend needs a monoidal base")
    cat = f_sheaf.base
    class_maps = {}

    def classes_at(a):
        if a in class_maps:
            return class_maps[a]
        triples = _coend_triples(cat, mon, f_sheaf, g_sheaf, a)
        if len(triples) > budget:
            raise BudgetExceededError(
                f"{len(triples)} coend triples at {a!r} exceed budget {budget}",
                size=len(triples),
            )
        uf = UnionFind(triples)
        mors = list(cat.all_morphisms())
        for u in mors:
            b, b2 = cat.src(u), cat.dst(u)
            for v in mors:
                c, c2 = cat.src(v), cat.dst(v)
                if not (mon.tensor_defined(b, c) and mon.tensor_defined(b2, c2)):
                    continue
                uv = mon.tensor_m(u, v)
                for w in cat.hom(a, mon.tensor(b, c)):
                    w2 = cat.compose(uv, w)
                    for s2 in f_sheaf.at(b2):
                        s = f_sheaf.restrict(u, s2)
                        for t2 in g_sheaf.at(c2):
                            uf.union(
                                Decomp(a, b, c, s, g_sheaf.restrict(v, t2), witness=w),
                                Decomp(a, b2, c2, s2, t2, witness=w2),
                            )
        groups = {}
        for d in triples:
            groups.setdefault(uf.find(d), []).append(d)
        mapping = {}
        for members in groups.values():
            rep = min(members, key=element_key)
            for d in members:
                mapping[d] = CoendClass(rep)
        class_maps[a] = mapping
        return mapping

    def stages(a):
        return sorted_elements(set(classes_at(a).values()))

    def restr(h, cls: CoendClass):
        return classes_at(cat.src(h))[_precompose(cat, cls.rep, h)]

    def class_of(d: Decomp) -> CoendClass:
        """Quotient map from (possibly canonical-poset) triples to classes."""
        witnessed = d if d.witness is not None else poset_witnessed(cat, mon, d)
        return classes_at(witnessed.stage)[witnessed]

    name = f"({f_sheaf.name} (x) {g_sheaf.name})"
    ps = Presheaf(cat, stages, restr, name=name)
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
    """Exhaustive unit, associativity and commutativity checks.

    Partial variants are compared by Kleene equality: both sides defined
    and equal, or both undefined.
    """
    rep = Report(f"monoid laws ({monoid.variant})")
    mp = monoid.carrier
    cat = mp.base
    unit = monoid.unit

    def mult2(b, c, s, t):
        a = mon.tensor(b, c)
        return monoid.apply(Decomp(a, b, c, s, t))

    n_unit = 0
    for a in cat.objects:
        for s in mp.at(a):
            left = mult2(monoid.unit_stage, a, unit, s)
            right = mult2(a, monoid.unit_stage, s, unit)
            n_unit += 1
            if left != s:
                rep.flag("unit", f"unit . {s} = {left} != {s}")
            if right != s:
                rep.flag("unit", f"{s} . unit = {right} != {s}")
    n_assoc = 0
    for b in cat.objects:
        for c in cat.objects:
            for d in cat.objects:
                for s in mp.at(b):
                    for t in mp.at(c):
                        for u in mp.at(d):
                            st = mult2(b, c, s, t)
                            lhs = (
                                None
                                if st is None
                                else mult2(mon.tensor(b, c), d, st, u)
                            )
                            tu = mult2(c, d, t, u)
                            rhs = (
                                None
                                if tu is None
                                else mult2(b, mon.tensor(c, d), s, tu)
                            )
                            n_assoc += 1
                            if lhs != rhs:
                                rep.flag(
                                    "associativity",
                                    f"({s}.{t}).{u} = {lhs} != {rhs} = {s}.({t}.{u})",
                                )
    for b in cat.objects:
        for c in cat.objects:
            for s in mp.at(b):
                for t in mp.at(c):
                    if mult2(b, c, s, t) != mult2(c, b, t, s):
                        rep.flag("commutativity", f"{s}.{t} != {t}.{s}")
    rep.note(f"checked {n_unit} unit and {n_assoc} associativity instances")
    return rep


# -- Day stability ----------------------------------------------------------


def powerset_gamma(cat: FinCat):
    """Lax-monoidal witness for powerset slices: unions of slice legs."""

    def on_obj(p, q):
        v = tuple(sorted(set(cat.src(p)) | set(cat.src(q))))
        a = tuple(sorted(set(cat.dst(p)) | set(cat.dst(q))))
        return ("incl", v, a)

    def on_mor(m1, m2):
        # slice morphisms ("tri", g, q, p) map to the union inclusion
        g = ("incl",
             tuple(sorted(set(m1[1][1]) | set(m2[1][1]))),
             tuple(sorted(set(m1[1][2]) | set(m2[1][2]))))
        q = on_obj(m1[2], m2[2])
        p = on_obj(m1[3], m2[3])
        return ("tri", g, q, p)

    return on_obj, on_mor


def finsurj_gamma(cat: FinCat, mon: MonoidalStructure):
    """Partial witness for the surjection base: products of slice legs."""

    def on_obj(p, q):
        if not mon.tensor_defined(cat.src(p), cat.src(q)):
            return None
        return mon.tensor_m(p, q)

    def on_mor(m1, m2):
        g = (
            mon.tensor_m(m1[1], m2[1])
            if mon.tensor_defined(cat.src(m1[1]), cat.src(m2[1]))
            and mon.tensor_defined(cat.dst(m1[1]), cat.dst(m2[1]))
            else None
        )
        if g is None:
            return None
        q = on_obj(m1[2], m2[2])
        p = on_obj(m1[3], m2[3])
        if q is None or p is None:
            return None
        return ("tri", g, q, p)

    return on_obj, on_mor


def _convolved_mono(cat, mon, inc_components, f_small, g_sheaf):
    """Stage-wise maps day(F', G) -> day(F, G) induced by F' >-> F."""
    day_small = day_decomp(f_small, g_sheaf, mon)
    maps = {}
    for a in cat.objects:
        table = {}
        for d in day_small.at(a):
            img = inc_components[d.left_stage][d.left]
            table[d] = Decomp(d.stage, d.left_stage, d.right_stage, img, d.right,
                              witness=d.witness)
        maps[a] = table
    return maps


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
            sub = check_sheaf(dec, site.cov)
            if not sub.ok:
                for v in sub.violations:
                    rep.flag("decomp-sheaf", f"{dec.name}: {v.detail}")
            coe = day_coend(f_sheaf, g_sheaf, mon, budget)
            sub = check_sheaf(coe, site.cov)
            if not sub.ok:
                for v in sub.violations:
                    rep.flag("coend-sheaf", f"{coe.name}: {v.detail}")
    for name, components, small in inclusions:
        for a in cat.objects:
            col = components[a]
            if len(set(col.values())) != len(col):
                rep.flag("mono", f"{name}: supplied components not injective at {a!r}")
        for g_sheaf in samples:
            maps = _convolved_mono(cat, mon, components, small, g_sheaf)
            for a, table in maps.items():
                if len(set(table.values())) != len(table):
                    rep.flag(
                        "mono-preservation",
                        f"day({name}, {g_sheaf.name}) not injective at {a!r}",
                    )
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
                                    rhs = (
                                        sl_ab.compose(g12, gn)
                                        if (g12, gn) in sl_ab.compose_table
                                        else None
                                    )
                                    if lhs != rhs:
                                        rep.flag(
                                            "gamma",
                                            f"gamma not functorial on ({m1!r}, {m2!r})",
                                        )
    rep.note(f"gamma checked on {pairs_checked} object pairs")
    return rep
