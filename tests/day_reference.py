"""Element-level reference for the Day convolutions and the monoid laws,
kept as a test oracle.

This is the direct reading of the definitions that `sheafsep.day`
replaces: the decomposition presheaf lists `Decomp` triples and
restricts each one, the coend closes off the dinaturality relation over
every pair of morphisms (u, v) with a union-find on every witnessed
`Decomp` triple (on the powerset base all pairs (b, c) with a inside
b union c, not only the exact splittings), the monoid laws walk every
triple of heaps through `apply`, and a gamma witness is replayed on
every pair of slice morphisms of built slice categories and of their
precomposites (the code under test reads it off the tensor).  Fed the
element-level sheaves of `presheaf_reference`, none of it reads a
restriction table of the code under test.  The differential tests
compare the two on stages, tables and law reports; for the coend they
compare partitions through the quotient map, representatives (the least
exact member of a class) and tables through the class bijection.
"""

import functools
from dataclasses import replace

from fincat_reference import element_key, slice_category
from presheaf_reference import UnionFind, listed, sorted_elements
from sheafsep.day import (
    DEFAULT_COEND_BUDGET,
    UNDEFINED,
    CoendClass,
    Decomp,
    splittings,
)
from sheafsep.errors import BudgetExceededError, MonoidalStructureError
from sheafsep.presheaf import Heap
from sheafsep.report import Report


def coend_triples(cat, mon, f_sheaf, g_sheaf, a):
    """Every witnessed triple at stage a."""
    return [Decomp(a, b, c, s, t, witness=w)
            for b in cat.objects for c in cat.objects if mon.tensor_defined(b, c)
            for w in cat.hom(a, mon.tensor(b, c)) for s in f_sheaf.at(b) for t in g_sheaf.at(c)]


def poset_witnessed(cat, mon, d):
    """Attach the canonical witness to a poset decomposition element."""
    return replace(d, witness=cat.hom(d.stage, mon.tensor(d.left_stage, d.right_stage))[0])


def precompose(cat, d, h):
    """A witnessed triple restricted along h: its witness precomposed with h."""
    return replace(d, stage=cat.src(h), witness=cat.compose(d.witness, h))


def day_decomp(f_sheaf, g_sheaf, mon):
    """The decomposition presheaf on elements.  Powerset base: exact
    decompositions, restricted componentwise through (B & V, C & V).
    Other bases: witnessed triples, restricted by precomposition."""
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

        def restr(h, d):
            v = cat.src(h)
            b2, c2 = d.left_stage & v, d.right_stage & v
            fb = cat.hom(b2, d.left_stage)[0]
            gc = cat.hom(c2, d.right_stage)[0]
            return Decomp(v, b2, c2, f_sheaf.restrict(fb, d.left),
                          g_sheaf.restrict(gc, d.right))

        return listed(cat, stages, restr, name=f"({f_sheaf.name} (*) {g_sheaf.name})",
                      locations=f_sheaf.locations)

    def stages(a):
        return coend_triples(cat, mon, f_sheaf, g_sheaf, a)

    def restr(h, d):
        return precompose(cat, d, h)

    return listed(cat, stages, restr, name=f"({f_sheaf.name} (*)w {g_sheaf.name})",
                  locations=f_sheaf.locations)


def apply(monoid, d):
    """The product of d's halves under the monoid's cell rule, or None
    when it is undefined."""
    left, right = d.left.as_dict(), d.right.as_dict()
    cells = {**left, **right}
    for x in left.keys() & right.keys():
        cells[x] = monoid.cell(left[x], right[x])
        if cells[x] is UNDEFINED:
            return None
    return Heap.of(cells, cells)


def day_coend(f_sheaf, g_sheaf, mon, budget=DEFAULT_COEND_BUDGET):
    """Witnessed triples modulo the relation generated by every pair
    (u, v): (w, F(u)s, G(v)t) ~ ((u tensor v).w, s, t)."""
    cat = f_sheaf.base
    class_maps = {}

    def classes_at(a):
        if a in class_maps:
            return class_maps[a]
        triples = coend_triples(cat, mon, f_sheaf, g_sheaf, a)
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
                ss = [(f_sheaf.restrict(u, s2), s2) for s2 in f_sheaf.at(b2)]
                ts = [(g_sheaf.restrict(v, t2), t2) for t2 in g_sheaf.at(c2)]
                for w in cat.hom(a, mon.tensor(b, c)):
                    w2 = cat.compose(uv, w)
                    for s, s2 in ss:
                        for t, t2 in ts:
                            uf.union(Decomp(a, b, c, s, t, witness=w),
                                     Decomp(a, b2, c2, s2, t2, witness=w2))
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

    def restr(h, cls):
        return classes_at(cat.src(h))[precompose(cat, cls.rep, h)]

    def class_of(d):
        witnessed = d if d.witness is not None else poset_witnessed(cat, mon, d)
        return classes_at(witnessed.stage)[witnessed]

    ps = listed(cat, stages, restr, name=f"({f_sheaf.name} (x) {g_sheaf.name})",
                locations=f_sheaf.locations)
    ps.class_of = class_of
    ps.classes_at = classes_at
    return ps


def check_monoid_laws(monoid, mon):
    """Unit, associativity and commutativity on every pair and triple of
    heaps, by Kleene equality of `apply` (memoised per pair)."""
    rep = Report(f"monoid laws ({monoid.variant})")
    mp = monoid.carrier
    cat = mp.base
    unit = Heap((), ())  # the empty heap at the empty stage 0

    @functools.cache
    def mult2(b, c, s, t):
        return apply(monoid, Decomp(mon.tensor(b, c), b, c, s, t))

    n_unit = 0
    for a in cat.objects:
        for s in mp.at(a):
            left = mult2(0, a, unit, s)
            right = mult2(a, 0, s, unit)
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
                            lhs = None if st is None else mult2(mon.tensor(b, c), d, st, u)
                            tu = mult2(c, d, t, u)
                            rhs = None if tu is None else mult2(b, mon.tensor(c, d), s, tu)
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


def gamma_report(cat, mon, on_obj, on_mor):
    """The gamma witness's identity and functoriality checks of Day
    stability, replayed on every pair of slice morphisms and every pair
    of their precomposites; pairs the witness leaves undefined (None)
    are skipped."""
    rep = Report("Day stability")
    slices = {a: slice_category(cat, a)[0] for a in cat.objects}
    pairs_checked = 0
    for a in cat.objects:
        for b in cat.objects:
            if not mon.tensor_defined(a, b):
                continue
            sl_a, sl_b, sl_ab = slices[a], slices[b], slices[mon.tensor(a, b)]
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
