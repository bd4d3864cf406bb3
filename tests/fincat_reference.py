"""Replay reference for the tensor's functoriality, and the slice
categories that only tests build, kept as test oracles.

`validate_monoidal` is the direct reading of the law that
`sheafsep.fincat`'s thinness certificate replaces: every entry (f, g)
of the tensor table is composed with every composable pair (f2, g2),
and (f2.f) (x) (g2.g) is compared with (f2 (x) g2).(f (x) g).  The
differential tests compare reports on well-typed, corrupted and
non-thin tensors.

`element_key` is the canonical order of the elements the package's
presheaves number, as a total key on heterogeneous values: the package
numbers each stage in that order without comparing elements, and the
references sort by it.

`build_name_powerset` is the powerset builder that the location masks
replaced: stages are sorted name tuples and inclusions are ("incl",
src, dst).  The order tests render the mask site back to names and
compare its orders with this one's.

`slice_category` builds cat/a with its domain functor, whose morphism
ids are ("tri", g, q, p) for a base morphism g with p.g = q, and
`validate_functor` checks a `FunctorData`'s typing, identities and
composites.  The element-level predicate and coverage references read
slices through them.
"""

from dataclasses import dataclass, field

from sheafsep.day import CoendClass, Decomp
from sheafsep.fincat import FinCat, Incl, MonoidalStructure, bits
from sheafsep.presheaf import Heap, MatchClass
from sheafsep.psl import ProbSpace
from sheafsep.report import Report
from sheafsep.site import Sieve


def element_key(x):
    """Total deterministic ordering key for heterogeneous hashable values:
    the type's name, then `sort_key(x)`, or repr(x) where it has none."""
    key = sort_key(x)
    return (type(x).__name__, repr(x) if key is None else key)


def sort_key(x):
    """The order of x among the values of its type: heaps by locations,
    then values with None last; decompositions by stages, then halves
    and witness, a powerset's stages (the witness is None or an
    inclusion) as the location tuples their masks stand for; a coend
    class by its named decomposition; a matching class by stage, cover
    and items; a space by size, blocks and measure; a sieve by target
    and sorted members.  A value of another type with a `sort_key`
    method reads it; None for the rest."""
    if isinstance(x, Heap):
        return x.locations, tuple((v is None, 0 if v is None else v) for v in x.values)
    if isinstance(x, Decomp):
        stages = (x.stage, x.left_stage, x.right_stage)
        if x.witness is None or isinstance(x.witness, Incl):
            stages = tuple(map(bits, stages))
        return (*stages, element_key(x.left), element_key(x.right), repr(x.witness))
    if isinstance(x, CoendClass):
        return sort_key(x.rep)
    if isinstance(x, MatchClass):
        return x.stage, x.cover_members, tuple(element_key(y) for y in x.items)
    if isinstance(x, ProbSpace):
        return x.size, x.blocks, tuple((m.numerator, m.denominator) for m in x.measure)
    if isinstance(x, Sieve):
        return x.target, x.sorted_members()
    own = getattr(x, "sort_key", None)
    return own() if callable(own) else None


def incl(src, dst):
    return ("incl", tuple(src), tuple(dst))


def build_name_powerset(locations):
    """The powerset of the locations on name tuples: objects by (size,
    tuple), a unique ("incl", a, b) for a a subset of b, the tensor union
    with unit (); the tensor on morphisms is left out."""
    subsets = [()]
    for x in sorted(set(locations)):
        subsets += [s + (x,) for s in subsets]
    objects = sorted(subsets, key=lambda a: (len(a), a))
    homs = {(a, b): (incl(a, b),) for a in objects for b in objects if set(a) <= set(b)}
    compose = {(homs[b, c][0], homs[a, b][0]): homs[a, c][0]
               for (a, b) in homs for (b2, c) in homs if b2 == b}
    cat = FinCat("powerset", objects, homs, compose, {a: homs[a, a][0] for a in objects})
    tensor = {(a, b): tuple(sorted(set(a) | set(b))) for a in objects for b in objects}
    return cat, MonoidalStructure(tensor, {}, unit=(), symmetric=True)


def validate_monoidal(cat, mon):
    """Unit, symmetry and identity laws, then every composable quadruple."""
    rep = Report("monoidal structure")
    for a in cat.objects:
        if mon.tensor_defined(a, mon.unit):
            if mon.tensor(a, mon.unit) != a or mon.tensor(mon.unit, a) != a:
                rep.flag("unit", f"unit law fails at {a!r}")
    if mon.symmetric:
        for (a, b), ab in mon.tensor_obj.items():
            if mon.tensor_obj.get((b, a)) != ab:
                rep.flag("symmetry", f"tensor not symmetric on ({a!r}, {b!r})")
    for a in cat.objects:
        for b in cat.objects:
            if not mon.tensor_defined(a, b):
                continue
            ia, ib = cat.id(a), cat.id(b)
            if (ia, ib) in mon.tensor_mor:
                if mon.tensor_m(ia, ib) != cat.id(mon.tensor(a, b)):
                    rep.flag("functoriality", f"id tensor id != id at ({a!r}, {b!r})")
    for (f, g), fg in mon.tensor_mor.items():
        for f2 in cat.mors_from(cat.dst(f)):
            for g2 in cat.mors_from(cat.dst(g)):
                f2g2 = mon.tensor_mor.get((f2, g2))
                if f2g2 is None or (f2g2, fg) not in cat.compose_table:
                    continue
                lhs = mon.tensor_mor.get((cat.compose(f2, f), cat.compose(g2, g)))
                if lhs != cat.compose(f2g2, fg):
                    rep.flag(
                        "functoriality",
                        f"(f2.f) tensor (g2.g) != (f2 tensor g2).(f tensor g) at ({f!r},{g!r})",
                    )
    return rep


@dataclass(frozen=True)
class FunctorData:
    """Object/morphism maps between two FinCats."""

    source: FinCat = field(hash=False)
    target: FinCat = field(hash=False)
    obj_map: dict = field(hash=False)
    mor_map: dict = field(hash=False)

    def on_obj(self, a):
        return self.obj_map[a]

    def on_mor(self, f):
        return self.mor_map[f]


def tri(g, q, p):
    return ("tri", g, q, p)


def slice_category(cat: FinCat, a):
    """Slice category cat/a together with the domain functor into cat.

    Objects are the morphisms p with dst(p) = a; a morphism q -> p is a
    base morphism g with p.g = q, interned as ("tri", g, q, p).
    """
    cat.require_object(a)
    objects = cat.mors_into(a)
    homs = {}
    for q in objects:
        for p in objects:
            ms = tuple(tri(g, q, p) for g in cat.factorisations(q, p))
            if ms:
                homs[(q, p)] = ms
    compose = {}
    for (q0, q1), fs in homs.items():
        for (r1, q2), gs in homs.items():
            if r1 != q1:
                continue
            for f in fs:
                for g in gs:
                    compose[(g, f)] = tri(cat.compose(g[1], f[1]), q0, q2)
    identities = {p: tri(cat.id(cat.src(p)), p, p) for p in objects}
    sl = FinCat(("slice", cat.kind, a), objects, homs, compose, identities)
    dom = FunctorData(
        source=sl,
        target=cat,
        obj_map={p: cat.src(p) for p in objects},
        mor_map={m: m[1] for ms in homs.values() for m in ms},
    )
    return sl, dom


def validate_functor(fd: FunctorData) -> Report:
    rep = Report("functor data")
    for m in fd.mor_map:
        src_img = fd.obj_map.get(fd.source.src(m))
        dst_img = fd.obj_map.get(fd.source.dst(m))
        fm = fd.mor_map[m]
        if fd.target.src(fm) != src_img or fd.target.dst(fm) != dst_img:
            rep.flag("typing", f"image of {m!r} mistyped")
    for a, e in fd.source.identities.items():
        if fd.mor_map.get(e) != fd.target.identities.get(fd.obj_map[a]):
            rep.flag("identity", f"identity of {a!r} not preserved")
    for (g, f), h in fd.source.compose_table.items():
        img = fd.target.compose_table.get((fd.mor_map[g], fd.mor_map[f]))
        if img != fd.mor_map.get(h):
            rep.flag("composition", f"composition not preserved at ({g!r}, {f!r})")
    return rep
