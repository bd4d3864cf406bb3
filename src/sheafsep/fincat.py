"""Finite categories with explicit hom-sets and composition tables.

Objects and morphisms are interned identifiers (ints and tuples), so
every structure is hashable and iterates in a fixed order:

  powerset base:  location masks, and `Incl` pairs (src_mask, dst_mask)
  finsurj base:   sizes n, and ("surj", n, m, values), values[i] = f(i+1)

The built-in bases are small enough that every law is checked by
exhaustive enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

from .errors import (
    CompositionError,
    SizeBoundError,
    TensorUndefinedError,
    UnknownObjectError,
)
from .report import Report

POWERSET_SIZE_BOUND = 4
FINSURJ_SIZE_BOUND = 4


class FinCat:
    """A finite category given by explicit data.

    homs maps (src, dst) pairs to tuples of morphism ids; compose is the
    full table of defined composites keyed by (g, f) with dst(f) = src(g).
    Immutable after construction.
    """

    def __init__(self, kind, objects, homs, compose, identities):
        self.kind = kind
        self.objects = tuple(objects)
        self._obj_index = {a: i for i, a in enumerate(self.objects)}
        self.homs = {pair: tuple(ms) for pair, ms in homs.items() if ms}
        self.compose_table = dict(compose)
        self.identities = dict(identities)
        self._src = {}
        self._dst = {}
        for (a, b), ms in self.homs.items():
            for m in ms:
                self._src[m] = a
                self._dst[m] = b
        self._into = {
            a: tuple(m for b in self.objects for m in self.homs.get((b, a), ()))
            for a in self.objects
        }
        self._from = {
            a: tuple(m for b in self.objects for m in self.homs.get((a, b), ()))
            for a in self.objects
        }
        self.thin = all(len(ms) <= 1 for ms in self.homs.values())

    @cached_property
    def thin_composition(self) -> bool:
        """Thin, and each composable pair composes to a morphism between
        the right ends: the category's half of the thinness lemma's
        premise (`_tensor_typed`)."""
        return self.thin and all(
            self.compose_table.get((g, f)) in self.hom(self._src[f], self._dst[g])
            for f, b in self._dst.items()
            for g in self._from[b]
        )

    # -- basic accessors ------------------------------------------------

    def require_object(self, a):
        if a not in self._obj_index:
            raise UnknownObjectError(f"unknown object {a!r}")

    def hom(self, a, b):
        return self.homs.get((a, b), ())

    def src(self, f):
        return self._src[f]

    def dst(self, f):
        return self._dst[f]

    def id(self, a):
        self.require_object(a)
        return self.identities[a]

    def is_identity(self, f) -> bool:
        return self.identities.get(self._src[f]) == f

    def compose(self, g, f):
        """Composite g.f; raises unless dst(f) = src(g)."""
        if self._dst[f] != self._src[g]:
            raise CompositionError(f"cannot compose {g!r} after {f!r}")
        try:
            return self.compose_table[(g, f)]
        except KeyError:
            raise CompositionError(f"composite missing for ({g!r}, {f!r})") from None

    def mors_into(self, a):
        """All morphisms with dst = a, in construction order."""
        self.require_object(a)
        return self._into[a]

    def mors_from(self, a):
        """All morphisms with src = a, in construction order."""
        self.require_object(a)
        return self._from[a]

    def all_morphisms(self):
        for a in self.objects:
            yield from self._into[a]

    def factorisations(self, f, g):
        """Every k: src(f) -> src(g) with g.k = f, in hom order."""
        return [k for k in self.hom(self.src(f), self.src(g)) if self.compose(g, k) == f]

    def squares(self, f, g):
        """Every (k, h) with f.k = g.h: the commuting squares on a cospan."""
        return [
            (k, h)
            for k in self._into[self.src(f)]
            for h in self.factorisations(self.compose(f, k), g)
        ]

    def __repr__(self):
        n_mor = sum(len(ms) for ms in self.homs.values())
        return f"FinCat(kind={self.kind!r}, objects={len(self.objects)}, morphisms={n_mor})"


@dataclass(frozen=True)
class MonoidalStructure:
    """(Possibly partial) tensor on a FinCat; strict for the built-in posets.

    The tensor on morphisms is given as a dict, or as a function of no
    arguments that builds it; `tensor_mor` then builds it on first read.
    `memo` holds tables derived from the tensor, such as the splittings.
    """

    tensor_obj: dict = field(hash=False)
    tensor_mors: object = field(hash=False, repr=False)
    unit: object = None
    symmetric: bool = False
    memo: dict = field(default_factory=dict, hash=False, compare=False, repr=False)

    @cached_property
    def tensor_mor(self) -> dict:
        mors = self.tensor_mors
        return mors() if callable(mors) else mors

    def tensor(self, a, b):
        try:
            return self.tensor_obj[(a, b)]
        except KeyError:
            raise TensorUndefinedError(f"tensor undefined on ({a!r}, {b!r})") from None

    def tensor_defined(self, a, b) -> bool:
        return (a, b) in self.tensor_obj

    def tensor_m(self, f, g):
        try:
            return self.tensor_mor[(f, g)]
        except KeyError:
            raise TensorUndefinedError(f"tensor undefined on morphism pair ({f!r}, {g!r})") from None


# -- builders -----------------------------------------------------------


def bits(m):
    """Positions of the set bits of m, low to high."""
    return [i for i, c in enumerate(reversed(bin(m))) if c == "1"]


class Incl(tuple):
    """The inclusion src <= dst of two location masks, as the pair (src,
    dst).  It sorts as the location tuples the masks stand for, by their
    bit lists, source first: () < (x) < (x, y) < (y)."""

    __slots__ = ()

    def __lt__(self, other):
        return (bits(self[0]), bits(self[1])) < (bits(other[0]), bits(other[1]))


def build_powerset_category(n):
    """The powerset of n locations as a thin monoidal category.

    Objects are location masks, bit i the i-th location in sorted order,
    ordered by size and then bit lists, as the location tuples they stand
    for.  A unique inclusion a -> b exists iff a | b == b; the tensor is
    union (OR) with unit 0.
    """
    if n > POWERSET_SIZE_BOUND:
        raise SizeBoundError(f"{n} locations exceed the powerset bound {POWERSET_SIZE_BOUND}")
    objects = sorted(range(1 << n), key=lambda m: (m.bit_count(), bits(m)))
    above = {a: [b for b in objects if a | b == b] for a in objects}
    homs = {(a, b): (Incl((a, b)),) for a in objects for b in above[a]}
    compose = {(homs[b, c][0], homs[a, b][0]): homs[a, c][0]
               for a in objects for b in above[a] for c in above[b]}
    identities = {a: homs[a, a][0] for a in objects}
    cat = FinCat("powerset", objects, homs, compose, identities)
    tensor_obj = {(a, b): a | b for a in objects for b in objects}
    mors = [f for (f,) in homs.values()]

    def tensor_mor():
        # (3^n)^2 pairs, read only by the law checks and the coend
        return {(f, g): homs[f[0] | g[0], f[1] | g[1]][0] for f in mors for g in mors}

    mon = MonoidalStructure(tensor_obj, tensor_mor, unit=0, symmetric=True)
    return cat, mon


def surjections(n, m):
    """All surjective maps {1..n} -> {1..m} as value tuples, sorted."""
    if m > n:
        return []
    out = []
    for vals in product(range(1, m + 1), repeat=n):
        if len(set(vals)) == m:
            out.append(vals)
    return sorted(out)


def surj(n, m, vals):
    return ("surj", n, m, tuple(vals))


def build_finsurj_category(max_size):
    """Finite sets {1..n}, n <= max_size, with surjections; tensor = product.

    The tensor is partial: pairs whose product exceeds max_size are
    rejected, which keeps the category finite.
    """
    if not (1 <= max_size <= FINSURJ_SIZE_BOUND):
        raise SizeBoundError(f"max_size must be in 1..{FINSURJ_SIZE_BOUND}, got {max_size}")
    objects = tuple(range(1, max_size + 1))
    homs = {}
    for n in objects:
        for m in objects:
            ms = tuple(surj(n, m, v) for v in surjections(n, m))
            if ms:
                homs[(n, m)] = ms
    compose = {}
    for (n, m), fs in homs.items():
        for (m2, k), gs in homs.items():
            if m2 != m:
                continue
            for f in fs:
                for g in gs:
                    vals = tuple(g[3][f[3][i] - 1] for i in range(n))
                    compose[(g, f)] = surj(n, k, vals)
    identities = {n: surj(n, n, tuple(range(1, n + 1))) for n in objects}
    cat = FinCat("finsurj", objects, homs, compose, identities)

    tensor_obj = {}
    for n in objects:
        for m in objects:
            if n * m <= max_size:
                tensor_obj[(n, m)] = n * m
    tensor_mor = {}
    for (n, n2), fs in homs.items():
        for (m, m2), gs in homs.items():
            if (n, m) not in tensor_obj or (n2, m2) not in tensor_obj:
                continue
            for f in fs:
                for g in gs:
                    # code (i, j) in {1..n} x {1..m} as (i-1)*m + j
                    vals = []
                    for i in range(1, n + 1):
                        for j in range(1, m + 1):
                            vals.append((f[3][i - 1] - 1) * m2 + g[3][j - 1])
                    tensor_mor[(f, g)] = surj(n * m, n2 * m2, tuple(vals))
    mon = MonoidalStructure(tensor_obj, tensor_mor, unit=1, symmetric=False)
    return cat, mon


# -- validation ---------------------------------------------------------


def validate_category(cat: FinCat) -> Report:
    """Exhaustively check typing, identity and associativity laws."""
    rep = Report(f"category laws ({cat.kind!r})")
    for a in cat.objects:
        e = cat.identities.get(a)
        if e is None:
            rep.flag("identity", f"object {a!r} has no identity")
            continue
        if cat._src.get(e) != a or cat._dst.get(e) != a:
            rep.flag("typing", f"identity of {a!r} is mistyped: {e!r}")
    mors = list(cat.all_morphisms())
    for f in mors:
        a, b = cat.src(f), cat.dst(f)
        ef = cat.compose_table.get((f, cat.identities[a]))
        fe = cat.compose_table.get((cat.identities[b], f))
        if ef != f:
            rep.flag("identity", f"f.id != f for {f!r} (got {ef!r})")
        if fe != f:
            rep.flag("identity", f"id.f != f for {f!r} (got {fe!r})")
    for (g, f), h in cat.compose_table.items():
        if cat._dst.get(f) != cat._src.get(g):
            rep.flag("typing", f"composable pair mistyped: ({g!r}, {f!r})")
            continue
        if cat._src.get(h) != cat._src[f] or cat._dst.get(h) != cat._dst[g]:
            rep.flag("typing", f"compose({g!r}, {f!r}) = {h!r} has wrong endpoints")
    # associativity over all composable triples
    for f in mors:
        for g in cat.mors_from(cat.dst(f)):
            gf = cat.compose_table.get((g, f))
            if gf is None:
                rep.flag("typing", f"missing composite ({g!r}, {f!r})")
                continue
            for h in cat.mors_from(cat.dst(g)):
                hg = cat.compose_table.get((h, g))
                left = cat.compose_table.get((h, gf))
                right = cat.compose_table.get((hg, f)) if hg is not None else None
                if left != right:
                    rep.flag(
                        "associativity",
                        f"(h.g).f != h.(g.f) for f={f!r}, g={g!r}, h={h!r}",
                    )
    return rep


def validate_monoidal(cat: FinCat, mon: MonoidalStructure) -> Report:
    """Check functoriality of the (partial) tensor and strict unit laws.

    The tensor must have an entry for exactly the pairs (f, g) whose
    source and target tensors are defined ("definedness"), each a
    morphism src f (x) src g -> dst f (x) dst g ("typing").  On a thin
    base a tensor so typed is functorial (`_tensor_typed`); otherwise
    every composable quadruple is replayed for the report."""
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
    if not (_tensor_typed(rep, cat, mon) and cat.thin_composition):
        _replay_tensor_functoriality(rep, cat, mon)
    return rep


def _tensor_typed(rep, cat: FinCat, mon: MonoidalStructure) -> bool:
    """The thinness lemma's premise on the tensor's side, flagged where it
    fails: an entry for every pair (f, g) whose ends have tensors, typed
    between them, and no other entry.  On a base with `thin_composition`
    a tensor so typed preserves composition: both sides of the law are
    morphisms between the same two objects, and a thin category has at
    most one."""
    tensor, table, flagged = mon.tensor_obj, mon.tensor_mor, len(rep.violations)
    seen = 0
    for (a, b), fs in cat.homs.items():
        for (c, d), gs in cat.homs.items():
            if (a, c) not in tensor or (b, d) not in tensor:
                continue
            ends = cat.hom(tensor[a, c], tensor[b, d])
            for f in fs:
                for g in gs:
                    fg = table.get((f, g))
                    if fg is None:
                        rep.flag("definedness", f"tensor missing on ({f!r}, {g!r})")
                        continue
                    seen += 1
                    if fg not in ends:
                        rep.flag("typing", f"{f!r} tensor {g!r} = {fg!r} is not a morphism "
                                           f"{tensor[a, c]!r} -> {tensor[b, d]!r}")
    if seen < len(table):  # some entry lies outside the pairs above
        src, dst = cat._src, cat._dst
        for f, g in table:
            if (src.get(f), src.get(g)) not in tensor or (dst.get(f), dst.get(g)) not in tensor:
                rep.flag("definedness", f"tensor on ({f!r}, {g!r}), whose ends have no tensor")
    return len(rep.violations) == flagged


def _replay_tensor_functoriality(rep, cat: FinCat, mon: MonoidalStructure):
    """(f2.f) (x) (g2.g) = (f2 (x) g2).(f (x) g) on every composable quadruple."""
    for (f, g), fg in mon.tensor_mor.items():
        if f not in cat._dst or g not in cat._dst:
            continue  # not a pair of morphisms: flagged by `_tensor_typed`
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

