"""Sieves, Grothendieck coverages and sites on finite categories.

All three coverage axioms are decidable by exhaustive enumeration here:
a Coverage hands out the set of covering sieves per object, built the
first time it is read, and `validate_coverage` replays the axioms
against that table.  Both run on `SieveMasks`, which enumerates the
sieves of an object, pulls them back and generates them on ints;
`Sieve` objects are built only for the covers and least covers read,
so a model load, which reads neither, builds none.

A cover of the empty stage: the union criterion on a powerset admits the
empty sieve as a cover of the empty set.  We exclude it (a sieve must be
nonempty to cover), so that constant presheaves are sheaves and the
empty predicate is a valid subsheaf.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import comb
from operator import or_

from .errors import BudgetExceededError, CoverageKindError
from .fincat import FinCat, MonoidalStructure, bits
from .report import Report

SIEVE_ENUM_LIMIT = 20  # max morphisms into an object for SieveMasks.all
# the Dedekind numbers M(0..4): the down-sets of the subsets of an n-set,
# up to the powerset size bound
_DEDEKIND = (2, 3, 6, 20, 168)


@dataclass(frozen=True)
class Sieve:
    """A set of morphisms into `target`, closed under precomposition."""

    target: object
    members: frozenset

    def sorted_members(self):
        return tuple(sorted(self.members))


def _pull(table, m):
    """h*(S) = {g | h.g in S} on masks: `table` pairs the bit of h.g on
    dst(h) with the bit of g on src(h), for every g into src(h)."""
    out = 0
    for on_dst, on_src in table:
        if m & on_dst:
            out |= on_src
    return out


@dataclass(frozen=True)
class CoverSkeleton:
    """The site half of a cover, the same for every carrier: per member
    (j, k) with gens[j].k = member for the first such generator, and per
    generator its squares (k, h) with itself and (j, k, h) per square
    against each earlier generator gens[j]."""

    gens: tuple
    members: tuple  # in sorted order
    factors: tuple  # per member
    selves: tuple  # per generator
    joins: tuple  # per generator


class SieveMasks:
    """The sieves of `cat` as ints.  Bit i of a mask on `a` is the i-th
    morphism into `a` in sorted order, so the set bits read low to high
    are a sieve's `sorted_members`.  Tables are built on first use and
    live as long as the instance."""

    def __init__(self, cat: FinCat):
        self.cat = cat
        self._bit, self._pull, self._closure, self._all, self._through = {}, {}, {}, {}, {}
        self._skeleton = {}  # (a, mask) -> CoverSkeleton

    def bit(self, a):
        """Morphism into `a` -> its bit, in sorted order; empty for a non-object."""
        if a not in self._bit:
            into = self.cat.mors_into(a) if a in self.cat.objects else ()
            self._bit[a] = {f: 1 << i for i, f in enumerate(sorted(into))}
        return self._bit[a]

    def pull(self, h):
        if h not in self._pull:
            cat, on_dst = self.cat, self.bit(self.cat.dst(h))
            self._pull[h] = tuple(
                (on_dst[cat.compose(h, g)], on_src) for g, on_src in self.bit(cat.src(h)).items()
            )
        return self._pull[h]

    def closure(self, a):
        """Morphism f into `a` -> the mask of the sieve it generates (every
        f.g), in sorted order."""
        if a not in self._closure:
            self._closure[a] = {f: reduce(or_, (on_dst for on_dst, _ in self.pull(f)))
                                for f in self.bit(a)}
        return self._closure[a]

    def generators(self, a, m):
        """The members of the sieve m on `a` that factor through no other
        member, in sorted order; every member if those miss some."""
        bit, closure = self.bit(a), self.closure(a)
        members = self.sorted_members(a, m)
        gens = [f for f in members
                if not any(g != f and closure[g] & bit[f] for g in members)]
        reach = 0
        for g in gens:
            reach |= closure[g]
        return tuple(gens) if not m & ~reach else members

    def factor(self, g, f):
        """The first k in sorted order with g.k = f; f must factor through g."""
        through = self._through.get(g)
        if through is None:
            through = {}
            for k, (on_dst, _) in zip(self.bit(self.cat.src(g)), self.pull(g)):
                through.setdefault(on_dst, k)
            self._through[g] = through  # once whole: a request cut short keeps no part
        return through[self.bit(self.cat.dst(g))[f]]

    def skeleton(self, a, m) -> CoverSkeleton:
        """The site half of the cover m on `a`, built on first use: at
        most one per cover of the site, whatever the carriers read it."""
        sk = self._skeleton.get((a, m))
        if sk is None:
            cat, bit, closure = self.cat, self.bit(a), self.closure(a)
            gens, members = self.generators(a, m), self.sorted_members(a, m)
            reach, factors = [closure[g] for g in gens], []
            for f in members:
                j = [r & bit[f] != 0 for r in reach].index(True)  # no generator to finalise
                factors.append((j, self.factor(gens[j], f)))
            selves = tuple(tuple(cat.squares(g, g)) for g in gens)
            joins = tuple(tuple((j, k, h) for j in range(i) for k, h in cat.squares(g, gens[j]))
                          for i, g in enumerate(gens))
            sk = CoverSkeleton(gens, members, tuple(factors), selves, joins)
            self._skeleton[(a, m)] = sk  # once whole: a request cut short keeps no part
        return sk

    def mask(self, a, members):
        """The bits of the members that target `a`; the others are dropped,
        so the mask is exact iff its popcount is len(members)."""
        bit = self.bit(a)
        return sum(bit.get(f, 0) for f in members)

    def is_sieve(self, s: Sieve) -> bool:
        m, closure = self.mask(s.target, s.members), self.closure(s.target)
        exact = m.bit_count() == len(s.members)
        return exact and all(closure[f] | m == m for f in s.members)

    def sorted_members(self, a, m):
        return tuple(f for f, on_a in self.bit(a).items() if m & on_a)

    def sieve(self, a, m) -> Sieve:
        return Sieve(a, frozenset(self.sorted_members(a, m)))

    def all(self, a):
        """Every sieve on `a`, ordered by size and then sorted members:
        the unions of the sieves its morphisms generate."""
        if a not in self._all:
            closure = self.closure(a)
            if len(closure) > SIEVE_ENUM_LIMIT:
                raise BudgetExceededError(
                    f"{len(closure)} morphisms into {a!r} exceed the sieve enumeration limit",
                    size=len(closure),
                )
            found, frontier = {0}, [0]
            while frontier:
                m = frontier.pop()
                for c in closure.values():
                    if m | c not in found:
                        found.add(m | c)
                        frontier.append(m | c)
            self._all[a] = sorted(found, key=lambda m: (m.bit_count(), bits(m)))
        return self._all[a]


def sieve_masks(cat: FinCat) -> SieveMasks:
    """The one `SieveMasks` of `cat`, shared by its coverages and by the
    presheaves' covers, and kept on the category."""
    sm = getattr(cat, "_sieve_masks", None)
    if sm is None:
        sm = cat._sieve_masks = SieveMasks(cat)
    return sm


class Coverage:
    """Assignment object -> set of covering sieves.

    `covers` gives an object's covering sieves: a mapping, whose sieves
    are sorted into `covers` order, or a function `covers(a)` giving them
    in that order.  Either is read for an object the first time its
    covers are, and `by_object` when it is read.  `least(a)`, when given,
    is the least cover in closed form; otherwise `min_cover` intersects
    the covers.  `count(a)`, when given, is the number of covers in
    closed form; otherwise `count` builds them."""

    def __init__(self, cat: FinCat, covers, notes=(), least=None, count=None):
        self.cat = cat
        self.notes = tuple(notes)
        self._covers_of = covers if callable(covers) else _listed(covers)
        self._least_of, self._count_of = least, count
        self._covers, self._least, self._by_object = {}, {}, None

    @property
    def by_object(self):
        if self._by_object is None:
            self._by_object = {a: frozenset(self.covers(a)) for a in self.cat.objects}
        return self._by_object

    def covers(self, a) -> tuple:
        covers = self._covers.get(a)
        if covers is None:
            self.cat.require_object(a)
            covers = self._covers[a] = tuple(self._covers_of(a))
        return covers

    def count(self, a) -> int:
        """The number of covering sieves of `a`."""
        if self._count_of is None:
            return len(self.covers(a))
        self.cat.require_object(a)
        return self._count_of(a)

    def min_cover(self, a) -> Sieve:
        """The least covering sieve (covers are closed under intersection),
        computed on the first call for each object."""
        least = self._least.get(a)
        if least is None:
            self.cat.require_object(a)
            if self._least_of is None:
                members = frozenset(self.cat.mors_into(a))
                least = Sieve(a, members.intersection(*(s.members for s in self.covers(a))))
            else:
                least = self._least_of(a)
            self._least[a] = least
        return least

    def __repr__(self):
        total = sum(len(v) for v in self.by_object.values())
        return f"Coverage(objects={len(self.cat.objects)}, sieves={total})"


def _listed(by_object):
    """The covers function of a mapping object -> covering sieves."""
    given = {a: frozenset(ss) for a, ss in by_object.items()}
    return lambda a: sorted(given.get(a, ()), key=lambda s: (len(s.members), s.sorted_members()))


@dataclass
class Site:
    """A finite category with a coverage and optional monoidal structure."""

    cat: FinCat
    cov: Coverage
    monoidal: MonoidalStructure | None = None


# -- coverage builders --------------------------------------------------


def build_coverage(cat: FinCat, kind: str) -> Coverage:
    """One of the three built-in coverages, whose covers are built on
    first read.

    downward-closed  on a powerset: a nonempty sieve covers iff its
                     sources have the target as least upper bound, that
                     is iff the OR of their location masks is the
                     target's (their union is the target).
    finite-covers    downward closures of finite pre-covers; on a finite
                     base this coincides with downward-closed and the
                     coincidence is recorded in the coverage notes.
    atomic           every nonempty sieve covers; requires every cospan
                     to be completable (checked, witness reported).

    Both are coverages, so the axioms are not replayed here (check-site
    replays them).  On the powerset the lub criterion is one: the
    maximal sieve covers; it is stable along b -> a, as b = b & (union of
    S) = union of (b & s) over s in S; and a sieve that pulls back to a
    cover of every s in a cover S has sources with union a.  Its least
    cover at a is the sieve of
    the morphisms from stages of at most one location: the one the
    singleton inclusions generate, and the maximal sieve at ().  It
    covers, and every cover contains it, since a cover of a nonempty a
    has, for each x in a, a member whose source holds x, through which
    {x} -> a factors.  Its covers of a stage of n locations number
    sum_k (-1)^k C(n, k) M(n - k), less 1 at n = 0, M the Dedekind
    numbers: a sieve on a is a down-set of a's subsets, those whose union
    misses k given locations are the down-sets of the subsets of the
    other n - k, and the empty down-set covers only the empty stage
    (`_lub_cover_count`).  "Every nonempty sieve" is stable exactly
    when cospans complete (h*(S) is nonempty iff h and some member of S
    have a commuting span), and it is always maximal and transitive;
    its least cover is the intersection of its covers.
    """
    sm = sieve_masks(cat)
    if kind in ("downward-closed", "finite-covers"):
        if cat.kind != "powerset":
            raise CoverageKindError(f"{kind} coverage requires a powerset base, got {cat.kind!r}")

        def covers(a):
            sources = [f[0] for f in sm.bit(a)]
            return [sm.sieve(a, m) for m in sm.all(a)
                    if m and reduce(or_, (sources[i] for i in bits(m))) == a]

        def least(a):
            return sm.sieve(a, sum(on_a for f, on_a in sm.bit(a).items() if f[0].bit_count() <= 1))

        notes = [f"covering = nonempty sieve whose sources have lub equal to the stage ({kind})"]
        if kind == "finite-covers":
            notes.append(
                "on a finite base every covering sieve is the downward closure of a "
                "finite pre-cover, so finite-covers coincides with downward-closed"
            )
        return Coverage(cat, covers, notes, least, lambda a: _lub_cover_count(a.bit_count()))
    if kind == "atomic":
        for f in cat.all_morphisms():  # every cospan must have a commuting span
            for h in cat.mors_into(cat.dst(f)):
                if not cat.squares(h, f):
                    raise CoverageKindError(
                        f"atomic coverage invalid: cospan ({f!r}, {h!r}) admits no "
                        "completion inside the size bound"
                    )
        # the empty sieve sorts first
        return Coverage(cat, lambda a: [sm.sieve(a, m) for m in sm.all(a)[1:]],
                        ("covering = nonempty sieve (atomic)",))
    raise CoverageKindError(f"unknown coverage kind {kind!r}")


def _lub_cover_count(n):
    """The number of lub covers of a stage of n <= 4 locations, by
    inclusion-exclusion over the locations their sources' union misses
    (see `build_coverage`)."""
    return sum((-1) ** k * comb(n, k) * _DEDEKIND[n - k] for k in range(n + 1)) - (n == 0)


def validate_coverage(cat: FinCat, cov: Coverage) -> Report:
    """Replay maximality, stability and transitivity exhaustively.  A
    sieve tested for transitivity is pulled back at most once per
    morphism."""
    rep = Report("coverage axioms")
    sm = sieve_masks(cat)
    for a in cat.objects:
        for s in cov.by_object.get(a, ()):
            if s.target != a:
                rep.flag("typing", f"sieve on {s.target!r} filed under {a!r}")
            if not sm.is_sieve(s):
                rep.flag("typing", f"member set on {a!r} is not a sieve: {s.sorted_members()!r}")
    # a sieve filed under the wrong object is a typing fault, not a cover
    filed, exact = {}, {}  # exact: masks that drop no member
    for a in cat.objects:
        filed[a] = [(s, sm.mask(a, s.members)) for s in cov.covers(a) if s.target == a]
        exact[a] = {m for s, m in filed[a] if m.bit_count() == len(s.members)}
        if (1 << len(sm.bit(a))) - 1 not in exact[a]:
            rep.flag("maximality", f"maximal sieve missing at {a!r}")
    for a in cat.objects:
        legs = [(h, cat.src(h), sm.pull(h)) for h in cat.mors_into(a)]
        for s, m in filed[a]:
            for h, b, table in legs:
                if _pull(table, m) not in exact[b]:
                    rep.flag("stability",
                             f"pullback of {s.sorted_members()!r} along {h!r} is not covering")
    for a in cat.objects:
        legs = [(cat.src(f), sm.pull(f)) for f in sm.bit(a)]
        for r in sm.all(a):
            if r in exact[a]:
                continue
            good = bad = 0  # the legs along which r is known to pull back to a cover, or not
            for s, m in filed[a]:
                # walk the members of s low to high until one is not good
                rest = m & ~good
                while rest and not rest & -rest & bad:
                    low = rest & -rest
                    b, table = legs[low.bit_length() - 1]
                    if _pull(table, r) in exact[b]:
                        good |= low
                        rest ^= low
                    else:
                        bad |= low
                if not rest:
                    rep.flag("transitivity",
                             f"sieve {sm.sorted_members(a, r)!r} on {a!r} is locally covering "
                             f"via {s.sorted_members()!r} but not covering")
                    break
    return rep
