"""Sieves, Grothendieck coverages and sites on finite categories.

All three coverage axioms are decidable by exhaustive enumeration here,
so a Coverage literally stores the set of covering sieves per object and
`validate_coverage` replays the axioms against that table.

A cover of the empty stage: the union criterion on a powerset admits the
empty sieve as a cover of the empty set.  We exclude it (a sieve must be
nonempty to cover), so that constant presheaves are sheaves and the
empty predicate is a valid subsheaf.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    BudgetExceededError,
    CoverageKindError,
    PreCoverageError,
    UnknownObjectError,
)
from .fincat import FinCat, MonoidalStructure, slice_category
from .report import Report

SIEVE_ENUM_LIMIT = 20  # max morphisms-into-object for all_sieves enumeration


@dataclass(frozen=True)
class Sieve:
    """A set of morphisms into `target`, closed under precomposition."""

    target: object
    members: frozenset

    def sorted_members(self):
        return tuple(sorted(self.members))

    def sort_key(self):
        return (self.target, self.sorted_members())


@dataclass(frozen=True)
class PreCover:
    """An arbitrary family of morphisms into `target` (not yet a sieve)."""

    target: object
    family: frozenset

    def sorted_family(self):
        return tuple(sorted(self.family))


def maximal_sieve(cat: FinCat, a) -> Sieve:
    return Sieve(a, frozenset(cat.mors_into(a)))


def generate_sieve(cat: FinCat, target, generators) -> Sieve:
    """Close a family of morphisms into `target` under precomposition."""
    members = set()
    frontier = list(generators)
    for f in frontier:
        if cat.dst(f) != target:
            raise UnknownObjectError(f"generator {f!r} does not target {target!r}")
    while frontier:
        f = frontier.pop()
        if f in members:
            continue
        members.add(f)
        for k in cat.mors_into(cat.src(f)):
            fk = cat.compose(f, k)
            if fk not in members:
                frontier.append(fk)
    return Sieve(target, frozenset(members))


def is_sieve(cat: FinCat, s: Sieve) -> bool:
    for f in s.members:
        if cat.dst(f) != s.target:
            return False
        for k in cat.mors_into(cat.src(f)):
            if cat.compose(f, k) not in s.members:
                return False
    return True


def pullback_sieve(cat: FinCat, s: Sieve, h) -> Sieve:
    """h*(S) = {g | h.g in S}, a sieve on src(h)."""
    if cat.dst(h) != s.target:
        raise UnknownObjectError(
            f"cannot pull back a sieve on {s.target!r} along {h!r}"
        )
    b = cat.src(h)
    members = frozenset(g for g in cat.mors_into(b) if cat.compose(h, g) in s.members)
    return Sieve(b, members)


def all_sieves(cat: FinCat, a) -> list[Sieve]:
    """Every sieve on `a`: the subsets of the morphisms into a that are
    closed under precomposition, grown one morphism at a time."""
    mors = cat.mors_into(a)
    if len(mors) > SIEVE_ENUM_LIMIT:
        raise BudgetExceededError(
            f"{len(mors)} morphisms into {a!r} exceed the sieve enumeration limit",
            size=len(mors),
        )
    # bit j of closure[i] is set when mors[j] = mors[i].k for some k
    pos = {f: i for i, f in enumerate(mors)}
    closure = [0] * len(mors)
    for i, f in enumerate(mors):
        for k in cat.mors_into(cat.src(f)):
            closure[i] |= 1 << pos[cat.compose(f, k)]
    masks = []

    def grow(i, chosen, refused):
        # decide mors[i]: kept when forced by an earlier choice, otherwise
        # refused, or chosen together with its closure if that refuses nothing
        if i == len(mors):
            masks.append(chosen)
        elif chosen >> i & 1:
            grow(i + 1, chosen, refused)
        else:
            grow(i + 1, chosen, refused | 1 << i)
            if not closure[i] & refused:
                grow(i + 1, chosen | closure[i], refused)

    grow(0, 0, 0)
    out = [
        Sieve(a, frozenset(f for i, f in enumerate(mors) if m >> i & 1)) for m in masks
    ]
    return sorted(out, key=lambda s: (len(s.members), s.sorted_members()))


class Coverage:
    """Assignment object -> set of covering sieves, stored explicitly."""

    def __init__(self, cat: FinCat, by_object, notes=()):
        self.cat = cat
        self.by_object = {a: frozenset(by_object.get(a, ())) for a in cat.objects}
        self.notes = tuple(notes)
        self._sorted = {
            a: tuple(sorted(ss, key=lambda s: (len(s.members), s.sorted_members())))
            for a, ss in self.by_object.items()
        }

    def covers(self, a) -> tuple:
        self.cat.require_object(a)
        return self._sorted[a]

    def is_cover(self, s: Sieve) -> bool:
        return s in self.by_object.get(s.target, frozenset())

    def min_cover(self, a) -> Sieve:
        """The least covering sieve (covers are closed under intersection)."""
        covers = self.covers(a)
        members = frozenset(self.cat.mors_into(a))
        for s in covers:
            members &= s.members
        return Sieve(a, members)

    def __repr__(self):
        total = sum(len(v) for v in self.by_object.values())
        return f"Coverage(objects={len(self.by_object)}, sieves={total})"


@dataclass
class Site:
    """A finite category with a coverage and optional monoidal structure."""

    cat: FinCat
    cov: Coverage
    monoidal: MonoidalStructure | None = None
    _slice_cache: dict = field(default_factory=dict, repr=False)

    def slice(self, a):
        """Cached (slice category, dom functor, slice coverage) at a."""
        if a not in self._slice_cache:
            sl, dom = slice_category(self.cat, a)
            scov = slice_coverage(self.cov, a, prebuilt=(sl, dom))
            self._slice_cache[a] = (sl, dom, scov)
        return self._slice_cache[a]


# -- poset helpers ------------------------------------------------------


def _leq(cat: FinCat, a, b) -> bool:
    return bool(cat.hom(a, b))


def _is_poset(cat: FinCat) -> bool:
    if not cat.thin:
        return False
    for a in cat.objects:
        for b in cat.objects:
            if a != b and _leq(cat, a, b) and _leq(cat, b, a):
                return False
    return True


def _lub(cat: FinCat, parts) -> object | None:
    """Least upper bound of a set of objects in a finite poset, if any."""
    uppers = [
        u
        for u in cat.objects
        if all(_leq(cat, p, u) for p in parts)
    ]
    least = [u for u in uppers if all(_leq(cat, u, v) for v in uppers)]
    return least[0] if least else None


# -- coverage builders --------------------------------------------------


def build_coverage(cat: FinCat, kind: str) -> Coverage:
    """One of the three built-in coverages.

    downward-closed  on a poset: a nonempty sieve covers iff its sources
                     have the target as least upper bound (on a powerset:
                     the union of the sources is the target).
    finite-covers    downward closures of finite pre-covers; on a finite
                     base this coincides with downward-closed and the
                     coincidence is recorded in the coverage notes.
    atomic           every nonempty sieve covers; requires every cospan
                     to be completable (checked, witness reported).
    """
    if kind in ("downward-closed", "finite-covers"):
        if not _is_poset(cat):
            raise CoverageKindError(f"{kind} coverage requires a poset base, got {cat.kind!r}")
        by_object = {}
        for a in cat.objects:
            covering = []
            for s in all_sieves(cat, a):
                if not s.members:
                    continue
                srcs = {cat.src(f) for f in s.members}
                if _lub(cat, srcs) == a:
                    covering.append(s)
            by_object[a] = covering
        notes = [f"covering = nonempty sieve whose sources have lub equal to the stage ({kind})"]
        if kind == "finite-covers":
            notes.append(
                "on a finite base every covering sieve is the downward closure of a "
                "finite pre-cover, so finite-covers coincides with downward-closed"
            )
        cov = Coverage(cat, by_object, notes)
    elif kind == "atomic":
        witness = _cospan_completion_failure(cat)
        if witness is not None:
            f, h = witness
            raise CoverageKindError(
                "atomic coverage invalid: cospan "
                f"({f!r}, {h!r}) admits no completion inside the size bound"
            )
        by_object = {
            a: [s for s in all_sieves(cat, a) if s.members] for a in cat.objects
        }
        cov = Coverage(cat, by_object, ("covering = nonempty sieve (atomic)",))
    else:
        raise CoverageKindError(f"unknown coverage kind {kind!r}")
    rep = validate_coverage(cat, cov)
    if not rep.ok:
        raise CoverageKindError(
            f"{kind} coverage fails the saturation axioms on this base: "
            + "; ".join(str(v) for v in rep.violations[:3])
        )
    return cov


def _cospan_completion_failure(cat: FinCat):
    """First cospan (f, h) with common target admitting no commuting span."""
    for f in cat.all_morphisms():
        for h in cat.mors_into(cat.dst(f)):
            if not cat.squares(h, f):
                return (f, h)
    return None


def _forced_sieves(cat: FinCat, covers, is_cover):
    """Sieves that stability and transitivity force in but `is_cover`
    lacks, as (axiom, sieve, cover, h): the pullback of `cover` along h,
    or a sieve that is locally covering via `cover` (h is None).
    `covers(a)` lists the covering sieves on a and is read anew for every
    sieve tested, so a caller that adds each yielded sieve sweeps the
    enlarged coverage.  Pullbacks do not depend on the coverage, so a
    sieve tested for transitivity is pulled back once per morphism."""
    for a in cat.objects:
        for s in covers(a):
            for h in cat.mors_into(a):
                pb = pullback_sieve(cat, s, h)
                if not is_cover(pb):
                    yield "stability", pb, s, h
    for a in cat.objects:
        for r in all_sieves(cat, a):
            if is_cover(r):
                continue
            covered = {}  # h -> whether r pulls back along h to a cover
            for s in covers(a):
                for h in s.sorted_members():
                    if h not in covered:
                        covered[h] = is_cover(pullback_sieve(cat, r, h))
                    if not covered[h]:
                        break
                else:
                    yield "transitivity", r, s, None
                    break


def validate_coverage(cat: FinCat, cov: Coverage) -> Report:
    """Replay maximality, stability and transitivity exhaustively."""
    rep = Report("coverage axioms")
    for a in cat.objects:
        for s in cov.by_object.get(a, ()):
            if s.target != a:
                rep.flag("typing", f"sieve on {s.target!r} filed under {a!r}")
            if not is_sieve(cat, s):
                rep.flag("typing", f"member set on {a!r} is not a sieve: {s.sorted_members()!r}")
    for a in cat.objects:
        if maximal_sieve(cat, a) not in cov.by_object.get(a, frozenset()):
            rep.flag("maximality", f"maximal sieve missing at {a!r}")
    # a sieve filed under the wrong object is a typing fault, not a cover
    filed = {a: [s for s in cov.covers(a) if s.target == a] for a in cat.objects}
    for axiom, r, s, h in _forced_sieves(cat, filed.__getitem__, cov.is_cover):
        if axiom == "stability":
            rep.flag(axiom, f"pullback of {s.sorted_members()!r} along {h!r} is not covering")
        else:
            rep.flag(
                axiom,
                f"sieve {r.sorted_members()!r} on {r.target!r} is locally covering "
                f"via {s.sorted_members()!r} but not covering",
            )
    return rep


# -- pre-coverages and saturation ---------------------------------------


def _identity_precover(cat: FinCat, a) -> PreCover:
    return PreCover(a, frozenset({cat.id(a)}))


def saturate_precoverage(cat: FinCat, assignment) -> Coverage:
    """Least Grothendieck coverage containing the given pre-covers.

    The pre-coverage condition is checked first (identity pre-covers are
    admitted implicitly as refinements); the result is the fixpoint of
    the three saturation axioms over the finite sieve lattice.
    """
    assignment = {a: tuple(assignment.get(a, ())) for a in cat.objects}
    # pre-coverage condition
    for a in cat.objects:
        for pc in assignment[a]:
            if pc.target != a:
                raise PreCoverageError(
                    f"pre-cover on {pc.target!r} filed under {a!r}", precover=pc
                )
            for h in cat.mors_into(a):
                b = cat.src(h)
                candidates = list(assignment[b]) + [_identity_precover(cat, b)]
                if not any(
                    all(
                        any(cat.factorisations(cat.compose(h, g), f) for f in pc.family)
                        for g in g_fam.family
                    )
                    for g_fam in candidates
                ):
                    raise PreCoverageError(
                        f"pre-coverage condition fails for pre-cover "
                        f"{pc.sorted_family()!r} along {h!r}",
                        precover=pc,
                        morphism=h,
                    )
    sieves = {a: {maximal_sieve(cat, a)} for a in cat.objects}
    for a in cat.objects:
        sieves[a].update(generate_sieve(cat, a, pc.family) for pc in assignment[a])
    changed = True
    while changed:
        changed = False
        for _, r, _, _ in _forced_sieves(
            cat, lambda a: list(sieves[a]), lambda s: s in sieves[s.target]
        ):
            sieves[r.target].add(r)
            changed = True
    return Coverage(cat, sieves, ("saturation of a pre-coverage",))


def trivial_coverage(cat: FinCat) -> Coverage:
    """Only maximal sieves cover; the saturation of the empty assignment."""
    return Coverage(
        cat,
        {a: [maximal_sieve(cat, a)] for a in cat.objects},
        ("covering = maximal sieve only",),
    )


# -- slice coverages ----------------------------------------------------


def slice_coverage(cov: Coverage, a, prebuilt=None) -> Coverage:
    """Coverage induced on cat/a: a slice sieve covers iff its image
    under the domain functor is covering in the base."""
    cat = cov.cat
    cat.require_object(a)
    sl, dom = prebuilt if prebuilt is not None else slice_category(cat, a)
    by_object = {}
    for p in sl.objects:
        covering = []
        for s in all_sieves(sl, p):
            base_members = frozenset(dom.on_mor(m) for m in s.members)
            base_sieve = Sieve(cat.src(p), base_members)
            if cov.is_cover(base_sieve):
                covering.append(s)
        by_object[p] = covering
    return Coverage(sl, by_object, (f"slice coverage over {a!r}",))
