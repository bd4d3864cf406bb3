"""Stage-indexed predicates on a resource sheaf with Heyting structure.

A predicate at stage A assigns to every slice object p: B -> A a subset
of F(B).  Genuine subsheaf predicates are restriction-closed and locally
closed; both conditions are checked by validators rather than enforced
at construction, because the allocated points-to atom deliberately
breaks restriction-closure (its family is empty at stages missing the
location) and the bottom predicate is empty everywhere.

join and direct_image close their pointwise result under restriction
and iterated amalgamation to a fixpoint: the pointwise union or image
of subsheaves need not be a subsheaf, and the closure is the least one
containing it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    IncompatibleFamilyError,
    MonoidalStructureError,
    NaturalityError,
    StageMismatchError,
    UnknownObjectError,
)
from .presheaf import Presheaf, SheafMorphism, validate_sheaf_morphism
from .report import Report
from .site import Sieve, Site, pullback_sieve


@dataclass
class KripkePredicate:
    """A family over the slice objects of `stage`, valued in subsets of
    the resource's stages."""

    resource: Presheaf
    site: Site
    stage: object
    family: dict  # slice object (morphism into stage) -> frozenset

    def __post_init__(self):
        slice_objs = self.site.cat.mors_into(self.stage)
        missing = set(slice_objs) - set(self.family)
        if missing:
            raise UnknownObjectError(f"family missing slice objects {sorted(missing)!r}")
        self.family = {p: frozenset(self.family[p]) for p in slice_objs}

    def at(self, p) -> frozenset:
        return self.family[p]

    def at_subset(self, v) -> frozenset:
        """Poset convenience: the set at the inclusion of v into the stage."""
        homs = self.site.cat.hom(v, self.stage)
        if not homs:
            raise UnknownObjectError(f"{v!r} is not below stage {self.stage!r}")
        return self.family[homs[0]]

    def __eq__(self, other):
        return (
            isinstance(other, KripkePredicate)
            and self.resource is other.resource
            and self.stage == other.stage
            and self.family == other.family
        )

    def issubset(self, other) -> bool:
        _check_aligned(self, other)
        return all(self.family[p] <= other.family[p] for p in self.family)


def _check_aligned(p: KripkePredicate, q: KripkePredicate):
    if p.resource is not q.resource or p.stage != q.stage:
        raise StageMismatchError("predicates live over different resources or stages")


def _forced(resource, site, stage, fam):
    """What restriction-closure and local character force into `fam` but
    it lacks, as (kind, p, x, q, y): the element y belongs at slice
    object q because of x at p (for local character, p = q and x = y).

    The family is read live, so a caller that adds each y at q as it is
    yielded sweeps the enlarged family; each local-character pair is
    yielded once.
    """
    cat = site.cat
    slice_cat, dom, scov = site.slice(stage)
    for p in fam:
        for m in slice_cat.mors_into(p):
            q, k = slice_cat.src(m), dom.on_mor(m)
            for x in list(fam[p]):
                rx = resource.restrict(k, x)
                if rx not in fam[q]:
                    yield "restriction", p, x, q, rx
    for p in fam:
        missing = dict.fromkeys(a for a in resource.at(cat.src(p)) if a not in fam[p])
        for s in scov.covers(p):
            legs = [(k, cat.compose(p, k)) for k in map(dom.on_mor, s.members)]
            for a in list(missing):
                if all(resource.restrict(k, a) in fam[pk] for k, pk in legs):
                    del missing[a]
                    yield "local-character", p, a, p, a


def validate_predicate(pred: KripkePredicate) -> Report:
    rep = Report("predicate subsheaf conditions")
    for kind, p, x, q, _ in _forced(pred.resource, pred.site, pred.stage, pred.family):
        if kind == "restriction":
            rep.flag(kind, f"{x} at {p!r} does not restrict into {q!r}")
        else:
            rep.flag(kind, f"{x} is locally present at {p!r} but missing")
    return rep


def _close(resource, site, stage, family):
    """Least restriction-closed, locally-closed family containing `family`."""
    fam = {p: set(xs) for p, xs in family.items()}
    changed = True
    while changed:
        changed = False
        for _, _, _, q, y in _forced(resource, site, stage, fam):
            fam[q].add(y)
            changed = True
    return {p: frozenset(xs) for p, xs in fam.items()}


# -- lattice structure ------------------------------------------------------


def top_predicate(resource, site, stage) -> KripkePredicate:
    cat = site.cat
    fam = {p: frozenset(resource.at(cat.src(p))) for p in cat.mors_into(stage)}
    return KripkePredicate(resource, site, stage, fam)


def bottom_predicate(resource, site, stage) -> KripkePredicate:
    fam = {p: frozenset() for p in site.cat.mors_into(stage)}
    return KripkePredicate(resource, site, stage, fam)


def meet(p: KripkePredicate, q: KripkePredicate) -> KripkePredicate:
    _check_aligned(p, q)
    fam = {sl: p.family[sl] & q.family[sl] for sl in p.family}
    return KripkePredicate(p.resource, p.site, p.stage, fam)


def join(p: KripkePredicate, q: KripkePredicate) -> KripkePredicate:
    """Stage-wise union closed up to the least subsheaf containing it."""
    _check_aligned(p, q)
    fam = {sl: p.family[sl] | q.family[sl] for sl in p.family}
    return KripkePredicate(
        p.resource, p.site, p.stage, _close(p.resource, p.site, p.stage, fam)
    )


def implication(p: KripkePredicate, q: KripkePredicate) -> KripkePredicate:
    """Kripke implication: membership at a slice object quantifies over
    every further restriction."""
    _check_aligned(p, q)
    cat = p.site.cat
    slice_cat, dom, _ = p.site.slice(p.stage)
    fam = {}
    for sl in p.family:
        below = [(slice_cat.src(m), dom.on_mor(m)) for m in slice_cat.mors_into(sl)]
        members = []
        for s in p.resource.at(cat.src(sl)):
            ok = True
            for r, k in below:
                rs = p.resource.restrict(k, s)
                if rs in p.family[r] and rs not in q.family[r]:
                    ok = False
                    break
            if ok:
                members.append(s)
        fam[sl] = frozenset(members)
    return KripkePredicate(p.resource, p.site, p.stage, fam)


# -- reindexing and images along sheaf morphisms ----------------------------


def reindex_preimage(alpha: SheafMorphism, q: KripkePredicate,
                     check_naturality=False) -> KripkePredicate:
    """f*: stage-wise preimage; restriction-closure follows from
    naturality of alpha.  Undefined points never enter the preimage of a
    proper subset but always satisfy the adjoint's vacuous clause."""
    if check_naturality:
        rep = validate_sheaf_morphism(alpha)
        if not rep.ok:
            raise NaturalityError("reindexing needs a natural map", witness=rep.violations[0])
    cat = q.site.cat
    fam = {}
    for sl in q.family:
        b = cat.src(sl)
        members = [
            x
            for x in alpha.source.at(b)
            if (not alpha.defined_on(b, x)) or alpha.apply(b, x) in q.family[sl]
        ]
        fam[sl] = frozenset(members)
    return KripkePredicate(alpha.source, q.site, q.stage, fam)


def direct_image(alpha: SheafMorphism, p: KripkePredicate) -> KripkePredicate:
    """The existential pushforward: smallest subsheaf containing the
    stage-wise image over the defined points."""
    closed = _close(alpha.target, p.site, p.stage, raw_image(alpha, p).family)
    return KripkePredicate(alpha.target, p.site, p.stage, closed)


def raw_image(alpha: SheafMorphism, p: KripkePredicate) -> KripkePredicate:
    """Pointwise image without closure (for diagnostics and tests)."""
    cat = p.site.cat
    fam = {
        sl: frozenset(
            alpha.apply(cat.src(sl), x)
            for x in p.family[sl]
            if alpha.defined_on(cat.src(sl), x)
        )
        for sl in p.family
    }
    return KripkePredicate(alpha.target, p.site, p.stage, fam)


# -- gluing -------------------------------------------------------------------


def restrict_predicate(p: KripkePredicate, f) -> KripkePredicate:
    """The predicate at stage src(f) obtained by composing slice objects
    with f (restriction of the predicate along f)."""
    cat = p.site.cat
    if cat.dst(f) != p.stage:
        raise StageMismatchError(f"{f!r} does not target stage {p.stage!r}")
    b = cat.src(f)
    fam = {q: p.family[cat.compose(f, q)] for q in cat.mors_into(b)}
    return KripkePredicate(p.resource, p.site, b, fam)


def glue_predicates(site: Site, resource: Presheaf, cover: Sieve, parts: dict) -> KripkePredicate:
    """The unique predicate on the cover's target restricting to the parts.

    `parts` maps cover morphisms (a generating subset suffices) to
    predicates at their sources.  Pairwise compatibility is checked on
    common factorisations; the family at slice objects outside the cover
    is forced by the subsheaf condition.
    """
    cat = site.cat
    a = cover.target
    full_parts = {}
    for f in sorted(cover.members):
        if f in parts:
            full_parts[f] = parts[f]
            continue
        for g, part in parts.items():
            ks = cat.factorisations(f, g)
            if ks:
                full_parts[f] = restrict_predicate(part, ks[0])
                break
        else:
            raise IncompatibleFamilyError(
                f"no part supplied or derivable for cover member {f!r}"
            )
    for f, part_f in full_parts.items():
        if part_f.stage != cat.src(f) or part_f.resource is not resource:
            raise StageMismatchError(f"part for {f!r} has wrong stage or resource")
        for g, part_g in full_parts.items():
            for k, h in cat.squares(f, g):
                lhs = restrict_predicate(part_f, k)
                rhs = restrict_predicate(part_g, h)
                if lhs.family != rhs.family:
                    raise IncompatibleFamilyError(
                        f"parts disagree on the overlap {f!r}.{k!r} = {g!r}.{h!r}",
                        witness=(f, g, k, h),
                    )
    fam = {}
    for p in cat.mors_into(a):
        if p in full_parts:
            fam[p] = full_parts[p].family[cat.id(cat.src(p))]
        else:
            members = []
            pullback = [
                (g, cat.compose(p, g)) for g in pullback_sieve(cat, cover, p).members
            ]
            for x in resource.at(cat.src(p)):
                if all(
                    resource.restrict(g, x) in full_parts[pg].family[cat.id(cat.src(pg))]
                    for g, pg in pullback
                ):
                    members.append(x)
            fam[p] = frozenset(members)
    return KripkePredicate(resource, site, a, fam)


# -- the combinator into predicates on convolutions ---------------------------


def combine_alpha(p: KripkePredicate, q: KripkePredicate, decomp: Presheaf) -> KripkePredicate:
    """Combine two predicates at a common stage into one on the
    decomposition presheaf: a decomposition pair belongs iff its halves
    belong to the respective predicates at their stages."""
    _check_aligned(p, q)
    site = p.site
    cat = site.cat
    if cat.kind != "powerset":
        raise MonoidalStructureError(
            "combine_alpha needs the canonical decompositions of a powerset base"
        )
    u = p.stage
    fam = {}
    for sl in cat.mors_into(u):
        members = []
        for d in decomp.at(cat.src(sl)):
            left_leg = cat.hom(d.left_stage, u)
            right_leg = cat.hom(d.right_stage, u)
            if not left_leg or not right_leg:
                continue
            if d.left in p.family[left_leg[0]] and d.right in q.family[right_leg[0]]:
                members.append(d)
        fam[sl] = frozenset(members)
    return KripkePredicate(decomp, site, u, fam)


# -- sampling (deterministic, for the law suites) -----------------------------


def random_closed_predicate(rng, resource, site, stage) -> KripkePredicate:
    """Closure of a uniformly sampled family: a valid subsheaf predicate."""
    cat = site.cat
    fam = {}
    for p in cat.mors_into(stage):
        xs = [x for x in resource.at(cat.src(p)) if rng.random() < 0.5]
        fam[p] = frozenset(xs)
    return KripkePredicate(
        resource, site, stage, _close(resource, site, stage, fam)
    )
