"""Element-level reference for the memory sheaves and the sheaf check,
kept as a test oracle.

This is the direct reading of the definitions that the id-encoded core
in `sheafsep.presheaf` replaces: memory stages list `Heap` objects and
restrict each heap by reading its cells, families are grown one
generator at a time with every square re-restricted per partial,
amalgamations are found by scanning the whole target stage, and every
family is materialised before it is checked.  The differential tests
compare the two on stages, tables, reports, family lists, matching
classes and budget errors.  `CompatibleFamily` and `amalgamate` are the
element-level family API, for tests that build a family by hand: the
core has none, as it checks only the families it enumerates.
`replay_sheaf` is the all-cover check on ids, for presheaves too large
for the element-level one: it enumerates every cover, maximal sieves
included, and looks each family up by the ids its generators'
factorisations give, where the core reads neither.
`validate_presheaf` replays functoriality, `slice_restrict` restricts
a presheaf to a slice, and `matching_object` pairs the sections that
agree on a pullback: constructions that only tests make.

`SHAPE_CACHES` names the caches the package keeps per map between
stages and per location count, and `clear_shape_caches` empties them,
the registry of shape entries (`presheaf._shapes`) and the tables and
sheaf certificates of every entry a live carrier still holds, and the
kept models (`cli._model`), so that a request served after it is
served cold: it builds its shared site anew, with no cover skeleton.
`cover_skeleton` builds a cover's site half per cover, as the core did
before the site kept it, for the skeleton oracle.

`listed` builds a presheaf from its elements, filling each table entry
by restricting one; it serves the presheaves whose elements are their
data: the element-level builders here and in the other references, and
the `constant`, `yoneda` and `terminal` kinds.  `morphism` builds a
`SheafMorphism` from element-keyed components and `components` decodes
one.
"""

from dataclasses import dataclass
from itertools import product

from fincat_reference import element_key, slice_category
from sheafsep import cli, presheaf, seplogic
from sheafsep.errors import BudgetExceededError, SheafSepError, StageMismatchError
from sheafsep.fincat import bits
from sheafsep.presheaf import (
    DEFAULT_FAMILY_BUDGET,
    Heap,
    MatchClass,
    Presheaf,
    SheafMorphism,
    _encoded_cover,
)
from sheafsep.report import Report
from sheafsep.site import CoverSkeleton, Sieve, sieve_masks

# the functools caches the package keeps for the process, keyed by masks
# and location counts alone: the exponents of the maps between stages,
# and the powerset sites, one per location count
SHAPE_CACHES = (presheaf._exponents, seplogic.powerset_site)


def clear_shape_caches():
    """Empty every shape cache, every shape entry (its tables and sheaf
    certificates, also when a live carrier holds it) and the registry,
    and the kept models, which hold their carriers' and monoids' memos.
    The shared sites go with their cache, and with them every cover
    skeleton (`SieveMasks.skeleton`) they kept."""
    for entry in list(presheaf._shapes.values()):
        entry.tables.clear()
        entry.certified.clear()
    presheaf._shapes.clear()
    for table in SHAPE_CACHES + (cli._model,):
        table.cache_clear()


class IncompatibleFamilyError(SheafSepError):
    """Family violates compatibility; carries a witness square."""

    def __init__(self, message, *, witness=None):
        super().__init__(message)
        self.witness = witness


class SquareError(SheafSepError):
    """Supplied square does not commute."""


class NoAmalgamationError(SheafSepError):
    """No element restricts to the given compatible family."""


class NonUniqueAmalgamationError(SheafSepError):
    """At least two elements restrict to the family; carries both."""

    def __init__(self, message, *, witnesses=None):
        super().__init__(message)
        self.witnesses = witnesses


@dataclass(frozen=True)
class CompatibleFamily:
    """An assignment of elements to every morphism of a cover."""

    cover: Sieve
    assignment: tuple  # sorted tuple of (morphism, element) pairs

    @staticmethod
    def of(cover, mapping):
        missing = cover.members - set(mapping)
        if missing:
            raise IncompatibleFamilyError(f"assignment missing for {sorted(missing)!r}")
        return CompatibleFamily(cover, tuple(sorted((m, mapping[m]) for m in cover.members)))

    def value(self, f):
        return dict(self.assignment)[f]

    def items(self):
        return self.assignment


def sorted_elements(xs):
    return tuple(sorted(xs, key=element_key))


def listed(base, stage_fn, restrict_fn, *, name="presheaf", locations=None):
    """A presheaf from its elements: stage_fn(A) yields the elements at A,
    collected into a set and sorted, and restrict_fn(f, x) applies F(f)
    to one element, once per table entry.  An image that leaves its
    stage gets a fresh id past the stage's end.  `locations` names the
    bits of a powerset base's stages, as `Presheaf` takes them."""
    stages = {}  # stage -> (elements by id, fresh ones last; their ids; stage size)

    def stage(a):
        if a not in stages:
            xs = sorted_elements(set(stage_fn(a)))
            stages[a] = (list(xs), {x: i for i, x in enumerate(xs)}, len(xs))
        return stages[a]

    def table(f):
        elems, ids, _ = stage(base.src(f))
        above, _, n = stage(base.dst(f))
        out = []
        for x in above[:n]:
            y = restrict_fn(f, x)
            if y not in ids:
                ids[y] = len(elems)
                elems.append(y)
            out.append(ids[y])
        return tuple(out)

    return Presheaf(base, lambda a: stage(a)[2], table, lambda a, i: stage(a)[0][i], name=name,
                    locations=locations)


def constant(cat, elements):
    xs = frozenset(elements)
    return listed(cat, lambda a: xs, lambda f, x: x, name=f"const({len(xs)})")


def yoneda(cat, at_object):
    cat.require_object(at_object)
    return listed(cat, lambda b: cat.hom(b, at_object), lambda f, g: cat.compose(g, f),
                  name=f"yo({at_object!r})")


@dataclass(frozen=True)
class Star:
    """The unique point of the terminal presheaf."""

    def sort_key(self):
        return ()


STAR = Star()


def terminal(cat):
    return listed(cat, lambda a: (STAR,), lambda f, x: STAR, name="terminal")


def morphism(source, target, components, name):
    """The `SheafMorphism` whose component at a maps the elements of
    source.at(a) as `components[a]` does, undefined off its keys."""
    ids = {}
    for a, comp in components.items():
        index, size = target.index(a), target.size(a)
        ids[a] = [index.get(comp[x], size) if x in comp else -1 for x in source.at(a)]
        if size in ids[a]:
            raise StageMismatchError(f"{name} maps outside its target at {a!r}")
    return SheafMorphism(source, target, ids, name)


def components(alpha, a):
    """alpha's component at a, element-keyed."""
    return {alpha.source.element(a, i): alpha.target.element(a, j)
            for i, j in enumerate(alpha.ids(a)) if j >= 0}


def names(cat, pool="xyzw"):
    """Sorted location names for a powerset base of n locations: the first
    n of the pool."""
    return tuple(sorted(pool[:len(cat.objects).bit_length() - 1]))


def restrict_heap(heap, locs):
    """The heap's cells at the locations locs."""
    locs = tuple(sorted(locs))
    return Heap(locs, tuple(heap.get(x) for x in locs))


def memory_sheaf(cat, kind, locations, values, bound=None):
    """strict-memory, partial-memory or support-bounded memory on the
    powerset base of the locations: every heap at a stage, restricted
    cell by cell."""
    locations, vals = tuple(sorted(set(locations))), tuple(sorted(set(values)))
    cells = vals if kind == "strict-memory" else vals + (None,)
    k = None if kind != "support-bounded" else int(bound)
    shown = ",".join(map(str, vals))
    name = {"strict-memory": f"M[{shown}]", "partial-memory": f"Mp[{shown}]"}.get(
        kind, f"Mp|supp<={k}")

    def named(a):
        return tuple(locations[i] for i in bits(a))

    def stages(a):
        return [
            Heap(named(a), combo)
            for combo in product(cells, repeat=a.bit_count())
            if k is None or sum(v is not None for v in combo) <= k
        ]

    def restr(f, heap):
        return restrict_heap(heap, named(cat.src(f)))

    return listed(cat, stages, restr, name=name, locations=locations)


class UnionFind:
    """Union-find over hashable items.  Parents are always the stored
    items themselves, so roots are told apart by identity, which spares
    an element-wise comparison per step."""

    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        r = self.parent[x]
        while self.parent[r] is not r:
            r = self.parent[r]
        while self.parent[x] is not r:
            self.parent[x], x = r, self.parent[x]
        return r

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx


def generators(cat, cover):
    """Minimal subfamily through which every member factors."""
    members = cover.sorted_members()
    gens = []
    for f in members:
        redundant = False
        for g in members:
            if g == f:
                continue
            for k in cat.hom(cat.src(f), cat.src(g)):
                if not cat.is_identity(k) and cat.compose(g, k) == f:
                    redundant = True
                    break
            if redundant:
                break
        if not redundant:
            gens.append(f)
    covered = set(gens)
    for f in members:
        if f in covered:
            continue
        if not any(
            cat.compose(g, k) == f
            for g in gens
            for k in cat.hom(cat.src(f), cat.src(g))
        ):
            return members
    return tuple(gens)


def factors(cat, cover, gens):
    """Per member in sorted order, (j, k): the first generator gens[j] it
    factors through and the first k in hom order with gens[j].k = member."""
    out = []
    for f in cover.sorted_members():
        for j, g in enumerate(gens):
            ks = [k for k in cat.hom(cat.src(f), cat.src(g)) if cat.compose(g, k) == f]
            if ks:
                out.append((j, ks[0]))
                break
    return out


def cover_skeleton(cat, cover):
    """The site half of a cover built as `_EncodedCover` built it for
    every cover and carrier before the site kept it
    (`SieveMasks.skeleton`): the members sorted by their own order, each
    member's first generator found by its reach, and each generator's
    squares read from `FinCat.squares` as its family enumeration read
    them."""
    sm, a = sieve_masks(cat), cover.target
    gens = sm.generators(a, sm.mask(a, cover.members))
    members = cover.sorted_members()
    bit, reach = sm.bit(a), [sm.closure(a)[g] for g in gens]
    factors = []
    for f in members:
        j = [r & bit[f] != 0 for r in reach].index(True)
        factors.append((j, sm.factor(gens[j], f)))
    selves, joins = [], []
    for i, g in enumerate(gens):
        selves.append(tuple(cat.squares(g, g)))
        joins.append(tuple((j, k, h) for j in range(i) for k, h in cat.squares(g, gens[j])))
    return CoverSkeleton(gens, members, tuple(factors), tuple(selves), tuple(joins))


def square_maps(cat, f, g):
    """All (k, h) with f.k = g.h, scanning every morphism of the base."""
    out = []
    for k in cat.all_morphisms():
        if cat.dst(k) != cat.src(f):
            continue
        for h in cat.hom(cat.src(k), cat.src(g)):
            if cat.compose(f, k) == cat.compose(g, h):
                out.append((k, h))
    return out


def enumerate_compatible_families(ps, cover, budget=DEFAULT_FAMILY_BUDGET):
    cat = ps.base
    gens = generators(cat, cover)
    squares = {(f, g): square_maps(cat, f, g) for f in gens for g in gens}
    partials = [()]
    for i, g in enumerate(gens):
        options = ps.at(cat.src(g))
        grown = []
        for partial in partials:
            for x in options:
                ok = True
                for k, h in squares[(g, g)]:
                    if ps.restrict(k, x) != ps.restrict(h, x):
                        ok = False
                        break
                if ok:
                    for j in range(i):
                        for k, h in squares[(g, gens[j])]:
                            if ps.restrict(k, x) != ps.restrict(h, partial[j]):
                                ok = False
                                break
                        if not ok:
                            break
                if ok:
                    grown.append(partial + (x,))
        partials = grown
        if len(partials) > budget:
            raise BudgetExceededError(
                f"{len(partials)} partial families exceed the budget {budget}",
                cover=cover,
                size=len(cover.members),
            )
    through = dict(zip(cover.sorted_members(), factors(cat, cover, gens)))
    out = []
    for combo in partials:
        full = {}
        for f in cover.members:
            j, k = through[f]
            full[f] = ps.restrict(k, combo[j])
        out.append(CompatibleFamily.of(cover, full))
    return out


def amalgamation_candidates(ps, fam):
    gens = generators(ps.base, fam.cover)
    return [
        a
        for a in ps.at(fam.cover.target)
        if all(ps.restrict(g, a) == fam.value(g) for g in gens)
    ]


def amalgamate(ps, fam):
    """The unique element restricting to the family on its cover.  Each
    leg is restricted along every square of every pair of members, and
    the first square that disagrees is the `IncompatibleFamilyError`'s
    witness; then `amalgamation_candidates` must find exactly one
    element."""
    cat = ps.base
    for f, xf in fam.items():
        for g, xg in fam.items():
            for k, h in square_maps(cat, f, g):
                if ps.restrict(k, xf) != ps.restrict(h, xg):
                    raise IncompatibleFamilyError(
                        f"family disagrees on the square {f!r}.{k!r} = {g!r}.{h!r}",
                        witness=(f, g, k, h),
                    )
    matches = amalgamation_candidates(ps, fam)
    if not matches:
        raise NoAmalgamationError("no amalgamation for the given family")
    if len(matches) > 1:
        raise NonUniqueAmalgamationError(
            f"{len(matches)} amalgamations found", witnesses=tuple(matches[:2])
        )
    return matches[0]


def check_sheaf(ps, cov, budget=DEFAULT_FAMILY_BUDGET):
    """The exhaustive sheaf check, scanning F(target) per family."""
    rep = Report(f"sheaf condition ({ps.name})")
    todo = [
        (a, s, fam)
        for a in ps.base.objects
        for s in cov.covers(a)
        for fam in enumerate_compatible_families(ps, s, budget)
    ]
    for a, s, fam in todo:
        matches = amalgamation_candidates(ps, fam)
        if not matches:
            sample = tuple(f"{x}" for _, x in fam.items()[:3])
            rep.flag(
                "existence",
                f"no amalgamation at {ps.named(a)!r} over cover of size {len(s.members)}; "
                f"family starts {sample!r}",
            )
        elif len(matches) > 1:
            rep.flag(
                "uniqueness",
                f"{len(matches)} amalgamations at {ps.named(a)!r}: {matches[0]!r}, "
                f"{matches[1]!r}",
            )
    rep.note(f"checked {len(todo)} families")
    return rep


def family_key(code, partial):
    """The generator ids an amalgamation of the family must have: each
    generator's value read off its factorisation through the first
    generator that reaches it."""
    position = {f: n for n, f in enumerate(code.members)}
    through = [code.skeleton.factors[position[g]] for g in code.gens]
    return tuple(code.ps.table(k)[partial[j]] for j, k in through)


def replay_sheaf(rep, ps, cov, budget=DEFAULT_FAMILY_BUDGET):
    """The all-cover check on ids: every family on every cover, maximal
    sieves included, looked up in its cover's signature index by its
    `family_key`; flags each family without exactly one amalgamation and
    returns the number of families."""
    printed = {}

    def show(b, i, conv):
        key = (b, i, conv)
        if key not in printed:
            printed[key] = conv(ps.element(b, i))
        return printed[key]

    src, n_checked = ps.base.src, 0
    for a in ps.base.objects:
        for s in cov.covers(a):
            code = _encoded_cover(ps, s)
            index = code.signature_index()
            for partial in code.families(budget):
                hits = index.get(family_key(code, partial), ())
                n_checked += 1
                if not hits:
                    sample = tuple(show(src(f), i, str)
                                   for f, i in zip(code.members[:3], code.legs(partial)))
                    rep.flag(
                        "existence",
                        f"no amalgamation at {ps.named(a)!r} over cover of size "
                        f"{len(s.members)}; family starts {sample!r}",
                    )
                elif len(hits) > 1:
                    x, y = (show(a, p, repr) for p in hits[:2])
                    rep.flag("uniqueness",
                             f"{len(hits)} amalgamations at {ps.named(a)!r}: {x}, {y}")
    return n_checked


def replay_report(ps, cov, budget=DEFAULT_FAMILY_BUDGET):
    """`replay_sheaf`'s report, noted as `check_sheaf` notes its count."""
    rep = Report(f"sheaf condition ({ps.name})")
    rep.note(f"checked {replay_sheaf(rep, ps, cov, budget)} families")
    return rep


def matching_stage(ps, cov, a, budget=DEFAULT_FAMILY_BUDGET):
    """The classes of `matching_presheaf(ps, cov).at(a)`, from materialised
    families related by restriction to every covering subsieve."""
    nodes = {}
    for s in cov.covers(a):
        for fam in enumerate_compatible_families(ps, s, budget):
            nodes[(s, fam.assignment)] = fam
    uf = UnionFind(nodes.keys())
    for (s, key), fam in nodes.items():
        for t in cov.covers(a):
            if t.members < s.members:
                sub = tuple(sorted((m, x) for m, x in fam.assignment if m in t.members))
                if (t, sub) in nodes:
                    uf.union((s, key), (t, sub))
    classes = {}
    for node, fam in nodes.items():
        classes.setdefault(uf.find(node), []).append(fam)
    mc = cov.min_cover(a)
    out = []
    for fams in classes.values():
        rep_fam = [f for f in fams if f.cover == mc][0]
        legs = mc.sorted_members()
        out.append(MatchClass(a, legs, tuple(rep_fam.value(f) for f in legs)))
    return sorted_elements(out)


def matching_presheaf(ps, cov, budget=DEFAULT_FAMILY_BUDGET):
    """Match(F) on elements: the classes of `matching_stage`, each
    restricted by pulling the least cover back and restricting the
    family componentwise."""
    cat = ps.base

    def restr(h, cls):
        fam = cls.family()
        members = cov.min_cover(cat.src(h)).sorted_members()
        return MatchClass(cat.src(h), members, tuple(fam[cat.compose(h, g)] for g in members))

    return listed(cat, lambda a: matching_stage(ps, cov, a, budget), restr,
                  name=f"Match({ps.name})", locations=ps.locations)


def assert_same_presheaf(new, old):
    """Equal stages, elements one id at a time, and restriction tables."""
    cat = new.base
    for a in cat.objects:
        assert new.size(a) == len(old.at(a))
        assert new.at(a) == old.at(a)
        assert [new.element(a, i) for i in range(new.size(a))] == list(old.at(a))
    for f in cat.all_morphisms():
        assert new.table(f) == old.table(f), f


def validate_presheaf(ps: Presheaf) -> Report:
    """Identity and composition functoriality, plus well-typed images."""
    rep = Report(f"presheaf functoriality ({ps.name})")
    cat = ps.base
    for a in cat.objects:
        ida = cat.id(a)
        for x in ps.at(a):
            if ps.restrict(ida, x) != x:
                rep.flag("identity", f"restrict(id_{a!r}) moves {x!r}")
    for f in cat.all_morphisms():
        a, b = cat.src(f), cat.dst(f)
        lower = set(ps.at(a))
        for x in ps.at(b):
            if ps.restrict(f, x) not in lower:
                rep.flag("typing", f"restriction of {x!r} along {f!r} leaves the stage")
    for f in cat.all_morphisms():
        for g in cat.mors_into(cat.src(f)):
            fg = cat.compose(f, g)
            for x in ps.at(cat.dst(f)):
                if ps.restrict(fg, x) != ps.restrict(g, ps.restrict(f, x)):
                    rep.flag(
                        "composition",
                        f"restrict({fg!r}) != restrict({g!r}).restrict({f!r}) on {x!r}",
                    )
    return rep


def slice_restrict(ps: Presheaf, a, prebuilt=None) -> Presheaf:
    """F restricted to the slice over a: the composite F . dom_a, whose
    tables are F's tables along the domains of slice morphisms."""
    ps.base.require_object(a)
    sl, dom = prebuilt if prebuilt is not None else slice_category(ps.base, a)
    return Presheaf(
        sl, lambda p: ps.size(dom.on_obj(p)), lambda m: ps.table(dom.on_mor(m)),
        lambda p, i: ps.element(dom.on_obj(p), i), name=f"{ps.name}|{a!r}")


def matching_object(ps: Presheaf, a, f, g, pullback):
    """Pairs of sections agreeing on the given pullback of f and g.

    `pullback` is (P, p_f, p_g) with f.p_f = g.p_g; on a powerset base
    that square is the intersection with its inclusions.
    """
    cat = ps.base
    if cat.dst(f) != a or cat.dst(g) != a:
        raise SquareError(f"{f!r} and {g!r} must target {a!r}")
    p_obj, p_f, p_g = pullback
    if cat.src(p_f) != p_obj or cat.src(p_g) != p_obj:
        raise SquareError("pullback projections must share the apex")
    if cat.compose(f, p_f) != cat.compose(g, p_g):
        raise SquareError("pullback square does not commute")
    # positions follow element order, so the pairs come out sorted
    left, right = ps.table(p_f), ps.table(p_g)
    return tuple(
        (ps.element(cat.src(f), i), ps.element(cat.src(g), j))
        for i, x in enumerate(left)
        for j, y in enumerate(right)
        if x == y
    )
