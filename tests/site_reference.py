"""Frozenset-level reference for the site layer, kept as a test oracle.

This is the direct reading of the definitions that the bitmask core in
`sheafsep.site` replaces: sieves are frozensets of morphism ids, a
pullback tests every morphism into the new target, a least upper bound
walks every pair of objects, a slice coverage enumerates the sieves of
the slice category, and the stability and transitivity replay pulls
`Sieve` objects back.  The differential tests compare the two on
covers, in `covers()` order, and on (kind, detail) violation lists, and
`SieveMasks`' sieves and pullbacks with `all_sieves` and
`pullback_sieve`.  `generate_sieve`, `maximal_sieve`, `saturate` and
`trivial_coverage` build the sieves and coverages that tests start
from, and `is_cover` asks a coverage whether it holds a sieve.
"""

from fincat_reference import slice_category
from sheafsep.errors import BudgetExceededError
from sheafsep.site import SIEVE_ENUM_LIMIT, Coverage, Sieve
from sheafsep.report import Report


def _order(s):
    return (len(s.members), s.sorted_members())


def is_sieve(cat, s):
    for f in s.members:
        if cat.dst(f) != s.target:
            return False
        for k in cat.mors_into(cat.src(f)):
            if cat.compose(f, k) not in s.members:
                return False
    return True


def maximal_sieve(cat, a):
    return Sieve(a, frozenset(cat.mors_into(a)))


def trivial_coverage(cat):
    """Only maximal sieves cover: the least coverage."""
    maximal = {a: [maximal_sieve(cat, a)] for a in cat.objects}
    return Coverage(cat, maximal, ("covering = maximal sieve only",))


def is_cover(cov, s):
    return s in cov.by_object.get(s.target, frozenset())


def generate_sieve(cat, target, generators):
    """Close a family of morphisms into `target` under precomposition."""
    return Sieve(target, frozenset(
        cat.compose(f, k) for f in generators for k in cat.mors_into(cat.src(f))))


def pullback_sieve(cat, s, h):
    """h*(S) = {g | h.g in S}, a sieve on src(h)."""
    b = cat.src(h)
    return Sieve(b, frozenset(g for g in cat.mors_into(b) if cat.compose(h, g) in s.members))


def all_sieves(cat, a):
    """Every sieve on a: the unions of the principal sieves {f.k} of the
    morphisms f into a, found by a search from the empty sieve."""
    mors = cat.mors_into(a)
    if len(mors) > SIEVE_ENUM_LIMIT:
        raise BudgetExceededError(
            f"{len(mors)} morphisms into {a!r} exceed the sieve enumeration limit",
            size=len(mors),
        )
    principal = [frozenset(cat.compose(f, k) for k in cat.mors_into(cat.src(f))) for f in mors]
    found, frontier = {frozenset()}, [frozenset()]
    while frontier:
        s = frontier.pop()
        for p in principal:
            if not p <= s and s | p not in found:
                found.add(s | p)
                frontier.append(s | p)
    return sorted((Sieve(a, s) for s in found), key=_order)


def _leq(cat, a, b):
    return bool(cat.hom(a, b))


def lub(cat, parts):
    """Least upper bound of a set of objects in a finite poset, if any."""
    uppers = [u for u in cat.objects if all(_leq(cat, p, u) for p in parts)]
    least = [u for u in uppers if all(_leq(cat, u, v) for v in uppers)]
    return least[0] if least else None


def build_coverage(cat, kind):
    """The covers of the built-in coverage kinds, unvalidated."""
    by_object = {}
    for a in cat.objects:
        nonempty = [s for s in all_sieves(cat, a) if s.members]
        if kind == "atomic":
            by_object[a] = nonempty
        else:
            by_object[a] = [s for s in nonempty if lub(cat, {cat.src(f) for f in s.members}) == a]
    return Coverage(cat, by_object)


def forced_sieves(cat, covers, covering):
    """What stability and transitivity force in but `covering` lacks, as
    (axiom, sieve, cover, h); `covers(a)` is read anew per sieve tested."""
    for a in cat.objects:
        for s in covers(a):
            for h in cat.mors_into(a):
                pb = pullback_sieve(cat, s, h)
                if not covering(pb):
                    yield "stability", pb, s, h
    for a in cat.objects:
        for r in all_sieves(cat, a):
            if covering(r):
                continue
            for s in covers(a):
                if all(covering(pullback_sieve(cat, r, h)) for h in s.sorted_members()):
                    yield "transitivity", r, s, None
                    break


def validate_coverage(cat, cov):
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
    filed = {a: [s for s in cov.covers(a) if s.target == a] for a in cat.objects}
    for axiom, r, s, h in forced_sieves(cat, filed.__getitem__, lambda s: is_cover(cov, s)):
        if axiom == "stability":
            rep.flag(axiom, f"pullback of {s.sorted_members()!r} along {h!r} is not covering")
        else:
            rep.flag(
                axiom,
                f"sieve {r.sorted_members()!r} on {r.target!r} is locally covering "
                f"via {s.sorted_members()!r} but not covering",
            )
    return rep


def saturate(cat, generated):
    """Least coverage containing the maximal sieves and `generated`
    (object -> sieves): add what `forced_sieves` yields to a fixpoint."""
    sieves = {a: {maximal_sieve(cat, a)} | set(generated.get(a, ())) for a in cat.objects}
    changed = True
    while changed:
        changed = False
        for _, r, _, _ in forced_sieves(
            cat, lambda a: sorted(sieves[a], key=_order), lambda s: s in sieves[s.target]
        ):
            sieves[r.target].add(r)
            changed = True
    return Coverage(cat, sieves)


def slice_coverage(cov, a):
    """A slice sieve covers iff its image under the domain functor covers."""
    cat = cov.cat
    sl, dom = slice_category(cat, a)
    by_object = {}
    for p in sl.objects:
        by_object[p] = [
            s for s in all_sieves(sl, p)
            if is_cover(cov, Sieve(cat.src(p), frozenset(dom.on_mor(m) for m in s.members)))
        ]
    return Coverage(sl, by_object)
