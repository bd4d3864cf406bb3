"""Stage-indexed predicates on a resource sheaf with Heyting structure.

A predicate at stage A assigns to every slice object p: B -> A a subset
of F(B).  Genuine subsheaf predicates are restriction-closed and locally
closed; neither condition is enforced at construction, because the
allocated points-to atom deliberately
breaks restriction-closure (its family is empty at stages missing the
location) and the bottom predicate is empty everywhere.

join and direct_image close their pointwise result, which need not be
a subsheaf, in two passes: a down pass to its restriction closure R,
computed only at the slice objects the up pass reads, then an up pass
keeping at each p the elements whose restrictions along the least cover
of src(p) lie in R.  On a maximal, stable and
transitive coverage this is the least subsheaf containing the result
(the README proves it); on any other the passes promise nothing.

Families are bitsets over the resource's element ids, and every
operation reads restriction tables (`Presheaf.index` and
`Presheaf.table`); elements are decoded only by `family`, and by
`combine_alpha`, which looks each decomposition's halves up by id.
"""

from __future__ import annotations

from types import MappingProxyType

from .errors import MonoidalStructureError, StageMismatchError
from .presheaf import Presheaf, SheafMorphism
from .site import Site


class KripkePredicate:
    """A family over the slice objects of `stage`, valued in subsets of
    the resource's stages.

    `bits[p]` is the subset at slice object p as an int over
    `resource.index(src p)`: bit i is set when the element with id i
    belongs.  `family` decodes the bits into a read-only mapping of
    frozensets.
    """

    def __init__(self, resource: Presheaf, site: Site, stage, bits):
        self.resource, self.site, self.stage, self.bits = resource, site, stage, bits
        self._family = None

    @property
    def family(self):
        if self._family is None:
            src, element = self.site.cat.src, self.resource.element
            self._family = MappingProxyType({
                p: frozenset(element(src(p), i) for i in _members(b))
                for p, b in self.bits.items()
            })
        return self._family

    def __eq__(self, other):
        return (isinstance(other, KripkePredicate) and self.resource is other.resource
                and self.stage == other.stage and self.bits == other.bits)

    def issubset(self, other) -> bool:
        _check_aligned(self, other)
        return not any(b & ~other.bits[p] for p, b in self.bits.items())


def _check_aligned(p: KripkePredicate, q: KripkePredicate):
    if p.resource is not q.resource or p.stage != q.stage:
        raise StageMismatchError("predicates live over different resources or stages")


# A set of at most this many ids is read and built bit by bit.  Above
# it each shift, or each bit peeled off, copies a big int, so the
# helpers go through a string of binary digits instead.  Per call
# (CPython 3.11, x86-64) the digits cost more at 27 ids for all three
# helpers and less for `_preimage` from 64 on; for `_members` and
# `_image` they cost up to 25 % more from 64 to about 400 ids and less
# beyond (20 % less at 1296).
_SCAN_BITS = 64


def _members(bits):
    """The ids whose bits are set, ascending."""
    if bits.bit_length() <= _SCAN_BITS:
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low
    else:
        digits = bin(bits)[:1:-1]  # digit i is bit i
        i = digits.find("1")
        while i >= 0:
            yield i
            i = digits.find("1", i + 1)


def _all(resource, a):
    return (1 << resource.size(a)) - 1


def _bitset(flags):
    """The positions whose flag in the list is true, as a bitset."""
    if len(flags) <= _SCAN_BITS:
        return sum(1 << i for i, flag in enumerate(flags) if flag)
    return int("".join("1" if flag else "0" for flag in reversed(flags)), 2)


def _preimage(table, bits, undefined=False):
    """The positions whose image under a restriction table, or a
    component on ids, is in `bits`; a position the component leaves
    undefined (-1) is in when `undefined` is true.  Into a stage of at
    most 256 ids the table is read as bytes, each translated to the
    binary digit of its id in `bits`."""
    if not undefined:
        try:
            row = bytes(reversed(table))  # digit i is position len(table) - 1 - i
        except ValueError:  # an id past 255, or -1
            pass
        else:
            digits = bin(bits)[:1:-1][:256].ljust(256, "0").encode()  # digit y is bit y
            return int(row.translate(digits) or b"0", 2)
    if len(table) <= _SCAN_BITS:
        if undefined:
            return sum(1 << x for x, y in enumerate(table) if y < 0 or bits >> y & 1)
        return sum(1 << x for x, y in enumerate(table) if bits >> y & 1)
    # digit -1, after the padding, is read at the undefined positions
    digits = bin(bits)[:1:-1].ljust(max(table) + 1, "0") + ("1" if undefined else "0")
    return int("".join(map(digits.__getitem__, reversed(table))), 2)


def _image(ids, bits):
    """The image of `bits` under a component on ids (-1 where undefined)."""
    if len(ids) <= _SCAN_BITS:
        return sum(1 << j for j in {ids[i] for i in _members(bits)} if j >= 0)
    digits = bytearray(b"0" * (max(ids) + 1))
    for i in _members(bits):
        if ids[i] >= 0:
            digits[ids[i]] = ord("1")
    return int(digits[::-1] or b"0", 2)


def _local(resource, site, bits, p):
    """The elements at slice object p whose restrictions along every
    member of the least cover of src(p) lie in `bits`: the slice covers
    of p are the base covers of src(p), and each contains that one.  A
    preimage from a stage of at most `_SCAN_BITS` ids (on the lub
    coverages every member's source has at most one location) is the OR
    of the fibres over its bits."""
    cat = site.cat
    out = _all(resource, cat.src(p))
    for k in site.cov.min_cover(cat.src(p)).members:
        want = bits[cat.compose(p, k)]
        if resource.size(cat.src(k)) <= _SCAN_BITS:
            fibres, below = resource.fibres(k), 0
            for j in _members(want):
                below |= fibres[j]
            out &= below
        else:
            out &= _preimage(resource.table(k), want)
    return out


def _close(resource, site, bits):
    """Least restriction-closed, locally-closed family containing `bits`,
    by the module docstring's down and up passes.  The up pass reads the
    down pass only at p.k for k in the least cover of src(p), so the
    down pass writes nowhere else.  Its image into a stage of at most
    `_SCAN_BITS` ids is one AND per id there, with that id's fibre."""
    cat, cov = site.cat, site.cov
    down = {cat.compose(p, k): 0 for p in bits for k in cov.min_cover(cat.src(p)).members}
    for p, b in bits.items():
        if b:
            for g in cat.mors_into(cat.src(p)):
                q = cat.compose(p, g)
                if q in down:
                    if resource.size(cat.src(g)) <= _SCAN_BITS:
                        down[q] |= _bitset([f & b for f in resource.fibres(g)])
                    else:
                        down[q] |= _image(resource.table(g), b)
    return {p: _local(resource, site, down, p) for p in bits}


# -- lattice structure ------------------------------------------------------


def top_predicate(resource, site, stage) -> KripkePredicate:
    src = site.cat.src
    bits = {p: _all(resource, src(p)) for p in site.cat.mors_into(stage)}
    return KripkePredicate(resource, site, stage, bits)


def bottom_predicate(resource, site, stage) -> KripkePredicate:
    bits = dict.fromkeys(site.cat.mors_into(stage), 0)
    return KripkePredicate(resource, site, stage, bits)


def meet(p: KripkePredicate, q: KripkePredicate) -> KripkePredicate:
    _check_aligned(p, q)
    bits = {sl: b & q.bits[sl] for sl, b in p.bits.items()}
    return KripkePredicate(p.resource, p.site, p.stage, bits)


def join(p: KripkePredicate, q: KripkePredicate) -> KripkePredicate:
    """Stage-wise union closed up to the least subsheaf containing it."""
    _check_aligned(p, q)
    bits = {sl: b | q.bits[sl] for sl, b in p.bits.items()}
    return KripkePredicate(p.resource, p.site, p.stage, _close(p.resource, p.site, bits))


def implication(p: KripkePredicate, q: KripkePredicate) -> KripkePredicate:
    """Kripke implication: membership at a slice object quantifies over
    every further restriction, so an element belongs unless some
    restriction of it lands in p but not in q."""
    _check_aligned(p, q)
    res, cat = p.resource, p.site.cat
    bits = {}
    for sl in p.bits:
        members = _all(res, cat.src(sl))
        for g in cat.mors_into(cat.src(sl)):
            r = cat.compose(sl, g)
            bad = p.bits[r] & ~q.bits[r]
            if bad:
                members &= ~_preimage(res.table(g), bad)
        bits[sl] = members
    return KripkePredicate(res, p.site, p.stage, bits)


# -- reindexing and images along sheaf morphisms ----------------------------


def reindex_preimage(alpha: SheafMorphism, q: KripkePredicate) -> KripkePredicate:
    """f*: stage-wise preimage; restriction-closure follows from
    naturality of alpha.  Undefined points never enter the preimage of a
    proper subset but always satisfy the adjoint's vacuous clause."""
    src = q.site.cat.src
    bits = {sl: _preimage(alpha.ids(src(sl)), want, undefined=True)
            for sl, want in q.bits.items()}
    return KripkePredicate(alpha.source, q.site, q.stage, bits)


def direct_image(alpha: SheafMorphism, p: KripkePredicate) -> KripkePredicate:
    """The existential pushforward: smallest subsheaf containing the
    stage-wise image over the defined points."""
    closed = _close(alpha.target, p.site, raw_image(alpha, p).bits)
    return KripkePredicate(alpha.target, p.site, p.stage, closed)


def raw_image(alpha: SheafMorphism, p: KripkePredicate) -> KripkePredicate:
    """Pointwise image without closure (for diagnostics and tests)."""
    src = p.site.cat.src
    bits = {sl: _image(alpha.ids(src(sl)), b) for sl, b in p.bits.items()}
    return KripkePredicate(alpha.target, p.site, p.stage, bits)


# -- the combinator into predicates on convolutions ---------------------------


def combine_alpha(p: KripkePredicate, q: KripkePredicate, decomp: Presheaf) -> KripkePredicate:
    """Combine two predicates at a common stage into one on the
    decomposition presheaf: a decomposition pair belongs iff its halves
    belong to the respective predicates at their stages."""
    _check_aligned(p, q)
    site, cat, u = p.site, p.site.cat, p.stage
    if cat.kind != "powerset":
        raise MonoidalStructureError(
            "combine_alpha needs the canonical decompositions of a powerset base")

    def holds(pred, stage, x):
        homs = cat.hom(stage, u)
        i = pred.resource.index(stage).get(x) if homs else None
        return i is not None and pred.bits[homs[0]] >> i & 1

    bits = {
        sl: _bitset([holds(p, d.left_stage, d.left) and holds(q, d.right_stage, d.right)
                     for d in decomp.at(cat.src(sl))])
        for sl in cat.mors_into(u)
    }
    return KripkePredicate(decomp, site, u, bits)


# -- sampling (deterministic, for the law suites) -----------------------------


def random_closed_predicate(rng, resource, site, stage) -> KripkePredicate:
    """Closure of a sparse sampled family: a valid subsheaf predicate.
    Each of the n ids over the slices joins the family with probability
    2/n, one `rng.random()` per id in slice order, so the family holds
    two ids in expectation (none when the slices hold no id); a denser
    one closes to the top predicate on most draws at 3 and 4 locations."""
    src, slices = site.cat.src, site.cat.mors_into(stage)
    n = sum(resource.size(src(p)) for p in slices)
    density = 2 / n if n else 0
    bits = {p: _bitset([rng.random() < density for _ in range(resource.size(src(p)))])
            for p in slices}
    return KripkePredicate(resource, site, stage, _close(resource, site, bits))
