"""Finite-set-valued presheaves on ids, the sheaf condition, and
amalgamation.

A presheaf is held on integer ids: stage A has `size(A)` elements,
numbered in `at(A)` order (each builder's canonical order of its
elements, which `element_key` in the tests' fincat reference replays),
and `table(f)` is the restriction F(f) as a tuple from ids in F(dst f)
to ids in F(src f).  Every checker reads the tables; elements are decoded one id
at a time (`element`) for reports, witnesses and `--json`.  Every
presheaf lists its stages, so the sheaf condition is checked
exhaustively, on ids (`check_sheaf`).

Every builder fills the tables by arithmetic on ids: the memory sheaves
by projecting the digits of a mixed-radix number, the Day convolutions
by offsets, the matching presheaf by reading its families' ids.

Finitary heaps are not a separate builder: on a finite location set
every partial heap is finitely supported, so the partial-memory sheaf
already is the finitary one.
"""

from __future__ import annotations

from dataclasses import dataclass
import weakref
from functools import cache, cached_property, reduce, wraps

from .errors import (
    BudgetExceededError,
    NotASheafError,
    ResourceKindError,
    StageMismatchError,
)
from .fincat import FinCat, bits
from .report import Report
from .site import Coverage, Sieve, sieve_masks

DEFAULT_FAMILY_BUDGET = 200_000


# -- elements -------------------------------------------------------------


@dataclass(frozen=True)
class Heap:
    """A (partial) assignment of values to the locations of its stage.

    `values[i]` is the value stored at `locations[i]`; None marks an
    unallocated location.  Total heaps have no None entries.  Heaps are
    ordered by their locations, then by their values read left to
    right, each value ascending with None after every value.
    """

    locations: tuple
    values: tuple

    def __post_init__(self):
        if len(self.locations) != len(self.values):
            raise ValueError("locations and values must be parallel")
        if tuple(sorted(self.locations)) != self.locations:
            raise ValueError("locations must be sorted")

    @staticmethod
    def of(stage, mapping):
        stage = tuple(sorted(stage))
        return Heap(stage, tuple(mapping.get(loc) for loc in stage))

    def get(self, loc):
        return self.values[self.locations.index(loc)]

    def as_dict(self):
        return dict(zip(self.locations, self.values))

    def __str__(self):
        cells = ", ".join(
            f"{x}:{'_' if v is None else v}" for x, v in zip(self.locations, self.values)
        )
        return "<" + cells + ">"


# -- presheaf -------------------------------------------------------------


class Presheaf:
    """A contravariant finite-set-valued functor on a FinCat, on ids.

    `size_fn(A)` counts the elements at A, `table_fn(f)` maps ids in
    F(dst f) to ids in F(src f), and `decode(A, i)` is the element with
    id i; decoding ids 0, 1, ... must list the stage's distinct elements
    in their canonical order.  A stage is a set, so an id is an element:
    `index(A)` maps each element to its position in `at(A)`.  Reports
    print a stage by the names of the presheaf's `locations`, if given.
    """

    def __init__(self, base: FinCat, size_fn, table_fn, decode, *, name="presheaf",
                 fibres_fn=None, locations=None):
        self.base, self.name, self.locations = base, name, locations
        self._size_fn, self._table_fn, self._decode = size_fn, table_fn, decode
        self._fibres_fn = fibres_fn
        self._cache = {}  # stage -> at()
        self._index = {}  # stage -> {element: id}
        self._tables = {}  # morphism -> restriction table
        self._fibres = {}  # morphism -> its table's fibres
        self._covers = {}  # sieve -> _EncodedCover
        self._sheaf_for = set()  # (coverage, budget) pairs `require_sheaf` certified

    def at(self, a):
        self.base.require_object(a)
        if a not in self._cache:
            self._cache[a] = tuple(self._decode(a, i) for i in range(self._size_fn(a)))
        return self._cache[a]

    def size(self, a):
        return self._size_fn(a)

    def restrict(self, f, x):
        a = self.base.dst(f)
        i = self.index(a).get(x)
        if i is None:
            raise StageMismatchError(f"{x!r} is not an element of {self.name} at {a!r}")
        return self.element(self.base.src(f), self.table(f)[i])

    def index(self, a):
        """Element -> id at stage a: its position in at(a)."""
        idx = self._index.get(a)
        if idx is None:
            idx = self._index[a] = {x: i for i, x in enumerate(self.at(a))}
        return idx

    def element(self, a, i):
        """The element with id i at stage a."""
        return self._decode(a, i)

    def named(self, a):
        """Stage a as reports print it: by its locations' names, if given."""
        return a if self.locations is None else tuple(self.locations[i] for i in bits(a))

    def table(self, f):
        """F(f) encoded: id in F(dst f) -> id in F(src f)."""
        t = self._tables.get(f)
        if t is None:
            t = self._tables[f] = self._table_fn(f)
        return t

    def fibres(self, f):
        """Per id at src f, the bitset of the ids at dst f that `table(f)`
        sends to it, as a tuple: `fibres_fn(f)` when the builder gives
        one (the memory builder reads them from its shape's tables), else
        built from the table; kept beside the table."""
        fib = self._fibres.get(f)
        if fib is None:
            fib = self._fibres[f] = (_fibres(self.table(f), self.size(self.base.src(f)))
                                     if self._fibres_fn is None else self._fibres_fn(f))
        return fib

    def __repr__(self):
        return f"Presheaf({self.name!r} on {self.base.kind!r})"


def _fibres(table, n):
    """Per id below (n of them), the bitset of the ids above that `table`
    sends to it."""
    if len(table) <= 64:  # small ints: bit by bit
        fib = [0] * n
        for i, j in enumerate(table):
            fib[j] |= 1 << i
        return tuple(fib)
    rows = [bytearray(b"0" * len(table)) for _ in range(n)]  # a string of binary digits per id
    for i, j in enumerate(reversed(table)):  # digit i is bit len(table) - 1 - i
        rows[j][i] = ord("1")
    return tuple(int(row, 2) for row in rows)


# -- resource sheaf builders ----------------------------------------------


def build_resource_sheaf(cat: FinCat, kind: str, locations, *, values=None, bound=None):
    """The named memory sheaf over the powerset base of its locations.

    kinds: strict-memory | partial-memory | support-bounded.  Each needs a
    value set; support-bounded additionally takes the bound (a
    deliberately non-sheaf example).  Bit i of a stage is the i-th of the
    locations in sorted order.

    Its numbering depends on its shape alone, (kind, r, k) for r cells
    and the support bound k (None when unbounded), so it holds its
    shape's entry (`_Shape`, shared by every live carrier of the shape)
    and reads its codes, ids, sizes, tables and certificates there; it
    keys its stages and morphisms by their exponents and decodes ids
    into heaps of its own locations and values.
    """
    if kind not in ("strict-memory", "partial-memory", "support-bounded"):
        raise ResourceKindError(f"unknown resource kind {kind!r}")
    if cat.kind != "powerset":
        raise ResourceKindError(f"{kind} requires a powerset base, got {cat.kind!r}")
    vals, locations = tuple(sorted(set(values))), tuple(sorted(set(locations)))
    if not vals:
        raise ResourceKindError(f"{kind} needs a nonempty value set")
    # the memory kinds differ only in their cells (None marks an
    # unallocated location) and in the support bound
    listed = ",".join(map(str, vals))
    if kind == "strict-memory":
        cells, k, name = vals, None, f"M[{listed}]"
    elif kind == "partial-memory":
        cells, k, name = vals + (None,), None, f"Mp[{listed}]"
    else:
        bound = int(bound)
        cells, name = vals + (None,), f"Mp|supp<={bound}"
        # every bound of at least the number of locations admits every
        # heap, and every bound below 0 none, so the shape holds k
        # between -1 and that number: finitely many shapes per r
        k = max(-1, min(bound, len(locations)))
    key, r, digit = (kind, len(cells), k), len(cells), {x: d for d, x in enumerate(cells)}
    shape = _shapes.setdefault(key, _Shape(key))

    def codes(a):
        """Per id at a, its code; None on a full stage."""
        return None if _full(shape, a.bit_count()) else _codes(shape, a.bit_count())

    def ids(a):
        """Per code at a, its id or -1 off the carrier; None on a full stage."""
        return None if _full(shape, a.bit_count()) else _ids(shape, a.bit_count())

    @cache
    def size(a):
        return _size(shape, a.bit_count())

    def part(a, s, v):
        return _part(shape, _exponents(a, s, v))

    def table(f):
        s = cat.src(f)
        return _table(shape, _exponents(cat.dst(f), s, s))

    def fibres(f):
        s = cat.src(f)
        return _shape_fibres(shape, _exponents(cat.dst(f), s, s))

    def code(values):
        """The code of a heap's cells, or None when one is not a cell."""
        if all(x in digit for x in values):
            return reduce(lambda c, x: c * r + digit[x], values, 0)
        return None

    def decode(a, i):
        c, out = i if codes(a) is None else codes(a)[i], []
        for _ in names[a]:
            c, d = divmod(c, r)
            out.append(cells[d])
        return Heap(names[a], tuple(reversed(out)))

    ps = Presheaf(cat, size, table, decode, name=name, fibres_fn=fibres, locations=locations)
    names = {a: ps.named(a) for a in cat.objects}  # what decode names its heaps' stages
    ps.cells, ps.codes, ps.ids, ps.part, ps.code = cells, codes, ids, part, code
    ps.shape, ps._sheaf_for = shape, shape.certified
    return ps


# -- shape tables ----------------------------------------------------------
#
# A memory sheaf's tables, kept in its shape's entry under the shape of
# what they number: a stage by its number of locations n, a map between
# stages by its exponents (`_exponents`).  A heap's code is the
# mixed-radix number of its cells' positions in the sheaf's cells, the
# first location most significant, so codes follow Heap order.  Its id
# is its code on a full stage (all r^n heaps) and its code's rank among
# the stage's codes otherwise.  Renaming locations and values in sorted
# order keeps every code, so same-shape sheaves share these tuples: each
# carrier holds its shape's entry, and an entry lives, with every table
# built in it, as long as some carrier of its shape.


class _Shape:
    """What a shape (kind, r, k) keeps while a carrier of it lives: its
    tables, by (builder, key), and `certified`, the (coverage, budget)
    pairs for which `require_sheaf` certified its carriers."""

    __slots__ = ("key", "r", "k", "tables", "certified", "__weakref__")

    def __init__(self, key):
        self.key, (_, self.r, self.k) = key, key
        self.tables, self.certified = {}, set()


_shapes = weakref.WeakValueDictionary()  # shape -> the entry its live carriers hold


def _per_shape(build):
    """`build(shape, *key)`, built once per key in the shape's entry."""
    @wraps(build)
    def read(shape, *key):
        tables = shape.tables
        try:
            return tables[build, key]
        except KeyError:
            out = tables[build, key] = build(shape, *key)
            return out
    return read


@cache
def _exponents(a, s, v):
    """Per location of a, the exponent of its digit's weight r^e in a code
    at v (the number of v's locations above it) when it lies in s, else
    None; s <= a, v.  Masks have at most POWERSET_SIZE_BOUND bits."""
    return tuple([(v >> i + 1).bit_count() if s >> i & 1 else None for i in bits(a)])


def _full(shape, n):
    """Whether a stage of n locations holds all r^n heaps, so that its ids
    are its codes: unless a support bound k is below n."""
    return shape.k is None or shape.k >= n


@_per_shape
def _codes(shape, n):
    """Per id at a stage of n locations that is not full, its code: the
    codes of the heaps of at most k allocated cells, none when k < 0."""
    r, k = shape.r, shape.k
    out = [(0, 0)]  # (code, allocated cells); None is the last cell
    for _ in range(n):
        out = [(c * r + d, m + (d < r - 1)) for c, m in out for d in range(r)]
    return tuple(c for c, m in out if m <= k)


@_per_shape
def _ids(shape, n):
    """Per code at a stage of n locations that is not full, its id or -1
    off the carrier."""
    rank = {c: i for i, c in enumerate(_codes(shape, n))}
    return tuple(rank.get(c, -1) for c in range(shape.r ** n))


@_per_shape
def _size(shape, n):
    return shape.r ** n if _full(shape, n) else len(_codes(shape, n))


@_per_shape
def _part(shape, exponents):
    """Per id at a, the code at v of its digits that `exponents`
    (`_exponents(a, s, v)`) keeps."""
    out, n = [0], len(exponents)
    for e in exponents:
        w = 0 if e is None else shape.r ** e
        out = [c + d * w for c in out for d in range(shape.r)]
    return tuple(out) if _full(shape, n) else tuple(out[c] for c in _codes(shape, n))


def _below(exponents):
    """The number of locations of s in `_exponents(a, s, v)`."""
    return len(exponents) - exponents.count(None)


@_per_shape
def _table(shape, exponents):
    """The restriction along s <= a, for `_exponents(a, s, s)`."""
    down, n = _part(shape, exponents), _below(exponents)
    if _full(shape, n):
        return down
    below = _ids(shape, n)
    return tuple(below[c] for c in down)


@_per_shape
def _shape_fibres(shape, exponents):
    """The fibres of `_table(shape, exponents)`."""
    return _fibres(_table(shape, exponents), _size(shape, _below(exponents)))


# -- the sheaf condition -----------------------------------------------------


class _EncodedCover:
    """A cover of a presheaf in index form: its carrier half, over the
    site half that the site keeps for every carrier (`SieveMasks.skeleton`).

    A family over the full sieve is determined by its values on any
    generating subfamily (precomposition closure); this implementation
    lemma has a dedicated test.  A family is therefore held as a tuple of
    ids in the generators' stages, one per generator; each member reads
    its value off the first generator it factors through.  The index
    of F(target) by restriction signature on the generators is built on
    first use.

    A family is its own signature.  An amalgamation x restricts along
    each generator g to the value g reads off the generator it first
    factors through, g' with g'.k = g; that is F(k) of g''s id.  The
    enumeration already forces that value to be g's own id: (id, k) is
    a square of g and g' (a join when g' is earlier, g's own filter when
    g' is g), so once identity tables are identities the family's tuple
    is the key its amalgamations are indexed by.
    """

    def __init__(self, ps: Presheaf, cover: Sieve):
        sm, a = sieve_masks(ps.base), cover.target
        self.ps, self.cover = ps, cover
        self.skeleton = sm.skeleton(a, sm.mask(a, cover.members))
        self.gens, self.members = self.skeleton.gens, self.skeleton.members
        self._by_signature = None
        self._partials = {}  # budget -> families(budget)

    @cached_property
    def _leg_tables(self):
        """(generator position, F(k)) per member, F(k) read once per cover."""
        return [(j, self.ps.table(k)) for j, k in self.skeleton.factors]

    def families(self, budget):
        """Every compatible family, as position tuples in enumeration order.

        Partials grow one generator at a time, over the skeleton's
        squares.  Squares of a generator with itself filter its options
        once; squares against earlier generators are a hash join, with
        options grouped by their restriction signature and each partial
        looking up its own key.  `budget` bounds the surviving partials.
        """
        ps, sk, src = self.ps, self.skeleton, self.ps.base.src
        partials = [()]
        for g, selves, joins in zip(sk.gens, sk.selves, sk.joins):
            options = range(ps.size(src(g)))
            for k, h in selves:
                tk, th = ps.table(k), ps.table(h)
                options = [x for x in options if tk[x] == th[x]]
            joins = [(j, ps.table(k), ps.table(h)) for j, k, h in joins]
            buckets = {}
            for x in options:
                buckets.setdefault(tuple(tk[x] for _, tk, _ in joins), []).append(x)
            partials = [
                partial + (x,)
                for partial in partials
                for x in buckets.get(tuple(th[partial[j]] for j, _, th in joins), ())
            ]
            if len(partials) > budget:
                raise _budget_error(self.cover, len(partials), budget)
        return partials

    def partials(self, budget):
        """`families(budget)`, enumerated on the first call per budget and
        kept: the least covers are read by the sheaf verdict, by the
        replay of one that fails, and by the matching presheaf."""
        out = self._partials.get(budget)
        if out is None:
            out = self._partials[budget] = self.families(budget)
        return out

    def legs(self, partial):
        """Ids of the family's values, parallel to the sorted members."""
        return tuple(t[partial[j]] for j, t in self._leg_tables)

    def signature_index(self):
        """Positions in at(target) grouped by their ids on the generators.
        Building it tabulates every generator, so every image has an id."""
        if self._by_signature is None:
            tables = [self.ps.table(g) for g in self.gens]
            by_sig = {}
            # a table of F(target) holds one id per position; the empty sieve has no generator
            sigs = zip(*tables) if tables else [()] * self.ps.size(self.cover.target)
            for p, sig in enumerate(sigs):
                by_sig.setdefault(sig, []).append(p)
            self._by_signature = by_sig
        return self._by_signature


def _encoded_cover(ps: Presheaf, cover: Sieve) -> _EncodedCover:
    code = ps._covers.get(cover)
    if code is None:
        code = ps._covers[cover] = _EncodedCover(ps, cover)
    return code


def _budget_error(cover, n, budget):
    return BudgetExceededError(f"{n} partial families exceed the budget {budget}",
                               cover=cover, size=len(cover.members))


def _identity_families(ps: Presheaf, cover: Sieve, budget):
    """|F(A)| when `cover` is the maximal sieve of its target A and id_A
    is its one generator (on a thin base every maximal sieve is), else
    None.  Such a cover's families are counted in closed form (the
    maximal-sieve lemma): the enumeration would list |F(A)| of them,
    each with one amalgamation, and raises the same `BudgetExceededError`
    when they exceed the budget, as its one generator's options are all
    of F(A)."""
    cat, a = ps.base, cover.target
    if len(cover.members) != len(cat.mors_into(a)):
        return None
    # every member factors through id_A, so id_A is the one generator
    # unless id_A factors through another member
    sm, ida = sieve_masks(cat), cat.id(a)
    on_id = sm.bit(a)[ida]
    if any(f != ida and reach & on_id for f, reach in sm.closure(a).items()):
        return None
    n = ps.size(a)
    if n > budget:
        raise _budget_error(cover, n, budget)
    return n


def _replay_sheaf(rep, ps: Presheaf, cov: Coverage, budget) -> int:
    """Every family on every cover that the maximal-sieve lemma does not
    decide, looked up in its cover's signature index by its own ids;
    flags each family without exactly one amalgamation and returns the
    number of families, those counted in closed form included.
    Enumerated families are compatible by construction (pairwise squares
    on generators plus the extension lemma).  Only least covers are kept
    (`_encoded_cover`, `partials`), so what the verdict enumerated is not
    enumerated again; every other cover is built, replayed and dropped.  Each
    element a note prints is decoded and printed once, and each distinct
    existence note, which reads only the cover and the family's first
    three legs, is formatted once."""
    printed = {}

    def show(b, i, conv):
        key = (b, i, conv)
        if key not in printed:
            printed[key] = conv(ps.element(b, i))
        return printed[key]

    src, n_checked = ps.base.src, 0
    for a in ps.base.objects:
        least, at = cov.min_cover(a), ps.named(a)
        for s in cov.covers(a):
            n = _identity_families(ps, s, budget)
            if n is not None:
                n_checked += n
                continue
            code = _encoded_cover(ps, s) if s == least else _EncodedCover(ps, s)
            index = code.signature_index()
            partials = code.partials(budget) if s == least else code.families(budget)
            n_checked += len(partials)
            first_three, notes = code._leg_tables[:3], {}
            for partial in partials:
                hits = index.get(partial, ())
                if len(hits) > 1:
                    x, y = (show(a, p, repr) for p in hits[:2])
                    rep.flag("uniqueness", f"{len(hits)} amalgamations at {at!r}: {x}, {y}")
                elif not hits:
                    start = tuple(t[partial[j]] for j, t in first_three)
                    note = notes.get(start)
                    if note is None:
                        sample = tuple(show(src(f), i, str) for f, i in zip(code.members, start))
                        note = notes[start] = (
                            f"no amalgamation at {at!r} over cover of size {len(s.members)}; "
                            f"family starts {sample!r}")
                    rep.flag("existence", note)
    return n_checked


def check_sheaf(ps: Presheaf, cov: Coverage, budget=DEFAULT_FAMILY_BUDGET, keep=None) -> Report:
    """Existence and uniqueness of amalgamations, per cover and family,
    checked exhaustively on ids; the report lists the first `keep`
    violations (all when None) and counts the rest.

    The verdict is read off least covers (`is_sheaf`).  On a sheaf
    every cover S of A has exactly |F(A)| compatible families: each has
    one amalgamation, and each element restricts to its own family.  So
    the note counts Σ_A |covers(A)|·|F(A)| families, with the covers
    counted by `Coverage.count` (in closed form on the lub coverages),
    and no other cover is enumerated or built.  Otherwise every family
    on every cover is replayed on ids for the violations
    (`_replay_sheaf`), reading the least covers' families already
    enumerated; so is a budget blown on a least cover, which the replay
    raises again.  Neither pass enumerates
    a maximal sieve generated by the identity: its families are the
    restrictions of F(A)'s elements, each its own one amalgamation, so
    it adds |F(A)| to the count and no violation.  The budget
    bounds the families enumerated, so on a sheaf it bounds those of the
    least covers only; on the built-in coverages every cover's partial
    families are a stage's matching families, which its least cover
    enumerates too, so a sheaf fits the budget on every cover iff on the
    least ones.
    """
    rep = Report(f"sheaf condition ({ps.name})", keep=keep)
    try:
        sheaf = is_sheaf(ps, cov, budget)
    except BudgetExceededError:
        sheaf = False  # the replay raises at this cover or an earlier one
    if sheaf:
        n_checked = sum(cov.count(a) * ps.size(a) for a in ps.base.objects)
    else:
        n_checked = _replay_sheaf(rep, ps, cov, budget)
    rep.note(f"checked {n_checked} families")
    return rep


def is_sheaf(ps: Presheaf, cov: Coverage, budget=DEFAULT_FAMILY_BUDGET) -> bool:
    """The verdict of `check_sheaf`, certified on least covers alone.

    On a finite site the covers of a stage are closed under intersection,
    so each stage has a least cover, and a presheaf that is a sheaf for
    every least cover is a sheaf for every cover (the least-cover lemma,
    stated with its proof in the README).  A False verdict is
    `check_sheaf`'s too, and `check_sheaf` replays every cover for its
    violations.  The stages are read in order, and the first least cover
    with a family that has no amalgamation or two decides."""
    for a in ps.base.objects:
        cover = cov.min_cover(a)
        if _identity_families(ps, cover, budget) is None:
            code = _encoded_cover(ps, cover)
            index = code.signature_index()
            if any(len(index.get(p, ())) != 1 for p in code.partials(budget)):
                return False
    return True


def require_sheaf(ps: Presheaf, cov: Coverage, budget=DEFAULT_FAMILY_BUDGET) -> None:
    """Certify that ps is a sheaf for the coverage by `is_sheaf`'s
    least-cover verdict, once per coverage and budget; on a presheaf
    that is not one, raise `NotASheafError` with `check_sheaf`'s
    report, which replays every cover for the violations.

    A memory carrier's certificates are its shape's, so they hold for
    every live carrier of the shape: a renaming of locations and values
    in sorted order is an isomorphism of carriers, and `is_sheaf` reads
    only sizes, tables and least covers, so all get the same verdict."""
    key = (cov, budget)
    if key in ps._sheaf_for:
        return
    if not is_sheaf(ps, cov, budget):
        raise NotASheafError(f"{ps.name} is not a sheaf for the coverage",
                             report=check_sheaf(ps, cov, budget=budget))
    ps._sheaf_for.add(key)


# -- the matching presheaf ----------------------------------------------------


@dataclass(frozen=True)
class MatchClass:
    """Refinement-equivalence class of matching families, named by its
    family on the least covering sieve of the stage.

    Covers are intersection-closed on a finite site, so the least cover
    exists.  A family over any cover restricts to exactly one family over
    it, and refining never changes that restriction, so each class holds
    exactly one least-cover family.
    """

    stage: object
    cover_members: tuple
    items: tuple  # elements parallel to cover_members

    def family(self):
        return dict(zip(self.cover_members, self.items))


def matching_presheaf(ps: Presheaf, cov: Coverage, budget=DEFAULT_FAMILY_BUDGET) -> Presheaf:
    """Refinement-equivalence classes of pairwise-compatible families.

    Each class is read off the least cover (see `MatchClass`) and held as
    that family's ids, one per member of `cov.min_cover(A)` in sorted
    order.  The stage at A lists the distinct id tuples ascending, which
    orders the classes by their families' elements; `families(A)`
    returns them.
    Restriction pulls the least cover back and reads the family's ids
    off it.  Only least covers are enumerated, so `budget` bounds their
    families alone.
    """
    cat = ps.base

    def members(a):  # in sorted order, off the least cover's skeleton
        return _encoded_cover(ps, cov.min_cover(a)).members

    @cache
    def families(a):
        code = _encoded_cover(ps, cov.min_cover(a))
        return tuple(sorted({code.legs(partial) for partial in code.partials(budget)}))

    @cache
    def ids(a):
        return {legs: i for i, legs in enumerate(families(a))}

    def table(h):
        # min_cover(src h) sits inside the pullback of min_cover(dst h)
        # by stability, so h.g always hits the stored family.
        above = members(cat.dst(h))
        picks = [above.index(cat.compose(h, g)) for g in members(cat.src(h))]
        below = ids(cat.src(h))
        return tuple(below[tuple(legs[j] for j in picks)] for legs in families(cat.dst(h)))

    def decode(a, i):
        return MatchClass(a, members(a), tuple(
            ps.element(cat.src(f), x) for f, x in zip(members(a), families(a)[i])))

    match = Presheaf(cat, lambda a: len(families(a)), table, decode, name=f"Match({ps.name})",
                     locations=ps.locations)
    match.families = families
    return match


# -- morphisms of presheaves -------------------------------------------------


class SheafMorphism:
    """Stage-wise (possibly partial) maps between two presheaves over the
    same base; naturality is checked by `validate_sheaf_morphism`.

    `ids[a]` is the component at a on ids: a list from the positions of
    source.at(a) to ids in target.at(a), -1 where undefined.
    """

    def __init__(self, source: Presheaf, target: Presheaf, ids, name):
        self.source, self.target, self.name, self._ids = source, target, name, ids

    def ids(self, a):
        """The component at a on ids."""
        return self._ids[a]


def validate_sheaf_morphism(alpha: SheafMorphism) -> Report:
    """Naturality where defined; definedness must be restriction-stable.
    Both sides are read from restriction tables and `alpha.ids`."""
    rep = Report(f"naturality ({alpha.name})")
    cat = alpha.source.base
    for h in cat.all_morphisms():
        a, b = cat.src(h), cat.dst(h)
        down, image_down = alpha.source.table(h), alpha.target.table(h)
        below, above = alpha.ids(a), alpha.ids(b)
        for i, j in enumerate(above):
            if j < 0:
                continue
            k = below[down[i]] if down[i] < len(below) else -1
            if k < 0:
                x = alpha.source.element(b, i)
                rep.flag("definedness", f"defined on {x!r} but not on its restriction along {h!r}")
            elif image_down[j] != k:
                x = alpha.source.element(b, i)
                rep.flag("naturality", f"square fails along {h!r} on {x!r}")
    return rep


# -- the amalgamation operator ----------------------------------------------


@dataclass
class AmalgamationIso:
    """Both directions of Match(F) ~ F with the verification report."""

    match: Presheaf
    forward: SheafMorphism  # Match(F) -> F, each class to its amalgamation
    inverse: SheafMorphism  # F -> Match(F)
    report: Report


def amalgamation_operator(ps: Presheaf, cov: Coverage, budget=DEFAULT_FAMILY_BUDGET) -> AmalgamationIso:
    """Send each matching class to its amalgamation; verify that this is
    a stage-wise bijection and natural in both directions.  A class's
    amalgamation is looked up on ids, by its family's ids on the least
    cover's generators.

    The carrier is certified a sheaf first (`require_sheaf`), so every
    class has exactly one amalgamation.  The inverse of a natural
    bijection is natural, so the inverse is checked only when the
    forward map fails."""
    require_sheaf(ps, cov, budget)
    match = matching_presheaf(ps, cov, budget)
    rep = Report(f"amalgamation operator ({ps.name})")
    to_sheaf, from_sheaf = {}, {}
    for a in ps.base.objects:
        code, at = _encoded_cover(ps, cov.min_cover(a)), ps.named(a)
        index, at_gens = code.signature_index(), [code.members.index(g) for g in code.gens]
        fwd = [index[tuple(legs[j] for j in at_gens)][0] for legs in match.families(a)]
        if len(set(fwd)) != len(fwd):
            rep.flag("bijectivity", f"amalgamation not injective at {at!r}")
        if set(fwd) != set(range(ps.size(a))):
            rep.flag("bijectivity", f"amalgamation not surjective at {at!r}")
        inverse = [-1] * ps.size(a)
        for k, i in enumerate(fwd):
            inverse[i] = k
        to_sheaf[a], from_sheaf[a] = fwd, inverse
    forward = SheafMorphism(match, ps, to_sheaf, "amalgamation")
    inverse = SheafMorphism(ps, match, from_sheaf, "amalgamation inverse")
    rep.violations += validate_sheaf_morphism(forward).violations
    if not rep.ok:
        rep.violations += validate_sheaf_morphism(inverse).violations
    return AmalgamationIso(match, forward, inverse, rep)
