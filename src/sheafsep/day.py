"""Day convolution in two forms, resource monoids, and stability checks.

The decomposition presheaf indexes exact decompositions (on a poset base
the two halves union to the stage exactly) and is what the separating
conjunction pipeline consumes.  The coend form is its quotient by
dinaturality: on the powerset base the exact splittings are final among
all witnessed pairs, so no other triple is numbered.  The two must not be
conflated: the coend collapses summands that the unfolded semantics
distinguishes, and the total memory multiplication is not dinatural (see
the tests for the concrete witness), so it only lives on the
decomposition form.

Day stability asks for a lax-monoidal witness on slices; it is the
tensor on base morphisms, so its check is `fincat.validate_monoidal`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

from .errors import BudgetExceededError, MonoidalStructureError
from .fincat import FinCat, MonoidalStructure, bits, validate_monoidal
from .pred import _bitset, _preimage
from .presheaf import (
    DEFAULT_FAMILY_BUDGET,
    Presheaf,
    SheafMorphism,
    _budget_error,
    _exponents,
    _part,
    _per_shape,
    _size,
    _table,
    check_sheaf,
    is_sheaf,
)
from .report import Report
from .site import Site

DEFAULT_COEND_BUDGET = 100_000
# entries in one table of the cell rule: the digit rule (r^2) or a meet of
# an overlap's half of h locations (r^(2h)); every model that loads at 3
# or 4 locations fits, as it has at most 24 cells and 24^4 = 331,776
CELL_TABLE_BOUND = 2**19


@dataclass(frozen=True)
class Decomp:
    """A decomposition-indexed pair of sections.

    stage A, halves (B, C) and sections s in F(B), t in G(C).  On poset
    bases the decomposition is canonical (tensor(B, C) = A) and no
    witness is stored; otherwise `witness` is a morphism A -> B tensor C.
    """

    stage: object
    left_stage: object
    right_stage: object
    left: object
    right: object
    witness: object = None

    def __str__(self):
        halves = f"{self.left}*{self.right}"
        return halves if self.witness is None else f"{halves} via {self.witness!r}"


@dataclass(frozen=True)
class CoendClass:
    """Dinaturality class of witnessed triples, named by its least
    decomposition under the deterministic order."""

    rep: Decomp

    def __str__(self):
        return f"[{self.rep}]"


class _Triples:
    """The ids of the triples (b, c, w, s, t) at each stage a, with s and
    t positions in F(b) and G(c) and w: a -> b tensor c a witness.

    A block per pair (b, c), in sorted order, holds |F(b)| * |G(c)| * n
    ids, n the number of witnesses, sorted by repr.  Within a block the
    triples run in the order of their decompositions: by s, then t,
    then w.  The node of a triple, its id, is offset + (s * |G(c)| + t)
    * n + the witness's position.  The base picks the form.  On the
    powerset the form is exact, the decompositions: a block per exact
    splitting with the one witness None.  Otherwise it is witnessed: a
    block per pair whose tensor a maps to.
    """

    def __init__(self, f_sheaf: Presheaf, g_sheaf: Presheaf, mon: MonoidalStructure):
        self.f, self.g, self.mon = f_sheaf, g_sheaf, mon
        self.cat = f_sheaf.base
        self.exact = self.cat.kind == "powerset"
        self.blocks = cache(self._blocks)

    def _blocks(self, a):
        """{(b, c): (offset, ws, {w: position})} in id order, and the
        number of triples at a."""
        cat, mon = self.cat, self.mon
        out, n = {}, 0
        for b, c in splittings(cat, mon, a) if self.exact else sorted(mon.tensor_obj):
            ws = [None] if self.exact else sorted(cat.hom(a, mon.tensor(b, c)), key=repr)
            if ws:
                out[b, c] = (n, ws, {w: k for k, w in enumerate(ws)})
                n += self.f.size(b) * self.g.size(c) * len(ws)
        return out, n

    def size(self, a):
        return self.blocks(a)[1]

    def node(self, a, b, c, w, s, t):
        off, ws, at = self.blocks(a)[0][b, c]
        return off + (s * self.g.size(c) + t) * len(ws) + at[w]

    def parts(self, a, i):
        """(b, c, w, s, t) of the triple with id i at a."""
        for (b, c), (off, ws, _) in self.blocks(a)[0].items():
            r, n, width = i - off, len(ws), self.g.size(c)
            if r < self.f.size(b) * width * n:
                break
        st, k = divmod(r, n)
        s, t = divmod(st, width)
        return b, c, ws[k], s, t

    def decode(self, a, i) -> Decomp:
        b, c, w, s, t = self.parts(a, i)
        return Decomp(a, b, c, self.f.element(b, s), self.g.element(c, t), witness=w)


def day_decomp(f_sheaf: Presheaf, g_sheaf: Presheaf, mon: MonoidalStructure) -> Presheaf:
    """The decomposition presheaf of two presheaves on a monoidal base.

    Powerset base: stages index exact decompositions (B union C = A) and
    restriction re-canonicalises componentwise through (B & V, C & V), so
    a table is offset arithmetic over F's and G's tables.  Other bases:
    triples keep an explicit witness morphism and restrict by
    precomposition.  Ids are those of `_Triples`; `blocks(a)` lists the
    splittings (b, c) of a in id order, and a block runs row-major over
    F(b) x G(c).
    """
    if mon is None:
        raise MonoidalStructureError("day_decomp needs a monoidal base")
    cat = f_sheaf.base
    triples = _Triples(f_sheaf, g_sheaf, mon)
    exact = triples.exact

    def halves(h, b, c):
        """The halves of the block (b, c) at dst h once restricted along h,
        and the tables of F and G that restrict the sections."""
        if not exact:
            return b, c, f_sheaf.table(cat.id(b)), g_sheaf.table(cat.id(c))
        b2, c2 = b & cat.src(h), c & cat.src(h)
        return b2, c2, f_sheaf.table(cat.hom(b2, b)[0]), g_sheaf.table(cat.hom(c2, c)[0])

    def table(h):
        # an id is offset + (s * |G(c)| + t) * n + k
        v, a = cat.src(h), cat.dst(h)
        below, out = triples.blocks(v)[0], []
        for (b, c), (_, ws, _) in triples.blocks(a)[0].items():
            b2, c2, fs, gs = halves(h, b, c)
            off, ws2, at = below[b2, c2]
            width, n = g_sheaf.size(c2), len(ws2)
            if exact:
                out += [r + y for r in [off + x * width for x in fs] for y in gs]
            else:
                moved = [at[cat.compose(w, h)] for w in ws]
                out += [off + (x * width + y) * n + k for x in fs for y in gs for k in moved]
        return tuple(out)

    kind = "(*)" if exact else "(*)w"
    ps = Presheaf(cat, triples.size, table, triples.decode,
                  name=f"({f_sheaf.name} {kind} {g_sheaf.name})", locations=f_sheaf.locations)
    ps.blocks = lambda a: list(triples.blocks(a)[0])
    return ps


def splittings(cat: FinCat, mon: MonoidalStructure, v):
    """The exact splittings of v: pairs (b, c) with b tensor c = v, in
    sorted order, on the powerset as the pairs of sorted location tuples
    that the masks stand for (by their bit lists).  They are tabulated
    for every v in one pass over the tensor on first use and kept on the
    monoidal structure."""
    by_v = mon.memo.get("splittings")
    if by_v is None:
        by_v = {}
        for bc, a in mon.tensor_obj.items():
            by_v.setdefault(a, []).append(bc)
        key = (lambda bc: (bits(bc[0]), bits(bc[1]))) if cat.kind == "powerset" else None
        by_v = mon.memo["splittings"] = {a: tuple(sorted(p, key=key)) for a, p in by_v.items()}
    return by_v.get(v, ())


def dinaturality_generators(cat: FinCat, mon: MonoidalStructure):
    """The morphism pairs whose dinaturality squares generate the coend
    relation: (u, id) and (id, v) with u and v not identities; a general
    pair follows by transitivity, as u tensor v = (u tensor id).(id tensor
    v) for a bifunctor.  On the powerset base u and v are covering
    inclusions (one added location), of which every inclusion is a
    composite."""
    steps = [m for m in cat.all_morphisms() if not cat.is_identity(m)
             and (cat.kind != "powerset" or m[1].bit_count() == m[0].bit_count() + 1)]
    pairs = [(u, cat.id(c)) for u in steps for c in cat.objects]
    pairs += [(cat.id(b), v) for v in steps for b in cat.objects]
    return [(u, v) for u, v in pairs if mon.tensor_defined(cat.src(u), cat.src(v))
            and mon.tensor_defined(cat.dst(u), cat.dst(v))]


def day_coend(f_sheaf: Presheaf, g_sheaf: Presheaf, mon: MonoidalStructure,
              budget=DEFAULT_COEND_BUDGET) -> Presheaf:
    """Day convolution proper: `day_decomp` modulo dinaturality.

    On the powerset the exact splittings are final among the pairs (b, c)
    with a -> b tensor c, as (b, c) |-> (b & a, c & a) is right adjoint to
    their inclusion (Mac Lane, CWM IX.3).  So on either base the coend at
    a is a quotient of the decompositions at a: a union-find over their
    ids closes off (w, F(u)s, G(v)t) ~ ((u tensor v).w, s, t) on the
    `dinaturality_generators` with both blocks at a.  The budget bounds
    the decompositions at a stage.  A class is named by its least id,
    restriction reads the decomposition tables, and `class_of` sends a
    triple with witness w to the class of decomp(w) of its
    identity-witness triple at b tensor c.  The quotiented decomposition
    presheaf is kept as `decomp`, and `decompositions(a)` counts the
    decompositions at a under the budget without quotienting them.
    """
    if mon is None:
        raise MonoidalStructureError("day_coend needs a monoidal base")
    cat = f_sheaf.base
    triples, decomp = _Triples(f_sheaf, g_sheaf, mon), day_decomp(f_sheaf, g_sheaf, mon)
    gens = []

    def decompositions(a):
        """The number of decompositions at a; BudgetExceededError above the budget."""
        n = triples.size(a)
        if n > budget:
            raise BudgetExceededError(f"{n} coend decompositions at {f_sheaf.named(a)!r} "
                                      f"exceed budget {budget}", size=n)
        return n

    @cache
    def classes_at(a):
        """The class of each decomposition id, and each class's least id."""
        blocks, n = triples.blocks(a)[0], decompositions(a)
        if not gens:
            gens.extend(dinaturality_generators(cat, mon))
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            return x

        for u, v in gens:
            b, b2, c, c2 = cat.src(u), cat.dst(u), cat.src(v), cat.dst(v)
            if (b, c) not in blocks or (b2, c2) not in blocks:
                continue
            (lo, ws, _), (hi, ws2, at2) = blocks[b, c], blocks[b2, c2]
            fu, gv = f_sheaf.table(u), g_sheaf.table(v)
            n1, n2 = len(ws), len(ws2)
            w1, w2 = g_sheaf.size(c) * n1, g_sheaf.size(c2) * n2
            for k, w in enumerate(ws):
                k2 = 0 if triples.exact else at2[cat.compose(mon.tensor_m(u, v), w)]
                for s2 in range(f_sheaf.size(b2)):
                    x0, y0 = lo + fu[s2] * w1 + k, hi + s2 * w2 + k2
                    for t2 in range(g_sheaf.size(c2)):
                        rx, ry = find(x0 + gv[t2] * n1), find(y0 + t2 * n2)
                        if rx != ry:
                            parent[ry] = rx
        # ids ascend, so the first id seen in a class is its least
        named, reps = {}, []
        for i in range(n):
            if named.setdefault(find(i), len(reps)) == len(reps):
                reps.append(i)
        return [named[find(i)] for i in range(n)], reps

    def table(h):
        down, of = decomp.table(h), classes_at(cat.src(h))[0]
        return tuple(of[down[i]] for i in classes_at(cat.dst(h))[1])

    def decode(a, k):
        return CoendClass(decomp.element(a, classes_at(a)[1][k]))

    def class_of(d: Decomp) -> CoendClass:
        """Quotient map from triples to classes; a triple given without
        a witness takes the one morphism a -> b tensor c."""
        a, b, c = d.stage, d.left_stage, d.right_stage
        bc = mon.tensor(b, c)
        i = triples.node(bc, b, c, None if triples.exact else cat.id(bc),
                         f_sheaf.index(b)[d.left], g_sheaf.index(c)[d.right])
        w = cat.hom(a, bc)[0] if d.witness is None else d.witness
        return ps.element(a, classes_at(a)[0][decomp.table(w)[i]])

    name = f"({f_sheaf.name} (x) {g_sheaf.name})"
    ps = Presheaf(cat, lambda a: len(classes_at(a)[1]), table, decode, name=name,
                  locations=f_sheaf.locations)
    ps.class_of, ps.decomp, ps.decompositions = class_of, decomp, decompositions
    return ps


# -- resource monoids ------------------------------------------------------


# the cell rule's value where two cells do not combine
UNDEFINED = object()


@dataclass(frozen=True)
class ResourceMonoid:
    """A partial multiplication on a partial-memory sheaf, defined cell
    by cell (a separation algebra on one carrier: Calcagno, O'Hearn and
    Yang, LICS 2007); `build_memory_monoid` refuses any other carrier.

    `cell(x, y)` combines the values two halves store at a location they
    share, or is UNDEFINED; a location in one half only keeps its value.
    The product is defined iff every shared cell combines.  `apply` is
    that rule on two heaps over the same locations.  The unit is the
    empty heap, id 0 at the empty stage 0.

    A heap's id is its mixed-radix code over the carrier's `cells` (see
    `build_resource_sheaf`), so products are digit arithmetic on ids.
    For a splitting (b, c) of v with overlap o, the product of the ids i
    at b and j at c has the code E_b(i) + E_c(j) + M_o(z_i, t_j) at v.
    E_b(i) is i's digits at b only, at their weights in v; z_i is the
    code of i's restriction to o; M_o combines two codes at o digit by
    digit through `_digits`, the cell rule on one digit, and places the
    result at v's weights, or is undefined when a digit is.  The three
    terms hold disjoint digits, so the sum carries nothing.  M_o is read
    off `overlap`, tables of o's two halves of at most two locations
    each, so that no table has more than r^4 entries; `products` and the
    star both read them.  A table of the cell rule (the digit rule, a
    half's meet) past CELL_TABLE_BOUND entries is refused before it is
    built.

    A rule is agreement-only (`agreement`) when two different digits
    never combine and a digit d with itself gives d or nothing.  Such a
    rule needs none of this arithmetic: a product is the heap h at b u c
    with h|b and h|c the halves, defined iff h's cells at the overlap
    lie in D = {d : d.d = d} (`agreeing`).  The star reads such a monoid
    through restriction tables alone, and reads `overlap` only under the
    other rules (the total one); `products` reads it under every rule.
    Every table is built on first use and kept on the monoid; those that
    depend on shapes alone, the halves' tables (`_half`) and `agreeing`
    (`_agreeing`), are built in the carrier's shape entry and shared.
    """

    carrier: Presheaf
    variant: str
    cell: object  # callable (value, value) -> value | UNDEFINED
    _tables: dict = field(default_factory=dict, repr=False, compare=False)

    def apply(self, xs, ys):
        """The cellwise product of two heaps' values over the same
        locations, or None when a cell is UNDEFINED."""
        cells = tuple(map(self.cell, xs, ys))
        return None if UNDEFINED in cells else cells

    def _memo(self, key, build):
        try:
            return self._tables[key]
        except KeyError:
            out = self._tables[key] = build()
            return out

    def _digits(self):
        """(r, rule): the number of the carrier's cells, and rule[d][e] the
        digit of the product of the cells with digits d and e, or -1 where
        `apply` leaves the carrier, as a tuple of rows."""
        def build():
            cells = self.carrier.cells
            _bound_cell_table("the digit rule", len(cells), 1)
            digit = {(x,): d for d, x in enumerate(cells)}
            return len(cells), tuple(tuple(digit.get(self.apply((x,), (y,)), -1) for y in cells)
                                     for x in cells)
        return self._memo("digits", build)

    def agreement(self):
        """D, the digits d with rule[d][d] = d, when the cell rule is
        agreement-only: rule[d][e] is -1 for d != e and rule[d][d] is d
        or -1.  None for any other rule."""
        def build():
            r, rule = self._digits()
            if all(rule[d][e] in ((d, -1) if d == e else (-1,))
                   for d in range(r) for e in range(r)):
                return frozenset(d for d in range(r) if rule[d][d] == d)
            return None
        return self._memo("agreement", build)

    def agreeing(self, o, v):
        """Under an agreement-only rule, the ids at v whose cells at the
        sub-stage o all lie in D, as a bitset: the heaps at v that are
        the product of their restrictions to two halves overlapping at o."""
        return self._memo(("agreeing", o, v), lambda: _agreeing(
            self.carrier.shape, self.agreement(), _exponents(v, o, o)))

    def overlap(self, o, v):
        """M_o at v for an overlap o, a sub-stage of v, as a pair of
        tables, one per half of o: its first two locations (the most
        significant digits of a code at o) and the rest.  See `_half`."""
        def build():
            rule, at_o = self._digits()[1], _exponents(o, o, v)
            return tuple(_half(self.carrier.shape, rule, v.bit_count(), h)
                         for h in (at_o[:2], at_o[2:]))
        return self._memo(("overlap", o, v), build)

    def products(self, b, c):
        """The product table of the splitting (b, c), built on first use:
        row i, column j is the id at b u c of the product of the elements
        with ids i at b and j at c, or -1 when it is undefined or leaves
        the carrier."""
        def build():
            v, o = b | c, b & c
            o1 = sum(1 << i for i in bits(o)[:2])  # o's first two locations, then the rest
            (_, _, meet1), (_, _, meet2) = self.overlap(o, v)
            part = self.carrier.part

            def digits(a):
                """Per id at a: E_a, and its codes at o's two halves."""
                return zip(part(a, a & ~o, v), part(a, o1, o1), part(a, o ^ o1, o ^ o1))

            right, rows = list(digits(c)), []
            for e, z1, z2 in digits(b):
                row1, row2 = meet1[z1], meet2[z2]
                rows.append([e + f + m if (m := row1[t1] + row2[t2]) >= 0 else -1
                             for f, t1, t2 in right])
            return rows
        return self._memo(("products", b, c), build)


@_per_shape
def _agreeing(shape, keep, exponents):
    """`ResourceMonoid.agreeing` for the digits D = keep on a memory
    carrier of this shape, at o <= v given by `_exponents(v, o, o)`: the
    preimage along the restriction to o of the ids there whose digits
    all lie in D.  Built in the carrier's shape entry, per digit set."""
    r, n = shape.r, len(exponents)
    m = n - exponents.count(None)
    if not m or len(keep) == r:
        return (1 << _size(shape, n)) - 1
    if not keep:
        return 0
    ok = [all(z // r ** k % r in keep for k in range(m))
          for z in _part(shape, tuple(range(m - 1, -1, -1)))]
    return _preimage(_table(shape, exponents), _bitset(ok))


@_per_shape
def _half(shape, rule, n, exponents):
    """(place, zero, meet) for the sub-stage h of a stage v of n
    locations, h's locations being the digits of weight r^e of a code at
    v, e in exponents, under the digit rule (`ResourceMonoid._digits`):
    place[z] is the code z at h placed at v's weights; zero is the bitset
    of the codes at v whose digits at h are all 0; meet[z][t] is place of
    the cellwise product of the codes z and t at h, or a number below
    -r^n when a digit is undefined, so that the sum of the two halves'
    meets is negative iff the product is.  The empty h has place (0,),
    zero -1 (every code) and meet ((0,),).  They depend on the rule and the
    digits' places alone, so they are built in the carrier's shape entry:
    at most 25 per rule up to 4 locations, of at most r^4 entries each."""
    r = len(rule)
    _bound_cell_table(f"the meet of an overlap's half of {len(exponents)} locations", r,
                      len(exponents))
    size = r ** n
    place, zero, meet = [0], -1, [[0]]
    for e in exponents:
        w = r ** e
        at_e = [[-size if d < 0 else d * w for d in row] for row in rule]
        place = [p + d * w for p in place for d in range(r)]
        # the codes whose digit of weight w is 0: w of every r * w
        zero &= ((1 << w) - 1) * (((1 << size) - 1) // ((1 << r * w) - 1))
        meet = [[m + x for m in row for x in digit] for row in meet for digit in at_e]
    return tuple(place), zero, tuple(map(tuple, meet))


def _bound_cell_table(table, r, h):
    """Refuse a table of r^(2h) entries, one per pair of codes of h digits
    among r cells, past CELL_TABLE_BOUND, before it is built."""
    n = r ** (2 * h)
    if n > CELL_TABLE_BOUND:
        raise BudgetExceededError(f"{table} on {r} cells has {n} entries, past the bound "
                                  f"{CELL_TABLE_BOUND}", size=n)


def build_memory_monoid(mp: Presheaf, variant: str) -> ResourceMonoid:
    """The partial-memory monoid in its three flavours, by their cell rule.

    total          conflicting cells collapse to the unallocated value
    weak-partial   defined iff the halves agree on the overlap
    strong-partial defined iff the halves touch disjoint regions
    The unit is the empty heap at the empty region in all variants.
    """
    if getattr(mp, "shape", None) is None or mp.shape.key[0] != "partial-memory":
        raise MonoidalStructureError(f"memory monoids need a partial-memory sheaf, got {mp.name}")
    cells = {
        "total": lambda x, y: x if x == y else None,
        "weak-partial": lambda x, y: x if x == y else UNDEFINED,
        "strong-partial": lambda x, y: UNDEFINED,
    }
    if variant not in cells:
        raise MonoidalStructureError(f"unknown monoid variant {variant!r}")
    return ResourceMonoid(mp, variant, cells[variant])


def check_monoid_laws(monoid: ResourceMonoid, mon: MonoidalStructure) -> Report:
    """Unit, associativity and commutativity on heaps, by a pointwise
    certificate.  A pointwise product of partial commutative monoids is
    one (Calcagno, O'Hearn and Yang, "Local Action and Abstract Separation
    Logic", LICS 2007), so the heap laws follow from: every product-table
    entry is the cellwise product of its pair, -1 exactly when a shared
    cell is UNDEFINED ("pointwise"); and the cell rule is commutative and
    associative on the carrier's values and None, UNDEFINED absorbing.
    The unit law is read off the tables' rows and columns of the unit,
    id 0 at the empty stage 0."""
    rep = Report(f"monoid laws ({monoid.variant})")
    mp, cell = monoid.carrier, monoid.cell
    cat = mp.base

    def product(b, c, k):
        return None if k == -1 else mp.element(mon.tensor(b, c), k)

    for b in cat.objects:
        for c in cat.objects:
            v = mon.tensor(b, c)
            # where each location of v is read: from b, from c, or both
            at_b, at_c = ({i: k for k, i in enumerate(bits(a))} for a in (b, c))
            where = [(at_b.get(i), at_c.get(i)) for i in bits(v)]
            for s, row in zip(mp.at(b), monoid.products(b, c)):
                for t, got in zip(mp.at(c), row):
                    cells = [t.values[j] if i is None else s.values[i] if j is None
                             else cell(s.values[i], t.values[j]) for i, j in where]
                    want = -1 if UNDEFINED in cells else mp.code(cells)
                    if got != want:
                        cellwise = ("outside the carrier" if want is None
                                    else f"{product(b, c, want)} cellwise")
                        rep.flag("pointwise", f"{s}.{t} is {product(b, c, got)} in the "
                                              f"product table, but {cellwise}")
    n_unit = 0
    for a in cat.objects:
        lefts, rights = monoid.products(0, a)[0], monoid.products(a, 0)
        for s, k, row in zip(mp.at(a), lefts, rights):
            left, right = product(0, a, k), product(a, 0, row[0])
            n_unit += 1
            if left != s:
                rep.flag("unit", f"unit . {s} = {left} != {s}")
            if right != s:
                rep.flag("unit", f"{s} . unit = {right} != {s}")

    def mul(x, y):
        return UNDEFINED if x is UNDEFINED or y is UNDEFINED else cell(x, y)

    def show(x):
        return "undefined" if x is UNDEFINED else repr(x)

    values = list(dict.fromkeys([None] + [x for a in cat.objects for h in mp.at(a)
                                          for x in h.values]))
    for x in values:
        for y in values:
            if cell(x, y) != cell(y, x):
                rep.flag("commutativity", f"cell {x!r}.{y!r} = {show(cell(x, y))} != "
                                          f"{show(cell(y, x))} = {y!r}.{x!r}")
            for z in values:
                lhs, rhs = mul(mul(x, y), z), mul(x, mul(y, z))
                if lhs != rhs:
                    rep.flag("associativity", f"cell ({x!r}.{y!r}).{z!r} = {show(lhs)} != "
                                              f"{show(rhs)} = {x!r}.({y!r}.{z!r})")
    rep.note(f"checked {n_unit} unit and {len(values) ** 3} associativity instances")
    return rep


# -- Day stability ----------------------------------------------------------


def _convolved_mono(mon, alpha: SheafMorphism, g_sheaf):
    """Per stage, the images in day(F, G) of the triples of day(F', G)
    under the map that alpha: F' -> F induces: (b, c, w, s, t) goes to
    the id of (b, c, w, alpha(s), t), or to -1 where alpha is
    undefined."""
    small, big = _Triples(alpha.source, g_sheaf, mon), _Triples(alpha.target, g_sheaf, mon)
    return {a: [-1 if j < 0 else big.node(a, b, c, w, j, t)
                for (b, c), (_, ws, _) in small.blocks(a)[0].items()
                for j in alpha.ids(b) for t in range(g_sheaf.size(c)) for w in ws]
            for a in alpha.source.base.objects}


def _lub_least_covers(site: Site) -> bool:
    """Whether the site is a powerset whose least cover at every stage a
    is the sieve of the inclusions of {} and of a's singletons, as on the
    lub coverages (downward-closed, finite-covers)."""
    cat, cov = site.cat, site.cov
    return cat.kind == "powerset" and all(
        {cat.src(f) for f in cov.min_cover(a).members} == {0, *(1 << i for i in bits(a))}
        for a in cat.objects)


def _is_sheaf(ps: Presheaf, cov) -> bool:
    """`is_sheaf`, with a budget blown on a least cover read as False: a
    premise that cannot be certified, so the convolution is replayed."""
    try:
        return is_sheaf(ps, cov)
    except BudgetExceededError:
        return False


def _flabby_point(ps: Presheaf) -> bool:
    """On the powerset: whether F({}) holds one element and every
    restriction table is onto (F is flabby), read in one pass over the
    tables."""
    cat = ps.base
    return cat.kind == "powerset" and ps.size(0) == 1 and all(
        set(range(ps.size(cat.src(f)))) <= set(ps.table(f)) for f in cat.all_morphisms())


def _certified_sheaf(conv: Presheaf, cov, budget=DEFAULT_FAMILY_BUDGET):
    """What `check_sheaf` raises on a convolution certified a sheaf
    (lemma B): it enumerates least covers alone, and on a sheaf the
    partial families after each generator of the least cover at a number
    |F(b)| for the union b of their sources.  So it raises at the first
    stage a in order with |F(a)| above its budget, at a's least cover."""
    for a in conv.base.objects:
        n = conv.size(a)
        if n > budget:
            raise _budget_error(cov.min_cover(a), n, budget)


def check_day_stability(site: Site, samples, inclusions=(), budget=DEFAULT_COEND_BUDGET,
                        keep=None) -> Report:
    """Runtime checks for the three Day-stability conditions.

    (1) decomposition and coend convolutions of the samples satisfy the
        sheaf condition for the site's coverage.  Two lemmas (proved in
        the README) decide a convolution from its factors, and each
        premise is checked on the samples and the site:
        - lemma B: on the powerset with the lub coverages' least covers,
          the decomposition form of two sheaves (`is_sheaf`) is a sheaf;
        - lemma C: on the powerset, the coend of two presheaves that
          hold one element at {} and whose restriction tables are all
          onto has one class per stage, so it is terminal and a sheaf
          for every coverage.
        A convolution that no lemma decides runs `check_sheaf`, which
        certifies it on least covers or replays every cover.  A decided
        one raises the budget error `check_sheaf` would raise, and the
        coend's decompositions are counted under its budget.
    (2) convolving a sampled subsheaf inclusion stays injective
        stage-wise;
    (3) the lax-monoidal witness gamma: C/a x C/b -> C/(a tensor b) is
        functorial.  It is the tensor on base morphisms: a slice morphism
        g: q -> p is a base morphism with p.g = q, and gamma(g1, g2) =
        g1 tensor g2.  So gamma is defined, preserves identities and
        composition exactly when the tensor is a (partial) bifunctor,
        which `fincat.validate_monoidal` decides; its functoriality,
        definedness and typing violations are flagged as `gamma`.

    `inclusions` holds sheaf morphisms F' >-> F, named by their `name`.
    The report lists the first `keep` violations (all when None), and
    counts the rest, the sheaf replays' included.
    """
    rep = Report("Day stability", keep=keep)
    cat, mon = site.cat, site.monoidal
    if mon is None:
        raise MonoidalStructureError("site has no monoidal structure")

    def sheaf_condition(kind, conv):
        inner = check_sheaf(conv, site.cov, keep=keep)
        for v in inner.violations:
            rep.flag(kind, f"{conv.name}: {v.detail}")
        rep.unlisted += inner.unlisted

    lub = _lub_least_covers(site)
    sheaf = cache(lambda i: lub and _is_sheaf(samples[i], site.cov))
    flabby = cache(lambda i: _flabby_point(samples[i]))
    for i, f_sheaf in enumerate(samples):
        for j, g_sheaf in enumerate(samples):
            coend = day_coend(f_sheaf, g_sheaf, mon, budget)
            if sheaf(i) and sheaf(j):
                _certified_sheaf(coend.decomp, site.cov)
            else:
                sheaf_condition("decomp-sheaf", coend.decomp)
            if flabby(i) and flabby(j):
                for a in cat.objects:
                    coend.decompositions(a)
            else:
                sheaf_condition("coend-sheaf", coend)

    def injective(col):
        defined = [j for j in col if j >= 0]
        return len(set(defined)) == len(defined)

    for alpha in inclusions:
        for a in cat.objects:
            if not injective(alpha.ids(a)):
                rep.flag("mono", f"{alpha.name}: supplied components not injective at "
                                 f"{alpha.source.named(a)!r}")
        for g_sheaf in samples:
            for a, col in _convolved_mono(mon, alpha, g_sheaf).items():
                if not injective(col):
                    rep.flag("mono-preservation", f"day({alpha.name}, {g_sheaf.name}) not "
                                                  f"injective at {alpha.source.named(a)!r}")
    for v in validate_monoidal(cat, mon).violations:
        if v.kind in ("functoriality", "definedness", "typing"):
            rep.flag("gamma", v.detail)
    return rep
