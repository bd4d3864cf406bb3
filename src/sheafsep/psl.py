"""Probabilistic separation at finite scale: probability spaces with
exact rational measures, distribution atoms, and the independence-based
separating conjunction.

The star search runs over pairs of partitions of the sample set rather
than raw surjection pairs: a surjection enters the semantics only
through its fibre partition and the transported measure, so canonical
quotient maps (blocks labelled by least elements) are reconstructed for
the witness.  The search is exact in integers: a measure is scaled to
its common denominator, the candidate pairs come from a measure-free
table per sample-set size, and everything derived from a space lives in
a memo that ends with the top-level call.  The search decides by
persistence: a formula with no implication outside a star that holds on
the component of a measurable partition holds on the component of every
finer one (the lemma and its proof are in the README), so an operand
that fails on a partition rules out all its coarsenings, and one that
fails on the space's own blocks rules out the whole search.  Component
sigma-algebras are discrete, the maximal choice compatible with checking
variable measurability on the components; the partition-valued
alternative would thread each component's algebra through the recursion
instead.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from .errors import (
    NotMeasurableError,
    PslBoundError,
    UnknownIdentifierError,
)
from .seplogic import And, Bottom, DistAtom, Imp, Or, Star, Top

DEFAULT_SPACE_BOUND = 6


def check_space(size, blocks, measure):
    """Check in integers that `blocks` partition {1..size} and that
    `measure`, one (numerator, denominator) pair per block with positive
    denominators, is non-negative and sums to exactly 1 over the common
    denominator; raises ValueError naming the first check that fails, in
    that order.  The model loader and `ProbSpace` both validate here."""
    seen, points = set(), 0
    for block in blocks:
        seen.update(block)
        points += len(block)
    # the length test first, so a huge size builds no huge range
    if len(seen) != size or seen != set(range(1, size + 1)):
        raise ValueError("blocks must partition the sample set")
    if points != size:
        raise ValueError("blocks overlap")
    d, total = math.lcm(*[q for _, q in measure]), 0
    for p, q in measure:
        if p < 0:
            raise ValueError("measures must be non-negative Fractions")
        total += p * (d // q)
    if total != d:
        raise ValueError("block measures must sum to exactly 1")


@dataclass(frozen=True)
class ProbSpace:
    """A probability space on the canonical sample set {1..size}.

    `blocks` is a partition generating the sigma-algebra, ordered by
    least element; `measure` assigns each block an exact rational, and
    the measures must sum to exactly 1.
    """

    size: int
    blocks: tuple
    measure: tuple

    def __post_init__(self):
        for block in self.blocks:
            if not block or tuple(sorted(block)) != block:
                raise ValueError(f"block {block!r} must be nonempty and sorted")
        if tuple(sorted(self.blocks, key=lambda b: b[0])) != self.blocks:
            raise ValueError("blocks must be ordered by least element")
        if not all(isinstance(p, Fraction) for p in self.measure):
            raise ValueError("measures must be non-negative Fractions")
        check_space(self.size, self.blocks, [(p.numerator, p.denominator) for p in self.measure])

    @staticmethod
    def of(size, block_iter, measure_iter):
        measures = []
        for m in measure_iter:
            if isinstance(m, float):
                raise ValueError("measures must be exact rationals, not floats")
            measures.append(m if type(m) is Fraction else Fraction(m))
        pairs = sorted(
            zip((tuple(sorted(b)) for b in block_iter), measures),
            key=lambda bm: bm[0][0],
        )
        return ProbSpace(size, tuple(b for b, _ in pairs), tuple(m for _, m in pairs))


@dataclass(frozen=True)
class RandomVariable:
    """A total map {1..size} -> Z given by its value tuple."""

    values: tuple

    @property
    def size(self):
        return len(self.values)

    def __call__(self, point):
        return self.values[point - 1]


def _block_values(x: RandomVariable, sp: ProbSpace) -> tuple:
    """X's value on each block; X must be constant on every block."""
    if x.size != sp.size:
        raise ValueError("variable and space have different sample sets")
    out = _descend(x.values, sp.blocks)
    if out is None:
        for block in sp.blocks:
            vals = {x(i) for i in block}
            if len(vals) > 1:
                raise NotMeasurableError(f"variable takes {sorted(vals)!r} on one block", block=block)
    return out


def law_of(x: RandomVariable, sp: ProbSpace) -> dict:
    """The induced distribution of X under the measure; X must be
    constant on every block."""
    law = {}
    for v, p in zip(_block_values(x, sp), sp.measure):
        law[v] = law.get(v, Fraction(0)) + p
    return {v: p for v, p in sorted(law.items()) if p != 0}


def independence_oracle(sp: ProbSpace, x: RandomVariable, y: RandomVariable) -> bool:
    """Exact check that the joint law factorises into the marginals, in
    integers: the measure is scaled to its common denominator D once, the
    joint weights come from one pass over the blocks and the marginal
    weights from the joint, and joint · D is compared with the product of
    the two marginals wherever both are nonzero."""
    joint, law_x, law_y = {}, {}, {}
    values = zip(_block_values(x, sp), _block_values(y, sp))
    space = _Space.scaled(sp)
    for key, w in zip(values, space.weights):
        joint[key] = joint.get(key, 0) + w
    for (a, b), w in joint.items():
        law_x[a] = law_x.get(a, 0) + w
        law_y[b] = law_y.get(b, 0) + w
    d = space.denominator
    return all(
        joint.get((a, b), 0) * d == wa * wb
        for a, wa in law_x.items() if wa
        for b, wb in law_y.items() if wb
    )


# -- the separating conjunction search ---------------------------------------


def set_partitions(items):
    """All partitions of a finite list, in a canonical deterministic order."""
    items = list(items)
    if not items:
        yield ()
        return

    def rec(points):
        if not points:
            yield []
            return
        head, tail = points[0], points[1:]
        for part in rec(tail):
            for i in range(len(part)):
                yield part[:i] + [[head] + part[i]] + part[i + 1 :]
            yield [[head]] + part

    canon_all = {
        tuple(sorted((tuple(sorted(b)) for b in part), key=lambda b: b[0]))
        for part in rec(items)
    }
    yield from sorted(canon_all)


def _quotient_surjection(partition):
    """The canonical quotient map: block index by least element order."""
    labels = {}
    for idx, block in enumerate(partition, start=1):
        for point in block:
            labels[point] = idx
    return tuple(labels[i] for i in range(1, len(labels) + 1))


def _mask(block):
    return sum(1 << (i - 1) for i in block)


# size -> (partitions, pairs, coarsenings), see `_pair_table`;
# measure-free, so it holds one entry per sample-set size and no
# per-space state
_PAIR_TABLES = {}


def _pair_table(n):
    """The partitions of {1..n} in `set_partitions` order, each with its
    block bitmasks; the pairs of partitions whose blocks all meet, as
    rows (i, [(j, grid), ...]) with p1 = partition i outer and p2 =
    partition j inner, and grid the intersection bitmasks (blocks of p1
    outer), since only these pairs can realise a product; and per
    partition k the bitset, over partition indices, of k and all its
    coarsenings."""
    table = _PAIR_TABLES.get(n)
    if table is None:
        parts = [
            (p, tuple(_mask(b) for b in p)) for p in set_partitions(range(1, n + 1))
        ]
        # every block of one partition meets every block of the other only
        # if each block is at least as large as the other's block count:
        # per (block count, least block size), the partitions that fit, in order
        shapes = [(len(p), min(map(len, p))) for p, _ in parts]
        fits = {}
        for r, least in set(shapes):
            fits[r, least] = [(j, parts[j][1]) for j, (c, least2) in enumerate(shapes)
                              if c <= least and least2 >= r]
        rows = []
        for i, (_, masks1) in enumerate(parts):
            row = []
            for j, masks2 in fits[shapes[i]]:
                grid = tuple([a & b for a in masks1 for b in masks2])
                if all(grid):
                    row.append((j, grid))
            if row:
                rows.append((i, row))
        table = _PAIR_TABLES[n] = (parts, rows, _coarsenings(parts))
    return table


def _coarsenings(parts):
    """Per partition, the bitset of itself and every partition it refines.
    A coarsening merges blocks, so the coarsenings of k are k and the
    coarsenings of every merge of two of its blocks; a merge has fewer
    blocks, so partitions are visited by block count.  A merged block
    keeps the place of its first block, which is the least-element
    order again."""
    index = {masks: k for k, (_, masks) in enumerate(parts)}
    coarser = [0] * len(parts)
    for k in sorted(range(len(parts)), key=lambda k: len(parts[k][1])):
        masks = parts[k][1]
        bits = 1 << k
        for a in range(len(masks)):
            for b in range(a + 1, len(masks)):
                merged = (*masks[:a], masks[a] | masks[b], *masks[a + 1 : b], *masks[b + 1 :])
                bits |= coarser[index[merged]]
        coarser[k] = bits
    return coarser


class _Space:
    """A space in integers: block weights scaled to the common
    denominator D of the measure.  The weights must be non-negative and
    sum to D > 0; a measure is a `Fraction` again only in `marginals`.
    It is `discrete` when every block is a single point.  The tables the
    star search reads on it, `tables` and `margins`, are built when first
    read and live as long as the space, which lives no longer than the
    search that built it."""

    __slots__ = ("size", "blocks", "weights", "denominator", "discrete", "margins", "_tables")

    def __init__(self, size, blocks, weights, denominator):
        if denominator <= 0 or min(weights) < 0 or sum(weights) != denominator:
            raise ValueError(
                f"block weights {weights!r} must be non-negative and sum to {denominator!r} > 0"
            )
        self.size = size
        self.blocks = blocks
        self.weights = weights
        self.denominator = denominator
        self.discrete = len(blocks) == size
        self.margins = {}  # partition index -> (masses, key), or None, see `_StarSearch.rows`
        self._tables = None

    def masses(self):
        """The mass of every union of blocks (exactly the measurable
        sets), keyed by bitmask."""
        mass = {0: 0}
        for block, w in zip(self.blocks, self.weights):
            bit = _mask(block)
            mass.update([(u | bit, m + w) for u, m in mass.items()])
        return mass

    def tables(self):
        """(mass, cell): by bitmask, the mass of a measurable set and that
        mass times D, as lookups that give None on a set that is not
        measurable.  On a discrete space block i is point i + 1, so the
        subset sums of the weights, doubled block by block, are the
        masses in bitmask order."""
        if self._tables is None:
            d = self.denominator
            if self.discrete:
                mass = [0]
                for w in self.weights:
                    mass += [m + w for m in mass]
                self._tables = mass.__getitem__, [m * d for m in mass].__getitem__
            else:
                mass = self.masses()
                self._tables = mass.get, {u: m * d for u, m in mass.items()}.get
        return self._tables

    @staticmethod
    def scaled(prob: ProbSpace):
        """The space with its measure scaled to its common denominator."""
        d = math.lcm(*(m.denominator for m in prob.measure))
        weights = tuple(m.numerator * (d // m.denominator) for m in prob.measure)
        return _Space(prob.size, prob.blocks, weights, d)

    def marginals(self):
        """The block measures as the witness prints them."""
        d = self.denominator
        return [str(Fraction(w, d)) for w in self.weights]


def _lowest(masses):
    """A marginal vector in lowest terms, the key of a component space."""
    g = math.gcd(*masses)
    return tuple([a // g for a in masses])


def _factorises(grid, m1, m2, cell):
    """Whether the measure factorises on a pair of measurable partitions:
    cell(b1 & b2) == mass(b1) * mass(b2) for every cell of `grid`, where
    `cell` gives a cell's mass times D by bitmask and m1, m2 are the two
    margins.  Only the (r-1)·(c-1) cells outside the last row and column
    are compared: on both sides the cells of a row sum to its margin
    times D, and those of a column likewise, so these cells fix the
    rest."""
    c = len(m2)
    head = m2[:-1]
    for r, a in enumerate(m1[:-1]):
        k = r * c
        for b in head:
            if cell(grid[k]) != a * b:
                return False
            k += 1
    return True


def _persists(phi) -> bool:
    """Whether truth of the resolved formula on the component of a
    measurable partition carries to the component of every finer one:
    atoms, T, F, every star, and conjunctions and disjunctions of such
    (see the persistence lemma in the README).  An implication is
    classical at a fixed space, so it does not persist."""
    if isinstance(phi, (And, Or)):
        return _persists(phi.left) and _persists(phi.right)
    return not isinstance(phi, Imp)


class _RuledOut:
    """The partitions one star search has ruled out, as bitsets over
    `_pair_table` indices: `rows` whose outer partition cannot satisfy
    the left operand and `columns` whose inner partition cannot satisfy
    the right one.  The search grows them as it reads the operands, and
    `_StarSearch.rows` reads them before a row's margin or a pair's
    cells."""

    __slots__ = ("rows", "columns")

    def __init__(self):
        self.rows = self.columns = 0


def _descend(x, partition):
    """The values of x (a value tuple) per block of the partition, or None
    when x is not constant on every block: x is then not measurable there,
    and atoms on it are false rather than undeclared."""
    if x is None:
        return None
    out = []
    for block in partition:
        v = x[block[0] - 1]
        for i in block[1:]:
            if x[i - 1] != v:
                return None
        out.append(v)
    return tuple(out)


class _Atom:
    """A distribution atom whose variable is resolved to a position, with
    its law as value -> (numerator, denominator)."""

    __slots__ = ("position", "law")

    def __init__(self, position, law):
        self.position = position
        self.law = {}
        for v, p in law.items():
            if not isinstance(p, Fraction):
                p = Fraction(p)
            self.law[v] = p.numerator, p.denominator

    def holds(self, space: _Space, x) -> bool:
        """The law of x (a value tuple) is the atom's; false when x does
        not descend to the space or is not constant on a block.  On a
        discrete space x is its own value per block."""
        if x is None:
            return False
        if len(x) != space.size:
            raise ValueError("variable and space have different sample sets")
        if not space.discrete:
            x = _descend(x, space.blocks)
            if x is None:
                return False
        law = {}
        for v, w in zip(x, space.weights):
            if w:
                law[v] = law.get(v, 0) + w
        target = self.law
        if len(law) != len(target):
            return False
        d = space.denominator
        for v, m in law.items():
            p = target.get(v)
            if p is None or m * p[1] != p[0] * d:
                return False
        return True


def _resolve(phi, variables, positions):
    """The formula with each distribution atom's variable resolved to its
    position in `positions` (filled in order of first use), so that an
    unknown variable raises even in a branch the search skips."""
    if isinstance(phi, (Top, Bottom)):
        return phi
    if isinstance(phi, (And, Or, Imp, Star)):
        return type(phi)(
            _resolve(phi.left, variables, positions),
            _resolve(phi.right, variables, positions),
        )
    if isinstance(phi, DistAtom):
        if phi.var not in variables:
            raise UnknownIdentifierError(f"unknown variable {phi.var!r}")
        return _Atom(positions.setdefault(phi.var, len(positions)), phi.law())
    raise TypeError(f"formula {phi!r} is not a probabilistic formula")


class _StarSearch:
    """The memo of one top-level `psl_sat` call: one component space per
    marginal vector, the variables descended per partition, the truth of
    each sub-formula per (component, variables), and `compared`, the
    number of partition pairs whose cells the search compared.  It is
    dropped when the call returns."""

    def __init__(self):
        self.components = {}
        self.descended = {}
        self.truth = {}
        self.compared = 0

    def rows(self, space: _Space, ruled=None):
        """The rows of `_pair_table(space.size)` whose outer partition is
        measurable and not in `ruled.rows`, in search order, as
        (i, key1, pairs).  `pairs` yields the (j, key2) of the row, j not
        in `ruled.columns`, onto whose product the measure factorises,
        testing a pair's cells only when it is reached, see `_factorises`.
        `ruled` (a `_RuledOut`, none ruled out by default) is read when a
        row or a pair is reached, so the consumer may grow it during the
        walk.  A key is a marginal vector in lowest terms, see
        `component`; a partition's margin and key are computed when the
        partition is first reached on the space (`_Space.margins`).  Every
        row holds (i, trivial), which factorises, so no measurable row is
        empty."""
        if ruled is None:
            ruled = _RuledOut()
        parts, rows, _ = _pair_table(space.size)
        mass, cell = space.tables()
        margins = space.margins

        def margin(k):
            if k not in margins:
                ms = [mass(m) for m in parts[k][1]]
                margins[k] = None if None in ms else (ms, _lowest(ms))
            return margins[k]

        def pairs(m1, row):
            for j, grid in row:
                if ruled.columns >> j & 1:
                    continue
                hit = margin(j)
                if hit is None:
                    continue
                self.compared += 1
                if _factorises(grid, m1, hit[0], cell):
                    yield j, hit[1]

        for i, row in rows:
            if ruled.rows >> i & 1:
                continue
            hit = margin(i)
            if hit is not None:
                yield i, hit[1], pairs(hit[0], row)

    def component(self, key):
        """The discrete space with masses key / sum(key), built when the
        search first visits it and then once per call."""
        space = self.components.get(key)
        if space is None:
            # the discrete partition, the least in `set_partitions` order
            discrete = _pair_table(len(key))[0][0][0]
            space = self.components[key] = _Space(len(key), discrete, key, sum(key))
        return space

    def first_pair(self, star, space, values):
        """The first factorising pair whose components satisfy the
        operands, as (p1, p2, space1, space2), or None.  The left operand
        is read once per row, before any of the row's cells; the right
        one once per inner partition, and only on pairs that factorise.

        A persistent operand (`_persists`) that fails on a partition
        fails on all its coarsenings, and every measurable partition
        coarsens the finest one, the space's own blocks.  So a
        persistent left operand is read on the finest partition first,
        and a persistent right one when the walk first reaches a row
        whose left operand holds, which is where the walk would read it
        anyway; if it fails there, no pair exists.  During the walk a
        row whose persistent left operand fails rules out its
        coarsenings as rows, and an inner partition whose right operand
        fails rules out its coarsenings as inner partitions (only itself
        when the operand does not persist).  A ruled-out row or pair
        only ever holds an operand that fails, so the first pair is the
        one the full walk returns."""
        parts, _, coarser = _pair_table(space.size)
        descended = self.descended.setdefault((values, space.size), {})

        def descend(k):
            out = descended.get(k)
            if out is None:
                out = descended[k] = tuple([_descend(x, parts[k][0]) for x in values])
            return out

        def holds_on_finest(phi):
            # `parts` is in `set_partitions` order, which is sorted
            k = bisect_left(parts, space.blocks, key=itemgetter(0))
            return self.holds(phi, self.component(_lowest(space.weights)), descend(k))

        left, right = star.left, star.right
        left_persists = _persists(left)
        if left_persists and not holds_on_finest(left):
            return None
        right_persists = right_unread = _persists(right)
        ruled = _RuledOut()
        for i, key1, pairs in self.rows(space, ruled):
            space1 = self.component(key1)
            if not self.holds(left, space1, descend(i)):
                if left_persists:
                    ruled.rows |= coarser[i]
                continue
            if right_unread:
                if not holds_on_finest(right):
                    return None
                right_unread = False
            for j, key2 in pairs:
                space2 = self.component(key2)
                if self.holds(right, space2, descend(j)):
                    return parts[i][0], parts[j][0], space1, space2
                ruled.columns |= coarser[j] if right_persists else 1 << j
        return None

    def holds(self, phi, space, values) -> bool:
        # by id: the resolved formula outlives the search, and a key by
        # value would rehash the whole subtree on every lookup
        key = (id(phi), space, values)
        hit = self.truth.get(key)
        if hit is None:
            hit = self.truth[key] = self._holds(phi, space, values)
        return hit

    def _holds(self, phi, space, values):
        if isinstance(phi, _Atom):
            return phi.holds(space, values[phi.position])
        if isinstance(phi, Star):
            return self.first_pair(phi, space, values) is not None
        if isinstance(phi, And):
            return self.holds(phi.left, space, values) and self.holds(phi.right, space, values)
        if isinstance(phi, Or):
            return self.holds(phi.left, space, values) or self.holds(phi.right, space, values)
        if isinstance(phi, Imp):
            return not self.holds(phi.left, space, values) or self.holds(
                phi.right, space, values
            )
        return isinstance(phi, Top)


@dataclass
class PslModel:
    """A probabilistic model: named spaces, shared variables, formulas.

    A space is a `ProbSpace`, or a (size, blocks, measure) triple that
    `check_space` has passed, with the measure as (numerator,
    denominator) pairs; `space` builds the `ProbSpace` of a triple when
    it is first read, so a model file's spaces are all checked at load
    but only the ones a command reads are built."""

    spaces: dict
    variables: dict
    formulas: dict
    name: str = "psl-model"

    def space(self, space_name):
        if space_name not in self.spaces:
            raise UnknownIdentifierError(f"unknown space {space_name!r}")
        sp = self.spaces[space_name]
        if not isinstance(sp, ProbSpace):
            size, blocks, measure = sp
            sp = self.spaces[space_name] = ProbSpace.of(
                size, blocks, [Fraction(p, q) for p, q in measure])
        return sp

    def variables_for(self, sp: ProbSpace):
        return {
            n: x for n, x in self.variables.items() if x.size == sp.size
        }


@dataclass
class PslResult:
    result: bool
    witness: dict | None = None


def psl_sat(sp: ProbSpace, phi, variables) -> PslResult:
    """Satisfaction over a probability space.

    Distribution atoms compare the exact law; star searches for a pair
    of quotients onto whose product the measure factorises, with the
    sub-formulas evaluated on the components under discrete algebras;
    the propositional connectives are classical at a fixed space and
    short-circuit.  Every variable is resolved before the search.
    """
    if sp.size > DEFAULT_SPACE_BOUND:
        raise PslBoundError(
            f"sample space of size {sp.size} exceeds bound {DEFAULT_SPACE_BOUND}")
    positions = {}
    phi = _resolve(phi, variables, positions)
    values = tuple(
        None if variables[name] is None else variables[name].values for name in positions
    )
    search = _StarSearch()
    space = _Space.scaled(sp)
    if not isinstance(phi, Star):
        return PslResult(search.holds(phi, space, values))
    hit = search.first_pair(phi, space, values)
    if hit is None:
        return PslResult(False)
    p1, p2, space1, space2 = hit
    return PslResult(
        True,
        witness={
            "q1": list(_quotient_surjection(p1)),
            "q2": list(_quotient_surjection(p2)),
            "blocks1": [list(b) for b in p1],
            "blocks2": [list(b) for b in p2],
            "marginal1": space1.marginals(),
            "marginal2": space2.marginals(),
        },
    )

