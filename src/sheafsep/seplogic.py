"""The assertion language: parser, atoms, separating conjunction, and
satisfaction checking over memory resource models.

Three points-to atoms are provided.  The strict and non-strict forms
impose nothing at stages missing their location, which makes weak and
strong separating conjunction indistinguishable on them; the allocated
form `x |->! v` demands the location in view and so exposes the
difference (its family is empty below the location, deliberately
breaking the subsheaf invariant - see the atom table in the README).

Separating conjunction comes in two modes that must agree:

  unfolded   the direct set comprehension: a resource satisfies P * Q
             iff some exact decomposition multiplies to it;
  pipeline   existential image along the multiplication into the
             matching-object presheaf followed by the amalgamation
             isomorphism back to the resource sheaf, which is the
             closure of the unfolded comprehension (the README's
             transport lemma): it is computed as that closure on a
             carrier certified a sheaf (`require_sheaf`), so neither
             the matching presheaf nor the iso is built; only `laws`
             builds them, for its adjunction and iso checks.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from typing import NamedTuple

from .day import ResourceMonoid, build_memory_monoid, day_decomp, splittings
from .errors import (
    AtomTypeError,
    CoverageKindError,
    FormulaSyntaxError,
    StageMismatchError,
    UnknownIdentifierError,
)
from .fincat import build_powerset_category
from .pred import (
    KripkePredicate,
    SheafMorphism,
    _all,
    _close,
    _preimage,
    bottom_predicate,
    implication,
    join,
    meet,
    top_predicate,
)
from .presheaf import AmalgamationIso, Presheaf, build_resource_sheaf, require_sheaf
from .site import Site, build_coverage


# -- abstract syntax ---------------------------------------------------------


@dataclass(frozen=True)
class Top:
    pass


@dataclass(frozen=True)
class Bottom:
    pass


@dataclass(frozen=True)
class And:
    left: object
    right: object


@dataclass(frozen=True)
class Or:
    left: object
    right: object


@dataclass(frozen=True)
class Imp:
    left: object
    right: object


@dataclass(frozen=True)
class Star:
    left: object
    right: object


@dataclass(frozen=True)
class PointsToStrict:
    loc: str
    val: int


@dataclass(frozen=True)
class PointsToNonStrict:
    loc: str
    val: int


@dataclass(frozen=True)
class PointsToAlloc:
    loc: str
    val: int


@dataclass(frozen=True)
class DistAtom:
    var: str
    dist: tuple  # sorted tuple of (value, Fraction) pairs

    def law(self):
        return dict(self.dist)


# -- tokenizer and recursive-descent parser ----------------------------------

# deepest bracket nesting, implication chain or syntax tree a formula may
# have; it keeps the recursive parser and evaluators off the stack limit
MAX_FORMULA_DEPTH = 100

# token symbols in the order they are tried, "|->!" before "|->"
_SYMBOLS = {
    "|->!": "MAPSTO_ALLOC", "|->": "MAPSTO", "~>": "HOOKS", "->": "IMP", "/\\": "AND",
    "\\/": "OR", "*": "STAR", "~": "TILDE", "(": "LPAREN", ")": "RPAREN",
    "{": "LBRACE", "}": "RBRACE", ":": "COLON", ",": "COMMA", "/": "SLASH",
}
# \s is str.isspace, \d str.isdecimal, \w str.isalnum or "_"; a word must also
# start with str.isalpha or "_", which \w alone allows for digits such as "²".
# A match is one token with the whitespace before it, ERROR a character
# that starts no token, so the matches of one finditer pass tile the text
# up to its trailing whitespace.
_TOKEN = re.compile(
    r"\s*(?:(?P<SYMBOL>%s)|(?P<INT>-?\d+)|(?P<WORD>\w+)|(?P<ERROR>\S))"
    % "|".join(map(re.escape, _SYMBOLS))
)
_WORDS = {"T": "TOP", "F": "BOT"}
# int() reads a literal of at most this many characters whatever the
# interpreter's digit limit, since sys.set_int_max_str_digits refuses a
# lower one (no limit at all before Python 3.11)
_INT_DIGITS_ALWAYS_READ = getattr(sys.int_info, "str_digits_check_threshold", math.inf)

_UNICODE_ALIASES = {
    "⊤": "T",
    "⊥": "F",
    "∧": "/\\",
    "∨": "\\/",
    "→": "->",
    "∗": "*",
    "↦": "|->",
    "↪": "~>",
}


class _Token(NamedTuple):
    kind: str
    text: str
    pos: int


def _tokenize(text):
    if not text.isascii():
        for uni, ascii_form in _UNICODE_ALIASES.items():
            text = text.replace(uni, ascii_form)
    tokens = []
    # the matches stop at the last character that is not whitespace: a
    # trailing run, which starts no match, would be rescanned from each of
    # its positions
    for m in _TOKEN.finditer(text, 0, len(text.rstrip())):
        kind = m.lastgroup
        word, i = m[kind], m.start(kind)
        if kind == "SYMBOL":
            kind = _SYMBOLS[word]
        elif kind == "INT":
            if len(word) > _INT_DIGITS_ALWAYS_READ:
                try:
                    int(word)
                except ValueError:  # past the interpreter's integer digit limit
                    raise FormulaSyntaxError(f"integer of {len(word)} characters is too long",
                                             i) from None
        elif kind == "WORD" and (word[0].isalpha() or word[0] == "_"):
            kind = _WORDS.get(word, "IDENT")
        else:
            raise FormulaSyntaxError(f"unexpected character {word[0]!r}", i)
        # tuple.__new__, as _Token._make does: the NamedTuple's own __new__
        # is a Python function, a frame per token
        tokens.append(tuple.__new__(_Token, (kind, word, i)))
    tokens.append(_Token("EOF", "", len(text)))
    return tokens


class _Parser:
    """Precedence, loosest first: -> (right), \\/, /\\, * (left)."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok.kind != kind:
            raise FormulaSyntaxError(
                f"expected {kind}, found {tok.text or 'end of input'!r}", tok.pos
            )
        return tok

    def parse_formula(self):
        self.depth += 1
        if self.depth > MAX_FORMULA_DEPTH:
            raise _too_deep(self.peek().pos)
        node = self.parse_or()
        if self.peek().kind == "IMP":
            self.next()
            node = Imp(node, self.parse_formula())
        self.depth -= 1
        return node

    def parse_or(self):
        node = self.parse_and()
        while self.peek().kind == "OR":
            self.next()
            node = Or(node, self.parse_and())
        return node

    def parse_and(self):
        node = self.parse_star()
        while self.peek().kind == "AND":
            self.next()
            node = And(node, self.parse_star())
        return node

    def parse_star(self):
        node = self.parse_atom()
        while self.peek().kind == "STAR":
            self.next()
            node = Star(node, self.parse_atom())
        return node

    def parse_atom(self):
        tok = self.next()
        if tok.kind == "TOP":
            return Top()
        if tok.kind == "BOT":
            return Bottom()
        if tok.kind == "LPAREN":
            node = self.parse_formula()
            self.expect("RPAREN")
            return node
        if tok.kind == "IDENT":
            nxt = self.next()
            if nxt.kind == "MAPSTO":
                return PointsToStrict(tok.text, self.parse_value())
            if nxt.kind == "HOOKS":
                return PointsToNonStrict(tok.text, self.parse_value())
            if nxt.kind == "MAPSTO_ALLOC":
                return PointsToAlloc(tok.text, self.parse_value())
            if nxt.kind == "TILDE":
                return DistAtom(tok.text, self.parse_distribution())
            raise FormulaSyntaxError(
                f"expected a points-to or distribution after {tok.text!r}", nxt.pos
            )
        raise FormulaSyntaxError(
            f"unexpected token {tok.text or 'end of input'!r}", tok.pos
        )

    def parse_value(self):
        tok = self.expect("INT")
        return int(tok.text)

    def parse_fraction(self):
        """A probability as (numerator, denominator), the denominator
        positive."""
        num = self.expect("INT")
        den = 1
        if self.peek().kind == "SLASH":
            self.next()
            tok = self.expect("INT")
            den = int(tok.text)
            if den == 0:
                raise FormulaSyntaxError("zero denominator", tok.pos)
        p = int(num.text)
        if p < 0 < den or den < 0 < p:
            raise FormulaSyntaxError("negative probability", num.pos)
        return (-p, -den) if den < 0 else (p, den)

    def parse_distribution(self):
        """The law as sorted (value, Fraction) pairs without the zero
        masses; the masses must sum to 1, checked in integers over their
        common denominator."""
        self.expect("LBRACE")
        entries = {}
        while True:
            val = self.expect("INT")
            v = int(val.text)
            if v in entries:
                raise FormulaSyntaxError(f"value {val.text} listed twice", val.pos)
            self.expect("COLON")
            entries[v] = self.parse_fraction()
            tok = self.next()
            if tok.kind == "RBRACE":
                break
            if tok.kind != "COMMA":
                raise FormulaSyntaxError("expected ',' or '}' in distribution", tok.pos)
        d = math.lcm(*(q for _, q in entries.values()))
        if sum(p * (d // q) for p, q in entries.values()) != d:
            raise FormulaSyntaxError("distribution does not sum to 1", self.peek().pos)
        return tuple([(v, Fraction(p, q)) for v, (p, q) in sorted(entries.items()) if p])


def parse_formula(text: str):
    """Parse the ASCII/unicode assertion syntax into a Formula tree."""
    parser = _Parser(_tokenize(text))
    node = parser.parse_formula()
    tok = parser.peek()
    if tok.kind != "EOF":
        raise FormulaSyntaxError(f"trailing input {tok.text!r}", tok.pos)
    # a chain of a left-associative connective grows the tree in a loop,
    # so its height is measured here, without recursion
    height, stack = 0, [(node, 1)]
    while stack:
        phi, h = stack.pop()
        height = max(height, h)
        if isinstance(phi, (And, Or, Imp, Star)):
            stack += [(phi.left, h + 1), (phi.right, h + 1)]
    if height > MAX_FORMULA_DEPTH:
        raise _too_deep(0)
    return node


def _too_deep(pos):
    return FormulaSyntaxError(f"formula nests deeper than {MAX_FORMULA_DEPTH} levels", pos)


def formula_atoms(phi):
    if isinstance(phi, (And, Or, Imp, Star)):
        return formula_atoms(phi.left) + formula_atoms(phi.right)
    if isinstance(phi, (PointsToStrict, PointsToNonStrict, PointsToAlloc, DistAtom)):
        return [phi]
    return []


# -- resource models ----------------------------------------------------------


@dataclass
class ResourceModel:
    """A memory model: site, resource sheaf, monoid, its locations and
    values in sorted order, the default stage of interest (the mask of
    every location) and the model's named formulas."""

    site: Site
    sheaf: Presheaf
    monoid: ResourceMonoid | None
    locations: tuple
    values: tuple
    stage: object
    name: str = "memory-model"
    formulas: dict = field(default_factory=dict)

    def check_formula(self, phi):
        for atom in formula_atoms(phi):
            if isinstance(atom, DistAtom):
                raise AtomTypeError("distribution atoms need a probabilistic model")
            if atom.loc not in self.locations:
                raise UnknownIdentifierError(f"unknown location {atom.loc!r}")
            if atom.val not in self.values:
                raise UnknownIdentifierError(f"unknown value {atom.val!r}")


@cache
def powerset_site(n) -> Site:
    """The powerset of n locations with the lub coverage, shared by every
    memory model of n locations whatever their names (bit i of a stage is
    the i-th in sorted order) and by both lub kinds, which have the same
    covers; built once per n <= POWERSET_SIZE_BOUND with its tables."""
    cat, mon = build_powerset_category(n)
    return Site(cat, build_coverage(cat, "downward-closed"), mon)


def make_memory_model(locations, values, sheaf_kind="partial-memory",
                      monoid_variant="weak-partial", coverage_kind="downward-closed",
                      support_bound=None, name="memory-model") -> ResourceModel:
    """Assemble a memory resource model over the powerset site of its
    locations (`powerset_site`).

    Every monoid variant lives on partial memory (a total multiplication
    needs the unallocated value to absorb conflicts): `build_memory_monoid`
    refuses one on another sheaf kind.
    """
    if coverage_kind not in ("downward-closed", "finite-covers"):
        raise CoverageKindError(f"memory models need a lub coverage, got {coverage_kind!r}")
    locations = tuple(sorted(set(locations)))
    site = powerset_site(len(locations))
    sheaf = build_resource_sheaf(site.cat, sheaf_kind, locations, values=values,
                                 bound=support_bound)
    monoid = None
    if monoid_variant is not None:
        monoid = build_memory_monoid(sheaf, monoid_variant)
    stage = (1 << len(locations)) - 1
    return ResourceModel(site, sheaf, monoid, locations, tuple(sorted(values)), stage, name)


def heap_id(mp: Presheaf, a, cells) -> int:
    """The id at a of the heap with these cells in the memory sheaf's
    numbering, or -1 when it is not in the sheaf."""
    code, ids = mp.code(cells), mp.ids(a)
    return -1 if code is None else code if ids is None else ids[code]


def atom_predicate(model: ResourceModel, atom, stage=None) -> KripkePredicate:
    """Interpret a points-to atom as a predicate at the given stage.

    strict      if the location is in view, it stores the value
    non-strict  if in view, it is allocated and stores the value
    allocated   the location is in view, allocated, and stores the value
    """
    if isinstance(atom, DistAtom):
        raise AtomTypeError("distribution atoms are not interpretable over memory")
    stage = model.stage if stage is None else stage
    cat, mp = model.site.cat, model.sheaf
    model.check_formula(atom)
    # in view, every form holds of the heaps storing the value at the
    # location: the fibre over that heap's id at the singleton stage
    one = 1 << model.locations.index(atom.loc)
    i = heap_id(mp, one, (atom.val,))  # -1 under support bound 0
    bits = {}
    for p in cat.mors_into(stage):
        v = cat.src(p)
        if v & one:
            bits[p] = 0 if i < 0 else mp.fibres(cat.hom(one, v)[0])[i]
        else:
            bits[p] = 0 if isinstance(atom, PointsToAlloc) else _all(mp, v)
    return KripkePredicate(mp, model.site, stage, bits)


# -- separating conjunction ---------------------------------------------------


def _star_terms(model, p, q, v):
    """Yield (b, c, the ids at v of the defined products m1.m2, m1 in p
    at b and m2 in q at c) for each exact splitting b (x) c = v, in
    sorted order, whose halves are both nonempty: the one walk that
    every reading of the star takes.

    Each half is lifted to v once per half-stage: p at b to its
    preimage along the restriction b <= v, q at c likewise.  Under an
    agreement-only cell rule (`ResourceMonoid.agreement`) the product of
    m1 and m2 is the heap h at v with h|b = m1 and h|c = m2, defined iff
    h's cells at the overlap lie in D: the two lifts and a mask.  Any
    other rule multiplies codes, which are the ids of partial memory
    (see `ResourceMonoid`): the lift of p is cut by its codes z at the
    overlap o into pieces A_z, shifted to o-digits 0 (`_pieces`), and
    q's likewise into B_t.  A_z leaves the digits at c \\ o free and B_t
    those at b \\ o, so A_z & B_t is the set of sums E_b(i) + E_c(j)
    over the members i with code z at o and j with code t (the README's
    shift lemma), and each pair whose overlap product is defined
    contributes (A_z & B_t) << M_o(z, t)."""
    cat, mp, stage, monoid = model.site.cat, model.sheaf, p.stage, model.monoid
    agreement = monoid.agreement() is not None
    lefts, rights = {}, {}

    def lift(memo, b, bits):
        if b not in memo:
            memo[b] = bits if b == v else _preimage(mp.table(cat.hom(b, v)[0]), bits)
        return memo[b]

    for b, c in splittings(cat, model.site.monoidal, v):
        left, right = p.bits[cat.hom(b, stage)[0]], q.bits[cat.hom(c, stage)[0]]
        if not (left and right):
            continue
        o = b & c
        if agreement:
            agree = monoid.agreeing(o, v)
            yield b, c, agree and lift(lefts, b, left) & lift(rights, c, right) & agree
            continue
        halves = monoid.overlap(o, v)
        (_, _, meet1), (_, _, meet2) = halves
        out, pieces = 0, _pieces(lift(rights, c, right), halves)
        for z1, z2, a in _pieces(lift(lefts, b, left), halves):
            row1, row2 = meet1[z1], meet2[z2]
            for t1, t2, x in pieces:
                x &= a
                if x:
                    m = row1[t1] + row2[t2]
                    if m >= 0:
                        out |= x << m
        yield b, c, out


def _pieces(bits, halves):
    """[(z1, z2, A_z)], z ascending, over the codes z = (z1, z2) at the
    halves of an overlap (`ResourceMonoid.overlap`) whose piece is
    nonempty: A_z is the codes at v in bits whose digits at the overlap
    are z, less z's placement, so that those digits read 0.  A right
    shift by the placement and a mask of the codes with 0 there give it,
    one half at a time; an empty overlap leaves bits whole."""
    (place1, zero1, _), (place2, zero2, _) = halves
    if len(place1) == 1:
        return [(0, 0, bits)]
    out = []
    for z1, shift1 in enumerate(place1):
        a = bits >> shift1 & zero1
        if a:
            for z2, shift2 in enumerate(place2):
                x = a >> shift2 & zero2
                if x:
                    out.append((z1, z2, x))
    return out


def _star_bits(model, p, q, v):
    """The ids at v of the defined products over every exact splitting:
    the OR of the terms of `_star_terms`."""
    out = 0
    for _, _, bits in _star_terms(model, p, q, v):
        out |= bits
    return out


def _pipeline_pieces(model, iso: AmalgamationIso):
    """The pipeline's maps for the law checks, on ids: the decomposition
    presheaf, the multiplication into Match(F) (the product tables, then
    the inverse of the amalgamation iso) and the amalgamation."""
    site, mp, monoid = model.site, model.sheaf, model.monoid
    decomp = day_decomp(mp, mp, site.monoidal)
    mult = {}
    for a in site.cat.objects:
        inverse = iso.inverse.ids(a)
        # a block's ids run row-major through the halves' ids
        mult[a] = [inverse[k] if k >= 0 else -1 for b, c in decomp.blocks(a)
                   for row in monoid.products(b, c) for k in row]
    mult = SheafMorphism(decomp, iso.match, mult, "theta.mult")
    return decomp, mult, iso.forward


def _check_conjuncts(model, p, q):
    if model.monoid is None:
        raise AtomTypeError("model has no resource monoid; * is unavailable")
    if p.stage != q.stage:
        raise StageMismatchError("separating conjuncts must share a stage")


def sep_conj(model: ResourceModel, p: KripkePredicate, q: KripkePredicate,
             mode: str = "unfolded") -> KripkePredicate:
    """The unfolded star is `_star_bits` at each slice stage.  The
    pipeline's composite, closed in Match(F) and carried back along the
    amalgamation iso, is the closure in F of the same bits (the README's
    transport lemma), so it builds neither: it needs only the verdict
    that the carrier is a sheaf (`require_sheaf`), and a carrier that is
    not one raises `NotASheafError`.

    The two modes coincide on subsheaf predicates (the law suites
    check hundreds of sampled pairs per variant).  On the allocated
    atoms, which are deliberately not subsheaves, the pipeline's
    closure adds results below the stage while the unfolded
    comprehension stays raw; satisfaction at the stage itself is
    unaffected."""
    _check_conjuncts(model, p, q)
    if mode == "pipeline":
        require_sheaf(model.sheaf, model.site.cov)
    elif mode != "unfolded":
        raise ValueError(f"unknown mode {mode!r}")
    src = model.site.cat.src
    bits = {sl: _star_bits(model, p, q, src(sl)) for sl in p.bits}
    if mode == "pipeline":
        bits = _close(model.sheaf, model.site, bits)
    return KripkePredicate(model.sheaf, model.site, p.stage, bits)


# -- evaluation and satisfaction ----------------------------------------------


def eval_formula(model: ResourceModel, phi, stage=None, mode="unfolded") -> KripkePredicate:
    """Structural recursion into the predicate fibre at the stage."""
    stage = model.stage if stage is None else stage
    site, mp = model.site, model.sheaf
    if isinstance(phi, Top):
        return top_predicate(mp, site, stage)
    if isinstance(phi, Bottom):
        return bottom_predicate(mp, site, stage)
    if isinstance(phi, And):
        return meet(
            eval_formula(model, phi.left, stage, mode),
            eval_formula(model, phi.right, stage, mode),
        )
    if isinstance(phi, Or):
        return join(
            eval_formula(model, phi.left, stage, mode),
            eval_formula(model, phi.right, stage, mode),
        )
    if isinstance(phi, Imp):
        return implication(
            eval_formula(model, phi.left, stage, mode),
            eval_formula(model, phi.right, stage, mode),
        )
    if isinstance(phi, Star):
        return sep_conj(
            model,
            eval_formula(model, phi.left, stage, mode),
            eval_formula(model, phi.right, stage, mode),
            mode,
        )
    return atom_predicate(model, phi, stage)


@dataclass
class SatResult:
    result: bool
    stage: object
    element: object
    witness: dict | None = None


def _star_witness(model, p, q, element):
    """The least decomposition of the element into halves of p and q,
    ordered by half-stages first, then by ids (which follow the
    canonical element order): the first term of `_star_terms` at the
    stage that holds the element's id.  Under an agreement-only rule
    that term's halves are the element's restrictions; otherwise
    `_product_halves` searches its splitting."""
    cat, mp, stage = model.site.cat, model.sheaf, p.stage
    k = mp.code(element.values)
    for b, c, bits in _star_terms(model, p, q, stage):
        if bits >> k & 1:
            if model.monoid.agreement() is None:
                i, j = _product_halves(model, b, c, stage, p.bits[cat.hom(b, stage)[0]],
                                       q.bits[cat.hom(c, stage)[0]], k)
            else:
                i, j = mp.table(cat.hom(b, stage)[0])[k], mp.table(cat.hom(c, stage)[0])[k]
            return {
                "left_stage": list(mp.named(b)),
                "right_stage": list(mp.named(c)),
                "left": mp.element(b, i).as_dict(),
                "right": mp.element(c, j).as_dict(),
            }
    return None


def _product_halves(model, b, c, v, left, right, target):
    """The least pair of ids (i, j), i in left at b and j in right at c,
    whose product has the target id at v, read off the pieces of
    `_star_terms`.  Every such i holds the target's digits at b \\ o, so
    the candidates' ids run in the order of their codes z at o, and with
    i fixed the js run in the order of t: the first pair of pieces, z
    then t, whose product holds the target gives the pair."""
    mp, halves = model.sheaf, model.monoid.overlap(b & c, v)
    (place1, _, meet1), (place2, _, meet2) = halves
    down_b, down_c = (mp.table(model.site.cat.hom(a, v)[0]) for a in (b, c))
    pieces = _pieces(_preimage(down_c, right), halves)
    for z1, z2, a in _pieces(_preimage(down_b, left), halves):
        for t1, t2, x in pieces:
            s = target - meet1[z1][t1] - meet2[z2][t2]
            if 0 <= s <= target and (a & x) >> s & 1:
                return down_b[s + place1[z1] + place2[z2]], down_c[s + place1[t1] + place2[t2]]


def _stage_bits(model, phi, stage, mode):
    """The bits of phi's denotation at the identity slice of the stage:
    a meet is pointwise, so a conjunction's are its operands' AND, and an
    unfolded star there reads p and q at the splittings of the stage
    alone, so its bits are `_star_bits` at the stage.  The pipeline's
    closure reads the lower slices, so it is evaluated in full."""
    if isinstance(phi, And):
        return (_stage_bits(model, phi.left, stage, mode)
                & _stage_bits(model, phi.right, stage, mode))
    if isinstance(phi, Star) and mode == "unfolded":
        p, q = (eval_formula(model, half, stage, mode) for half in (phi.left, phi.right))
        _check_conjuncts(model, p, q)
        return _star_bits(model, p, q, stage)
    return eval_formula(model, phi, stage, mode).bits[model.site.cat.id(stage)]


def sat(model: ResourceModel, phi, stage, element, mode="unfolded") -> SatResult:
    """Membership of the element in the denotation at the identity slice,
    read off that slice alone (`_stage_bits`), with the witnessing
    decomposition for a top-level star.  An unfolded top-level star is
    decided by its witness search, which stops at the first hit."""
    model.site.cat.require_object(stage)
    mp = model.sheaf
    i = heap_id(mp, stage, element.values) if element.locations == mp.named(stage) else -1
    if i < 0:
        # in the --heap and --stage literal syntax
        cells = ", ".join(f"{x}:{'null' if y is None else y}"
                          for x, y in element.as_dict().items())
        raise StageMismatchError(
            f"{{{cells}}} is not a resource at stage {{{','.join(mp.named(stage))}}}")
    if not isinstance(phi, Star):
        return SatResult(bool(_stage_bits(model, phi, stage, mode) >> i & 1), stage, element)
    # evaluate the operands once: the witness search reuses them
    p, q = (eval_formula(model, half, stage, mode) for half in (phi.left, phi.right))
    if mode == "unfolded":
        _check_conjuncts(model, p, q)
    elif not sep_conj(model, p, q, mode).bits[model.site.cat.id(stage)] >> i & 1:
        return SatResult(False, stage, element)
    witness = _star_witness(model, p, q, element)
    # the pipeline's closure may hold an element that no splitting gives
    return SatResult(witness is not None or mode != "unfolded", stage, element, witness)
