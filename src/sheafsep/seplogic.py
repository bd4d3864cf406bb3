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
             isomorphism back to the resource sheaf.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .day import Decomp, ResourceMonoid, day_decomp, splittings
from .errors import (
    AtomTypeError,
    FormulaSyntaxError,
    StageMismatchError,
    UnknownIdentifierError,
)
from .fincat import element_key
from .pred import (
    KripkePredicate,
    SheafMorphism,
    bottom_predicate,
    combine_alpha,
    direct_image,
    implication,
    join,
    meet,
    top_predicate,
)
from .presheaf import Heap, Presheaf, amalgamation_operator
from .site import Site


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

_SYMBOLS = [
    ("|->!", "MAPSTO_ALLOC"),
    ("|->", "MAPSTO"),
    ("~>", "HOOKS"),
    ("->", "IMP"),
    ("/\\", "AND"),
    ("\\/", "OR"),
    ("*", "STAR"),
    ("~", "TILDE"),
    ("(", "LPAREN"),
    (")", "RPAREN"),
    ("{", "LBRACE"),
    ("}", "RBRACE"),
    (":", "COLON"),
    (",", "COMMA"),
    ("/", "SLASH"),
]

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


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(text):
    for uni, ascii_form in _UNICODE_ALIASES.items():
        text = text.replace(uni, ascii_form)
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        matched = False
        for sym, kind in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(_Token(kind, sym, i))
                i += len(sym)
                matched = True
                break
        if matched:
            continue
        if c.isdecimal() or (c == "-" and i + 1 < n and text[i + 1].isdecimal()):
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(_Token("INT", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word == "T":
                tokens.append(_Token("TOP", word, i))
            elif word == "F":
                tokens.append(_Token("BOT", word, i))
            else:
                tokens.append(_Token("IDENT", word, i))
            i = j
            continue
        raise FormulaSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(_Token("EOF", "", n))
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
        num = self.expect("INT")
        den = 1
        if self.peek().kind == "SLASH":
            self.next()
            tok = self.expect("INT")
            den = int(tok.text)
            if den == 0:
                raise FormulaSyntaxError("zero denominator", tok.pos)
        prob = Fraction(int(num.text), den)
        if prob < 0:
            raise FormulaSyntaxError("negative probability", num.pos)
        return prob

    def parse_distribution(self):
        self.expect("LBRACE")
        entries = []
        while True:
            val = self.expect("INT")
            if any(v == int(val.text) for v, _ in entries):
                raise FormulaSyntaxError(f"value {val.text} listed twice", val.pos)
            self.expect("COLON")
            prob = self.parse_fraction()
            entries.append((int(val.text), prob))
            tok = self.next()
            if tok.kind == "RBRACE":
                break
            if tok.kind != "COMMA":
                raise FormulaSyntaxError("expected ',' or '}' in distribution", tok.pos)
        if sum(p for _, p in entries) != 1:
            raise FormulaSyntaxError("distribution does not sum to 1", self.peek().pos)
        return tuple(sorted((v, p) for v, p in entries if p != 0))


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
    """A memory model: site, resource sheaf, monoid, declared atoms and
    the default stage of interest (the full location set)."""

    site: Site
    sheaf: Presheaf
    monoid: ResourceMonoid | None
    locations: tuple
    values: tuple
    stage: object
    name: str = "memory-model"
    _pipeline: tuple | None = None

    def check_formula(self, phi):
        for atom in formula_atoms(phi):
            if isinstance(atom, DistAtom):
                raise AtomTypeError("distribution atoms need a probabilistic model")
            if atom.loc not in self.locations:
                raise UnknownIdentifierError(f"unknown location {atom.loc!r}")
            if atom.val not in self.values:
                raise UnknownIdentifierError(f"unknown value {atom.val!r}")


def make_memory_model(locations, values, sheaf_kind="partial-memory",
                      monoid_variant="weak-partial", coverage_kind="downward-closed",
                      support_bound=None, name="memory-model") -> ResourceModel:
    """Assemble a memory resource model over the powerset site.

    Every monoid variant lives on partial memory (a total multiplication
    needs the unallocated value to absorb conflicts), so requesting one
    with another sheaf kind is rejected.
    """
    from .fincat import build_powerset_category
    from .presheaf import build_resource_sheaf
    from .site import build_coverage

    cat, mon = build_powerset_category(locations)
    cov = build_coverage(cat, coverage_kind)
    site = Site(cat, cov, mon)
    kwargs = {"values": tuple(values)}
    if sheaf_kind == "support-bounded":
        kwargs["bound"] = support_bound
    sheaf = build_resource_sheaf(cat, sheaf_kind, **kwargs)
    monoid = None
    if monoid_variant is not None:
        if sheaf_kind != "partial-memory":
            raise AtomTypeError(
                f"monoid {monoid_variant!r} requires the partial-memory sheaf"
            )
        from .day import build_memory_monoid

        monoid = build_memory_monoid(sheaf, monoid_variant)
    stage = tuple(sorted(locations))
    return ResourceModel(site, sheaf, monoid, stage, tuple(sorted(values)), stage, name)


def atom_predicate(model: ResourceModel, atom, stage=None) -> KripkePredicate:
    """Interpret a points-to atom as a predicate at the given stage.

    strict      if the location is in view, it stores the value
    non-strict  if in view, it is allocated and stores the value
    allocated   the location is in view, allocated, and stores the value
    """
    if isinstance(atom, DistAtom):
        raise AtomTypeError("distribution atoms are not interpretable over memory")
    stage = model.stage if stage is None else stage
    cat = model.site.cat
    model.check_formula(atom)
    loc, val = atom.loc, atom.val
    fam = {}
    for p in cat.mors_into(stage):
        v = cat.src(p)
        members = []
        for s in model.sheaf.at(v):
            if loc not in v:
                sat_here = not isinstance(atom, PointsToAlloc)
            elif isinstance(atom, PointsToStrict):
                sat_here = s.get(loc) == val
            else:
                sat_here = s.get(loc) is not None and s.get(loc) == val
            if sat_here:
                members.append(s)
        fam[p] = frozenset(members)
    return KripkePredicate(model.sheaf, model.site, stage, fam)


# -- separating conjunction ---------------------------------------------------


def _star_products(model, p, q, v):
    """Yield (b, c, m1, m2, m1.m2) over the exact splittings b tensor c = v and
    the halves m1 in p at b, m2 in q at c whose product is defined."""
    cat, monoid = model.site.cat, model.monoid
    for b, c in splittings(cat, model.site.monoidal, v):
        for m1 in p.family[cat.hom(b, p.stage)[0]]:
            for m2 in q.family[cat.hom(c, p.stage)[0]]:
                prod = monoid.apply(Decomp(v, b, c, m1, m2))
                if prod is not None:
                    yield b, c, m1, m2, prod


def _unfolded_star(model, p, q) -> KripkePredicate:
    """The direct comprehension: at each slice stage V, the resources
    obtained as defined products over exact decompositions of V whose
    halves satisfy the conjuncts."""
    cat = model.site.cat
    fam = {
        sl: frozenset(prod for _, _, _, _, prod in _star_products(model, p, q, cat.src(sl)))
        for sl in cat.mors_into(p.stage)
    }
    return KripkePredicate(model.sheaf, model.site, p.stage, fam)


def _pipeline_pieces(model):
    if model._pipeline is None:
        site, mp, monoid = model.site, model.sheaf, model.monoid
        decomp = day_decomp(mp, mp, site.monoidal)
        iso = amalgamation_operator(mp, site.cov)
        match = iso.match
        cat = site.cat
        mult_to_match = {}
        for a in cat.objects:
            table = {}
            for d in decomp.at(a):
                prod = monoid.apply(d)
                if prod is not None:
                    table[d] = iso.invert(a, prod)
            mult_to_match[a] = table
        mult_mor = SheafMorphism(decomp, match, mult_to_match, name="theta.mult")
        amalg_mor = SheafMorphism(
            match,
            mp,
            {a: dict(iso.to_sheaf[a]) for a in cat.objects},
            name="amalgamation",
        )
        model._pipeline = (decomp, mult_mor, amalg_mor)
    return model._pipeline


def _pipeline_star(model, p, q) -> KripkePredicate:
    """The categorical composite: combine the predicates on the
    decomposition presheaf, push along the multiplication into the
    matching-object presheaf, then along the amalgamation isomorphism."""
    decomp, mult_mor, amalg_mor = _pipeline_pieces(model)
    combined = combine_alpha(p, q, decomp)
    over_match = direct_image(mult_mor, combined)
    return direct_image(amalg_mor, over_match)


def sep_conj(model: ResourceModel, p: KripkePredicate, q: KripkePredicate,
             mode: str = "unfolded") -> KripkePredicate:
    """The two modes coincide on subsheaf predicates (the law suites
    check hundreds of sampled pairs per variant).  On the allocated
    atoms, which are deliberately not subsheaves, the pipeline's
    existential images close the result below the stage while the
    unfolded comprehension stays raw; satisfaction at the stage itself
    is unaffected."""
    if model.monoid is None:
        raise AtomTypeError("model has no resource monoid; * is unavailable")
    if p.stage != q.stage:
        raise StageMismatchError("separating conjuncts must share a stage")
    if mode == "unfolded":
        return _unfolded_star(model, p, q)
    if mode == "pipeline":
        return _pipeline_star(model, p, q)
    raise ValueError(f"unknown mode {mode!r}")


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

    def as_dict(self):
        out = {
            "result": self.result,
            "stage": list(self.stage),
            "element": self.element.as_dict() if isinstance(self.element, Heap) else self.element,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def _star_witness(model, p, q, element):
    """Lexicographically least decomposition of the element into halves
    of p and q (ordered by half-stages first, then the canonical element
    order)."""
    candidates = [
        (b, c, m1, m2)
        for b, c, m1, m2, prod in _star_products(model, p, q, p.stage)
        if prod == element
    ]
    if not candidates:
        return None
    b, c, m1, m2 = min(
        candidates, key=lambda t: (t[0], t[1], element_key(t[2]), element_key(t[3]))
    )
    return {
        "left_stage": list(b),
        "right_stage": list(c),
        "left": m1.as_dict(),
        "right": m2.as_dict(),
    }


def sat(model: ResourceModel, phi, stage, element, mode="unfolded") -> SatResult:
    """Membership of the element in the denotation at the identity slice,
    with the witnessing decomposition for a top-level star."""
    if element not in set(model.sheaf.at(stage)):
        raise StageMismatchError(f"{element!r} is not a resource at stage {stage!r}")
    if isinstance(phi, Star):
        # evaluate the operands once: the witness search reuses them
        p = eval_formula(model, phi.left, stage, mode)
        q = eval_formula(model, phi.right, stage, mode)
        denot = sep_conj(model, p, q, mode)
    else:
        denot = eval_formula(model, phi, stage, mode)
    holds = element in denot.family[model.site.cat.id(stage)]
    witness = None
    if holds and isinstance(phi, Star):
        witness = _star_witness(model, p, q, element)
    return SatResult(holds, stage, element, witness)
