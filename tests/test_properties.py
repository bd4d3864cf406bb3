"""Property-based law tests over randomly generated resources."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from day_reference import apply
from psl_reference import discrete, pullback_space
from sheafsep.day import Decomp, build_memory_monoid
from sheafsep.fincat import build_powerset_category
from sheafsep.presheaf import Heap, build_resource_sheaf
from sheafsep.psl import RandomVariable, law_of
from sheafsep.site import _pull, build_coverage, sieve_masks
from site_reference import is_cover

LOCS = ("x", "y")
CAT, MON = build_powerset_category(len(LOCS))
MP = build_resource_sheaf(CAT, "partial-memory", LOCS, values=(0, 1))
COV = build_coverage(CAT, "downward-closed")
MASK = {MP.named(a): a for a in CAT.objects}  # a heap's locations -> its stage

stages = st.sampled_from(CAT.objects)


@st.composite
def heaps(draw, stage=None):
    s = draw(stages) if stage is None else stage
    vals = draw(st.tuples(*[st.sampled_from([0, 1, None]) for _ in range(s.bit_count())]))
    return Heap(MP.named(s), vals)


@st.composite
def heap_triples(draw):
    return draw(heaps()), draw(heaps()), draw(heaps())


def mult(monoid, s, t):
    b, c = MASK[s.locations], MASK[t.locations]
    return apply(monoid, Decomp(MON.tensor(b, c), b, c, s, t))


@given(heap_triples(), st.sampled_from(["total", "weak-partial", "strong-partial"]))
@settings(max_examples=300, deadline=None)
def test_monoid_associative_kleene(triple, variant):
    monoid = build_memory_monoid(MP, variant)
    s, t, u = triple
    st_prod = mult(monoid, s, t)
    lhs = None if st_prod is None else mult(monoid, st_prod, u)
    tu_prod = mult(monoid, t, u)
    rhs = None if tu_prod is None else mult(monoid, s, tu_prod)
    assert lhs == rhs


@given(heaps(), st.sampled_from(["total", "weak-partial", "strong-partial"]))
@settings(max_examples=100, deadline=None)
def test_monoid_unit(heap, variant):
    monoid = build_memory_monoid(MP, variant)
    empty = Heap((), ())
    assert mult(monoid, heap, empty) == heap
    assert mult(monoid, empty, heap) == heap


@given(heaps(), heaps(), st.sampled_from(["total", "weak-partial", "strong-partial"]))
@settings(max_examples=200, deadline=None)
def test_monoid_commutative_kleene(s, t, variant):
    monoid = build_memory_monoid(MP, variant)
    assert mult(monoid, s, t) == mult(monoid, t, s)


@given(heaps(), st.data())
@settings(max_examples=150, deadline=None)
def test_restriction_composes(heap, data):
    a = MASK[heap.locations]
    v = data.draw(st.sampled_from([b for b in CAT.objects if b | a == a]))
    w = data.draw(st.sampled_from([b for b in CAT.objects if b | v == v]))
    down = MP.restrict(CAT.hom(w, v)[0], MP.restrict(CAT.hom(v, a)[0], heap))
    assert down == MP.restrict(CAT.hom(w, a)[0], heap)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_pullback_of_cover_is_cover(data):
    a = data.draw(stages)
    s = data.draw(st.sampled_from(COV.covers(a)))
    h = data.draw(st.sampled_from([m for m in CAT.all_morphisms() if CAT.dst(m) == a]))
    sm = sieve_masks(CAT)
    assert is_cover(COV, sm.sieve(CAT.src(h), _pull(sm.pull(h), sm.mask(a, s.members))))


@st.composite
def spaces(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    weights = draw(
        st.lists(st.integers(min_value=0, max_value=5), min_size=n, max_size=n).filter(
            lambda ws: sum(ws) > 0
        )
    )
    total = sum(weights)
    return discrete([Fraction(w, total) for w in weights])


@st.composite
def surjections_onto(draw, n):
    m = draw(st.integers(min_value=n, max_value=5))
    vals = draw(
        st.lists(
            st.integers(min_value=1, max_value=n), min_size=m, max_size=m
        ).filter(lambda vs: set(vs) == set(range(1, n + 1)))
    )
    return tuple(vals)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_pullback_space_preserves_mass_and_laws(data):
    sp = data.draw(spaces())
    f = data.draw(surjections_onto(sp.size))
    pulled = pullback_space(f, sp)
    assert sum(pulled.measure, Fraction(0)) == 1
    x = RandomVariable(data.draw(
        st.tuples(*[st.integers(min_value=0, max_value=2) for _ in range(sp.size)])
    ))
    transported = RandomVariable(tuple(x(f[i - 1]) for i in range(1, len(f) + 1)))
    assert law_of(transported, pulled) == law_of(x, sp)
