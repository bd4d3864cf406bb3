"""The collapse lemma: on a memory sheaf over a lub powerset site, under
an agreement-only cell rule (weak- or strong-partial), the separating
conjunction of two inhabited subsheaf predicates is their join (the
README states it with its proof).  Under the total rule it is not.

At two locations and two values every subsheaf predicate is enumerated:
the fixed points of the closure among all 2^16 families over the four
slices of the top stage.  The star, in both modes, and the join are
compared on every pair under each rule.  At three and four locations
hypothesis samples closed predicates (`random_closed_predicate`, from
sparse families)."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheafsep.day import build_memory_monoid
from sheafsep.pred import KripkePredicate, _close, join, random_closed_predicate
from sheafsep.seplogic import make_memory_model, sep_conj

RULES = ("weak-partial", "strong-partial", "total")


def _with_rule(model, rule):
    """The model with the monoid of this cell rule on the same carrier, so
    that predicates on the carrier serve every rule."""
    return dataclasses.replace(model, monoid=build_memory_monoid(model.sheaf, rule))


def _subsheaves(model):
    """Every subsheaf predicate at the model's stage: each family over its
    slices that the closure leaves as it is."""
    mp, site, stage = model.sheaf, model.site, model.stage
    slices = list(site.cat.mors_into(stage))
    sizes = [mp.size(site.cat.src(p)) for p in slices]
    out = []
    for code in range(1 << sum(sizes)):
        bits, low = {}, 0
        for p, n in zip(slices, sizes):
            bits[p], low = code >> low & (1 << n) - 1, low + n
        if _close(mp, site, bits) == bits:
            out.append(KripkePredicate(mp, site, stage, bits))
    return out


def _inhabited(pred):
    return any(pred.bits.values())


@pytest.fixture(scope="module")
def two_locations():
    model = make_memory_model(("x", "y"), (0, 1))
    return model, _subsheaves(model)


def test_two_locations_have_65_subsheaf_predicates(two_locations):
    """Closing all 2^16 families over the four slices of {x, y} (a
    partial-memory carrier of three cells: 1 + 3 + 3 + 9 ids) leaves 65
    fixed points; the empty predicate is the one that is not
    inhabited."""
    model, preds = two_locations
    assert sum(model.sheaf.size(model.site.cat.src(p)) for p in preds[0].bits) == 16
    assert len(preds) == 65
    assert [p for p in preds if not _inhabited(p)] == preds[:1]


@pytest.mark.parametrize("rule, equal", [
    ("weak-partial", 4_097), ("strong-partial", 4_097), ("total", 3_250)])
def test_star_is_join_on_every_pair_of_subsheaves(two_locations, rule, equal):
    """Under the agreement-only rules `P * Q` = `P \\/ Q` on all 4,096
    pairs of inhabited subsheaf predicates, and on the empty pair; a pair
    with one empty operand has an empty star.  Under the total rule they
    are equal on 3,250 of the 4,225 pairs.  Under every rule the
    pipeline star equals the unfolded star on all 4,225 pairs."""
    model, preds = two_locations
    model = _with_rule(model, rule)
    same = 0
    for p in preds:
        for q in preds:
            star = sep_conj(model, p, q)
            assert sep_conj(model, p, q, "pipeline") == star
            same += star == join(p, q)
            if rule != "total":
                if _inhabited(p) and _inhabited(q):
                    assert star == join(p, q)
                elif _inhabited(p) or _inhabited(q):
                    assert not _inhabited(star)
    assert same == equal


_MODELS = {}


def _model(n, values):
    """One model per (locations, values), kept across examples."""
    key = (n, values)
    if key not in _MODELS:
        _MODELS[key] = make_memory_model(tuple("wxyz"[:n]), tuple(range(values)))
    return _MODELS[key]


class _Sparse:
    """The rng `random_closed_predicate` reads, putting each id in the
    family it closes with probability `density` in place of the
    sampler's own 2/n for n ids: a draw of 0.0 is below that threshold,
    and one of 1.0 is not."""

    def __init__(self, seed, density):
        self._rng, self._density = random.Random(seed), density

    def random(self):
        return 0.0 if self._rng.random() < self._density else 1.0


def _sampled(model, seed, ids):
    """Two closed predicates at the model's stage, each closing a family
    of about `ids` ids."""
    cat = model.site.cat
    total = sum(model.sheaf.size(cat.src(p)) for p in cat.mors_into(model.stage))
    rng = _Sparse(seed, ids / total)
    return [random_closed_predicate(rng, model.sheaf, model.site, model.stage) for _ in range(2)]


SHAPES = [(3, 2), (3, 3), (4, 2)]


@settings(max_examples=60, deadline=None)
@given(shape=st.sampled_from(SHAPES), rule=st.sampled_from(RULES[:2]),
       ids=st.sampled_from([1, 2, 3, 5]), seed=st.integers(0, 2**32 - 1))
def test_star_is_join_on_sampled_subsheaves(shape, rule, ids, seed):
    """At three locations (two and three values) and four (two values),
    under each agreement-only rule, the star of two sampled inhabited
    subsheaf predicates is their join, in both modes."""
    model = _with_rule(_model(*shape), rule)
    p, q = _sampled(model, seed, ids)
    if _inhabited(p) and _inhabited(q):
        star = sep_conj(model, p, q)
        assert star == join(p, q)
        assert sep_conj(model, p, q, "pipeline") == star


@pytest.mark.parametrize("shape", SHAPES)
def test_the_samples_tell_the_total_star_from_the_join(shape):
    """The sampler reaches predicates whose star under the total rule is
    not their join, so the agreement-only samples above are not vacuous:
    seeds 0-39 give such a pair at each shape."""
    model = _with_rule(_model(*shape), "total")
    pairs = [_sampled(model, seed, 3) for seed in range(40)]
    assert any(sep_conj(model, p, q) != join(p, q) for p, q in pairs)
