"""Fraction-level reference for the PSL star, kept as a test oracle.

This is the direct reading of the product-measure star that the
exact-integer engine in `sheafsep.psl` replaces: every pair of
partitions of the sample set is tried, measurability and the product
law are checked with `measurable` and `mass` in `Fraction` arithmetic,
and the component spaces and marginals are rebuilt on every visit.  The
differential tests compare the two on pair lists, component measures,
marginal strings, verdicts and witnesses.

`uniform` and `discrete` build the spaces that tests start from,
`pullback_space` transports a space along a surjection, and
`fibre_partition` is a variable's fibres.  The probability presheaf
over the surjection site, its distribution atoms and
`kripke_cross_check` replay the star-free fragment of the
stage-indexed Kripke semantics against `psl_sat`.
"""

import random
from fractions import Fraction

from pred_reference import predicate
from presheaf_reference import listed
from sheafsep.errors import NotMeasurableError, UnknownIdentifierError
from sheafsep.fincat import build_finsurj_category
from sheafsep.pred import implication, meet
from sheafsep.psl import (
    ProbSpace,
    PslResult,
    RandomVariable,
    law_of,
    set_partitions,
)
from sheafsep.psl import psl_sat as core_psl_sat
from sheafsep.seplogic import And, Bottom, DistAtom, Imp, Or, Star, Top
from sheafsep.site import Site, build_coverage
from site_reference import trivial_coverage


def measurable(sp: ProbSpace, subset) -> bool:
    """Whether the subset is a union of the space's blocks."""
    subset = set(subset)
    return all(set(b) <= subset or not (set(b) & subset) for b in sp.blocks)


def mass(sp: ProbSpace, subset) -> Fraction:
    """The measure of a measurable subset."""
    subset = set(subset)
    if not measurable(sp, subset):
        raise NotMeasurableError(f"{sorted(subset)!r} is not measurable")
    return sum((p for b, p in zip(sp.blocks, sp.measure) if set(b) <= subset), Fraction(0))


def factorising_pairs(sp: ProbSpace):
    """All partition pairs realising the space as a product, in search
    order, each with its two component spaces and marginal strings."""
    parts = list(set_partitions(range(1, sp.size + 1)))
    out = []
    for p1 in parts:
        for p2 in parts:
            ok = True
            for b1 in p1:
                for b2 in p2:
                    inter = set(b1) & set(b2)
                    if not inter or not measurable(sp, inter):
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                continue
            marg1 = {b1: mass(sp, b1) for b1 in p1}
            marg2 = {b2: mass(sp, b2) for b2 in p2}
            if all(
                mass(sp, set(b1) & set(b2)) == marg1[b1] * marg2[b2]
                for b1 in p1
                for b2 in p2
            ):
                out.append(
                    (
                        p1,
                        p2,
                        discrete([marg1[b] for b in p1]),
                        discrete([marg2[b] for b in p2]),
                        [str(marg1[b]) for b in p1],
                        [str(marg2[b]) for b in p2],
                    )
                )
    return out


def descend_variables(variables, partition):
    out = {}
    for name, x in variables.items():
        if x is None:
            out[name] = None
            continue
        vals = []
        ok = True
        for block in partition:
            vs = {x(i) for i in block}
            if len(vs) > 1:
                ok = False
                break
            vals.append(vs.pop())
        out[name] = RandomVariable(tuple(vals)) if ok else None
    return out


def quotient_surjection(partition):
    labels = {}
    for idx, block in enumerate(partition, start=1):
        for point in block:
            labels[point] = idx
    return tuple(labels[i] for i in range(1, len(labels) + 1))


def psl_sat(sp: ProbSpace, phi, variables) -> PslResult:
    """Satisfaction with both operands of every connective evaluated."""
    if isinstance(phi, Top):
        return PslResult(True)
    if isinstance(phi, Bottom):
        return PslResult(False)
    if isinstance(phi, (And, Or, Imp)):
        left = psl_sat(sp, phi.left, variables).result
        right = psl_sat(sp, phi.right, variables).result
        if isinstance(phi, And):
            return PslResult(left and right)
        if isinstance(phi, Or):
            return PslResult(left or right)
        return PslResult((not left) or right)
    if isinstance(phi, DistAtom):
        if phi.var not in variables:
            raise UnknownIdentifierError(f"unknown variable {phi.var!r}")
        x = variables[phi.var]
        if x is None:
            return PslResult(False)
        try:
            return PslResult(law_of(x, sp) == phi.law())
        except NotMeasurableError:
            return PslResult(False)
    if isinstance(phi, Star):
        for p1, p2, sp1, sp2, marg1, marg2 in factorising_pairs(sp):
            if not psl_sat(sp1, phi.left, descend_variables(variables, p1)).result:
                continue
            if psl_sat(sp2, phi.right, descend_variables(variables, p2)).result:
                return PslResult(
                    True,
                    witness={
                        "q1": list(quotient_surjection(p1)),
                        "q2": list(quotient_surjection(p2)),
                        "blocks1": [list(b) for b in p1],
                        "blocks2": [list(b) for b in p2],
                        "marginal1": marg1,
                        "marginal2": marg2,
                    },
                )
        return PslResult(False)
    raise TypeError(f"formula {phi!r} is not a probabilistic formula")


def independence_oracle(sp: ProbSpace, x: RandomVariable, y: RandomVariable) -> bool:
    """Exact check that the joint law factorises into the marginals: both
    laws are re-derived and the joint mass is re-summed per value pair."""
    law_x = law_of(x, sp)
    law_y = law_of(y, sp)
    for a in law_x:
        for b in law_y:
            joint = sum(
                (
                    p
                    for block, p in zip(sp.blocks, sp.measure)
                    if x(block[0]) == a and y(block[0]) == b
                ),
                Fraction(0),
            )
            if joint != law_x[a] * law_y[b]:
                return False
    return True


def discrete(weights):
    n = len(weights)
    return ProbSpace.of(n, [(i,) for i in range(1, n + 1)], weights)


def uniform(n):
    return discrete([Fraction(1, n)] * n)


def fibre_partition(x: RandomVariable):
    fibres = {}
    for point in range(1, x.size + 1):
        fibres.setdefault(x(point), []).append(point)
    return tuple(sorted((tuple(v) for v in fibres.values()), key=lambda b: b[0]))


def pullback_space(f, sp: ProbSpace) -> ProbSpace:
    """Transport a space backward along a surjection f: S' ->> S.

    f is the value tuple of the surjection; blocks become preimages and
    keep their measures.
    """
    if set(f) != set(range(1, sp.size + 1)):
        raise ValueError(f"{f!r} is not a surjection onto 1..{sp.size}")
    blocks = [tuple(i for i in range(1, len(f) + 1) if f[i - 1] in block) for block in sp.blocks]
    return ProbSpace.of(len(f), blocks, sp.measure)


# -- the probability presheaf over the surjection site ------------------------


def probability_presheaf(cat, denominator=4):
    """Spaces on {1..n} whose block measures are multiples of 1/d.

    Pullback preserves the multiset of block measures, so this is a
    restriction-closed finite fragment of the probability presheaf (whose
    rational measures form a continuum), enumerable stage by stage for
    the stage-indexed Kripke semantics.
    """

    def spaces(n):
        out = []
        for blocks in set_partitions(range(1, n + 1)):
            for combo in compositions(denominator, len(blocks)):
                out.append(ProbSpace.of(n, blocks, [Fraction(c, denominator) for c in combo]))
        return out

    return listed(cat, spaces, lambda f, sp: pullback_space(f[3], sp), name=f"P[1/{denominator}]")


def compositions(total, k):
    if k == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in compositions(total - head, k - 1):
            yield (head,) + tail


def dist_atom_kripke(pres, site, stage, x: RandomVariable, dist):
    """The distribution atom as a stage-indexed predicate over the
    probability presheaf: at a slice p: T ->> S the transported variable
    X.p must be measurable with the stated law."""
    cat = site.cat
    law_target = {v: p for v, p in dist if p != 0}
    fam = {}
    for p in cat.mors_into(stage):
        members = []
        transported = RandomVariable(tuple(x(p[3][i - 1]) for i in range(1, p[1] + 1)))
        for sp in pres.at(cat.src(p)):
            try:
                members_law = law_of(transported, sp)
            except NotMeasurableError:
                continue
            if members_law == law_target:
                members.append(sp)
        fam[p] = frozenset(members)
    return predicate(pres, site, stage, fam)


def kripke_cross_check(max_size=3, denominator=4, samples=40, seed=3) -> int:
    """Compare the classical evaluation with the stage-indexed Kripke
    semantics (meet/implication over distribution atoms) on sampled
    spaces; returns the number of comparisons made, raising on mismatch."""
    cat, mon = build_finsurj_category(max_size)
    if max_size <= 2:
        cov = build_coverage(cat, "atomic")
    else:
        # the truncated surjection category fails cospan completion at
        # size 3, so only the always-valid trivial coverage is available
        cov = trivial_coverage(cat)
    site = Site(cat, cov, mon)
    pres = probability_presheaf(cat, denominator)
    rng = random.Random(seed)
    checked = 0
    for stage in cat.objects:
        spaces = pres.at(stage)
        for _ in range(samples):
            sp = spaces[rng.randrange(len(spaces))]
            x = RandomVariable(tuple(rng.randrange(2) for _ in range(stage)))
            dist_pairs = tuple(sorted(law_of_discrete(x, stage).items()))
            variables = {"X": x}
            atom = DistAtom("X", dist_pairs)
            atom_pred = dist_atom_kripke(pres, site, stage, x, dist_pairs)
            both = meet(atom_pred, atom_pred)
            imp_pred = implication(atom_pred, atom_pred)
            ident = cat.id(stage)
            classical = core_psl_sat(sp, atom, variables)
            assert (sp in atom_pred.family[ident]) == classical.result
            assert (sp in both.family[ident]) == core_psl_sat(
                sp, And(atom, atom), variables
            ).result
            assert sp in imp_pred.family[ident]  # P -> P is Kripke-valid
            checked += 3
    return checked


def law_of_discrete(x: RandomVariable, n: int) -> dict:
    """Law of a variable under the uniform discrete space on {1..n}."""
    return law_of(x, uniform(n))
