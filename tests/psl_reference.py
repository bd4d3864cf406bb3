"""Fraction-level reference for the PSL star, kept as a test oracle.

This is the direct reading of the product-measure star that the
exact-integer engine in `sheafsep.psl` replaces: every pair of
partitions of the sample set is tried, measurability and the product
law are checked with `ProbSpace.mass` in `Fraction` arithmetic, and the
component spaces and marginals are rebuilt on every visit.  The
differential tests compare the two on pair lists, component measures,
marginal strings, verdicts and witnesses.
"""

from fractions import Fraction

from sheafsep.errors import NotMeasurableError, UnknownIdentifierError
from sheafsep.psl import (
    ProbSpace,
    PslResult,
    RandomVariable,
    law_of,
    set_partitions,
)
from sheafsep.seplogic import And, Bottom, DistAtom, Imp, Or, Star, Top


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
                    if not inter or not sp.measurable(inter):
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                continue
            marg1 = {b1: sp.mass(b1) for b1 in p1}
            marg2 = {b2: sp.mass(b2) for b2 in p2}
            if all(
                sp.mass(set(b1) & set(b2)) == marg1[b1] * marg2[b2]
                for b1 in p1
                for b2 in p2
            ):
                out.append(
                    (
                        p1,
                        p2,
                        ProbSpace.discrete([marg1[b] for b in p1]),
                        ProbSpace.discrete([marg2[b] for b in p2]),
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
