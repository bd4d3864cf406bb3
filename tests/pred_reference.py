"""Element-level reference for the predicate fibre and the star, kept as
a test oracle.

This is the direct reading of the definitions that the bitset encoding
in `sheafsep.pred` and `sheafsep.seplogic` replaces: families are sets
of elements, every restriction is applied with `Presheaf.restrict`, and
the star multiplies each pair of halves with `day_reference.apply`.
The differential tests compare the two on families, reports and
witnesses.

On ids, `forced_bits` names what the subsheaf condition forces into a
family, `validate_predicate_bits` reports it, and `close_bits` sets it
to a fixpoint, the oracle of `pred._close`'s two passes.
`restrict_predicate` and `glue_predicates` restrict a predicate along
a morphism and glue a compatible family of them over a cover.
`predicate` builds a `KripkePredicate` from sets of elements, and
`at_subset` reads one at a sub-stage of a poset base.
"""

from day_reference import apply
from fincat_reference import element_key, slice_category
from presheaf_reference import IncompatibleFamilyError, components, morphism
from sheafsep.day import Decomp, splittings
from sheafsep.errors import StageMismatchError
from sheafsep.fincat import bits
from sheafsep.pred import KripkePredicate, _all, _local, _members, _preimage
from sheafsep.report import Report
from site_reference import pullback_sieve, slice_coverage


def predicate(resource, site, stage, family):
    """The predicate holding `family[p]`, a set of elements of the
    resource at src(p), at each slice object p of `stage`."""
    src = site.cat.src
    bits = {p: sum(1 << i for i in {resource.index(src(p))[x] for x in family[p]})
            for p in site.cat.mors_into(stage)}
    return KripkePredicate(resource, site, stage, bits)


def at_subset(pred, v):
    """The set at the inclusion of v into the stage, on a poset base."""
    return pred.family[pred.site.cat.hom(v, pred.stage)[0]]


def forced(resource, site, stage, fam):
    """What restriction-closure and local character force into `fam` but
    it lacks, as (kind, p, x, q, y): the element y belongs at slice
    object q because of x at p (for local character, p = q and x = y).
    The family is read live; each local-character pair is yielded once.
    Slice morphisms and every slice cover are read off the slice category
    and its induced coverage."""
    cat = site.cat
    slice_cat, dom = slice_category(cat, stage)
    scov = slice_coverage(site.cov, stage)
    for p in fam:
        for m in slice_cat.mors_into(p):
            q, k = slice_cat.src(m), dom.on_mor(m)
            for x in list(fam[p]):
                rx = resource.restrict(k, x)
                if rx not in fam[q]:
                    yield "restriction", p, x, q, rx
    for p in fam:
        missing = dict.fromkeys(a for a in resource.at(cat.src(p)) if a not in fam[p])
        for s in scov.covers(p):
            legs = [(k, cat.compose(p, k)) for k in map(dom.on_mor, s.members)]
            for a in list(missing):
                if all(resource.restrict(k, a) in fam[pk] for k, pk in legs):
                    del missing[a]
                    yield "local-character", p, a, p, a


def validate_predicate(pred):
    rep = Report("predicate subsheaf conditions")
    for kind, p, x, q, _ in forced(pred.resource, pred.site, pred.stage, dict(pred.family)):
        if kind == "restriction":
            rep.flag(kind, f"{x} at {p!r} does not restrict into {q!r}")
        else:
            rep.flag(kind, f"{x} is locally present at {p!r} but missing")
    return rep


def close(resource, site, stage, family):
    """Least restriction-closed, locally-closed family containing `family`."""
    fam = {p: set(xs) for p, xs in family.items()}
    changed = True
    while changed:
        changed = False
        for _, _, _, q, y in forced(resource, site, stage, fam):
            fam[q].add(y)
            changed = True
    return {p: frozenset(xs) for p, xs in fam.items()}


def forced_bits(resource, site, bits):
    """What restriction-closure and local character force into the family
    `bits` but it lacks, as (kind, p, i, q, j): the element with id j
    belongs at slice object q because of the one with id i at p (for
    local character, p = q and i = j), read off `resource.table`.  A
    slice morphism into p is a base morphism g into src(p), from p.g."""
    cat = site.cat
    for p in bits:
        members = list(_members(bits[p]))
        for g in cat.mors_into(cat.src(p)):
            q, table = cat.compose(p, g), resource.table(g)
            for i in members:
                if not bits[q] >> table[i] & 1:
                    yield "restriction", p, i, q, table[i]
    for p in bits:
        for i in _members(_local(resource, site, bits, p) & ~bits[p]):
            yield "local-character", p, i, p, i


def validate_predicate_bits(pred):
    rep = Report("predicate subsheaf conditions")
    element, src = pred.resource.element, pred.site.cat.src
    for kind, p, i, q, _ in forced_bits(pred.resource, pred.site, pred.bits):
        x = element(src(p), i)
        if kind == "restriction":
            rep.flag(kind, f"{x} at {p!r} does not restrict into {q!r}")
        else:
            rep.flag(kind, f"{x} is locally present at {p!r} but missing")
    return rep


def close_bits(resource, site, bits):
    """The same closure on ids, as a fixpoint: set every bit that
    `forced_bits` names until it names none."""
    bits = dict(bits)
    while True:
        forced = [(q, j) for _, _, _, q, j in forced_bits(resource, site, bits)]
        if not forced:
            return bits
        for q, j in forced:
            bits[q] |= 1 << j


def join(p, q):
    fam = {sl: p.family[sl] | q.family[sl] for sl in p.family}
    return close(p.resource, p.site, p.stage, fam)


def implication(p, q):
    """Kripke implication: membership at a slice object quantifies over
    every further restriction."""
    cat = p.site.cat
    slice_cat, dom = slice_category(cat, p.stage)
    fam = {}
    for sl in p.family:
        below = [(slice_cat.src(m), dom.on_mor(m)) for m in slice_cat.mors_into(sl)]
        members = []
        for s in p.resource.at(cat.src(sl)):
            if not any(
                p.resource.restrict(k, s) in p.family[r]
                and p.resource.restrict(k, s) not in q.family[r]
                for r, k in below
            ):
                members.append(s)
        fam[sl] = frozenset(members)
    return fam


def reindex_preimage(alpha, q):
    src = q.site.cat.src
    out = {}
    for sl in q.family:
        comp = components(alpha, src(sl))
        out[sl] = frozenset(x for x in alpha.source.at(src(sl))
                            if x not in comp or comp[x] in q.family[sl])
    return out


def raw_image(alpha, p):
    src = p.site.cat.src
    out = {}
    for sl in p.family:
        comp = components(alpha, src(sl))
        out[sl] = frozenset(comp[x] for x in p.family[sl] if x in comp)
    return out


def direct_image(alpha, p):
    return close(alpha.target, p.site, p.stage, raw_image(alpha, p))


def star_products(model, p, q, v):
    """Yield (b, c, m1, m2, m1.m2) over the exact splittings b tensor c = v
    and the halves m1 in p at b, m2 in q at c whose product is defined."""
    cat, monoid = model.site.cat, model.monoid
    for b, c in splittings(cat, model.site.monoidal, v):
        for m1 in p.family[cat.hom(b, p.stage)[0]]:
            for m2 in q.family[cat.hom(c, p.stage)[0]]:
                prod = apply(monoid, Decomp(v, b, c, m1, m2))
                if prod is not None:
                    yield b, c, m1, m2, prod


def unfolded_star(model, p, q):
    cat = model.site.cat
    return {
        sl: frozenset(prod for *_, prod in star_products(model, p, q, cat.src(sl)))
        for sl in cat.mors_into(p.stage)
    }


def star_witnesses(model, p, q):
    """Per product at the stage, its lexicographically least decomposition
    into halves of p and q (half-stages first, then the canonical element
    order)."""
    least = {}
    for b, c, m1, m2, prod in star_products(model, p, q, p.stage):
        key = (bits(b), bits(c), element_key(m1), element_key(m2))
        if prod not in least or key < least[prod][0]:
            least[prod] = key, {
                "left_stage": list(model.sheaf.named(b)),
                "right_stage": list(model.sheaf.named(c)),
                "left": m1.as_dict(),
                "right": m2.as_dict(),
            }
    return {prod: witness for prod, (_, witness) in least.items()}


def star_witness(model, p, q, element):
    """The least decomposition of the element, or None."""
    return star_witnesses(model, p, q).get(element)


def pipeline_maps(model):
    """The decomposition presheaf, the multiplication into Match(F) (each
    product sent through the amalgamation iso's inverse) and the iso."""
    from sheafsep.day import day_decomp
    from sheafsep.presheaf import amalgamation_operator

    site, mp = model.site, model.sheaf
    decomp = day_decomp(mp, mp, site.monoidal)
    iso = amalgamation_operator(mp, site.cov)
    mult = {}
    for a in site.cat.objects:
        mult[a], inverse = {}, components(iso.inverse, a)
        for d in decomp.at(a):
            prod = apply(model.monoid, d)
            if prod is not None:
                mult[a][d] = inverse[prod]
    return decomp, morphism(decomp, iso.match, mult, "mult"), iso


def pipeline_star(model, p, q, maps):
    """The categorical composite on elements: combine on the decomposition
    presheaf, then the existential images along the multiplication into
    Match(F) and along the amalgamation iso (`maps` from `pipeline_maps`)."""
    decomp, mult, iso = maps
    site, cat, u = model.site, model.site.cat, p.stage
    combined = {
        sl: frozenset(
            d
            for d in decomp.at(cat.src(sl))
            if d.left in p.family[cat.hom(d.left_stage, u)[0]]
            and d.right in q.family[cat.hom(d.right_stage, u)[0]]
        )
        for sl in cat.mors_into(u)
    }
    combined = predicate(decomp, site, u, combined)
    over_match = predicate(iso.match, site, u, direct_image(mult, combined))
    return direct_image(iso.forward, over_match)


def restrict_predicate(p, f):
    """The predicate at stage src(f) obtained by composing slice objects
    with f (restriction of the predicate along f)."""
    cat = p.site.cat
    if cat.dst(f) != p.stage:
        raise StageMismatchError(f"{f!r} does not target stage {p.stage!r}")
    b = cat.src(f)
    bits = {q: p.bits[cat.compose(f, q)] for q in cat.mors_into(b)}
    return KripkePredicate(p.resource, p.site, b, bits)


def glue_predicates(site, resource, cover, parts):
    """The unique predicate on the cover's target restricting to the parts.

    `parts` maps cover morphisms (a generating subset suffices) to
    predicates at their sources.  Pairwise compatibility is checked on
    common factorisations; the family at slice objects outside the cover
    is forced by the subsheaf condition.
    """
    cat = site.cat
    a = cover.target
    full_parts = {}
    for f in sorted(cover.members):
        if f in parts:
            full_parts[f] = parts[f]
            continue
        for g, part in parts.items():
            ks = cat.factorisations(f, g)
            if ks:
                full_parts[f] = restrict_predicate(part, ks[0])
                break
        else:
            raise IncompatibleFamilyError(
                f"no part supplied or derivable for cover member {f!r}"
            )
    for f, part_f in full_parts.items():
        if part_f.stage != cat.src(f) or part_f.resource is not resource:
            raise StageMismatchError(f"part for {f!r} has wrong stage or resource")
        for g, part_g in full_parts.items():
            for k, h in cat.squares(f, g):
                lhs = restrict_predicate(part_f, k)
                rhs = restrict_predicate(part_g, h)
                if lhs.bits != rhs.bits:
                    raise IncompatibleFamilyError(
                        f"parts disagree on the overlap {f!r}.{k!r} = {g!r}.{h!r}",
                        witness=(f, g, k, h),
                    )
    bits = {}
    for p in cat.mors_into(a):
        if p in full_parts:
            bits[p] = full_parts[p].bits[cat.id(cat.src(p))]
            continue
        bits[p] = _all(resource, cat.src(p))
        for g in pullback_sieve(cat, cover, p).members:
            pg = cat.compose(p, g)
            bits[p] &= _preimage(resource.table(g), full_parts[pg].bits[cat.id(cat.src(pg))])
    return KripkePredicate(resource, site, a, bits)
