"""Separation-logic model checking over finite sites and sheaves.

The toolkit builds finite Grothendieck sites, checks the sheaf condition
by exhaustive amalgamation, computes Day convolution in decomposition
and coend form, interprets separation-logic formulas in stage-indexed
predicate fibres, and instantiates the same machinery for memory models
and finite probability spaces.
"""

from .day import (
    CoendClass,
    Decomp,
    ResourceMonoid,
    build_memory_monoid,
    check_day_stability,
    check_monoid_laws,
    day_coend,
    day_decomp,
)
from .fincat import (
    FinCat,
    MonoidalStructure,
    build_finsurj_category,
    build_powerset_category,
    validate_category,
    validate_monoidal,
)
from .pred import (
    KripkePredicate,
    bottom_predicate,
    combine_alpha,
    direct_image,
    implication,
    join,
    meet,
    reindex_preimage,
    top_predicate,
)
from .presheaf import (
    Heap,
    MatchClass,
    Presheaf,
    SheafMorphism,
    amalgamation_operator,
    build_resource_sheaf,
    check_sheaf,
    is_sheaf,
    matching_presheaf,
    require_sheaf,
    validate_sheaf_morphism,
)
from .psl import (
    ProbSpace,
    PslModel,
    RandomVariable,
    independence_oracle,
    law_of,
    psl_sat,
)
from .seplogic import (
    ResourceModel,
    atom_predicate,
    eval_formula,
    make_memory_model,
    parse_formula,
    sat,
    sep_conj,
)
from .site import (
    Coverage,
    Sieve,
    Site,
    build_coverage,
    validate_coverage,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
