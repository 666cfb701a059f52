"""Analysis toolkit: automorphism checks, cross-validation, censuses and
round-complexity measurement."""

from .automorphisms import (
    automorphism_generators,
    automorphism_orbits,
    fixed_nodes,
    has_fixed_node,
    is_rigid,
    tag_preserving_automorphisms,
)
from .census import CensusResult, CensusRow, census
from .rounds import (
    SweepPoint,
    SweepResult,
    is_linear,
    is_superlinear,
    ratio_trend,
    sweep,
)
from .validation import ValidationReport, all_ok, validate, validate_many

from .extremal import (
    IterationExtremum,
    SpanSearchResult,
    TagSearchResult,
    feasibility_probability,
    hardest_tags,
    max_iterations,
    min_feasible_span,
)
from .isomorphism import (
    are_isomorphic,
    canonical_form,
    dedupe,
    find_isomorphism,
    orbit_of,
)
from .views import (
    ContrastCensus,
    ContrastRow,
    RefinementResult,
    color_refinement,
    radio_vs_wired,
    view_key,
    view_partition,
    wired_feasible,
)

from .quotient import (
    QuotientClass,
    QuotientGraph,
    classifier_quotient,
    equitability_violations,
    infeasibility_certificate,
    quotient_graph,
    radio_stable,
)

from .symmetry import (
    forced_non_leaders,
    gm_proof_pairs,
    symmetry_pairs,
    verify_pairwise_symmetry,
)

__all__ = [
    "CensusResult",
    "CensusRow",
    "ContrastCensus",
    "ContrastRow",
    "IterationExtremum",
    "QuotientClass",
    "QuotientGraph",
    "RefinementResult",
    "SpanSearchResult",
    "SweepPoint",
    "SweepResult",
    "TagSearchResult",
    "ValidationReport",
    "all_ok",
    "are_isomorphic",
    "automorphism_generators",
    "automorphism_orbits",
    "canonical_form",
    "census",
    "classifier_quotient",
    "color_refinement",
    "dedupe",
    "equitability_violations",
    "feasibility_probability",
    "find_isomorphism",
    "fixed_nodes",
    "forced_non_leaders",
    "gm_proof_pairs",
    "hardest_tags",
    "has_fixed_node",
    "infeasibility_certificate",
    "is_linear",
    "is_rigid",
    "is_superlinear",
    "max_iterations",
    "min_feasible_span",
    "orbit_of",
    "quotient_graph",
    "radio_stable",
    "radio_vs_wired",
    "ratio_trend",
    "sweep",
    "symmetry_pairs",
    "tag_preserving_automorphisms",
    "validate",
    "validate_many",
    "verify_pairwise_symmetry",
    "view_key",
    "view_partition",
    "wired_feasible",
]
