"""Lifted cover inequalities for knapsacks with few distinct weights.

The package enumerates equivalence classes of minimal covers, lifts them,
separates the strongest member inequality of every class at a fractional
point in exact arithmetic, emits sorting-network models that enforce whole
classes at once, and cross-checks everything against exhaustive brute force
at desk scale.
"""

from .covers import (
    CoverClass,
    CoverCursor,
    LiftingData,
    compute_lifting,
    first_minimal_cover,
    is_cover,
    is_minimal_cover,
    iter_minimal_cover_classes,
)
from .ef import (
    OrbisackCut,
    OrbisackSpec,
    class_ef,
    ef_membership,
    enumerate_orbisack_lcis,
    membership_certificates,
    orbisack_ef,
    orbisack_point_check,
)
from .errors import (
    CertificateInfeasible,
    DimensionMismatch,
    InvalidCut,
    InvalidFractionalPoint,
    KnapsackError,
    NameCollision,
    NonPositiveWeight,
    Overflow,
    OverlappingGroups,
    SparseknapError,
    TooLarge,
    TrivialKnapsack,
    TupleExceedsClass,
    UncoveredIndex,
    WeightExceedsCapacity,
)
from .indep import (
    IndepLeaf,
    IndepSearch,
    JumpGeometry,
    jump_geometry,
    segment_above_frontier,
)
from .knapsack import (
    Knapsack,
    WeightClasses,
    class_profile,
    load_instance,
    load_point,
    normalize,
    promote_point,
    tuple_weight,
    validate_gubs,
)
from .linmodel import LinearModel, parse_lp, satisfies, write_lp
from .networks import (
    ComparisonNetwork,
    DualCertificate,
    apply,
    dual_certificate,
    insertion_network,
    is_sorting_network,
    network_from_1based,
    oddeven_network,
)
from .separation import (
    LiftedCut,
    PointOrder,
    SeparateOptions,
    SeparationResult,
    assemble_cut,
    class_pairs,
    gub_strengthen,
    ladder_value,
    max_representative,
    point_order,
    rank_coefficients,
    separate,
    violation,
)

__version__ = "0.1.0"
