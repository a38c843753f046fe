"""Desk-scale verification of first-order period matrices of plumbed
families, alkane-indexed branch patterns, and the octic asymptotic
relations."""

from .alkanes import (
    Alkane,
    ValencyProfile,
    canonical_code,
    count_alkanes,
    enumerate_alkanes,
    hydrogen_count,
    is_chain,
    valency_profile,
)
from .curve_periods import (
    CurveBlock,
    PairPlumbing,
    PeriodMatrixJet,
    StarConfig,
    TreeConfig,
    TreeEdgeData,
    banded_locus_dimension,
    derivative_rank_one_check,
    is_banded,
    offdiag_support,
    pair_period_first_order,
    star_period_leading,
    tree_period_first_order,
)
from .elliptic import (
    Mark,
    MarkedEllipticCurve,
    TauPoint,
    TwoTorsionLabel,
    normalized_form_value,
)
from .errors import (
    DegenerateDataError,
    FormulaViolationError,
    PlumblineError,
    RangeError,
    StructureError,
)
from .gaussian import GaussianRational
from .jets import (
    EXACT_FIELD,
    FLOAT_FIELD,
    CoefficientField,
    FieldKind,
    Jet,
    JetRing,
)
from .relations import (
    AsymptoticReport,
    OcticIndex,
    all_octic_indices,
    octic_eval,
    plucker_coordinates,
    plucker_to_cone,
    verify_asymptotic_vanishing,
)
from .surfaces import (
    EdgeData,
    SurfaceGraphModel,
    dim_K,
    dim_V_Gamma,
    dim_W,
    dim_period_domain,
    skew_block_rank_one_vanishing,
    span_dimension_E_Gamma,
)

__version__ = "0.1.0"
