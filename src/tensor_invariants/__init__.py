"""Classical and generalized projective invariants of affine connection
spaces, with a pointwise-numeric invariance verifier."""

from .expr import Chart, DomainError, ExprError, ParseError, parse, print_expr
from .geometry import (
    RICCI_LAST,
    RICCI_MIDDLE,
    SingularMetricError,
    Space,
    christoffel,
    curvature,
    ricci,
    symmetrize_connection,
    thomas,
    weyl,
)
from .invariants import (
    MODE_DIRECT,
    MODE_STRUCTURED,
    OmegaSpec,
    SValues,
    WeylChain,
    basic_thomas,
    basic_weyl,
    dee,
    derived_thomas,
    derived_thomas_correlation_residual,
    derived_weyl_chain,
    omega,
    omega_square_expanded,
    reduced_space,
    zeta,
)
from .mappings import (
    FPlanarSpec,
    InvarianceReport,
    MappingSpec,
    apply_mapping,
    fplanar_as_omega,
    fplanar_build,
    fplanar_invariants,
    sample_points,
    verify_invariance,
)
from .tensor import PointField, TensorField

__version__ = "0.1.0"
