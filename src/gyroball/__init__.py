"""Gyrogroup algebra on the open unit ball and disk.

Concrete models (Einstein, Mobius, complex Mobius disk, plain groups), their
gyronorms and induced hyperbolic metrics, and a seeded property-check engine
that verifies or falsifies the defining axioms and identities numerically.
"""

from .core import (
    Gyration,
    GyrogroupModel,
    GyronormedModel,
    IsometrySpec,
    LeftTranslation,
    apply_isometry,
    gyr_via_gyrator_identity,
    gyronorm_from_metric,
    homogeneity_witness,
    isotropy_witness,
    mazur_ulam_decompose,
)
from .disk import cmobius_add, cmobius_gyr_factor
from .einstein import einstein_add
from .engine import CheckConfig, CheckReport, run_suite, SUITE_NAMES
from .errors import (
    BoundaryError,
    DegeneracyError,
    DimensionMismatchError,
    DomainError,
    GyroError,
    LeftInvarianceError,
    SamplingHealthError,
    UnknownNameError,
)
from .mobius import mobius_add, phi, phi_inv
from .registry import (
    MODEL_NAMES,
    get_model,
    get_normed,
    gyrometric_de,
    gyronorm_E,
    gyronorm_M,
    poincare_metric,
    rapidity_metric_dE,
    rapidity_metric_dM,
)
from .rng import make_rng
from .vectors import euclidean_norm, sample_ball_points

# The package's public surface; see README, "Python API".
__all__ = [
    "Gyration", "GyrogroupModel", "GyronormedModel", "IsometrySpec", "LeftTranslation",
    "apply_isometry", "gyr_via_gyrator_identity", "gyronorm_from_metric",
    "homogeneity_witness", "isotropy_witness", "mazur_ulam_decompose",
    "cmobius_add", "cmobius_gyr_factor",
    "einstein_add",
    "CheckConfig", "CheckReport", "run_suite", "SUITE_NAMES",
    "BoundaryError", "DegeneracyError", "DimensionMismatchError", "DomainError",
    "GyroError", "LeftInvarianceError", "SamplingHealthError", "UnknownNameError",
    "mobius_add", "phi", "phi_inv",
    "MODEL_NAMES", "get_model", "get_normed", "gyrometric_de", "gyronorm_E", "gyronorm_M",
    "poincare_metric", "rapidity_metric_dE", "rapidity_metric_dM",
    "make_rng",
    "euclidean_norm", "sample_ball_points",
]

__version__ = "0.1.0"
