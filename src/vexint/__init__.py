"""Variable-exponent function spaces on the periodic box: norms, dyadic
sequence spaces, Littlewood-Paley banks, factorizations, and interpolation
checks, with a reproducible acceptance suite behind the `vexint` CLI."""

# numpy 2 imports its submodules on first attribute access.  The library
# calls np.fft, np.random and np.unique (which imports numpy.ma) on its
# main paths, so they load with the package, not inside a first call.
import numpy.fft  # noqa: F401
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401

from .errors import (
    AdmissibilityFailure,
    ConjugateUndefined,
    InvalidConfiguration,
    InvalidExponent,
    InvalidInput,
    InvalidSelection,
    PreconditionViolation,
    PreconditionWarning,
    ResolutionExceeded,
    SolverFailure,
    UnsupportedParameters,
)
from .grid import Grid, GridFunction, make_grid
from .exponents import (
    ExponentField,
    build_exponent,
    conjugate,
    interpolate_exponents,
    log_holder_constants,
)
from .lebesgue import luxemburg_norm, mixed_norm, modular, unit_ball_check
from .kernels import eta, verify_alpha_shift, verify_eta_maximal, verify_jensen_gamma
from .seqspaces import (
    DyadicCoefficients,
    coefficient_bound_check,
    f_infty_norm,
    f_norm,
)
from .lpf import (
    F_infty_norm,
    F_norm,
    analyze,
    build_admissible_pair,
    build_dual_pair,
    build_resolution_of_unity,
    retract_roundtrip,
    synthesize,
    transform_roundtrip,
)
from .calderon import (
    build_level_sets,
    case_classifier,
    equivalence_experiment,
    factorization_params_pp,
    factorization_params_pq_infty,
    factorize,
    factorize_pp,
    factorize_pq_infty,
    verify_holder_direction,
)
from .interp import inter_rest_check, scalar_interp_sandwich, strip_poisson

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityFailure",
    "ConjugateUndefined",
    "InvalidConfiguration",
    "InvalidExponent",
    "InvalidInput",
    "InvalidSelection",
    "PreconditionViolation",
    "PreconditionWarning",
    "ResolutionExceeded",
    "SolverFailure",
    "UnsupportedParameters",
    "Grid",
    "GridFunction",
    "make_grid",
    "ExponentField",
    "build_exponent",
    "conjugate",
    "interpolate_exponents",
    "log_holder_constants",
    "luxemburg_norm",
    "mixed_norm",
    "modular",
    "unit_ball_check",
    "eta",
    "verify_alpha_shift",
    "verify_eta_maximal",
    "verify_jensen_gamma",
    "DyadicCoefficients",
    "coefficient_bound_check",
    "f_infty_norm",
    "f_norm",
    "F_infty_norm",
    "F_norm",
    "analyze",
    "build_admissible_pair",
    "build_dual_pair",
    "build_resolution_of_unity",
    "retract_roundtrip",
    "synthesize",
    "transform_roundtrip",
    "build_level_sets",
    "case_classifier",
    "equivalence_experiment",
    "factorization_params_pp",
    "factorization_params_pq_infty",
    "factorize",
    "factorize_pp",
    "factorize_pq_infty",
    "verify_holder_direction",
    "inter_rest_check",
    "scalar_interp_sandwich",
    "strip_poisson",
    "__version__",
]
