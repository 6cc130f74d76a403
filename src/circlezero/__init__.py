"""circlezero: Bernoulli/Euler/odd-zeta polynomial families with certified
unit-circle zero verification and zeta(3) approximation schemes."""

from .enclosure import (
    ComplexEnclosure,
    RealEnclosure,
    ball_acos,
    ball_cos,
    ball_exp,
    ball_sin,
    exp_complex,
    lambda_k,
    zeta_int,
    zeta_odd,
)
from .errors import (
    CapacityError,
    CircleZeroError,
    DomainError,
    NumericError,
    PrecisionError,
)
from .exact import (
    bernoulli,
    bernoulli_half_value,
    binomial,
    check_bernoulli_bounds,
    check_euler_bounds,
    euler,
    zeta_even_rational,
)
from .families import (
    FamilyPoly,
    ZetaCoefficient,
    build_family,
    build_P,
    build_Q,
    build_R,
    build_S,
    build_W,
    build_Y,
)
from .approx import (
    ApproxResult,
    SeriesEvaluation,
    approx1_zeta3,
    approx2_zeta3,
    auxiliary_zeros,
    ramanujan_identity_residual,
    sech_identity_residual,
)
from .criteria import abs_square_coeffs, lakatos_check, observation_identity, schinzel_check
from .oscillation import alternating_verify
from .reports import CriteriaReport, OscillationReport, VerificationReport
from .roots import find_roots, simplicity_check
from .verify import (
    FAMILY_SPECS,
    criteria_check,
    oscillation_samples,
    oscillation_verify,
    oscillation_verify_Q,
    oscillation_verify_W,
    verify_family,
)

__version__ = "0.1.0"
