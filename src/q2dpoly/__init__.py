"""2D q-orthogonal polynomial families (two q-Hermite analogues and a q-disk
family) with a q-calculus kernel, an exact-rational identity engine, and
high-precision numeric audits of orthogonality, zeros and asymptotics."""

from .context import GaussianRational, MissingSqrtError, QContext, TruncationPolicy
from .polyfamilies import BivarPoly, coeffs, eval_poly, radial_reduce
from .reports import VerificationReport

__all__ = [
    "QContext", "TruncationPolicy", "GaussianRational", "MissingSqrtError",
    "BivarPoly", "coeffs", "eval_poly", "radial_reduce",
    "VerificationReport",
]

__version__ = "0.1.0"
