"""Exception types raised across the package."""


class CommutantError(Exception):
    """Base class for all package-specific errors."""


class AdmissibilityError(CommutantError):
    """Parameters would put a non-removable kernel singularity inside [-2, 2]."""


class DegenerateError(CommutantError):
    """Parameter combination collapses the construction (e.g. alpha1 = alpha2 = 0)."""


class InvalidPolynomialError(CommutantError, ValueError):
    """Polynomial data violates the variant's constraints (degree or p'(0))."""


class PoleError(CommutantError, ZeroDivisionError):
    """Singular kernel evaluated exactly at its pole."""


class GaugeError(CommutantError):
    """Gauge normalisation (k1 = 0, k0 = 1) cannot be established."""


class SingularKernelError(CommutantError):
    """Operation requires an analytic kernel but got one with a pole."""


class RegularKernelError(CommutantError):
    """Operation requires a simple-pole kernel but got an analytic one."""


class GridError(CommutantError, ValueError):
    """Sampling grid is too small or otherwise malformed."""


class GridMismatchError(CommutantError):
    """Two operator matrices do not share the same grid."""


class EigFailure(CommutantError):
    """An eigensolver did not converge, or its modes failed their certificate."""


class ConfigError(CommutantError):
    """Run configuration file is malformed."""
