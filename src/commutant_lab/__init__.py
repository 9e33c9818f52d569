"""Commuting pairs of finite convolution and differential operators.

Construction of every classified pair (kernel k, second-order operator L)
with KL = LK, plus the numerical certification stack: functional-identity
residuals, discretized commutators, joint diagonalization and normality
tests.
"""

from .coeffs import ExpPoly
from .errors import (
    AdmissibilityError,
    CommutantError,
    ConfigError,
    DegenerateError,
    EigFailure,
    GaugeError,
    GridError,
    GridMismatchError,
    InvalidPolynomialError,
    PoleError,
    RegularKernelError,
    SingularKernelError,
)
from .families import (
    Case1,
    Case2,
    Case3,
    Case4,
    CommutingPair,
    DiffOp,
    FamilyParams,
    General,
    classify_trivial,
    gauge_transform,
    make_pair,
    params_from_json,
    params_to_json,
)
from .kernels import KernelSpec, build_kernel, kernel_matrix, kernel_values
from .residuals import (
    ResidualReport,
    chebyshev_points,
    derivative_coefficients,
    lemma_coeff_check,
    phi_defect,
    residual_R1,
    residual_R2,
    singular_relation_check,
    taylor_relation_check,
)
from .discretize import (
    Grid,
    OperatorMatrix,
    build_grid,
    collocation_L,
    differentiation_matrices,
    nystrom_K,
    nystrom_K_pv,
    pv_log_weight,
)
from .spectra import SpectralReport, commutator_norm, joint_diagonalization, spectral_norm
from .normality import (
    NormalityReport,
    adjoint_coeffs,
    commute_conditions,
    interior_points,
    is_normal,
    is_selfadjoint,
)

__version__ = "0.1.0"
