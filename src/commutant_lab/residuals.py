"""Pointwise certification of the commutation identities.

The defining identity for a commuting pair, after integration by parts,
is the two-variable functional equation

    F(y, z) = [a(y+z) - a(y)] k''(z) + [2a'(y) + b(y+z) - b(y)] k'(z)
              + [c(y+z) - c(y) + b'(y) - a''(y)] k(z) = 0

on y in [-1,1], y+z in [-1,1].  For simple-pole kernels F itself blows up
like z^-3 while z^3 F extends continuously to z = 0, so the reported
residual for singular kernels is the weighted value z^3 F (the continuous
extension); regular kernels report F directly.  F is sampled on the tensor
grid y_i x x_j of Chebyshev points, z = x_j - y_i, so each coefficient is
evaluated once per axis (once in all for R1 on a square grid, where the two
axes hold the same points) and k, k', k'' come from one difference-grid
``kernel_matrix`` call.  The points of each size are built once and kept
read-only, and a square grid's two axes are one array.  A regular kernel
reads every sample of F; a pole kernel masks out those with
|z| <= Z_EXCLUSION.  Coefficient differences a(x) - a(y) are evaluated
as written: the coefficients are entire and their evaluation is relatively
accurate, and the z^3 weighting keeps the near-pole samples from
amplifying rounding.

The same module hosts the derivative-at-zero checks: the Taylor system
obtained by differentiating F n times in z at z = 0, the three coefficient
relations (b = a', c = nu*a with nu = -3 k2/k0, a''' + alpha a' = 0) of
the analytic case, the series relation of the singular case, and the
principal-value boundary defect Phi.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    GaugeError,
    GridError,
    RegularKernelError,
    SingularKernelError,
)
from .families import CommutingPair, DiffOp, gauge_transform
from .kernels import KernelSpec, kernel_matrix, kernel_values

# pole kernels drop the samples with |z| <= Z_EXCLUSION
Z_EXCLUSION = 1e-2
# Chebyshev points on [-1, 1] for the derivative-at-zero checks
CHECK_POINTS = 21


@dataclass(frozen=True)
class ResidualReport:
    max_abs: float
    rms: float
    argmax: tuple[float, float]
    n_points: int
    scale: float


def chebyshev_points(n: int, lo: float = -1.0, hi: float = 1.0) -> np.ndarray:
    """Chebyshev-Lobatto points, ascending, mapped to [lo, hi]."""
    t = np.cos(np.pi * np.arange(n - 1, -1, -1) / (n - 1))
    return lo + (hi - lo) * (t + 1.0) / 2.0


@functools.cache
def _unit_chebyshev(n: int) -> np.ndarray:
    """``chebyshev_points(n)`` on [-1, 1], built once per n and read-only,
    so no caller can change the grid of a later call."""
    pts = chebyshev_points(n)
    pts.flags.writeable = False
    return pts


def _mixed_residual(
    kernel: KernelSpec,
    opL: DiffOp,
    opR: DiffOp,
    ny: int,
    nz: int,
) -> ResidualReport:
    if ny < 2 or nz < 2:
        raise GridError("residual grid needs ny >= 2 and nz >= 2")

    # tensor grid: row i holds y_i, column j holds x_j = y_i + z, both
    # Chebyshev points on [-1, 1] (one array when nz == ny); the kept points
    # (all of them, or |z| > Z_EXCLUSION for a pole) are read in row-major order
    ys = _unit_chebyshev(ny)
    xs = _unit_chebyshev(nz)
    Z = xs[None, :] - ys[:, None]

    # L1's coefficients once at the ny points y (one per row), L2's once at
    # the nz points x (one per column), k, k', k'' on the difference grid;
    # when L2 is L1 and nz == ny, x is y and L1's values serve both axes
    ay, da, dda = opL.a(ys, order=(0, 1, 2))
    by, db = opL.b(ys, order=(0, 1))
    cy = opL.c(ys)
    if opR is opL and nz == ny:
        ax, bx, cx = ay, by, cy
    else:
        ax, bx, cx = opR.a(xs), opR.b(xs), opR.c(xs)
    a, da, dda, b, db, c = (v[:, None] for v in (ay, da, dda, by, db, cy))
    k0, k1, k2 = (k.T for k in kernel_matrix(kernel, xs, ys, order=(0, 1, 2)))
    P = ax - a
    Q = 2.0 * da + bx - b
    R = cx - c + db - dda
    F = P * k2 + Q * k1 + R * k0
    index = None  # row-major index of each kept point, None when all are kept
    if kernel.singular:
        F = F * Z**3
        keep = np.abs(Z) > Z_EXCLUSION
        F, k0, index = F[keep], k0[keep], np.flatnonzero(keep)
    mags = np.abs(F).ravel()
    j = int(np.argmax(mags))  # first maximum in row-major order
    row, col = divmod(j if index is None else int(index[j]), nz)
    return ResidualReport(
        max_abs=float(mags[j]),
        rms=math.sqrt(float(np.mean(mags**2))),
        argmax=(float(ys[row]), float(Z[row, col])),
        n_points=int(mags.size),
        scale=float(np.max(np.abs(k0))),
    )


def residual_R1(pair: CommutingPair, ny: int = 41, nz: int = 41) -> ResidualReport:
    """Residual of the defining identity F(y,z) = 0 for a single pair."""
    return _mixed_residual(pair.kernel, pair.op, pair.op, ny, nz)


def residual_R2(
    kernel: KernelSpec,
    L1: DiffOp,
    L2: DiffOp,
    ny: int = 41,
    nz: int = 41,
) -> ResidualReport:
    """Residual of the intertwining identity with L2 sampled at y+z, L1 at y."""
    return _mixed_residual(kernel, L1, L2, ny, nz)


# ---------------------------------------------------------------------------
# derivative-at-zero systems


def derivative_coefficients(kernel: KernelSpec, upto: int) -> np.ndarray:
    """k_n = k^(n)(0) for n = 0..upto, from the stored Taylor data."""
    if kernel.singular:
        raise SingularKernelError("derivative coefficients require an analytic kernel")
    if upto >= len(kernel.series):
        raise ValueError("requested order exceeds stored series length")
    out = np.empty(upto + 1, dtype=complex)
    fact = 1.0
    for n in range(upto + 1):
        if n > 1:
            fact *= n
        out[n] = kernel.series[n] * fact
    return out


def taylor_relation_check(pair: CommutingPair, N: int) -> np.ndarray:
    """Max-abs residual of the n-th derivative relation at z=0 for n = 0..N.

    The n-th relation reads

        2a' k_{n+1} + (b' - a'') k_n
        + sum_{j<n} C(n,j) [a^(n-j) k_{j+2} + b^(n-j) k_{j+1} + c^(n-j) k_j] = 0

    with k_n the n-th kernel derivative at 0.  Each coefficient derivative
    is evaluated once and reused by every relation that reads it.
    """
    if pair.kernel.singular:
        raise SingularKernelError("use singular_relation_check for pole kernels")
    if N > len(pair.kernel.series) - 2:
        raise ValueError("N exceeds stored series data")
    k = derivative_coefficients(pair.kernel, N + 1)
    y = chebyshev_points(CHECK_POINTS)
    # derivative orders 1..max(N, 2) of a, b and c; index 0 is unused
    orders = range(1, max(N, 2) + 1)
    a, b, c = ((None, *f(y, order=orders)) for f in (pair.op.a, pair.op.b, pair.op.c))
    out = np.empty(N + 1)
    for n in range(N + 1):
        r = 2.0 * a[1] * k[n + 1]
        r = r + (b[1] - a[2]) * k[n]
        for j in range(n):
            r = r + math.comb(n, j) * (a[n - j] * k[j + 2] + b[n - j] * k[j + 1] + c[n - j] * k[j])
        out[n] = float(np.max(np.abs(r)))
    return out


def _fit_scalar(target: np.ndarray, basis: np.ndarray) -> complex:
    denom = np.sum(np.conj(basis) * basis)
    if abs(denom) == 0:
        return 0j
    return complex(np.sum(np.conj(basis) * target) / denom)


def lemma_coeff_check(pair: CommutingPair) -> dict:
    """Residuals of b = a', c = nu*a (nu = -3k2/k0) and a''' + alpha*a' = 0.

    The pair is gauge-normalised internally so that k'(0) = 0; alpha is
    fitted by least squares since only its existence is asserted.
    """
    if pair.kernel.singular:
        raise SingularKernelError("lemma relations apply to analytic kernels")
    k = derivative_coefficients(pair.kernel, 3)
    if abs(k[0]) < 1e-14:
        raise GaugeError("k(0) = 0: kernel cannot be gauge-normalised")
    if abs(k[1] / k[0]) > 1e-10:
        pair = gauge_transform(pair, tau=-k[1] / k[0])
        k = derivative_coefficients(pair.kernel, 3)
        if abs(k[1] / k[0]) > 1e-10:
            raise GaugeError("gauge normalisation k1 = 0 failed")
    y = chebyshev_points(CHECK_POINTS)
    a, b, c = pair.op.a, pair.op.b, pair.op.c
    nu = -3.0 * k[2] / k[0]
    a0, a1, a3 = a(y, order=(0, 1, 3))
    b_res = float(np.max(np.abs(b(y) - a1)))
    c_res = float(np.max(np.abs(c(y) - nu * a0)))
    alpha = _fit_scalar(-a3, a1)
    ode_res = float(np.max(np.abs(a3 + alpha * a1)))
    return {"b_eq_aprime": b_res, "c_eq_nu_a": c_res, "a_ode": ode_res, "nu": nu}


def singular_relation_check(pair: CommutingPair) -> dict:
    """Residual of c + a''/3 + 2 k2 a - b'/2 = const for pole kernels.

    The kernel is normalised internally to residue 1 and k1 = 0 (both are
    gauge freedoms); the constant is fitted by least squares.
    """
    if not pair.kernel.singular:
        raise RegularKernelError("series relation applies to simple-pole kernels")
    s = pair.kernel.series
    k0 = s[0]
    if abs(k0) < 1e-14:
        raise GaugeError("vanishing residue: kernel is not a simple pole")
    tau = -s[1] / k0
    if abs(tau) > 1e-12 or abs(k0 - 1.0) > 1e-12:
        pair = gauge_transform(pair, tau=tau, scale=1.0 / k0)
        s = pair.kernel.series
    k2 = s[2]
    y = chebyshev_points(CHECK_POINTS)
    a, dda = pair.op.a(y, order=(0, 2))
    v = pair.op.c(y) + dda / 3.0 + 2.0 * k2 * a - pair.op.b(y, order=1) / 2.0
    const = complex(np.mean(v))
    residual = float(np.max(np.abs(v - const)))
    return {"residual": residual, "fitted_const": const}


def phi_defect(pair: CommutingPair, u, du, x: float, eps: float) -> complex:
    """Boundary defect Phi(u, x, eps) of the principal-value commutation.

    Evaluates the excised-ball boundary terms verbatim; for a commuting
    pair all contributions through O(1) cancel and Phi -> 0 linearly.
    ``u``/``du`` are value and derivative evaluators of the test function.
    """
    if not pair.kernel.singular:
        raise RegularKernelError("the boundary defect is defined for pole kernels")
    if not (0.0 < eps < min(1.0 - x, 1.0 + x)):
        raise ValueError("need 0 < eps < min(1-x, 1+x)")
    a, b = pair.op.a, pair.op.b
    (k_p, kp_p) = kernel_values(pair.kernel, eps, orders=(0, 1))
    (k_m, kp_m) = kernel_values(pair.kernel, -eps, orders=(0, 1))
    xm, xp = x - eps, x + eps
    a_x, b_x = a(x), b(x)
    a_m, da_m = a(xm, order=(0, 1))
    a_p, da_p = a(xp, order=(0, 1))
    term = k_p * ((a_m - a_x) * complex(du(xm)) + (b(xm) - b_x - da_m) * complex(u(xm)))
    term -= k_m * ((a_p - a_x) * complex(du(xp)) + (b(xp) - b_x - da_p) * complex(u(xp)))
    term += kp_p * complex(u(xm)) * (a_m - a_x)
    term -= kp_m * complex(u(xp)) * (a_p - a_x)
    return term
