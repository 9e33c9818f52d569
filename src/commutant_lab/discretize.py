"""Matrix discretizations of the convolution operator and its commutant.

Everything lives on one Legendre-Gauss-Lobatto grid, which carries its
quadrature weights and its barycentric differentiation matrices D1, D2,
so the commutator is a plain matrix expression.  K is discretized by
Nystrom quadrature; simple-pole kernels get a singularity-subtraction
treatment in the principal-value sense.  L is discretized by spectral
collocation with the grid's D1 and D2.  Each matrix records what it
discretizes (the kernel of K, the operator of L).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coeffs import polyval
from .errors import RegularKernelError, SingularKernelError
from .families import CommutingPair, DiffOp
from .kernels import KernelSpec, kernel_values


@dataclass(frozen=True, eq=False)
class Grid:
    """LGL nodes and weights on [-1, 1] with D1, D2 at the nodes."""

    nodes: np.ndarray
    weights: np.ndarray
    D1: np.ndarray
    D2: np.ndarray

    @property
    def n(self) -> int:
        return self.nodes.size

    def same_as(self, other: "Grid") -> bool:
        return np.array_equal(self.nodes, other.nodes)

    def interior(self) -> np.ndarray:
        """Boolean mask of nodes strictly inside (-1, 1)."""
        return np.abs(self.nodes) < 1.0 - 1e-14

    def log_weight(self) -> np.ndarray:
        """pv log weight log((1+x)/(1-x)) on interior nodes, 0 at the endpoints.

        The weight diverges at +-1; dropping it there is the one-sided
        endpoint convention of the pv Nystrom rule.
        """
        mask = self.interior()
        out = np.zeros(self.n)
        out[mask] = pv_log_weight(self.nodes[mask])
        return out


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Matrix of K (``kernel`` set) or of L (``op`` set) on ``grid``."""

    entries: np.ndarray
    grid: Grid
    kernel: KernelSpec | None = None
    op: DiffOp | None = None


def build_grid(n: int) -> Grid:
    """LGL nodes (+-1 and roots of P'_N, N = n-1) with weights 2/(n N P_N^2).

    The interior nodes are the Gauss nodes of the weight 1 - x^2, i.e. the
    eigenvalues of its Jacobi matrix (Golub & Welsch 1969): zero diagonal,
    off-diagonal sqrt(k(k+2) / ((2k+1)(2k+3))).  One Newton step on P'_N,
    with (1-x^2) P'_N = N (P_{N-1} - x P_N) and P''_N from the Legendre
    equation (1-x^2) P'' = 2x P' - N(N+1) P, takes them from a few ulps to
    full accuracy.  P_N is stationary at the nodes, so the weights use the
    same Legendre values.
    """
    if n < 2:
        raise ValueError("grid needs n >= 2 nodes")
    N = n - 1
    k = np.arange(1.0, N - 1)
    jacobi = np.diag(np.sqrt(k * (k + 2) / ((2 * k + 1) * (2 * k + 3))), -1)
    x = np.linalg.eigvalsh(jacobi) if n > 2 else np.empty(0)  # diag of [] is 1x1
    nodes = np.concatenate(([-1.0], x, [1.0]))
    P = np.polynomial.legendre.legvander(nodes, N)
    PN = P[1:-1, N]
    dP = N * (P[1:-1, N - 1] - x * PN) / (1.0 - x**2)
    d2P = (2.0 * x * dP - N * (N + 1) * PN) / (1.0 - x**2)
    nodes[1:-1] -= dP / d2P
    weights = 2.0 / (n * N * P[:, N] ** 2)
    D1, D2 = differentiation_matrices(nodes)
    return Grid(nodes=nodes, weights=weights, D1=D1, D2=D2)


def differentiation_matrices(nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First/second-order barycentric differentiation matrices.

    Uses the negative-sum trick on the diagonal for stability; the
    second-order matrix comes from the standard recurrence rather than
    squaring the first-order one.
    """
    dx = nodes[:, None] - nodes[None, :]
    d = 2.0 * dx
    np.fill_diagonal(d, 1.0)
    w = 1.0 / np.prod(d, axis=1)
    np.fill_diagonal(dx, 1.0)
    dxi = 1.0 / dx
    ratio = w[None, :] / w[:, None]
    np.fill_diagonal(ratio, 0.0)
    D1 = ratio * dxi
    np.fill_diagonal(D1, 0.0)
    np.fill_diagonal(D1, -np.sum(D1, axis=1))
    D2 = 2.0 * D1 * (np.diag(D1)[:, None] - dxi)
    np.fill_diagonal(D2, 0.0)
    np.fill_diagonal(D2, -np.sum(D2, axis=1))
    return D1, D2


def nystrom_K(pair: CommutingPair, grid: Grid) -> OperatorMatrix:
    """K[i,j] = w_j k(x_i - x_j) for analytic kernels."""
    if pair.kernel.singular:
        raise SingularKernelError("kernel has a pole: use nystrom_K_pv")
    x, w = grid.nodes, grid.weights
    Z = x[:, None] - x[None, :]
    (kv,) = kernel_values(pair.kernel, Z, orders=(0,))
    return OperatorMatrix(entries=kv * w[None, :], grid=grid, kernel=pair.kernel)


def k_reg_values(pair: CommutingPair, Z: np.ndarray) -> np.ndarray:
    """Regular remainder k(z) - r/z, via Laurent data for |z| <= 0.1."""
    series = pair.kernel.series
    r = series[0]
    out = np.zeros_like(Z, dtype=complex)
    near = np.abs(Z) <= 0.1
    far = ~near
    if np.any(far):
        (kv,) = kernel_values(pair.kernel, Z[far], orders=(0,))
        out[far] = kv - r / Z[far]
    if np.any(near):
        out[near] = polyval(series[1:], Z[near])
    return out


def pv_log_weight(x: np.ndarray) -> np.ndarray:
    """pv integral of 1/(x - y) over [-1, 1]: log((1+x)/(1-x))."""
    return np.log((1.0 + x) / (1.0 - x))


def nystrom_K_pv(pair: CommutingPair, grid: Grid) -> OperatorMatrix:
    """Principal-value Nystrom matrix for simple-pole kernels k = r/z + k_reg.

    Singularity subtraction: pv int r u(y)/(x-y) dy equals
    r u(x) log((1+x)/(1-x)) + r int (u(y) - u(x))/(x - y) dy, whose smooth
    integrand is quadratured on the grid.  Its value at y = x_i is the
    limit -u'(x_i), so row i carries -r w_i (D1)_i besides the diagonal
    w_i k_reg(0) + r*(log((1+x_i)/(1-x_i)) - sum_{j != i} w_j/(x_i - x_j)).
    The rule is exact on polynomials the grid's quadrature integrates
    exactly (pv of P_k/(x-y) is 2 Q_k by Neumann's formula).  The diagonal
    log term is ``grid.log_weight()``, which drops the weight at the
    endpoints, so K = r diag(grid.log_weight()) + S with S smooth.
    """
    if not pair.kernel.singular:
        raise RegularKernelError("kernel is analytic: use nystrom_K")
    x, w = grid.nodes, grid.weights
    n = x.size
    r = pair.kernel.residue()
    Z = x[:, None] - x[None, :]
    off = ~np.eye(n, dtype=bool)
    entries = np.zeros((n, n), dtype=complex)
    (kv,) = kernel_values(pair.kernel, Z[off], orders=(0,))
    entries[off] = kv * np.broadcast_to(w[None, :], (n, n))[off]
    s = np.sum(np.divide(w[None, :], Z, out=np.zeros((n, n)), where=off), axis=1)
    np.fill_diagonal(entries, w * pair.kernel.series[1] - r * s + r * grid.log_weight())
    entries -= r * w[:, None] * grid.D1
    return OperatorMatrix(entries=entries, grid=grid, kernel=pair.kernel)


def pv_rowsum_error(pair: CommutingPair, K: OperatorMatrix) -> float:
    """Max interior error of K's row sums against the pv integral of k(x - y).

    For u = 1 the pole contributes r*log((1+x)/(1-x)) exactly; the regular
    remainder k - r/z is integrated with the grid's own quadrature.
    """
    grid = K.grid
    mask = grid.interior()
    x = grid.nodes[mask]
    rowsum = (K.entries @ np.ones(grid.n))[mask]
    reg = k_reg_values(pair, x[:, None] - grid.nodes[None, :]) @ grid.weights
    return float(np.max(np.abs(rowsum - reg - pair.kernel.residue() * pv_log_weight(x))))


def collocation_L(op: DiffOp, grid: Grid) -> OperatorMatrix:
    """L = diag(a) D2 + diag(b) D1 + diag(c) with the grid's D1, D2.

    No boundary rows are replaced: a(+-1) = 0 makes the operator
    degenerate at the endpoints, which is the operator's own boundary
    structure.
    """
    x = grid.nodes
    av = np.asarray(op.a(x))
    bv = np.asarray(op.b(x))
    cv = np.asarray(op.c(x))
    entries = av[:, None] * grid.D2 + bv[:, None] * grid.D1 + np.diag(cv)
    return OperatorMatrix(entries=entries.astype(complex), grid=grid, op=op)
