"""Matrix discretizations of the convolution operator and its commutant.

Everything lives on one Legendre-Gauss-Lobatto grid, which carries its
quadrature weights, its barycentric differentiation matrices D1, D2 and
the pv quadrature sums of the pole, so the commutator is a plain matrix
expression.  A grid is built once per n per process and is read-only.
K is discretized by Nystrom quadrature; simple-pole kernels get a
singularity-subtraction treatment in the principal-value sense.  L is discretized by spectral
collocation with the grid's D1 and D2.  Each matrix records what it
discretizes (the kernel of K, the operator of L).
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .coeffs import polyval
from .errors import RegularKernelError, SingularKernelError
from .families import CommutingPair, DiffOp
from .kernels import KernelSpec, kernel_matrix


@dataclass(frozen=True, eq=False)
class Grid:
    """LGL nodes and weights on [-1, 1] with D1, D2 at the nodes.

    The nodes ascend from -1 to 1, so nodes 1 .. n-2 are the interior ones
    and interior rows of a grid matrix are the view ``[1:-1]``.
    ``pv_sums[i]`` is sum_{j != i} w_j / (x_i - x_j), the grid's quadrature
    of the pole 1/(x_i - y) with the singular node left out.  ``log_weight``
    is the pv log weight log((1+x)/(1-x)) on interior nodes and 0 at the
    endpoints, where it diverges: the one-sided endpoint convention of the
    pv Nystrom rule.  ``legendre``
    holds the orthonormal Legendre polynomials p_0 .. p_{n/2} of L^2(-1, 1)
    at the nodes, one per column, and ``dlegendre`` is D1 of them.  Their
    products have degree <= n <= 2n - 3, which the grid's quadrature
    integrates exactly, so the columns are orthonormal in its weights.
    """

    nodes: np.ndarray
    weights: np.ndarray
    D1: np.ndarray
    D2: np.ndarray
    pv_sums: np.ndarray
    log_weight: np.ndarray
    legendre: np.ndarray
    dlegendre: np.ndarray

    @property
    def n(self) -> int:
        return self.nodes.size

    def same_as(self, other: "Grid") -> bool:
        return self is other or np.array_equal(self.nodes, other.nodes)


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Matrix of K (``kernel`` set) or of L (``op`` set) on ``grid``.

    A pv K keeps ``samples``, the read-only kernel values k(x_i - x_j) its
    entries were assembled from (0 where i = j), which its row-sum check
    (``pv_rowsum_error``) reads instead of evaluating the kernel again.
    """

    entries: np.ndarray
    grid: Grid
    kernel: KernelSpec | None = None
    op: DiffOp | None = None
    samples: np.ndarray | None = None


def build_grid(n: int) -> Grid:
    """The LGL grid with n nodes, built once per n per process.

    The four most recently used grids are kept and shared, so their arrays
    are read-only.  Each keeps D1 and D2, 2 n^2 8 bytes, and the Legendre
    columns with their derivatives, about n^2 8 bytes: 1.5 MB at n = 256
    and 24 MB at n = 1024.  n is made an integer first (``operator.index``),
    so 64.0 fails as it does uncached instead of finding the grid of 64.
    """
    return _lgl_grid(operator.index(n))


@functools.lru_cache(maxsize=4)
def _lgl_grid(n: int) -> Grid:
    """LGL nodes (+-1 and roots of P'_N, N = n-1) with weights 2/(n N P_N^2).

    The interior nodes are the Gauss nodes of the weight 1 - x^2, i.e. the
    eigenvalues of its Jacobi matrix (Golub & Welsch 1969): zero diagonal,
    off-diagonal sqrt(k(k+2) / ((2k+1)(2k+3))).  One Newton step on P'_N,
    with (1-x^2) P'_N = N (P_{N-1} - x P_N) and P''_N from the Legendre
    equation (1-x^2) P'' = 2x P' - N(N+1) P, takes them from a few ulps to
    full accuracy.  P_N is stationary at the nodes, so the weights use the
    same Legendre values.  The Legendre columns are one ``legvander`` at
    the corrected nodes, scaled as in ``Grid``, and their derivatives one
    product with D1.
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
    Z = nodes[:, None] - nodes[None, :]
    off = ~np.eye(n, dtype=bool)
    pv_sums = np.sum(np.divide(weights[None, :], Z, out=np.zeros((n, n)), where=off), axis=1)
    log_weight = np.zeros(n)
    log_weight[1:-1] = pv_log_weight(nodes[1:-1])
    d = n // 2
    legendre = np.polynomial.legendre.legvander(nodes, d) / np.sqrt(2.0 / (2.0 * np.arange(d + 1) + 1.0))
    dlegendre = D1 @ legendre
    for a in (nodes, weights, D1, D2, pv_sums, log_weight, legendre, dlegendre):
        a.flags.writeable = False
    return Grid(nodes, weights, D1, D2, pv_sums, log_weight, legendre, dlegendre)


build_grid.cache_clear = _lgl_grid.cache_clear
build_grid.__wrapped__ = _lgl_grid.__wrapped__


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
    entries = kernel_matrix(pair.kernel, x, x)
    entries *= w[None, :]
    return OperatorMatrix(entries=entries, grid=grid, kernel=pair.kernel)


def k_reg_values(spec: KernelSpec, x: np.ndarray, y: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """Regular remainder k(z) - r/z at z = x_i - y_j from the samples k(z).

    Where the subtraction cancels, |z| <= min(0.1, rho), the Laurent series
    is summed instead; rho is where its last stored terms s_j rho^j (the
    Taylor series of z k) fall to u |s_0|, so the truncated series has
    converged there also for fast kernels.  ``samples`` is not written to.
    """
    series, last = spec.series, len(spec.series) - 1
    u = np.finfo(float).eps / 2
    rho = [(u * abs(series[0]) / abs(series[j])) ** (1 / j) for j in (last - 1, last) if series[j]]
    Z = np.subtract.outer(x, y)
    near = np.abs(Z) <= min([0.1] + rho)
    out = np.divide(series[0], Z, out=np.zeros_like(samples), where=~near)
    np.subtract(samples, out, out=out)
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
    w_i k_reg(0) + r*(log((1+x_i)/(1-x_i)) - sum_{j != i} w_j/(x_i - x_j)),
    whose sum the grid keeps as ``pv_sums``.
    The rule is exact on polynomials the grid's quadrature integrates
    exactly (pv of P_k/(x-y) is 2 Q_k by Neumann's formula).  The diagonal
    log term is ``grid.log_weight``, which drops the weight at the
    endpoints, so K = r diag(grid.log_weight) + S with S smooth.  The
    kernel values are kept, read-only, as the matrix's ``samples``.
    """
    if not pair.kernel.singular:
        raise RegularKernelError("kernel is analytic: use nystrom_K")
    x, w = grid.nodes, grid.weights
    r = pair.kernel.residue()
    samples = kernel_matrix(pair.kernel, x, x)
    samples.flags.writeable = False
    entries = samples * w[None, :]
    np.fill_diagonal(entries, w * pair.kernel.series[1] - r * grid.pv_sums + r * grid.log_weight)
    entries -= r * w[:, None] * grid.D1
    return OperatorMatrix(entries=entries, grid=grid, kernel=pair.kernel, samples=samples)


def pv_rowsum_error(K: OperatorMatrix) -> float:
    """Max interior error of a pv K's row sums against the pv integral of k(x - y).

    For u = 1 the pole contributes r*log((1+x)/(1-x)) exactly; the regular
    remainder k - r/z is integrated with the grid's own quadrature, from
    the kernel samples K was assembled from.  The error is relative to
    max(1, ||K||_inf) over interior rows, since the row sums round in
    proportion to the entries' size.
    """
    if K.samples is None:
        raise RegularKernelError("the pv row-sum check needs a pv K (nystrom_K_pv)")
    grid = K.grid
    rowsum = (K.entries @ np.ones(grid.n))[1:-1]
    reg = k_reg_values(K.kernel, grid.nodes[1:-1], grid.nodes, K.samples[1:-1]) @ grid.weights
    err = np.max(np.abs(rowsum - reg - K.kernel.residue() * grid.log_weight[1:-1]))
    return float(err / max(1.0, np.max(np.abs(K.entries[1:-1]).sum(axis=1))))


def collocation_L(op: DiffOp, grid: Grid) -> OperatorMatrix:
    """L = diag(a) D2 + diag(b) D1 + diag(c) with the grid's D1, D2.

    No boundary rows are replaced: a(+-1) = 0 makes the operator
    degenerate at the endpoints, which is the operator's own boundary
    structure.
    """
    x = grid.nodes
    av, bv, cv = op.a(x), op.b(x), op.c(x)
    entries = av[:, None] * grid.D2
    entries += bv[:, None] * grid.D1
    entries.flat[:: grid.n + 1] += cv
    return OperatorMatrix(entries=entries, grid=grid, op=op)
