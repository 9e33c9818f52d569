"""Matrix discretizations of the convolution operator and its commutant.

K is discretized by Nystrom quadrature on the shared grid; simple-pole
kernels get a singularity-subtraction treatment in the principal-value
sense.  L is discretized by spectral collocation with barycentric
differentiation matrices.  A single shared Legendre-Gauss-Lobatto grid
keeps the commutator a plain matrix expression.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import legendre as npleg

from .errors import RegularKernelError, SingularKernelError
from .families import CommutingPair, DiffOp
from .kernels import kernel_values

GAUSS = "gauss_legendre"
LOBATTO = "legendre_gauss_lobatto"


@dataclass(frozen=True, eq=False)
class Grid:
    nodes: np.ndarray
    weights: np.ndarray
    kind: str

    @property
    def n(self) -> int:
        return self.nodes.size

    def same_as(self, other: "Grid") -> bool:
        return self.kind == other.kind and np.array_equal(self.nodes, other.nodes)

    def interior(self) -> np.ndarray:
        """Boolean mask of nodes strictly inside (-1, 1)."""
        return np.abs(self.nodes) < 1.0 - 1e-14


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    entries: np.ndarray
    grid: Grid
    role: str
    meta: dict = field(default_factory=dict)


def build_grid(n: int, kind: str = LOBATTO) -> Grid:
    """Quadrature nodes/weights on [-1, 1] for the named rule."""
    if n < 2:
        raise ValueError("grid needs n >= 2 nodes")
    if kind == GAUSS:
        nodes, weights = npleg.leggauss(n)
        return Grid(nodes=nodes, weights=weights, kind=kind)
    if kind == LOBATTO:
        nodes, weights = _lobatto(n)
        return Grid(nodes=nodes, weights=weights, kind=kind)
    raise ValueError(f"unknown grid kind {kind!r}")


def legendre_polys(x: np.ndarray, deg: int) -> np.ndarray:
    """P_0..P_deg at x by the three-term recurrence, stacked along axis 0."""
    P = np.empty((deg + 1,) + np.shape(x))
    P[0] = 1.0
    if deg >= 1:
        P[1] = x
    for k in range(1, deg):
        P[k + 1] = ((2 * k + 1) * x * P[k] - k * P[k - 1]) / (k + 1)
    return P


def _lobatto(n: int) -> tuple[np.ndarray, np.ndarray]:
    """LGL nodes (+-1 and roots of P'_N, N = n-1) with weights 2/(n N P_N^2).

    Newton on P'_N, with (1-x^2) P'_N = N (P_{N-1} - x P_N) and P''_N from
    the Legendre equation (1-x^2) P'' = 2x P' - N(N+1) P.
    """
    if n == 2:
        return np.array([-1.0, 1.0]), np.array([1.0, 1.0])
    N = n - 1
    x = np.cos(np.pi * np.arange(n - 2, 0, -1) / N)
    for _ in range(60):
        P = legendre_polys(x, N)
        dP = N * (P[N - 1] - x * P[N]) / (1.0 - x**2)
        d2P = (2.0 * x * dP - N * (N + 1) * P[N]) / (1.0 - x**2)
        dx = dP / d2P
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    nodes = np.concatenate(([-1.0], x, [1.0]))
    weights = 2.0 / (n * N * legendre_polys(nodes, N)[N] ** 2)
    return nodes, weights


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
    return OperatorMatrix(entries=kv * w[None, :], grid=grid, role="K")


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
        zz = Z[near]
        acc = np.zeros_like(zz)
        for c in reversed(series[1:]):
            acc = acc * zz + c
        out[near] = acc
    return out


def pv_log_weight(x: np.ndarray) -> np.ndarray:
    """pv integral of 1/(x - y) over [-1, 1]: log((1+x)/(1-x))."""
    return np.log((1.0 + x) / (1.0 - x))


def nystrom_K_pv(pair: CommutingPair, grid: Grid) -> OperatorMatrix:
    """Principal-value Nystrom matrix for simple-pole kernels.

    Off-diagonal entries are plain quadrature of the full kernel; the
    diagonal carries the regular part plus the singularity-subtraction
    correction r*(log((1+x_i)/(1-x_i)) - sum_{j != i} w_j/(x_i - x_j)),
    which makes the row sums reproduce the pole's pv integral exactly for
    u = 1.  At grid endpoints the log weight diverges and is dropped
    (one-sided convention, recorded in ``meta``).
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
    end = np.abs(np.abs(x) - 1.0) < 1e-14
    log_w = np.zeros(n)
    log_w[~end] = pv_log_weight(x[~end])
    s = np.sum(np.divide(w[None, :], Z, out=np.zeros((n, n)), where=off), axis=1)
    np.fill_diagonal(entries, w * pair.kernel.series[1] - r * s + r * log_w)
    meta = {"pv": True, "endpoint_log_dropped": tuple(np.flatnonzero(end).tolist())}
    return OperatorMatrix(entries=entries, grid=grid, role="K", meta=meta)


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
    """L = diag(a) D2 + diag(b) D + diag(c) on the LGL grid.

    No boundary rows are replaced: a(+-1) = 0 makes the operator
    degenerate at the endpoints, which is the operator's own boundary
    structure.
    """
    if grid.kind != LOBATTO:
        raise ValueError("collocation_L requires a legendre_gauss_lobatto grid")
    D1, D2 = differentiation_matrices(grid.nodes)
    x = grid.nodes
    av = np.asarray(op.a(x))
    bv = np.asarray(op.b(x))
    cv = np.asarray(op.c(x))
    entries = av[:, None] * D2 + bv[:, None] * D1 + np.diag(cv)
    return OperatorMatrix(entries=entries.astype(complex), grid=grid, role="L")


def export_matrix_csv(matrix: OperatorMatrix, path) -> None:
    """Row-major CSV dump with quoted "re,im" cells."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_ALL)
        for row in matrix.entries:
            writer.writerow([f"{v.real:.17g},{v.imag:.17g}" for v in row])
