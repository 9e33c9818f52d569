"""Commutator norms and joint diagonalization.

Commutation KL = LK means eigenspaces of K are invariant under L, so
eigenvectors of the (cheap, well-understood) differential operator L
serve as an approximate eigenbasis of K.  This module measures how well
the discretized pair commutes and demonstrates the joint diagonalization:
K in the basis of the small-|eigenvalue| L-modes, V^-1 K V, is diagonal
up to commutator-sized off-diagonal entries, and its diagonal reproduces
K's dominant spectrum.  L need not be normal, so its modes need not be
orthogonal; the rows of V^-1 are its left eigenvectors.

Norms are quadrature-weighted (discrete L^2(-1,1)), matching where the
operators live.  Both measures read what K discretizes from the matrix
itself: for a pv K (``K.kernel.singular``) the norms are restricted to
interior nodes, and the commutator takes the split-log form built from
the grid's D1 and log weight and from L's own coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EigFailure, GridMismatchError
from .discretize import OperatorMatrix, add_diagonal

_TINY = 1e-300


def spectral_norm(A: np.ndarray) -> float:
    """2-norm (largest singular value) by SVD; 0.0 for an empty matrix."""
    if A.size == 0:
        return 0.0
    try:
        return float(np.linalg.norm(A, 2))
    except np.linalg.LinAlgError as exc:
        raise EigFailure(str(exc)) from exc


def _interior_slice(M: OperatorMatrix) -> np.ndarray:
    mask = M.grid.interior()
    return M.entries[np.ix_(mask, mask)]


def commutator_norm(K: OperatorMatrix, L: OperatorMatrix) -> float:
    """Relative commutator norm ||KL - LK|| / (||K|| ||L|| + tiny).

    For a pv K (``K.kernel.singular``) the commutator and the normalizing
    factors are restricted to nodes strictly inside (-1, 1): K's diagonal
    carries r*l with the endpoint log l = log((1+x)/(1-x)), and L applied
    to l*u is not a polynomial, so L.K would collocate it with O(1)
    error.  The commutator is formed from the split K = r diag(l) + S
    instead (see ``_pv_commutator``).
    """
    if not K.grid.same_as(L.grid):
        raise GridMismatchError("K and L must share a grid")
    if K.kernel.singular:
        mask = K.grid.interior()
        C = _pv_commutator(K, L)[np.ix_(mask, mask)]
        nK, nL = spectral_norm(_interior_slice(K)), spectral_norm(_interior_slice(L))
    else:
        C = K.entries @ L.entries - L.entries @ K.entries
        nK, nL = spectral_norm(K.entries), spectral_norm(L.entries)
    return spectral_norm(C) / (nK * nL + _TINY)


def _pv_commutator(K: OperatorMatrix, L: OperatorMatrix) -> np.ndarray:
    """KL - LK for K = r diag(l) + S, exact calculus on the log part.

    L(u l) = l Lu + 2 a l' u' + [(a l')' + (b - a') l'] u, so
    [r diag(l), L] = -r (2 diag(a l') D1 + diag((a l')' + (b - a') l')).
    With a(+-1) = 0 and b(+-1) = a'(+-1) both brackets are smooth:
    a l' = 2a/(1-x^2) extends to -+a'(+-1) at x = +-1 and is differentiated
    by D1; (b - a') l' is only needed on interior rows.  Endpoint rows
    of the result are not meaningful.
    """
    grid, op = K.grid, L.op
    n, r = grid.n, K.kernel.residue()
    S = K.entries.copy()
    S.flat[:: n + 1] -= r * grid.log_weight()
    x = grid.nodes
    (a, da), b = op.a(x, order=(0, 1)), op.b(x)
    mask = grid.interior()
    one_m_x2 = np.where(mask, 1.0 - x**2, 1.0)
    al = np.where(mask, 2.0 * a / one_m_x2, -np.sign(x) * da)
    bracket = grid.D1 @ al + np.where(mask, 2.0 * (b - da) / one_m_x2, 0.0)
    return S @ L.entries - L.entries @ S - r * add_diagonal(2.0 * al[:, None] * grid.D1, bracket)


@dataclass(frozen=True)
class SpectralReport:
    L_eigenvalues: np.ndarray
    rayleigh: np.ndarray
    mode_residuals: np.ndarray
    offdiag_energy: float
    eigvec_cond: float
    K_eigenvalues_direct: np.ndarray
    degenerate: bool = False

    def rows(self) -> list[list]:
        out = []
        for i in range(len(self.L_eigenvalues)):
            le = self.L_eigenvalues[i]
            ra = self.rayleigh[i]
            out.append([i, le.real, le.imag, ra.real, ra.imag, float(self.mode_residuals[i])])
        return out


def joint_diagonalization(K: OperatorMatrix, L: OperatorMatrix, m: int) -> SpectralReport:
    """Diagonalize L, project K onto the leading m L-modes, cross-check.

    Modes are the m smallest-|eigenvalue| L-eigenvectors (prolate-style
    ordering), scaled to unit quadrature-weighted norm (over interior nodes
    for a pv K, ``K.kernel.singular``).  G = (V^-1 K V)[:m, :m] gives the
    Rayleigh quotients (its diagonal) and the off-diagonal energy (its
    largest off-diagonal entry over the largest diagonal one); per-mode
    residuals are weighted norms.  ``eigvec_cond`` is the 2-norm condition
    number of the scaled modes in the weighted metric (1 for orthonormal
    modes), which bounds how far G can be trusted.  Pairs of L-eigenvalues
    closer than 1e-8 (relative) set the degeneracy flag and are left out of
    the off-diagonal measure.
    """
    if not K.grid.same_as(L.grid):
        raise GridMismatchError("K and L must share a grid")
    if m > K.grid.n:
        raise ValueError("m exceeds the grid size")
    try:
        lam, V = np.linalg.eig(L.entries)
        mu_all = np.linalg.eigvals(K.entries)
    except np.linalg.LinAlgError as exc:
        raise EigFailure(str(exc)) from exc

    order = np.argsort(np.abs(lam))
    lam = lam[order][:m]
    V = V[:, order]

    w = K.grid.weights
    mask = K.grid.interior() if K.kernel.singular else np.ones(K.grid.n, dtype=bool)
    wi = w[mask]

    # the leading m modes get unit weighted norm; the rest of V only spans
    # the complement, which the first m rows of V^-1 do not depend on
    norms = np.sqrt(np.einsum("i,ij->j", wi, np.abs(V[mask, :m]) ** 2))
    V[:, :m] /= norms[None, :]
    Vni = V[mask, :m]
    KVm = K.entries @ V[:, :m]
    KV = KVm[mask, :]
    # G = (V^-1 K V)[:m, :m]: the rows of V^-1 are L's left eigenvectors, so
    # G is diagonal for a commuting pair also when L is not normal
    try:
        G = np.linalg.solve(V, KVm)[:m]
    except np.linalg.LinAlgError as exc:
        raise EigFailure(str(exc)) from exc
    rayleigh = np.diag(G).copy()
    eigvec_cond = float(np.linalg.cond(np.sqrt(wi)[:, None] * Vni))

    # one row per mode, so each weighted norm is a contiguous row sum
    R = np.ascontiguousarray((KV - rayleigh[None, :] * Vni).T)
    KVt = np.ascontiguousarray(KV.T)
    num = np.sqrt(np.sum(wi * np.abs(R) ** 2, axis=1))
    den = np.sqrt(np.sum(wi * np.abs(KVt) ** 2, axis=1))
    mode_residuals = num / (den + _TINY)

    # L-eigenvalues within 1e-8 (relative) of each other are degenerate;
    # G's entries between them do not count as off-diagonal
    scale = max(np.max(np.abs(lam)), _TINY)
    close = np.abs(lam[:, None] - lam[None, :]) <= 1e-8 * scale
    degenerate = bool(np.count_nonzero(close) > m)
    offmask = ~close
    diag_max = np.max(np.abs(rayleigh)) + _TINY
    offdiag = float(np.max(np.abs(G[offmask])) / diag_max) if np.any(offmask) else 0.0

    mu_top = mu_all[np.argsort(-np.abs(mu_all))][:m]
    return SpectralReport(
        L_eigenvalues=lam,
        rayleigh=rayleigh,
        mode_residuals=mode_residuals,
        offdiag_energy=offdiag,
        eigvec_cond=eigvec_cond,
        K_eigenvalues_direct=mu_top,
        degenerate=degenerate,
    )
