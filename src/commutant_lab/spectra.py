"""Commutator norms and joint diagonalization.

Commutation KL = LK means eigenspaces of K are invariant under L, so
eigenvectors of the (cheap, well-understood) differential operator L
serve as an approximate eigenbasis of K.  This module measures how well
the discretized pair commutes and demonstrates the joint diagonalization:
K in the basis of the small-|eigenvalue| L-modes, V^-1 K V, is diagonal
up to commutator-sized off-diagonal entries, and its diagonal reproduces
K's dominant spectrum.  L need not be normal, so its modes need not be
orthogonal; K is projected with L's left eigenvectors instead.  Only the
m modes that are read are computed, with their left modes, by
shift-invert Arnoldi, and each must pass a backward-error certificate.

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


# L's modes come from shift-invert Arnoldi on X = (L - sigma I)^-1 (Saad,
# Numerical Methods for Large Eigenvalue Problems, 2nd ed. 2011, ch. 7;
# Ericsson & Ruhe, Math. Comp. 35, 1980).  The shift is real, so X^H has the
# eigenvalues 1/(conj(lambda) - sigma) and its Arnoldi run gives the left modes
# the same way.  a is L's leading coefficient, and the eigenvalues of L near 0
# lie O(max|a|) apart (-k(k+1) for a = 1 - y^2); the shift keeps a fraction
# of that distance from an exact zero eigenvalue, where X's norm would
# otherwise swamp the Ritz values of the farther modes.
_SHIFT = 0.37
_RITZ_TOL = 1e-14  # Ritz residual estimate, relative to the Ritz value of X
_BACKWARD_TOL = 1e-12  # ||Lv - lambda v|| / (||L||_F ||v||) of a returned mode
_START_SEED = 20211


def _project_out(Qk: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Remove the span of Qk's orthonormal rows from w in place, by two
    Gram-Schmidt passes; returns the coefficients removed."""
    h = np.zeros(Qk.shape[0], dtype=complex)
    for _ in range(2):
        c = (Qk @ w.conj()).conj()
        w -= c @ Qk
        h += c
    return h


def _arnoldi_candidates(apply, n: int, m: int, sigma: float, xnorm: float, rng) -> tuple:
    """Converged Ritz pairs of X near sigma, as eigenpairs (lambda, v) of L.

    Runs Arnoldi with two-pass Gram-Schmidt from a random start vector and
    goes on from a fresh one after a breakdown (an invariant subspace), so
    the Krylov space reaches the whole space at k = n.  The basis grows by
    doubling from 4m vectors.  From k = 4m, every m/2 steps, the Ritz values
    theta of H_k map to lambda = sigma + 1/theta; the candidates are every
    lambda within r_m + |sigma| of sigma, r_m the m-th smallest |lambda|, so
    they hold the m smallest-|lambda| modes whatever side of 0 they lie.  It
    returns once each candidate's residual estimate |h_{k+1,k} y_k| is below
    ``_RITZ_TOL`` |theta|.
    """
    cap = min(n, 4 * m)
    check = cap
    Q = np.empty((cap, n), dtype=complex)
    H = np.zeros((cap + 1, cap), dtype=complex)
    w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    Q[0] = w / np.linalg.norm(w)
    k = 0
    while True:
        w = apply(Q[k])
        H[: k + 1, k] = _project_out(Q[: k + 1], w)
        beta = float(np.linalg.norm(w))
        k += 1
        if k == n:
            beta = 0.0
        else:
            if beta <= 1e-14 * xnorm:
                beta = 0.0
                w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                _project_out(Q[:k], w)
            if k == cap:
                cap = min(n, 2 * cap)
                Q = np.concatenate([Q, np.empty((cap - k, n), dtype=complex)])
                H = np.pad(H, ((0, cap - k), (0, cap - k)))
            H[k, k - 1] = beta
            Q[k] = w / np.linalg.norm(w)
        if k < check:
            continue
        theta, Y = np.linalg.eig(H[:k, :k])
        with np.errstate(divide="ignore"):
            lam = sigma + 1.0 / theta
        mag = np.abs(lam)
        r_m = np.partition(mag, m - 1)[m - 1]
        # the second term keeps the m smallest against rounding of the first
        cand = (np.abs(lam - sigma) <= r_m + abs(sigma)) | (mag <= r_m)
        if np.all(beta * np.abs(Y[k - 1, cand]) <= _RITZ_TOL * np.abs(theta[cand])):
            return lam[cand], Q[:k].T @ Y[:, cand]
        check = min(n, k + max(1, m // 2))


def _l_modes(L: OperatorMatrix, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The m smallest-|eigenvalue| modes of L and their left modes.

    Returns (lam, V, U), ascending in |lam|, with L V = V diag(lam) and
    U^H L = diag(lam) U^H column by column.  Left candidates are paired
    one to one with the right modes, nearest eigenvalue first, so equal
    eigenvalues are not paired twice.  Each pair must pass the a-posteriori
    certificate ``_BACKWARD_TOL`` on both sides, else ``EigFailure``.
    """
    A = L.entries
    n = A.shape[0]
    sigma = -_SHIFT * float(np.max(np.abs(L.op.a(L.grid.nodes))))
    rng = np.random.default_rng(_START_SEED)
    try:
        B = A.copy()
        B.flat[:: n + 1] -= sigma
        X = np.linalg.inv(B)
        if not np.all(np.isfinite(X)):
            raise EigFailure("L - sigma I has no finite inverse")
        xnorm = float(np.linalg.norm(X))
        lam_r, V = _arnoldi_candidates(X.dot, n, m, sigma, xnorm, rng)
        lam_l, U = _arnoldi_candidates(lambda q: (X.T @ q.conj()).conj(), n, m, sigma, xnorm, rng)
    except np.linalg.LinAlgError as exc:
        raise EigFailure(str(exc)) from exc

    order = np.argsort(np.abs(lam_r))[:m]
    lam, V = lam_r[order], V[:, order]
    lam_l = lam_l.conj()
    free = np.ones(lam_l.size, dtype=bool)
    pick = []
    for x in lam:
        j = np.flatnonzero(free)[np.argmin(np.abs(lam_l[free] - x))]
        free[j] = False
        pick.append(j)
    lam_l, U = lam_l[pick], U[:, pick]

    scale = float(np.linalg.norm(A))
    right = np.linalg.norm(A @ V - lam * V, axis=0) / np.linalg.norm(V, axis=0)
    Uh = U.conj().T
    left = np.linalg.norm(Uh @ A - lam_l[:, None] * Uh, axis=1) / np.linalg.norm(U, axis=0)
    backward = np.maximum(right, left) / scale
    failed = ~(backward <= _BACKWARD_TOL)
    if np.any(failed):
        i = int(np.argmax(failed))
        raise EigFailure(
            f"L mode {i} (eigenvalue {lam[i]:.6g}): backward error {backward[i]:.2e} exceeds {_BACKWARD_TOL:g}"
        )
    return lam, V, U


def joint_diagonalization(K: OperatorMatrix, L: OperatorMatrix, m: int) -> SpectralReport:
    """Find L's leading m modes, project K onto them, cross-check.

    Modes are the m smallest-|eigenvalue| L-eigenvectors (prolate-style
    ordering), found with their left eigenvectors by shift-invert Arnoldi
    (``_l_modes``) and scaled to unit quadrature-weighted norm (over
    interior nodes for a pv K, ``K.kernel.singular``).  G = (U^H V)^-1 U^H K V,
    with the left modes U, equals (V^-1 K V)[:m, :m] of the full
    eigenbasis V; it gives the Rayleigh quotients (its diagonal) and the
    off-diagonal energy (its largest off-diagonal entry over the largest
    diagonal one); per-mode residuals are weighted norms.  ``eigvec_cond``
    is the 2-norm condition number of the scaled modes in the weighted
    metric (1 for orthonormal modes), which bounds how far G can be
    trusted.  Pairs of L-eigenvalues closer than 1e-8 (relative) set the
    degeneracy flag and are left out of the off-diagonal measure.
    """
    if not K.grid.same_as(L.grid):
        raise GridMismatchError("K and L must share a grid")
    if m > K.grid.n:
        raise ValueError("m exceeds the grid size")
    lam, V, U = _l_modes(L, m)
    try:
        mu_all = np.linalg.eigvals(K.entries)
    except np.linalg.LinAlgError as exc:
        raise EigFailure(str(exc)) from exc

    w = K.grid.weights
    mask = K.grid.interior() if K.kernel.singular else np.ones(K.grid.n, dtype=bool)
    wi = w[mask]

    norms = np.sqrt(np.einsum("i,ij->j", wi, np.abs(V[mask]) ** 2))
    V /= norms[None, :]
    Vni = V[mask]
    KVm = K.entries @ V
    KV = KVm[mask, :]
    # U holds L's left eigenvectors, so G is diagonal for a commuting pair
    # also when L is not normal
    Uh = U.conj().T
    try:
        G = np.linalg.solve(Uh @ V, Uh @ KVm)
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
