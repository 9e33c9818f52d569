"""Commutator norms and joint diagonalization.

Commutation KL = LK means eigenspaces of K are invariant under L, so
eigenvectors of the (cheap, well-understood) differential operator L
serve as an approximate eigenbasis of K.  This module measures how well
the discretized pair commutes and demonstrates the joint diagonalization:
K in the basis of the small-|eigenvalue| L-modes, V^-1 K V, is diagonal
up to commutator-sized off-diagonal entries, and its diagonal reproduces
K's dominant spectrum.  L need not be normal, so its modes need not be
orthogonal; K is projected with L's left eigenvectors instead.

Only the few values that are read are computed, by one Arnoldi engine
(``_arnoldi``): L's m modes with their left modes by shift-invert, and, from
``_KRYLOV_N`` rows on, K's m dominant eigenvalues.  Below that size, where
Python overhead per Krylov step dominates, K's eigenvalues come from a dense
``eigvals``.  Every Krylov value must pass an a-posteriori certificate, else
``EigFailure``.  From ``_KRYLOV_N`` rows on, K's read runs on one
long-lived worker thread while L's modes are read on the calling one: K's
read needs nothing from L, and the inversion of L - sigma I releases the
GIL.  The results, and the failure raised first (L's), are those of the
sequential order.

The commutator is read on the grid's orthonormal Legendre columns
p_0 .. p_{n/2}, with quadrature-weighted (discrete L^2(-1,1)) norms of C p_k,
K p_k and L p_k, so it takes matrix products and column norms and no
solver.  Mode normalizations and residuals are weighted too.  Both measures
read what K discretizes from the matrix itself: for a pv K
(``K.kernel.singular``) they are restricted to interior nodes, and the
commutator takes the split-log form built from the grid's D1 and log weight
and from L's own coefficients.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass

import numpy as np

from .errors import EigFailure, GridMismatchError
from .discretize import OperatorMatrix

_TINY = 1e-300


# One Arnoldi engine reads every few-value quantity on the matrix path: L's
# modes by shift-invert (Saad, Numerical Methods for Large Eigenvalue
# Problems, 2nd ed. 2011, ch. 7; Ericsson & Ruhe, Math. Comp. 35, 1980) and
# K's dominant eigenvalues (ibid., ch. 6).  For L the shift is real, so X^H
# has the eigenvalues 1/(conj(lambda) - sigma) and its Arnoldi run gives the
# left modes the same way.  a is L's leading coefficient, and the eigenvalues
# of L near 0 lie O(max|a|) apart (-k(k+1) for a = 1 - y^2); the shift keeps
# a fraction of that distance from an exact zero eigenvalue, where X's norm
# would otherwise swamp the Ritz values of the farther modes.
_SHIFT = 0.37
_RITZ_TOL = 1e-14  # Ritz residual estimate, relative to the scale pick names
# residual of a returned eigenpair, relative to ||A||_F ||v||
_BACKWARD_TOL = 1e-12
_START_SEED = 20211
# Smallest matrix whose K eigenvalues are a Krylov read.  Below it the dense
# eigvals(K) is faster: on the benchmark draws (BLAS on one thread) the
# Krylov read loses at n = 96 and wins at n = 128.  L's modes always come
# from Arnoldi.  From it on, K's Krylov read runs on a worker thread while
# L's modes are read (``_overlapped_reads``).  On the six reference draws of
# the tests (BLAS on one thread) that takes the two reads from 22.8 to
# 17.4 ms at n = 256 and from 10.0 to 8.8 ms at n = 128, and from 4.4 to
# 4.9 ms at n = 64, where the dense read and the hand-off to the thread
# leave nothing to hide.
_KRYLOV_N = 128


def _project_out(Qk: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Remove the span of Qk's orthonormal rows from w in place, by two
    Gram-Schmidt passes; returns the coefficients removed."""
    c1 = (Qk @ w.conj()).conj()
    w -= c1 @ Qk
    c2 = (Qk @ w.conj()).conj()
    w -= c2 @ Qk
    return c1 + c2


def _norm(w: np.ndarray) -> float:
    """np.linalg.norm(w) of a complex vector, by numpy's own formula
    sqrt(re.re + im.im), without the dispatch of ``norm``."""
    re, im = w.real, w.imag
    return float(np.sqrt(re.dot(re) + im.dot(im)))


def _arnoldi(apply, n: int, anorm: float, start: int, pick, ritz, rng) -> tuple[np.ndarray, np.ndarray]:
    """Converged Ritz pairs (theta, v) of the n x n operator ``apply``.

    Runs Arnoldi with two-pass Gram-Schmidt from a random start vector and
    goes on from a fresh one after a breakdown (an invariant subspace, where
    what is left of A q falls below 1e-14 of ``anorm``, a bound on the
    operator's norm), so the Krylov space reaches the whole space at k = n.
    The basis grows by doubling from ``start`` vectors.  At k = start, then
    every start/8 steps, and at a breakdown from k = start/4 on, ``ritz``
    gives the Ritz pairs (theta, y) of H_k, and ``pick(theta)`` returns the
    indices of the wanted ones and a tolerance scale for each.  It returns
    those pairs, unit vectors as columns, once each residual estimate
    |h_{k+1,k} y_k| is below ``_RITZ_TOL`` times its scale.  At k = n the
    estimates are 0 and the pairs are returned as they are: only the
    caller's a-posteriori certificate can reject them.
    """
    cap = check = min(n, start)
    Q = np.empty((cap, n), dtype=complex)
    H = np.zeros((cap + 1, cap), dtype=complex)
    w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    Q[0] = w / _norm(w)
    k = 0
    while True:
        w = apply(Q[k])
        H[: k + 1, k] = _project_out(Q[: k + 1], w)
        k += 1
        beta = wnorm = 0.0 if k == n else _norm(w)
        if k < n and beta <= 1e-14 * anorm:
            beta = 0.0
            w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            _project_out(Q[:k], w)
            wnorm = _norm(w)
        H[k, k - 1] = beta
        # the Ritz pairs of an invariant subspace are converged, so a
        # breakdown past start/4 is checked at once
        if k >= check or (beta == 0.0 and 4 * k >= start):
            theta, Y = ritz(H[:k, :k])
            sel, scale = pick(theta)
            if k == n or np.all(beta * np.abs(Y[k - 1, sel]) <= _RITZ_TOL * scale):
                return theta[sel], Q[:k].T @ Y[:, sel]
            check = min(n, k + max(1, start // 8))
        # the basis grows only once the check at k = cap has not returned
        if k == cap:
            cap = min(n, 2 * cap)
            Q = np.concatenate([Q, np.empty((cap - k, n), dtype=complex)])
            H = np.pad(H, ((0, cap - k), (0, cap - k)))
        Q[k] = w / wnorm


def _graded_eig(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eig for a graded H, whose subdiagonals fall to rounding (a decaying
    spectrum such as K's).  eig balances its input, and the balanced
    eigenvectors of a graded H keep residuals up to 1e-10 ||H||.  The
    reflection P = I - 2J/k spreads every entry over the matrix, so there is
    nothing to balance, and it keeps eigenvalues and residual norms."""
    # complex once, where each product would cast it anew: at k = n = 256
    # those casts were 1 MB each
    P = (np.eye(H.shape[0]) - 2.0 / H.shape[0]).astype(complex)
    theta, Y = np.linalg.eig(P @ H @ P)
    return theta, P @ Y


def _certify(what: str, lam: np.ndarray, R: np.ndarray, V: np.ndarray, scale: float) -> None:
    """EigFailure unless every backward error ||R_i|| / (scale ||V_i||) of the
    eigenpairs (lam_i, V_i), residual columns R_i, is within ``_BACKWARD_TOL``.
    The failure carries the first failing mode and, when finite, its error."""
    backward = np.linalg.norm(R, axis=0) / np.linalg.norm(V, axis=0) / scale
    failed = ~(backward <= _BACKWARD_TOL)
    if np.any(failed):
        i = int(np.argmax(failed))
        err = float(backward[i])
        raise EigFailure(
            f"{what} {i} (eigenvalue {lam[i]:.6g}): backward error {err:.2e} exceeds {_BACKWARD_TOL:g}",
            mode=f"{what} {i}",
            backward=err if np.isfinite(err) else None,
        )


def spectral_norm(A: np.ndarray) -> float:
    """2-norm (largest singular value) of A by SVD; 0.0 for an empty matrix.
    A non-finite A or an SVD that does not converge raises ``EigFailure``."""
    if A.size == 0:
        return 0.0
    if not np.all(np.isfinite(A)):
        raise EigFailure("matrix is not finite")
    try:
        return float(np.linalg.norm(A, 2))
    except np.linalg.LinAlgError as exc:
        raise EigFailure(str(exc)) from exc


def commutator_norm(K: OperatorMatrix, L: OperatorMatrix) -> tuple[float, int]:
    """Relative commutator C = KL - LK on Legendre degrees <= n/2, with the
    degree where it peaks: (read, k).

    Reads max_k ||C p_k||_W / (t s_k) over the grid's orthonormal Legendre
    columns p_0 .. p_{n/2} (``Grid.legendre``), with weighted (quadrature)
    norms ||.||_W.  The grid resolves these degrees, so the read sits at
    rounding for a commuting pair; the grid's top modes alias, so the full
    n x n C does not.  K and L are measured on the same columns:
    t = max_j ||K p_j||_W is the size of K on degrees <= n/2, and
    s_k = max_{j <= max(k, 1)} ||L p_j||_W the size of L on degrees
    <= max(k, 1), a scale of L that the read can be relative to also when
    L p_0 = c = 0.  k is the first degree attaining the max.  Only matrix
    products and column norms are taken, no eigen- or singular-value
    solver.  ValueError if the normalizer t s_0 is 0.

    For a pv K (``K.kernel.singular``) every norm is restricted to nodes
    strictly inside (-1, 1): K's diagonal carries r*l with the endpoint log
    l = log((1+x)/(1-x)), and L applied to l*u is not a polynomial, so L.K
    would collocate it with O(1) error.  C is applied in the split
    K = r diag(l) + S instead (see ``_commutator_columns``).
    """
    if not K.grid.same_as(L.grid):
        raise GridMismatchError("K and L must share a grid")
    grid = K.grid
    if K.kernel.singular and grid.n < 3:
        raise ValueError("the grid has no interior node to restrict the pv commutator to")
    CP, LP, k_sizes = _commutator_columns(K, L, grid.legendre, grid.dlegendre)
    c = _read_norms(K, CP)
    s = np.maximum.accumulate(_read_norms(K, LP))
    s[0] = s[1]
    t = float(np.max(k_sizes))
    if not t * s[0] > 0:
        raise ValueError(f"the commutator's normalizer t s_0 = {t:.3g} * {s[0]:.3g} is 0")
    reads = c / (t * s)
    k = int(np.argmax(reads))
    return float(reads[k]), k


def _read_norms(K: OperatorMatrix, Y: np.ndarray) -> np.ndarray:
    """Weighted norms ||.||_W of Y's columns on the rows the commutator read
    uses: every node, or for a pv K the interior ones, the view [1:-1]."""
    grid = K.grid
    rows = slice(1, -1) if K.kernel.singular else slice(None)
    return np.sqrt(grid.weights[rows] @ np.abs(Y[rows]) ** 2)


def _commutator_columns(K: OperatorMatrix, L: OperatorMatrix, X: np.ndarray, DX: np.ndarray):
    """(C X, L X, ||K X||_W) for C = KL - LK and grid vectors X, one per
    column; DX = D1 X.  ||K X||_W holds the weighted norms of K X's columns
    on the rows the read uses (``_read_norms``).

    K(LX) and L(KX) take the same products in the same order, so a pair
    that commutes exactly in floating point (L = I) reads 0.  For a pv K,
    C is formed from the split K = r diag(l) + S, exact calculus on the log
    part: L(u l) = l Lu + 2 a l' u' + [(a l')' + (b - a') l'] u, so
    [r diag(l), L] = -r (2 diag(a l') D1 + diag((a l')' + (b - a') l')).
    With a(+-1) = 0 and b(+-1) = a'(+-1) both brackets are smooth:
    a l' = 2a/(1-x^2) extends to -+a'(+-1) at x = +-1 and is differentiated
    by D1; (b - a') l' is only needed on interior rows.  Endpoint rows
    of C X are then not meaningful.
    """
    # X is cast once, not inside each product; the cast is then a work
    # buffer, and so is K X once its norms are read, since fresh n x n/2
    # temporaries cost page faults comparable to the products
    Xc = X.astype(complex)
    KX, LX = K.entries @ Xc, L.entries @ Xc
    KX_norms = _read_norms(K, KX)
    if not K.kernel.singular:
        CX = K.entries @ LX
        CX -= np.matmul(L.entries, KX, out=Xc)
        return CX, LX, KX_norms
    grid, op = K.grid, L.op
    r, ell = K.kernel.residue(), grid.log_weight[:, None]
    x = grid.nodes
    (a, da), b = op.a(x, order=(0, 1)), op.b(x)
    one_m_x2 = 1.0 - x[1:-1] ** 2
    al = -np.sign(x) * da
    al[1:-1] = 2.0 * a[1:-1] / one_m_x2
    bracket = grid.D1 @ al
    bracket[1:-1] += 2.0 * (b - da)[1:-1] / one_m_x2
    KX -= np.multiply(r * ell, X, out=Xc)  # S X
    CX = K.entries @ LX
    CX -= np.matmul(L.entries, KX, out=Xc)
    # S L X = K L X - r l L X
    log_part = np.multiply(2.0 * al[:, None], DX, out=Xc)
    log_part += np.multiply(bracket[:, None], X, out=KX)
    log_part += np.multiply(ell, LX, out=KX)
    log_part *= r
    CX -= log_part
    return CX, LX, KX_norms


@dataclass(frozen=True)
class SpectralReport:
    L_eigenvalues: np.ndarray
    rayleigh: np.ndarray
    mode_residuals: np.ndarray
    offdiag_energy: float
    eigvec_cond: float
    mode_cond: np.ndarray
    K_eigenvalues_direct: np.ndarray
    degenerate: bool = False

    def rows(self) -> list[list]:
        out = []
        for i in range(len(self.L_eigenvalues)):
            le = self.L_eigenvalues[i]
            ra = self.rayleigh[i]
            out.append([i, le.real, le.imag, ra.real, ra.imag, float(self.mode_residuals[i])])
        return out


def _l_modes(L: OperatorMatrix, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The m smallest-|eigenvalue| modes of L and their left modes.

    Shift-invert Arnoldi on X = (L - sigma I)^-1 and on X^H: the Ritz values
    theta map to lambda = sigma + 1/theta, and the picked ones are every
    lambda within r_m + |sigma| of sigma, r_m the m-th smallest |lambda|, so
    they hold the m smallest-|lambda| modes whatever side of 0 they lie, each
    converged relative to |theta|.  Returns (lam, V, U), ascending in |lam|,
    with L V = V diag(lam) column by column and U the left modes.  Left
    candidates are paired one to one with the right modes, nearest
    eigenvalue first, so equal eigenvalues are not paired twice.  Each right
    mode must pass the a-posteriori certificate ``_BACKWARD_TOL`` against
    its lam, and each left mode u against its own left Ritz value lam_l,
    u^H L = lam_l u^H, else ``EigFailure``.  lam_l is not returned: on an
    ill-conditioned mode it differs from lam, and ||u^H L - lam u^H|| can
    exceed the certified bound (6.3e-11 relative on case1 benchmark draws).

    inv solves B X = I column by column, B = L - sigma I, so X is a right
    inverse to rounding, and the right run needs nothing more.  X B - I can
    be cond(B) times larger, and Arnoldi on X^H alone would find the left
    modes of a matrix that is not quite inv(B^H): for a case2 L at n = 256
    with sigma 0.003 from an eigenvalue, B X - I read 4.9e-10 and X B - I
    6.3e-7 in the 2-norm.  So the left run applies X^H with one step of
    iterative refinement, y = X^H q, y <- y + X^H (q - B^H y), which solves
    B^H y = q to working accuracy (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed. 2002, ch. 12).
    """
    A = L.entries
    n = A.shape[0]
    sigma = -_SHIFT * float(np.max(np.abs(L.op.a(L.grid.nodes))))
    rng = np.random.default_rng(_START_SEED)

    def near_sigma(theta):
        with np.errstate(divide="ignore"):
            lam = sigma + 1.0 / theta
        mag = np.abs(lam)
        r_m = np.partition(mag, m - 1)[m - 1]
        # the second term keeps the m smallest against rounding of the first
        cand = (np.abs(lam - sigma) <= r_m + abs(sigma)) | (mag <= r_m)
        return cand, np.abs(theta[cand])

    try:
        B = A.copy()
        B.flat[:: n + 1] -= sigma
        X = np.linalg.inv(B)
        if not np.all(np.isfinite(X)):
            raise EigFailure("L - sigma I has no finite inverse")
        xnorm = float(np.linalg.norm(X))
        # X's spectrum 1/(lambda - sigma) does not grade H, so plain eig serves
        theta_r, V = _arnoldi(X.dot, n, xnorm, 4 * m, near_sigma, np.linalg.eig, rng)
        # X^H q as (q^H X)^H, without n x n copies of X^H and B^H
        def left(q):
            y = (q.conj() @ X).conj()
            r = q - (y.conj() @ B).conj()
            y += (r.conj() @ X).conj()
            return y

        theta_l, U = _arnoldi(left, n, xnorm, 4 * m, near_sigma, np.linalg.eig, rng)
    except np.linalg.LinAlgError as exc:
        raise EigFailure(str(exc)) from exc
    lam_r = sigma + 1.0 / theta_r
    lam_l = (sigma + 1.0 / theta_l).conj()

    order = np.argsort(np.abs(lam_r))[:m]
    lam, V = lam_r[order], V[:, order]
    free = np.ones(lam_l.size, dtype=bool)
    match = []
    for x in lam:
        j = np.flatnonzero(free)[np.argmin(np.abs(lam_l[free] - x))]
        free[j] = False
        match.append(j)
    lam_l, U = lam_l[match], U[:, match]

    scale = float(np.linalg.norm(A))
    _certify("L mode", lam, A @ V - lam * V, V, scale)
    Uh = U.conj().T
    _certify("L left mode", lam_l, (Uh @ A - lam_l[:, None] * Uh).T, U, scale)
    return lam, V, U


def _k_dominant(K: np.ndarray, m: int) -> np.ndarray:
    """K's m largest-modulus eigenvalues, descending in modulus.

    Below ``_KRYLOV_N`` from the dense ``eigvals``; from there on by Arnoldi
    on K, converged relative to the largest |Ritz value|, with each pair
    certified by its backward error (``_BACKWARD_TOL``, else ``EigFailure``).
    """
    n = K.shape[0]

    def dominant(theta):
        order = np.argsort(-np.abs(theta))[:m]
        return order, np.abs(theta[order[0]])

    try:
        if n < _KRYLOV_N:
            mu = np.linalg.eigvals(K)
            return mu[np.argsort(-np.abs(mu))][:m]
        knorm = float(np.linalg.norm(K))
        mu, V = _arnoldi(K.dot, n, knorm, 8 * m, dominant, _graded_eig, np.random.default_rng(_START_SEED))
    except np.linalg.LinAlgError as exc:
        raise EigFailure(str(exc)) from exc
    _certify("K eigenvalue", mu, K @ V - mu * V, V, knorm)
    return mu


class _Task:
    """A call handed to the worker thread.  ``done`` is set once it has run;
    ``result`` waits for that, then returns its value or raises what it
    raised."""

    def __init__(self, fn, *args) -> None:
        self.fn, self.args = fn, args
        self.done = threading.Event()
        self.value = self.error = None

    def run(self) -> None:
        try:
            self.value = self.fn(*self.args)
        except BaseException as exc:
            self.error = exc
        self.done.set()

    def result(self):
        self.done.wait()
        if self.error is not None:
            raise self.error
        return self.value


# the one long-lived worker thread and its queue of tasks; a thread pool
# from concurrent.futures would import logging with it, about 12 ms and
# 0.5 MB more for every process that imports the package
_TASKS: queue.SimpleQueue = queue.SimpleQueue()
_WORKER: list[threading.Thread] = []


def _submit(fn, *args) -> _Task:
    """Hand fn(*args) to the worker thread, which is started on first use,
    and again in a forked child, which inherits no thread."""
    if not (_WORKER and _WORKER[0].is_alive()):
        _WORKER[:] = [threading.Thread(target=_serve, name="commutant-lab-worker", daemon=True)]
        _WORKER[0].start()
    task = _Task(fn, *args)
    _TASKS.put(task)
    return task


def _serve() -> None:
    while True:
        _TASKS.get().run()


def _overlapped_reads(K: OperatorMatrix, L: OperatorMatrix, m: int):
    """(*_l_modes(L, m), _k_dominant(K.entries, m)), with K's read on the
    worker thread while L's modes are read on this one.

    K's read uses nothing that L's modes produce, and the inversion of
    L - sigma I that L's read starts with releases the GIL, so the two
    overlap on two cores.  The results are those of the sequential order,
    and so is the failure raised first: L's, then K's.  The worker has no
    task left when this returns or raises.  The worker takes K's read, not
    the inversion: on the draws where K's read is the long one (up to k = n
    vectors) it then also overlaps L's Arnoldi runs.
    """
    k_read = _submit(_k_dominant, K.entries, m)
    try:
        lam, V, U = _l_modes(L, m)
    finally:
        k_read.done.wait()  # whatever L's read raised
    return lam, V, U, k_read.result()


def joint_diagonalization(K: OperatorMatrix, L: OperatorMatrix, m: int) -> SpectralReport:
    """Find L's leading m modes, project K onto them, cross-check.

    Modes are the m smallest-|eigenvalue| L-eigenvectors (prolate-style
    ordering), found with their left eigenvectors by shift-invert Arnoldi
    (``_l_modes``) and scaled to unit quadrature-weighted norm (over
    interior nodes for a pv K, ``K.kernel.singular``, so m may not exceed
    their count, else ValueError).  G = (U^H V)^-1 U^H K V,
    with the left modes U, equals (V^-1 K V)[:m, :m] of the full
    eigenbasis V; it gives the Rayleigh quotients (its diagonal) and the
    off-diagonal energy (its largest off-diagonal entry over the largest
    diagonal one); per-mode residuals are weighted norms.  ``eigvec_cond``
    is the 2-norm condition number of the scaled modes in the weighted
    metric (1 for orthonormal modes), which bounds how far G can be
    trusted.  ``mode_cond`` is each L-eigenvalue's own condition number in
    the same metric (over the whole grid), which can be far larger than
    ``eigvec_cond`` for a single mode.  Pairs of L-eigenvalues closer than
    1e-8 (relative) set the degeneracy flag and are left out of the
    off-diagonal measure.  ``K_eigenvalues_direct`` are K's m dominant
    eigenvalues (``_k_dominant``), read from K alone.  From ``_KRYLOV_N``
    rows on, K's read runs on a worker thread while L's modes are read
    (``_overlapped_reads``); the report is that of the sequential order.
    """
    if not K.grid.same_as(L.grid):
        raise GridMismatchError("K and L must share a grid")
    nodes = K.grid.n - 2 if K.kernel.singular else K.grid.n
    if m > nodes:
        raise ValueError(f"m = {m} exceeds the {nodes} nodes the modes are normalized over")
    if K.grid.n < _KRYLOV_N:
        lam, V, U = _l_modes(L, m)
        mu_top = _k_dominant(K.entries, m)
    else:
        lam, V, U, mu_top = _overlapped_reads(K, L, m)
    return _project(K, m, lam, V, U, mu_top)


def _project(K: OperatorMatrix, m: int, lam, V, U, mu_top) -> SpectralReport:
    """The report of ``joint_diagonalization`` from L's modes (lam, V, U),
    which it scales in place, and K's dominant eigenvalues mu_top."""
    rows = slice(1, -1) if K.kernel.singular else slice(None)
    w, wi = K.grid.weights, K.grid.weights[rows]
    # in the weighted metric the left mode is W^-1 u, so the condition
    # ||u|| ||v|| / |u^H v| takes sqrt(v^H W v) and sqrt(u^H W^-1 u)
    vw = np.einsum("i,ij->j", w, np.abs(V) ** 2)
    uw = np.einsum("i,ij->j", 1.0 / w, np.abs(U) ** 2)
    mode_cond = np.sqrt(vw * uw) / np.abs(np.einsum("ij,ij->j", U.conj(), V))

    # weighted norms from a C-contiguous copy of the rows: a strided view
    # sums in another order
    norms = np.sqrt(np.einsum("i,ij->j", wi, np.abs(np.ascontiguousarray(V[rows])) ** 2))
    V /= norms[None, :]
    Vni = V[rows]
    KVm = K.entries @ V
    KV = KVm[rows]
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

    return SpectralReport(
        L_eigenvalues=lam,
        rayleigh=rayleigh,
        mode_residuals=mode_residuals,
        offdiag_energy=offdiag,
        eigvec_cond=eigvec_cond,
        mode_cond=mode_cond,
        K_eigenvalues_direct=mu_top,
        degenerate=degenerate,
    )
