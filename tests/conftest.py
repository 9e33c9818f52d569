import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from commutant_lab import (
    Case1,
    Case2,
    Case3,
    Case4,
    CommutantError,
    DiffOp,
    ExpPoly,
    General,
    build_grid,
    collocation_L,
    make_pair,
)
from commutant_lab import spectra
from commutant_lab.coeffs import _ladder, _leibniz, _orders, _two_product, polyder, polyval
from commutant_lab.kernels import _laurent_eval, _ratio_derivative, kernel_matrix
from commutant_lab.residuals import Z_EXCLUSION, ResidualReport, chebyshev_points

@dataclass(frozen=True)
class CallableCoeff:
    """Test-only coefficient from explicit callables (value, f', f'', ...).

    For fixtures outside the exponential polynomials, such as sqrt(1 - y^2)
    factors; it supports what ``is_normal`` reads: ``f(y, order)`` and
    scalar multiples.  Like ``ExpPoly``, a tuple of orders gives a tuple.
    """

    derivs: tuple[Callable, ...]

    def __call__(self, y, order=0):
        if not isinstance(order, (int, np.integer)):
            return tuple(self(y, m) for m in order)
        out = np.asarray(self.derivs[order](np.asarray(y, dtype=complex)), dtype=complex)
        return complex(out) if np.isscalar(y) else out

    def __rmul__(self, scalar: complex) -> "CallableCoeff":
        return CallableCoeff(tuple(lambda y, f=f: scalar * f(y) for f in self.derivs))


# grid size and top Legendre degree of selfadjoint_matrix_defect
MATRIX_N = 48
MATRIX_KMAX = 16


def selfadjoint_matrix_defect(op: DiffOp) -> float:
    """Weighted-collocation symmetry defect of L on the low Legendre modes.

    A reference for ``is_selfadjoint``: assembles B[p,q] = <L phi_q, phi_p>
    with quadrature-weighted inner products over the grid's orthonormal
    Legendre polynomials (``Grid.legendre``) up to degree MATRIX_KMAX on the
    MATRIX_N-point grid (well inside the rule's exactness range, so
    boundary terms vanish exactly through the operator's own boundary
    conditions) and returns the relative anti-Hermitian part of B.
    """
    grid = build_grid(MATRIX_N)
    Phi = grid.legendre[:, : MATRIX_KMAX + 1]
    Lm = collocation_L(op, grid).entries
    B = (Phi.conj().T * grid.weights[None, :]) @ (Lm @ Phi)
    defect = np.linalg.norm(B - B.conj().T)
    return float(defect / (np.linalg.norm(B) + 1e-300))


def _exp_real_one_rate(rate: complex, x: np.ndarray) -> np.ndarray:
    pr, er = _two_product(rate.real, x)
    pi, ei = _two_product(rate.imag, x)
    return np.exp(pr + 1j * pi) * (1.0 + (er + 1j * ei))


def exppoly_call_per_term(f, y, order=0):
    """A reference for ``ExpPoly.__call__``: one exp(rate*y) and one Horner
    pass per term and order, summed term by term."""
    single, orders = _orders(order)
    arr = np.asarray(y, dtype=complex)
    outs = [np.zeros_like(arr) for _ in orders]
    top = max(orders, default=0)
    for rate, poly in f.terms:
        derivs = _ladder(poly, top)
        e = None
        for out, m in zip(outs, orders):
            q = _leibniz(rate, derivs, m)
            if not q:
                continue
            acc = polyval(q, arr)
            if rate != 0:
                if e is None:
                    e = np.exp(rate * arr)
                acc *= e
            out += acc
    if np.isscalar(y):
        outs = [complex(o) for o in outs]
    return outs[0] if single else tuple(outs)


def exppoly_at_differences_per_term(f, x, y, order=0):
    """A reference for ``ExpPoly.at_differences``: two exponential passes
    per term, one for x and one for y."""
    single, orders = _orders(order)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    outs = [np.zeros((x.size, y.size), dtype=complex) for _ in orders]
    top = max(orders, default=0)
    for rate, poly in f.terms:
        derivs = _ladder(poly, top)
        ex, ey = _exp_real_one_rate(rate, x), _exp_real_one_rate(-rate, y)
        for out, m in zip(outs, orders):
            q = poly if m == 0 else _leibniz(rate, derivs, m)
            if len(q) == 1:
                out += np.multiply.outer(q[0] * ex, ey)
            elif q:
                out += polyval(q, np.subtract.outer(x, y)) * np.multiply.outer(ex, ey)
    return outs[0] if single else tuple(outs)


def kernel_matrix_per_operand(spec, x, y, order=0):
    """A reference for ``kernels.kernel_matrix``: N and D each from their own
    ``exppoly_at_differences_per_term`` call (so from their own exponentials
    of x and of y), and every switch window measured as |Z - z0|."""
    single, orders = _orders(order)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    Z = x[:, None] - y[None, :]
    centres = [(0.0, spec.series)] + [(z0, spec.local_series[z0]) for z0 in spec.removable_zeros]
    near, windows = np.zeros(Z.shape, dtype=bool), []
    for z0, series in centres:
        mask = (np.abs(Z - z0) < spec.switch_radius) & ~near
        near |= mask
        windows.append((z0, series, mask))
    need = range(max(orders) + 1)
    nd = exppoly_at_differences_per_term(spec.numerator, x, y, order=need)
    dd = exppoly_at_differences_per_term(spec.denominator, x, y, order=need)
    if max(orders) > 0:
        dd = (np.where(near, 1.0, dd[0]),) + dd[1:]
    outs = [
        np.divide(nd[0], dd[0], out=np.zeros(Z.shape, dtype=complex), where=~near)
        if m == 0
        else np.where(near, 0j, _ratio_derivative(nd, dd, m))
        for m in orders
    ]
    for z0, series, mask in windows:
        pole = spec.singular and z0 == 0.0
        if pole:
            mask &= Z != 0
        if np.any(mask):
            h = Z[mask].astype(complex) - z0
            for out, m in zip(outs, orders):
                out[mask] = _laurent_eval(series, h, m) if pole else polyval(polyder(series, m), h)
    return outs[0] if single else tuple(outs)


def mixed_residual_masked(kernel, opL, opR, ny=41, nz=41):
    """A reference for ``residual_R1`` and ``residual_R2``: fresh Chebyshev
    points, and a boolean mask of the kept points for every kernel (all
    true for an analytic one) through which F and k are read."""
    ys = chebyshev_points(ny)
    xs = chebyshev_points(nz)
    Z = xs[None, :] - ys[:, None]
    keep = np.abs(Z) > Z_EXCLUSION if kernel.singular else np.ones(Z.shape, dtype=bool)
    ay, da, dda = opL.a(ys, order=(0, 1, 2))
    by, db = opL.b(ys, order=(0, 1))
    cy = opL.c(ys)
    if opR is opL and nz == ny:
        ax, bx, cx = ay, by, cy
    else:
        ax, bx, cx = opR.a(xs), opR.b(xs), opR.c(xs)
    a, da, dda, b, db, c = (v[:, None] for v in (ay, da, dda, by, db, cy))
    k0, k1, k2 = (k.T for k in kernel_matrix(kernel, xs, ys, order=(0, 1, 2)))
    F = (ax - a) * k2 + (2.0 * da + bx - b) * k1 + (cx - c + db - dda) * k0
    if kernel.singular:
        F = F * Z**3
    mags = np.abs(F[keep])
    j = int(np.argmax(mags))
    row, col = divmod(int(np.flatnonzero(keep)[j]), nz)
    return ResidualReport(
        max_abs=float(mags[j]),
        rms=math.sqrt(float(np.mean(mags**2))),
        argmax=(float(ys[row]), float(Z[row, col])),
        n_points=int(mags.size),
        scale=float(np.max(np.abs(k0[keep]))),
    )


def joint_diagonalization_sequential(K, L, m):
    """A reference for ``spectra.joint_diagonalization``: L's modes
    (``_l_modes``), then K's dominant eigenvalues (``_k_dominant``), then
    the projection, one after another on the calling thread."""
    lam, V, U = spectra._l_modes(L, m)
    mu_top = spectra._k_dominant(K.entries, m)
    return spectra._project(K, m, lam, V, U, mu_top)


def commutator_columns_sequential(K, L, X, DX):
    """A reference for ``spectra._commutator_columns``: its four products,
    K X, L X, K (L X) and L (K X) (L (S X) for a pv K), one after another
    on the calling thread."""
    Xc = X.astype(complex)
    KX, LX = K.entries @ Xc, L.entries @ Xc
    KX_norms = spectra._read_norms(K, KX)
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
    log_part = np.multiply(2.0 * al[:, None], DX, out=Xc)
    log_part += np.multiply(bracket[:, None], X, out=KX)
    log_part += np.multiply(ell, LX, out=KX)
    log_part *= r
    CX -= log_part
    return CX, LX, KX_norms


def exppoly_derivative_remerging(f, order=1):
    """A reference for ``ExpPoly.derivative``: every term's P' e^{ry} and
    rP e^{ry} added to the sum built so far, which re-merges it by rate."""
    cur = f
    for _ in range(order):
        out = ExpPoly(())
        for rate, poly in cur.terms:
            out = out + ExpPoly.exponential(rate, polyder(poly))
            if rate != 0:
                out = out + ExpPoly.exponential(rate, tuple(rate * c for c in poly))
        cur = out
    return cur


def refusal_reason(params) -> str | None:
    """The reason ``make_pair`` refuses ``params``, or None if it builds them."""
    try:
        make_pair(params)
    except CommutantError as exc:
        return str(exc)
    return None


SINC_PARAMS = General(lam=0.0, mu=1j * np.pi / 2, alpha1=1.0, alpha2=0.0)
ANALYTIC_PARAMS = General(lam=1.0, mu=2.0, alpha1=1.0, alpha2=0.0)


@pytest.fixture(scope="session")
def sinc_pair():
    """Band/time-limiting kernel 2 sin(pi z/2)/((pi/2) z) with the prolate operator."""
    return make_pair(SINC_PARAMS)


@pytest.fixture(scope="session")
def analytic_pair():
    """lambda=1, mu=2 analytic fixture: k0=2, k2=5/2, nu=-15/4."""
    return make_pair(ANALYTIC_PARAMS)


@pytest.fixture(scope="session")
def case1_pair():
    return make_pair(Case1(m=0, alpha=1.0, beta=1.0))


@pytest.fixture(scope="session")
def case2_pair():
    return make_pair(Case2(lam=2.0, alpha=1.0, beta=1.0))


@pytest.fixture(scope="session")
def case3_pair():
    return make_pair(Case3(beta=2.0, p=(1.0, 0.0, 0.0)))


@pytest.fixture(scope="session")
def case4_pair():
    return make_pair(Case4(beta=0.0, p=(1.0, 0.0, 0.0)))
