"""Adjoint, self-adjointness, operator commutation and normality tests.

The formal adjoint of L u = a u'' + b u' + c u under the boundary
conditions a(+-1) = 0, b(+-1) = a'(+-1) is

    L* u = conj(a) u'' + (2 conj(a)' - conj(b)) u' + (conj(a)'' - conj(b)' + conj(c)) u,

so L = L* iff Im a = 0, Re b = a' and Im c = (1/2) Im b'.

Normality (L L* = L* L) is characterized through the decomposition
L = L0 + gamma*L1 with L0 self-adjoint and L1 first order: after the
(1 - i*alpha) rescale that makes a real (and a sign that makes it
positive on the interior), and for a > 0 there, the conditions are

    b1 = sqrt(a),
    c1 = (2 b0 - a') / sqrt(a) + i*R,
    Re b0 = a',
    4 c0 = 2 b0' - a'' + (a' - 2 b0)(3 a' - 2 b0)/(2a) + R.

Only b = b0 + gamma*b1 and c = c0 + gamma*c1 are observable, so the
checker extracts gamma by least squares from (Re b - a')/sqrt(a), sets
b0 = b - gamma*sqrt(a), and measures the c-conditions jointly through
the slack-fitted deviation of c - F0/4 - gamma*G1 from a constant; the
real/imaginary parts of that deviation are reported as the c0/c1
residuals.  All checks run on interior Chebyshev points (delta = 1e-2)
because sqrt(a) degenerates at the endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .families import DiffOp
from .residuals import chebyshev_points

INTERIOR_DELTA = 1e-2
INTERIOR_POINTS = 21
_TINY = 1e-300


def interior_points() -> np.ndarray:
    return chebyshev_points(INTERIOR_POINTS, -1.0 + INTERIOR_DELTA, 1.0 - INTERIOR_DELTA)


def adjoint_coeffs(op: DiffOp) -> DiffOp:
    """Coefficient triple of the formal adjoint L*."""
    a, b, c = op.a, op.b, op.c
    astar = a.conjugate()
    bstar = 2.0 * a.derivative().conjugate() - b.conjugate()
    cstar = a.derivative(2).conjugate() - b.derivative().conjugate() + c.conjugate()
    return DiffOp(a=astar, b=bstar, c=cstar)


def is_selfadjoint(op: DiffOp, tol: float = 1e-10) -> tuple[bool, dict]:
    """Pointwise self-adjointness conditions; returns (verdict, residuals)."""
    y = interior_points()
    av, apv = op.a(y, order=(0, 1))
    bv, bpv = op.b(y, order=(0, 1))
    cv = op.c(y)
    return _selfadjoint_check(av, apv, bv, bpv, cv, tol)


def _selfadjoint_check(av, apv, bv, bpv, cv, tol: float) -> tuple[bool, dict]:
    residuals = {
        "im_a": float(np.max(np.abs(av.imag))),
        "re_b_minus_aprime": float(np.max(np.abs(bv.real - apv))),
        "im_c_minus_half_im_bprime": float(np.max(np.abs(cv.imag - 0.5 * bpv.imag))),
    }
    ok = all(r <= tol for r in residuals.values())
    return ok, residuals


def commute_conditions(L: DiffOp, D: DiffOp) -> dict:
    """Residuals of the four identities equivalent to LD = DL.

        a A' = A a'
        2a B' + b A' = 2A b' + B a'
        a B'' + 2a C' + b B' = A b'' + 2A c' + B b'
        a C'' + b C' = A c'' + B c'

    Their left minus right sides are half the u''' coefficient of LD - DL,
    its u'' coefficient less (a A' - A a')', its u' and its u coefficient;
    none divides by a, so first-order L (a = 0) is covered.
    """
    y = interior_points()

    def values(op: DiffOp):
        return op.a(y, order=(0, 1)), op.b(y, order=(0, 1, 2)), op.c(y, order=(1, 2))

    # commute_conditions(op, op) evaluates each coefficient once
    (a, ap), (b, bp, bpp), (cp, cpp) = lvals = values(L)
    (A, Ap), (B, Bp, Bpp), (Cp, Cpp) = lvals if D is L else values(D)
    eqs = {
        "eq1": a * Ap - A * ap,
        "eq2": 2 * a * Bp + b * Ap - 2 * A * bp - B * ap,
        "eq3": a * Bpp + 2 * a * Cp + b * Bp - A * bpp - 2 * A * cp - B * bp,
        "eq4": a * Cpp + b * Cp - A * cpp - B * cp,
    }
    return {k: float(np.max(np.abs(v))) for k, v in eqs.items()}


@dataclass(frozen=True)
class NormalityReport:
    selfadjoint: bool
    normal: bool
    condition_residuals: dict

    @property
    def selfadjoint_residuals(self) -> dict:
        """The residuals of ``is_selfadjoint``, stored with a ``selfadjoint_`` prefix."""
        res = self.condition_residuals
        prefix = "selfadjoint_"
        return {k[len(prefix):]: v for k, v in res.items() if k.startswith(prefix)}


def is_normal(op: DiffOp, tol: float = 1e-10) -> NormalityReport:
    """Check the displayed normality conditions for L.

    The operator is rescaled by (1 - i*alpha) (alpha fitted from
    Im a = alpha Re a) and by a sign making a positive on the interior.  If
    the rescaled a is real but not positive there (first-order L, a = 0,
    among them), the conditions do not apply and L is normal iff it commutes
    with L*: its residuals are ``commute_conditions(L, L*)`` over the size
    max(|a|, |b|) max(|a'|, |a''|, |b'|, |b''|, |c'|) of the products they
    subtract.  Otherwise gamma is extracted and the conditions are
    evaluated.  A vanishing
    gamma means the skew part is zeroth order; then normality only requires
    the self-adjoint conditions up to an imaginary constant shift of c, and
    the positivity/real-constant entries do not apply.  Either way the
    residuals end with ``is_selfadjoint``'s, prefixed ``selfadjoint_``.
    """
    y = interior_points()
    av, ap, app = op.a(y, order=(0, 1, 2))
    bv, bp = op.b(y, order=(0, 1))
    cv = op.c(y)
    sa_ok, sa_res = _selfadjoint_check(av, ap, bv, bp, cv, tol)
    sa_res = {f"selfadjoint_{k}": v for k, v in sa_res.items()}

    # Rescale so the leading coefficient is real and positive.  The
    # characterization's (1 - i*alpha) factor (from Im a = alpha Re a) is a
    # phase rotation up to positive scale; estimating the phase directly
    # also covers purely imaginary a, where alpha would be infinite.
    jmax = int(np.argmax(np.abs(av)))
    w0 = np.exp(-1j * np.angle(av[jmax])) if abs(av[jmax]) > 0 else 1.0 + 0j
    if np.mean((w0 * av).real) < 0:
        w0 = -w0

    at, apt, appt, bt, bpt, ct = (w0 * v for v in (av, ap, app, bv, bp, cv))

    scale_a = float(np.max(np.abs(at))) + _TINY
    scale_b = max(float(np.max(np.abs(bt))), scale_a)
    scale_c = max(float(np.max(np.abs(ct))), scale_a)

    res: dict[str, float] = {}
    res["im_a_zero"] = float(np.max(np.abs(at.imag))) / scale_a
    amin = float(np.min(at.real))
    if res["im_a_zero"] <= tol and amin <= 0:
        first = max(float(np.max(np.abs(v))) for v in (av, bv))
        derivs = (ap, app, bp, op.b(y, order=2), op.c(y, order=1))
        scale = first * max(float(np.max(np.abs(v))) for v in derivs) + _TINY
        res = {k: r / scale for k, r in commute_conditions(op, adjoint_coeffs(op)).items()}
        normal = all(r <= tol for r in res.values())
        return NormalityReport(sa_ok, normal, {**res, **sa_res})
    res["a_positive"] = max(0.0, -amin) / scale_a

    ar = np.maximum(at.real, _TINY)
    sq = np.sqrt(ar)
    gamma_num = float(np.sum(sq * (bt.real - apt.real)))
    gamma_den = float(np.sum(ar))
    gamma = gamma_num / gamma_den
    base = bt.real - apt.real
    res["b1_sqrt_a"] = float(np.max(np.abs(base - gamma * sq))) / scale_b

    zeroth_order_skew = abs(gamma) * float(np.max(sq)) <= 1e-8 * scale_b
    b0 = bt - gamma * sq
    res["re_b0_eq_aprime"] = float(np.max(np.abs(b0.real - apt.real))) / scale_b

    b0p = bpt - gamma * apt / (2.0 * sq)
    F0 = 2.0 * b0p - appt + (apt - 2.0 * b0) * (3.0 * apt - 2.0 * b0) / (2.0 * at)
    G1 = (2.0 * b0 - apt) / sq
    v = ct - F0 / 4.0 - gamma * G1
    vhat = complex(np.mean(v))
    dev = v - vhat
    res["c1_imag_const"] = float(np.max(np.abs(dev.imag))) / scale_c
    if zeroth_order_skew:
        # zeroth-order skew part: the real part of c is unconstrained
        res["c0_real_const"] = 0.0
    else:
        res["c0_real_const"] = float(np.max(np.abs(dev.real))) / scale_c

    if zeroth_order_skew:
        keys = ("im_a_zero", "b1_sqrt_a", "c1_imag_const")
        normal = all(res[k] <= tol for k in keys)
    else:
        normal = all(r <= tol for r in res.values())
    return NormalityReport(sa_ok, bool(normal), {**res, **sa_res})
