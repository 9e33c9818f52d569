import dataclasses
import json
import math

import numpy as np
import pytest

from commutant_lab import (
    DiffOp,
    ExpPoly,
    General,
    GridError,
    RegularKernelError,
    SingularKernelError,
    gauge_transform,
    lemma_coeff_check,
    make_pair,
    phi_defect,
    residual_R1,
    residual_R2,
    singular_relation_check,
    taylor_relation_check,
)
from commutant_lab import reportio
from commutant_lab.kernels import kernel_matrix
from commutant_lab.residuals import Z_EXCLUSION, chebyshev_points


def perturb_c(pair, extra: ExpPoly):
    op = DiffOp(a=pair.op.a, b=pair.op.b, c=pair.op.c + extra)
    return dataclasses.replace(pair, op=op, nu=None)


# ---------------------------------------------------------------------------
# residual_R1


def test_case4_exact_cancellation(case4_pair):
    rep = residual_R1(case4_pair)
    assert rep.max_abs <= 1e-13
    assert rep.rms <= rep.max_abs
    assert rep.n_points > 1000


def test_analytic_pair_residual(analytic_pair):
    rep = residual_R1(analytic_pair)
    assert rep.max_abs <= 1e-10 * rep.scale


def test_perturbed_c_detected(analytic_pair):
    rep0 = residual_R1(analytic_pair)
    pert = perturb_c(analytic_pair, ExpPoly.polynomial((0.0, 0.01)))
    rep = residual_R1(pert)
    assert 0.001 * rep.scale <= rep.max_abs <= 0.1 * rep.scale
    assert rep.max_abs > 1e4 * rep0.max_abs


def test_grid_error(analytic_pair):
    with pytest.raises(GridError):
        residual_R1(analytic_pair, ny=1, nz=41)


def test_argmax_in_domain(case2_pair):
    rep = residual_R1(case2_pair)
    y, z = rep.argmax
    assert -1 <= y <= 1 and -1 <= y + z <= 1
    assert abs(z) > 1e-2  # exclusion zone respected


def _reference_residual(kernel, opL, opR, ny, nz):
    """F(y, z) point by point over the y x x tensor grid, z = x - y, rows in ascending y.

    k, k' and k'' come from ``kernel_matrix`` on 1 x 1 grids, the same
    arithmetic as the residual's difference grid, so the exact argmax of a
    rounding-level F is comparable.
    """
    excl = Z_EXCLUSION if kernel.singular else 0.0
    max_abs, argmax, sumsq, count = -1.0, None, 0.0, 0
    for y in chebyshev_points(ny):
        for x in chebyshev_points(nz):
            z = x - y
            if excl > 0 and abs(z) <= excl:
                continue
            ya, xa = np.array([y]), np.array([x])
            k0, k1, k2 = kernel_matrix(kernel, xa, ya, order=(0, 1, 2))
            F = (
                (opR.a(xa) - opL.a(ya)) * k2
                + (2.0 * opL.a(ya, order=1) + opR.b(xa) - opL.b(ya)) * k1
                + (opR.c(xa) - opL.c(ya) + opL.b(ya, order=1) - opL.a(ya, order=2)) * k0
            )
            if kernel.singular:
                F = F * z**3
            mag = float(np.abs(F[0, 0]))
            if mag > max_abs:  # strict: the first maximum in row-major order wins
                max_abs, argmax = mag, (float(y), float(z))
            sumsq += mag**2
            count += 1
    return max_abs, math.sqrt(sumsq / count), argmax, count


@pytest.mark.parametrize(
    "fixture, shifted_c, ny, nz",
    [
        ("analytic_pair", False, 7, 7),
        ("case2_pair", False, 7, 7),
        ("case2_pair", False, 41, 17),
        ("analytic_pair", True, 17, 41),
        ("case3_pair", True, 9, 5),
    ],
    ids=["analytic_pair", "case2_pair", "case2-41x17", "analytic-R2-17x41", "case3-R2-9x5"],
)
def test_residual_matches_pointwise_reference(fixture, shifted_c, ny, nz, request):
    # R1 on square and ny != nz grids, and R2 with L2 = L1 + 0.1 y in c
    pair = request.getfixturevalue(fixture)
    op = pair.op
    L2 = DiffOp(a=op.a, b=op.b, c=op.c + ExpPoly.polynomial((0.0, 0.1))) if shifted_c else op
    max_abs, rms, argmax, count = _reference_residual(pair.kernel, op, L2, ny, nz)
    rep = residual_R2(pair.kernel, op, L2, ny=ny, nz=nz)
    if not shifted_c:
        assert residual_R1(pair, ny=ny, nz=nz) == rep
    assert rep.n_points == count
    assert rep.max_abs == pytest.approx(max_abs, rel=1e-12)
    assert rep.rms == pytest.approx(rms, rel=1e-12)
    assert rep.argmax == argmax


def _mp_terms(mpmath, f):
    return [(mpmath.mpc(r), [mpmath.mpc(c) for c in reversed(p)]) for r, p in f.terms]


def _mp_value(mpmath, terms, t):
    return mpmath.fsum(mpmath.polyval(p, t) * mpmath.exp(r * t) for r, p in terms)


@pytest.mark.parametrize("fixture", ["analytic_pair", "case3_pair"])
def test_residual_matches_mpmath(fixture, request):
    # F of the non-commuting pair c + 0.01 y, where F is signal and not
    # rounding, at 50 digits on a 6 x 5 grid: k and its derivatives by
    # mpmath.diff of N/D, the coefficients' derivatives exactly
    mpmath = pytest.importorskip("mpmath")
    pair = perturb_c(request.getfixturevalue(fixture), ExpPoly.polynomial((0.0, 0.01)))
    op, kernel = pair.op, pair.kernel
    ny, nz = 6, 5
    rep = residual_R1(pair, ny=ny, nz=nz)
    with mpmath.workdps(50):
        num, den = _mp_terms(mpmath, kernel.numerator), _mp_terms(mpmath, kernel.denominator)

        def k(t):
            return _mp_value(mpmath, num, t) / _mp_value(mpmath, den, t)

        def coeff(f, t, m=0):
            return _mp_value(mpmath, _mp_terms(mpmath, f.derivative(m)), t)

        mags, points = [], []
        for y in chebyshev_points(ny):
            for x in chebyshev_points(nz):
                ym, xm = mpmath.mpf(float(y)), mpmath.mpf(float(x))
                z = xm - ym
                if kernel.singular and abs(z) <= Z_EXCLUSION:
                    continue
                if z == 0:
                    k0, k1, k2 = (kernel.series[m] * math.factorial(m) for m in range(3))
                else:
                    k0, k1, k2 = (mpmath.diff(k, z, m) for m in range(3))
                F = (
                    (coeff(op.a, xm) - coeff(op.a, ym)) * k2
                    + (2 * coeff(op.a, ym, 1) + coeff(op.b, xm) - coeff(op.b, ym)) * k1
                    + (coeff(op.c, xm) - coeff(op.c, ym) + coeff(op.b, ym, 1) - coeff(op.a, ym, 2)) * k0
                )
                if kernel.singular:
                    F *= z**3
                mags.append(abs(F))
                points.append((float(y), float(x - y)))
        first = max(range(len(mags)), key=mags.__getitem__)  # first maximum
        ref_max = float(mags[first])
        ref_rms = float(mpmath.sqrt(mpmath.fsum(v**2 for v in mags) / len(mags)))
    assert rep.n_points == len(mags)
    assert rep.max_abs == pytest.approx(ref_max, rel=1e-12)
    assert rep.rms == pytest.approx(ref_rms, rel=1e-12)
    assert rep.argmax == points[first]


@pytest.mark.parametrize("fixture", ["analytic_pair", "case1_pair"])
def test_residual_evaluates_per_axis(fixture, request, monkeypatch):
    # one residual evaluates the coefficients on the axes (no array longer
    # than max(ny, nz)) and calls kernel_values on switch-window points only:
    # z = 0 for the analytic kernel, case1's removable zeros z = +-2
    from commutant_lab import coeffs, kernels

    pair = request.getfixturevalue(fixture)

    ny, nz = 41, 17
    sizes, window = [], []
    call = coeffs.ExpPoly.__call__

    def counting_call(self, y, order=0):
        sizes.append(np.size(y))
        return call(self, y, order)

    values = kernels.kernel_values

    def recording_values(spec, z, orders=(0,)):
        window.append(np.atleast_1d(z))
        return values(spec, z, orders)

    monkeypatch.setattr(coeffs.ExpPoly, "__call__", counting_call)
    monkeypatch.setattr(kernels, "kernel_values", recording_values)
    spec = pair.kernel
    residual_R1(pair, ny=ny, nz=nz)
    assert sizes and max(sizes) <= max(ny, nz)
    assert window
    z = np.concatenate(window)
    dist = np.min([np.abs(z - z0) for z0 in (0.0,) + spec.removable_zeros], axis=0)
    assert np.all(dist < spec.switch_radius)


def test_report_json_fields(analytic_pair):
    obj = json.loads(reportio.dumps(residual_R1(analytic_pair)))
    assert set(obj) == {"max_abs", "rms", "argmax", "n_points", "scale"}


# ---------------------------------------------------------------------------
# residual_R2


def test_r2_reduces_to_r1(analytic_pair):
    r1 = residual_R1(analytic_pair)
    r2 = residual_R2(analytic_pair.kernel, analytic_pair.op, analytic_pair.op)
    assert r2.max_abs == pytest.approx(r1.max_abs)
    assert r2.max_abs <= 1e-10 * r2.scale


def test_r2_constant_shifts_cancel(analytic_pair):
    op = analytic_pair.op
    shifted = DiffOp(a=op.a, b=op.b, c=op.c + ExpPoly.constant(3.0))
    rep = residual_R2(analytic_pair.kernel, shifted, shifted)
    assert rep.max_abs <= 1e-10 * rep.scale


def test_r2_detects_mismatch(analytic_pair):
    op = analytic_pair.op
    L2 = DiffOp(a=op.a, b=op.b, c=op.c + ExpPoly.polynomial((0.0, 0.1)))
    rep = residual_R2(analytic_pair.kernel, op, L2)
    assert rep.max_abs >= 1e-3 * rep.scale


# ---------------------------------------------------------------------------
# taylor_relation_check


def test_taylor_residuals_small(analytic_pair):
    res = taylor_relation_check(analytic_pair, N=6)
    assert res.shape == (7,)
    assert np.max(res) <= 1e-10


def test_taylor_rejects_singular(case4_pair):
    with pytest.raises(SingularKernelError):
        taylor_relation_check(case4_pair, N=4)


def test_taylor_sensitivity_to_k2(analytic_pair):
    # perturbing k2 by 0.1 must show up in the n=1 relation at >= 1e-2,
    # and the residual scales linearly with the perturbation size
    def perturbed_residual(delta):
        spec = analytic_pair.kernel
        series = list(spec.series)
        series[2] += delta / 2.0  # stored as Taylor coefficient k2/2!
        bad = dataclasses.replace(
            analytic_pair, kernel=dataclasses.replace(spec, series=tuple(series))
        )
        return taylor_relation_check(bad, N=2)[1]

    r1 = perturbed_residual(0.1)
    r2 = perturbed_residual(0.01)
    assert r1 >= 1e-2
    assert r1 / r2 == pytest.approx(10.0, rel=1e-6)


# ---------------------------------------------------------------------------
# lemma_coeff_check


def test_lemma_values(analytic_pair):
    out = lemma_coeff_check(analytic_pair)
    assert out["b_eq_aprime"] <= 1e-12
    assert out["c_eq_nu_a"] <= 1e-12
    assert out["a_ode"] <= 1e-12
    assert out["nu"] == pytest.approx(-15.0 / 4.0)


def test_lemma_nu_matches_parameters():
    for lam, mu in ((1.0, 0.9j), (0.7 - 0.3j, 1.2), (2.0, 0.0)):
        pair = make_pair(General(lam=lam, mu=mu, alpha1=1.0, alpha2=0.0))
        out = lemma_coeff_check(pair)
        assert out["nu"] == pytest.approx(lam**2 / 4 - mu**2, abs=1e-9)


def test_lemma_normalizes_gauge(analytic_pair):
    skewed = gauge_transform(analytic_pair, tau=0.4)
    out = lemma_coeff_check(skewed)
    assert out["nu"] == pytest.approx(-15.0 / 4.0, abs=1e-9)


def test_lemma_k1_k3_vanish(analytic_pair):
    s = analytic_pair.kernel.series
    assert abs(s[1]) <= 1e-12 and abs(s[3]) <= 1e-12


def test_lemma_rejects_vanishing_k0(analytic_pair):
    from commutant_lab import GaugeError

    series = (0j,) + analytic_pair.kernel.series[1:]
    bad = dataclasses.replace(
        analytic_pair, kernel=dataclasses.replace(analytic_pair.kernel, series=series)
    )
    with pytest.raises(GaugeError):
        lemma_coeff_check(bad)


# ---------------------------------------------------------------------------
# singular_relation_check


def test_case4_relation_constant(case4_pair):
    out = singular_relation_check(case4_pair)
    assert out["residual"] <= 1e-12
    assert out["fitted_const"] == pytest.approx(-1.0 / 3.0)


def test_case2_a_zero_branch():
    from commutant_lab import Case2, make_pair

    pair = make_pair(Case2(lam=2.0, alpha=0.0, beta=1.0))
    out = singular_relation_check(pair)
    assert out["residual"] <= 1e-10
    assert np.isfinite(out["fitted_const"].real)


def test_singular_relation_detects_perturbation(case3_pair):
    op = case3_pair.op
    bad = dataclasses.replace(
        case3_pair, op=DiffOp(a=op.a, b=op.b + ExpPoly.polynomial((0.0, 0.0, 0.1)), c=op.c)
    )
    out = singular_relation_check(bad)
    assert out["residual"] >= 1e-3


def test_singular_relation_rejects_regular(analytic_pair):
    with pytest.raises(RegularKernelError):
        singular_relation_check(analytic_pair)


# ---------------------------------------------------------------------------
# phi_defect


def test_phi_first_order_decay(case4_pair):
    u = lambda y: y**2
    du = lambda y: 2 * y
    for eps in (1e-2, 1e-3):
        big = abs(phi_defect(case4_pair, u, du, 0.3, eps))
        small = abs(phi_defect(case4_pair, u, du, 0.3, eps / 2))
        assert small <= 0.55 * big


def test_phi_constant_test_function(case4_pair):
    val = abs(phi_defect(case4_pair, lambda y: 1.0, lambda y: 0.0, 0.3, 1e-3))
    assert val <= 1e-8


def test_phi_symmetric_point(case4_pair):
    u = lambda y: y**3
    du = lambda y: 3 * y**2
    vals = [abs(phi_defect(case4_pair, u, du, 0.0, e)) for e in (1e-2, 1e-3, 1e-4)]
    assert vals[2] < vals[1] < vals[0]


def test_phi_domain_check(case4_pair):
    with pytest.raises(ValueError):
        phi_defect(case4_pair, lambda y: y, lambda y: 1.0, 0.95, 0.1)
    with pytest.raises(RegularKernelError):
        pair = make_pair(General(lam=1.0, mu=0.5, alpha1=1.0, alpha2=0.0))
        phi_defect(pair, lambda y: y, lambda y: 1.0, 0.0, 1e-3)
