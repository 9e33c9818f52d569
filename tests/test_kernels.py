import math
import warnings

import numpy as np
import pytest

from commutant_lab import (
    AdmissibilityError,
    Case1,
    Case2,
    Case3,
    Case4,
    ExpPoly,
    General,
    build_grid,
    build_kernel,
    gauge_transform,
    kernel_matrix,
    kernel_values,
    make_pair,
    residual_R1,
)
from commutant_lab.residuals import _unit_chebyshev, chebyshev_points
from conftest import kernel_matrix_per_operand

WIDE_LAMBDA = General(lam=1.2j * np.pi, mu=0.9j * np.pi, alpha1=0.0, alpha2=1.0)


@pytest.fixture(scope="module")
def wide_lambda_pair():
    # pi <= |lambda| < 2pi branch: denominator zeros at +-5/3 are removable
    return make_pair(WIDE_LAMBDA)


def test_kernel_finite_on_interval(wide_lambda_pair):
    z = np.linspace(-2.0, 2.0, 2001)
    z = z[np.abs(z) > 1e-3]
    (vals,) = kernel_values(wide_lambda_pair.kernel, z, orders=(0,))
    assert np.all(np.isfinite(vals))


def test_removable_zero_is_continuous(wide_lambda_pair):
    z0 = 2.0 / 1.2
    (limit,) = kernel_values(wide_lambda_pair.kernel, z0)
    assert np.isfinite(limit.real)
    for dz in (1e-2, 1e-4):
        (k,) = kernel_values(wide_lambda_pair.kernel, z0 + dz)
        assert k == pytest.approx(limit, rel=2e-2)
    (k,) = kernel_values(wide_lambda_pair.kernel, z0 + 1e-7)
    assert k == pytest.approx(limit, rel=1e-9)


def _wide_lambda_closed_form(mpmath):
    lam, mu = mpmath.mpc(WIDE_LAMBDA.lam), mpmath.mpc(WIDE_LAMBDA.mu)
    return lambda z: lam * mpmath.cosh(mu * z) / mpmath.sinh(lam * z / 2)


def _case1_closed_form(m):
    # cos((2m+1) pi z/4) / sin(pi z/2), from the floats make_pair uses
    def closed(mpmath):
        a = mpmath.mpf((2 * m + 1) * math.pi / 4.0)
        b = mpmath.mpf(math.pi / 2.0)
        return lambda z: mpmath.cos(a * z) / mpmath.sin(b * z)

    return closed


@pytest.mark.parametrize(
    "pair, closed, zeros",
    [
        (make_pair(WIDE_LAMBDA), _wide_lambda_closed_form, 5.0 / 3.0),
        (make_pair(Case1(m=0, alpha=1.0, beta=1.0)), _case1_closed_form(0), 2.0),
        (make_pair(Case1(m=1, alpha=1.0, beta=1.0)), _case1_closed_form(1), 2.0),
    ],
    ids=["wide-lambda", "case1-m0", "case1-m1"],
)
def test_removable_zero_series_matches_mpmath(pair, closed, zeros):
    # local series inside the switch radius r, at r/4 <= |z - z0| < r: closer
    # in, the float parameters leave a ~1e-16 residue of the removable zero
    # that the closed form amplifies by 1/|z - z0|
    mpmath = pytest.importorskip("mpmath")
    spec = pair.kernel
    np.testing.assert_allclose(spec.removable_zeros, (-zeros, zeros), rtol=1e-15)
    r = spec.switch_radius
    offsets = np.linspace(r / 4, 0.99 * r, 5)
    z = np.concatenate([z0 + s * offsets for z0 in spec.removable_zeros for s in (-1, 1)])
    got = kernel_values(spec, z, orders=(0, 1, 2))
    with mpmath.workdps(40):
        k = closed(mpmath)
        for m in range(3):
            for g, zz in zip(got[m], z):
                w = mpmath.diff(k, mpmath.mpf(float(zz)), m)
                assert abs(mpmath.mpc(g) - w) <= 1e-11 * abs(w), (m, zz, g, complex(w))


def test_derivatives_next_to_removable_zero_match_mpmath(wide_lambda_pair):
    # just outside the windows at wide-lambda's removable zeros +-5/3, where
    # N and D both vanish: the quotient rule on the difference-grid
    # evaluator's compensated exponentials keeps k' and k'' within 1e-9 of
    # 40-digit mpmath (the uncompensated pointwise ratio lost up to 3.7e-7)
    mpmath = pytest.importorskip("mpmath")
    spec = wide_lambda_pair.kernel
    offsets = np.geomspace(1.9e-3, 0.3, 9)
    z = np.concatenate([z0 + s * offsets for z0 in spec.removable_zeros for s in (-1, 1)])
    z = z[np.abs(z) <= 2.0]
    got = kernel_values(spec, z, orders=(1, 2))
    with mpmath.workdps(40):
        k = _wide_lambda_closed_form(mpmath)
        for m, values in zip((1, 2), got):
            for g, zz in zip(values, z):
                w = mpmath.diff(k, mpmath.mpf(float(zz)), m)
                assert abs(mpmath.mpc(g) - w) <= 1e-9 * abs(w), (m, zz, g, complex(w))


def test_kernel_values_is_kernel_matrix_at_zero(wide_lambda_pair, case2_pair, monkeypatch):
    # one evaluator: kernel_values reads the column y = 0 of kernel_matrix,
    # with no ExpPoly.__call__ (the uncompensated pointwise ratio), and
    # kernel_matrix does not hand its window entries back to kernel_values
    from commutant_lab import coeffs, kernels

    calls = []
    call, values = coeffs.ExpPoly.__call__, kernels.kernel_values

    def recording_call(self, y, order=0):
        calls.append("ExpPoly.__call__")
        return call(self, y, order)

    def recording_values(spec, z, orders=(0,)):
        calls.append("kernel_values")
        return values(spec, z, orders)

    monkeypatch.setattr(coeffs.ExpPoly, "__call__", recording_call)
    monkeypatch.setattr(kernels, "kernel_values", recording_values)
    for spec in (wide_lambda_pair.kernel, case2_pair.kernel):
        r = spec.switch_radius
        # window points of 0 and of +-5/3, and direct points, in a 2 x 4 array
        z = np.array([[0.5 * r, -0.3, 5 / 3 - 0.5 * r, 1.9], [-5 / 3 + 0.2 * r, -r, 0.7, -1.999]])
        got = values(spec, z, orders=(0, 1, 2))
        assert not calls
        for m, g in enumerate(got):
            assert g.shape == z.shape
            assert g.tobytes() == kernels.kernel_matrix(spec, z.ravel(), [0.0], m).reshape(z.shape).tobytes()
        (scalar,) = values(spec, 0.7)
        assert type(scalar) is complex and scalar == got[0][1, 2]
        kernels.kernel_matrix(spec, z.ravel(), z.ravel(), (0, 1, 2))
        assert not calls


@pytest.mark.parametrize("z", [0.5 + 0j, 0.5 + 1e-3j, np.array([0.1, 0.2], dtype=complex), [0.1j]])
def test_kernel_values_refuses_complex_z(case2_pair, z):
    # the difference grid is real; an imaginary part is an error, not dropped
    with pytest.raises(TypeError):
        kernel_values(case2_pair.kernel, z)


GENERAL_POLE = General(lam=1.1 + 0.6j, mu=0.5 - 0.3j, alpha1=0.4 + 0.2j, alpha2=1.0 - 0.5j)
CASE2 = Case2(lam=1.5 + 0.7j, alpha=1.0, beta=1.0)


def _general_pole_closed_form(mpmath):
    lam, mu = mpmath.mpc(GENERAL_POLE.lam), mpmath.mpc(GENERAL_POLE.mu)
    a1, a2 = mpmath.mpc(GENERAL_POLE.alpha1), mpmath.mpc(GENERAL_POLE.alpha2)
    return lambda z: (
        lam / mpmath.sinh(lam * z / 2) * (a1 * mpmath.sinh(mu * z) / mu + a2 * mpmath.cosh(mu * z))
    )


def _case2_closed_form(mpmath):
    lam = mpmath.mpc(CASE2.lam)
    return lambda z: 1 / mpmath.sinh(lam * z / 2)


@pytest.mark.parametrize("tau, scale", [(0.0, 1.0), (0.35 - 0.2j, 0.8 + 0.6j)], ids=["plain", "gauged"])
@pytest.mark.parametrize(
    "pair, closed",
    [
        (make_pair(GENERAL_POLE), _general_pole_closed_form),
        (make_pair(Case1(m=0, alpha=1.0, beta=1.0)), _case1_closed_form(0)),
        (make_pair(CASE2), _case2_closed_form),
    ],
    ids=["general-pole", "case1", "case2"],
)
def test_pole_kernel_values_match_mpmath(pair, closed, tau, scale):
    # scale * e^{tau z} * k(z) and its first two derivatives on all three
    # evaluation paths: the Laurent series inside the switch radius r of the
    # pole, the local series within r of a removable zero, the direct ratio
    mpmath = pytest.importorskip("mpmath")
    spec = gauge_transform(pair, tau=tau, scale=scale).kernel
    r = spec.switch_radius
    offsets = np.linspace(r / 4, 0.99 * r, 3)
    centres = (0.0,) + spec.removable_zeros
    z = np.concatenate(
        [z0 + s * offsets for z0 in centres for s in (-1, 1)]
        + [np.array([-1.7, -0.9, -0.35, 0.2, 0.75, 1.3, 1.85])]
    )
    got = kernel_values(spec, z, orders=(0, 1, 2))
    with mpmath.workdps(40):
        k = closed(mpmath)
        t, c = mpmath.mpc(tau), mpmath.mpc(scale)

        def gauged(x):
            return c * mpmath.exp(t * x) * k(x)

        for m in range(3):
            for g, zz in zip(got[m], z):
                w = mpmath.diff(gauged, mpmath.mpf(float(zz)), m)
                assert abs(mpmath.mpc(g) - w) <= 1e-11 * abs(w), (m, zz, g, complex(w))


def test_derivatives_match_finite_differences(analytic_pair, case2_pair):
    h = 1e-6
    for pair, z in ((analytic_pair, 0.7), (case2_pair, 0.45), (case2_pair, -1.2)):
        k0, k1, k2 = kernel_values(pair.kernel, z, orders=(0, 1, 2))
        km, kp = kernel_values(pair.kernel, np.array([z - h, z + h]))[0]
        fd1 = (kp - km) / (2 * h)
        fd2 = (kp - 2 * k0 + km) / h**2
        assert k1 == pytest.approx(fd1, rel=1e-8)
        assert k2 == pytest.approx(fd2, rel=1e-3)


def test_derivatives_near_pole_match_laurent(case4_pair):
    # k = 1/z: closed-form derivatives, inside and outside the switch radius
    for z in (5e-4, 0.02):
        k0, k1, k2 = kernel_values(case4_pair.kernel, z, orders=(0, 1, 2))
        assert k0 == pytest.approx(1 / z, rel=1e-12)
        assert k1 == pytest.approx(-1 / z**2, rel=1e-12)
        assert k2 == pytest.approx(2 / z**3, rel=1e-12)


def test_series_matches_sympy_general():
    sympy = pytest.importorskip("sympy")
    pair = make_pair(General(lam=1.0, mu=2.0, alpha1=1.0, alpha2=0.0))
    z = sympy.symbols("z")
    expr = sympy.sinh(2 * z) / (2 * sympy.sinh(z / 2))
    ser = sympy.series(expr, z, 0, 10).removeO()
    for n in range(10):
        expected = complex(ser.coeff(z, n))
        assert pair.kernel.series[n] == pytest.approx(expected, abs=1e-13)


def test_scalar_and_array_evaluation_agree(case2_pair):
    zs = np.array([0.3, -0.7, 1.9])
    (arr,) = kernel_values(case2_pair.kernel, zs, orders=(0,))
    for z, v in zip(zs, arr):
        assert kernel_values(case2_pair.kernel, float(z))[0] == pytest.approx(complex(v))


@pytest.mark.parametrize("gauged", [False, True], ids=["plain", "gauged"])
@pytest.mark.parametrize(
    "name",
    [
        "sinc_pair",
        "analytic_pair",
        "wide_lambda_pair",
        "case1_pair",
        "case2_pair",
        "case3_pair",
        "case4_pair",
    ],
)
def test_build_kernel_derives_pole_from_data(request, name, gauged):
    # the pole flag is N(0) != 0: a general kernel has a pole iff alpha2 != 0,
    # every special case has one, and a gauge transform keeps it
    pair = request.getfixturevalue(name)
    params = pair.params
    pole = params.alpha2 != 0 if isinstance(params, General) else True
    if gauged:
        pair = gauge_transform(pair, tau=0.35 - 0.2j, scale=0.8 + 0.6j)
    spec = pair.kernel
    assert spec.singular == pole
    rebuilt = build_kernel(spec.numerator, spec.denominator)
    assert rebuilt.singular == spec.singular
    assert rebuilt.series == spec.series
    assert rebuilt.removable_zeros == spec.removable_zeros
    # series[0] is N(0)/D'(0) (the residue) at a pole, N'(0)/D'(0) = k(0) otherwise
    lead = spec.numerator(0.0, order=0 if pole else 1) / spec.denominator(0.0, order=1)
    assert spec.series[0] == pytest.approx(lead, rel=1e-13)


@pytest.mark.parametrize(
    "num, den",
    [
        # k = 1/sin(pi z/2): D vanishes at z = +-2 and N does not
        (ExpPoly.constant(1.0), ExpPoly.sinh(1j * math.pi / 2, -1j)),
        # k = cos(8.75 pi z)/sin(2.5 pi z): N cancels z = +-0.4, not +-0.8,
        # where N = -1 is small only beside its unscaled Taylor coefficients
        (ExpPoly.cosh(8.75j * math.pi), ExpPoly.sinh(2.5j * math.pi, -1j)),
    ],
    ids=["endpoint", "high-rate-numerator"],
)
def test_build_kernel_refuses_a_pole_inside_the_interval(num, den):
    with pytest.raises(AdmissibilityError, match=r"non-removable singularity inside \[-2,2\]"):
        build_kernel(num, den)


def test_alpha2_lost_to_rounding_gives_regular_kernel():
    # alpha2 = 1e-300 next to alpha1 = 1 is below N's rounding: for
    # mu = 2 and 0.5 it vanishes when alpha2 cosh(mu z) merges with
    # alpha1 sinh(mu z)/mu, and below |mu| 0.1 the Taylor form keeps it
    # (N(0) = 2e-300), which is still a zero on N's scale
    for mu in (2.0, 0.5, 0.05):
        pair = make_pair(General(lam=1.0, mu=mu, alpha1=1.0, alpha2=1e-300))
        assert not pair.kernel.singular, mu
        assert kernel_values(pair.kernel, 0.0)[0] == pytest.approx(2.0, rel=1e-14)
        rep = residual_R1(pair)
        assert rep.max_abs <= 1e-9 * rep.scale, mu


@pytest.mark.parametrize("tau", [0.0, 30.0, -50j], ids=["plain", "tau30", "tau-50i"])
@pytest.mark.parametrize(
    "params",
    [Case1(m=40, alpha=1.0, beta=1.0), General(lam=1.0, mu=60.0, alpha1=1.0, alpha2=1.0)],
    ids=["case1_m40", "general_mu60"],
)
def test_fast_pole_kernel_stays_singular(params, tau):
    # N's Taylor coefficients grow like rho^k / k!, far above N(0) at rate
    # rho ~ 60; on N's own scale (N_k / rho^k) N(0) is still a pole
    pair = make_pair(params)
    if tau:
        pair = gauge_transform(pair, tau=tau)
    spec = pair.kernel
    assert spec.singular
    residue = spec.numerator(0.0) / spec.denominator(0.0, order=1)
    assert spec.residue() == pytest.approx(residue, rel=1e-13)
    # inside the switch radius the Laurent branch meets the direct ratio
    z = 0.999 * spec.switch_radius
    direct = spec.numerator(z) / spec.denominator(z)
    assert kernel_values(pair.kernel, z)[0] == pytest.approx(direct, rel=1e-9)


# one draw of each benchmark variant, and the two fast pole kernels, whose
# e^{r x} factors reach |r| ~ 60
MATRIX_PARAMS = {
    "general-analytic": General(lam=0.05 + 1.8j, mu=-1.42 + 1.79j, alpha1=-0.38 - 0.15j, alpha2=0.0),
    "general-pole": General(lam=0.77 - 1.11j, mu=1.24 - 1.24j, alpha1=-0.35 + 0.21j, alpha2=0.71 - 0.52j),
    "case1": Case1(m=0, alpha=-0.73 + 0.98j, beta=-0.93 + 0.06j),
    "case2": Case2(lam=-0.68 + 1.07j, alpha=-0.83 + 0.2j, beta=0.52 + 0.17j),
    "case3": Case3(beta=0.33 - 0.48j, p=(-0.46 - 0.43j, 0.0, 0.74 + 0.53j)),
    "case4": Case4(beta=-0.99 - 0.69j, p=(0.72 - 0.6j, 0.61 - 0.33j, 0.43 + 0.62j)),
    "case1-m40": Case1(m=40, alpha=1.0, beta=1.0),
    "general-mu60": General(lam=1.0, mu=60.0, alpha1=1.0, alpha2=1.0),
}


@pytest.fixture(scope="module")
def lgl256():
    return build_grid(256).nodes


@pytest.mark.parametrize("name", MATRIX_PARAMS)
def test_kernel_matrix_matches_mpmath(name, lgl256):
    # k(x_i - x_j) on the n = 256 LGL grid against N/D at 40 digits.  Outside
    # the switch windows: every entry within 0.01 of 0 or of a removable zero,
    # where N and D cancel, and every 157th entry elsewhere.  Inside them: the
    # pointwise branches, bit for bit; a pole's exact zeros of z stay 0.
    mpmath = pytest.importorskip("mpmath")
    spec = make_pair(MATRIX_PARAMS[name]).kernel
    x = lgl256
    K = kernel_matrix(spec, x, x)
    Z = np.subtract.outer(x, x)
    dist = np.min([np.abs(Z - z0) for z0 in (0.0,) + spec.removable_zeros], axis=0)
    window = dist < spec.switch_radius
    if spec.singular:
        assert np.all(np.diag(K) == 0)
        window &= Z != 0
    np.testing.assert_array_equal(K[window], kernel_values(spec, Z[window])[0])

    stride = (np.arange(Z.size) % 157 == 0).reshape(Z.shape)
    rows, cols = np.nonzero(~window & (Z != 0) & ((dist < 0.01) | stride))
    with mpmath.workdps(40):

        def terms(f):
            return [(mpmath.mpc(r), [mpmath.mpc(c) for c in reversed(p)]) for r, p in f.terms]

        def value(mp_terms, z):
            return mpmath.fsum(mpmath.polyval(p, z) * mpmath.exp(r * z) for r, p in mp_terms)

        num, den = terms(spec.numerator), terms(spec.denominator)
        errs = []
        for i, j in zip(rows, cols):
            z = mpmath.mpf(float(x[i])) - mpmath.mpf(float(x[j]))
            ref = value(num, z) / value(den, z)
            errs.append(float(abs(mpmath.mpc(K[i, j]) - ref) / abs(ref)))
    worst = int(np.argmax(errs))
    assert errs[worst] <= 1e-12, (Z[rows[worst], cols[worst]], errs[worst])


@pytest.mark.parametrize(
    "params",
    [
        General(lam=0.0, mu=0.5j * np.pi, alpha1=1.0, alpha2=0.0),
        Case1(m=0, alpha=1.0, beta=1.0),
        WIDE_LAMBDA,
        MATRIX_PARAMS["general-pole"],
    ],
    ids=["sinc", "case1", "wide-lambda", "general-pole"],
)
def test_kernel_matrix_derivatives_match_kernel_values(params):
    # k, k', k'' on a difference grid with entries inside the switch window
    # of 0 (and of case1's removable zeros +-2, wide-lambda's +-5/3), just
    # outside it and far from it.  Inside: the same series at the same
    # offsets, bit for bit.  Outside, N and D from the split exponentials
    # e^{r x_i} e^{-r y_j} round differently from those at (z, 0), which the
    # quotient rule amplifies next to a window (by ~|z - z0|^-m).
    spec = make_pair(params).kernel
    r = spec.switch_radius
    x = np.array([-1.0, -1.0 + 0.4 * r, -1.0 + 1.9 * r, -0.3, 0.0, 0.3 + 0.3 * r, 0.3 + 2.5 * r, 1.0 - 0.6 * r, 1.0])
    y = np.array([-1.0, -1.0 + 0.7 * r, -2 / 3 + 0.5 * r, -2 / 3 + 1.5 * r, -0.3 + 0.7 * r, 0.0, 0.3, 1.0 - 1.7 * r, 1.0])
    Z = np.subtract.outer(x, y)
    got = kernel_matrix(spec, x, y, order=(0, 1, 2))
    # order 0 of a tuple is the int-order matrix, the one K is built from
    np.testing.assert_array_equal(kernel_matrix(spec, x, y), got[0])
    ok = Z != 0 if spec.singular else np.ones(Z.shape, dtype=bool)
    for g in got:
        assert np.all(g[~ok] == 0)  # a pole's exact zeros of z
    dist = np.min([np.abs(Z - z0) for z0 in (0.0,) + spec.removable_zeros], axis=0)[ok]
    inside, far = dist < spec.switch_radius, dist >= 0.1
    edge = ~inside & ~far
    assert np.any(inside) and np.any(edge & (dist < 3 * r))
    for m, (g, v) in enumerate(zip(got, kernel_values(spec, Z[ok], orders=(0, 1, 2)))):
        g = g[ok]
        np.testing.assert_array_equal(g[inside], v[inside])
        np.testing.assert_allclose(g[far], v[far], rtol=1e-12, err_msg=f"order {m}")
        np.testing.assert_allclose(g[edge], v[edge], rtol=1e-6 if m else 1e-12, err_msg=f"order {m}")


@pytest.mark.parametrize("lam", [0.5 + 1e-310j, 5e-324 + 1.0j], ids=["subnormal-im", "subnormal-re"])
@pytest.mark.parametrize("alpha2", [0.0, 1.0], ids=["analytic", "pole"])
def test_kernel_matrix_masks_window_entries(lam, alpha2):
    # D vanishes (or is subnormal) on the switch-window entries; the quotient
    # rule must not divide there, so no warning is raised
    spec = make_pair(General(lam=lam, mu=1.0, alpha1=1.0, alpha2=alpha2)).kernel
    x = np.linspace(-1.0, 1.0, 9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = kernel_matrix(spec, x, x, order=(0, 1, 2))
    assert all(np.all(np.isfinite(g)) for g in got)


# two analytic and two pole kernels, case1's with removable zeros at +-2
ONE_TABLE_PARAMS = {
    **{name: MATRIX_PARAMS[name] for name in ("general-analytic", "general-pole", "case1", "case4")},
    "wide-lambda": WIDE_LAMBDA,
}


@pytest.mark.parametrize("order", [(0,), (0, 1, 2)], ids=["k", "k012"])
@pytest.mark.parametrize("name", ONE_TABLE_PARAMS)
def test_kernel_matrix_takes_one_exponential_table(name, order, monkeypatch):
    # N and D share one _exp_real call over their stacked rates for x and
    # one for y, or a single call over the rates and their negations when y
    # holds x's points; every matrix equals N and D evaluated apart, bit for bit
    from commutant_lab import coeffs

    spec = make_pair(ONE_TABLE_PARAMS[name]).kernel
    if name == "case1":
        assert spec.removable_zeros == (-2.0, 2.0)
    calls = []
    exp_real = coeffs._exp_real

    def counting_exp_real(rates, x):
        calls.append(x.size)
        return exp_real(rates, x)

    monkeypatch.setattr(coeffs, "_exp_real", counting_exp_real)
    x = chebyshev_points(41)
    z = np.linspace(-2.0, 2.0, 40)  # no 0, both ends
    grids = {
        "x with itself": (x, x, 1),
        "x with an equal copy": (x, x.copy(), 1),
        "R1's 41x41 grid": (_unit_chebyshev(41), _unit_chebyshev(41), 1),
        "kernel_values' y = [0]": (z, np.zeros(1), 2),
        "41x17": (x, chebyshev_points(17), 2),
    }
    for grid, (gx, gy, tables) in grids.items():
        calls.clear()
        got = kernel_matrix(spec, gx, gy, order)
        assert len(calls) == tables, grid
        for g, want in zip(got, kernel_matrix_per_operand(spec, gx, gy, order)):
            assert np.array_equal(g, want), grid
    calls.clear()
    kernel_values(spec, z, order)
    assert calls == [z.size, 1]

