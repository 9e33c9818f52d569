import math
import warnings

import numpy as np
import pytest

from commutant_lab import (
    Case1,
    Case2,
    Case3,
    Case4,
    General,
    build_grid,
    build_kernel,
    gauge_transform,
    kernel_matrix,
    kernel_values,
    make_pair,
    residual_R1,
)

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
    # outside it and far from it.  Inside: the pointwise branches, bit for
    # bit.  Outside, N and D round differently in the two evaluators, which
    # the quotient rule amplifies next to a window (by ~|z - z0|^-m).
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
