import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from commutant_lab import (
    AdmissibilityError,
    Case1,
    Case2,
    Case3,
    Case4,
    DegenerateError,
    General,
    InvalidPolynomialError,
    PoleError,
    check_admissibility,
    classify_trivial,
    gauge_transform,
    kernel_values,
    make_pair,
    params_from_json,
    params_to_json,
    residual_R1,
)


# ---------------------------------------------------------------------------
# general family


def test_double_limit_reduces_to_pole_kernel():
    pair = make_pair(General(lam=0.0, mu=0.0, alpha1=0.0, alpha2=1.0))
    z = 0.37
    assert kernel_values(pair.kernel, z)[0] == pytest.approx(2.0 / z)
    y = np.linspace(-1, 1, 11)
    np.testing.assert_allclose(pair.op.a(y), (y**2 - 1) / 2, atol=1e-15)
    np.testing.assert_allclose(pair.op.b(y), y, atol=1e-15)
    np.testing.assert_allclose(pair.op.c(y), 0.0, atol=1e-15)


def test_mu_zero_kernel_value():
    # oracle: arbitrary-precision evaluation of the closed form 2/sinh(1)
    pair = make_pair(General(lam=2.0, mu=0.0, alpha1=0.0, alpha2=1.0))
    expected = complex(2 / mpmath.sinh(1))
    assert kernel_values(pair.kernel, 1.0)[0] == pytest.approx(expected, rel=1e-14)


def test_sinc_limit_pair():
    pair = make_pair(General(lam=0.0, mu=1j * np.pi / 2, alpha1=1.0, alpha2=0.0))
    z = 0.83
    expected = 2 * np.sin(np.pi * z / 2) / ((np.pi / 2) * z)
    assert kernel_values(pair.kernel, z)[0] == pytest.approx(expected)
    assert pair.nu == pytest.approx(np.pi**2 / 4)
    y = 0.4
    assert pair.op.c(y) == pytest.approx((np.pi**2 / 4) * (y**2 - 1) / 2)


def test_degenerate_alphas_rejected():
    with pytest.raises(DegenerateError):
        make_pair(General(lam=1.0, mu=1.0, alpha1=0.0, alpha2=0.0))


def test_inadmissible_rejected():
    with pytest.raises(AdmissibilityError):
        make_pair(General(lam=1.2j * np.pi, mu=0.3, alpha1=1.0, alpha2=1.0))


def test_boundary_conditions_hold():
    for params in (
        General(lam=1.3 - 0.4j, mu=0.8j, alpha1=1.0, alpha2=0.5),
        General(lam=0.0, mu=2.0, alpha1=1.0, alpha2=0.0),
    ):
        pair = make_pair(params)
        assert pair.op.boundary_residual() < 1e-12


# ---------------------------------------------------------------------------
# kernel evaluation branches


def test_exact_trig_value_case1(case1_pair):
    assert kernel_values(case1_pair.kernel, 1.0)[0] == pytest.approx(math.sqrt(2) / 2)


def test_sinh_cancellation_gives_constant():
    pair = make_pair(General(lam=2.0, mu=1.0, alpha1=1.0, alpha2=0.0))
    for z in (0.1, -0.9, 1.7):
        assert kernel_values(pair.kernel, z)[0] == pytest.approx(2.0, rel=1e-13)


def test_series_branch_agrees_with_direct(case2_pair):
    # ring around the switch radius: both branches within 1e-10 of each other
    r = case2_pair.kernel.switch_radius
    for z in (0.97 * r, 1.03 * r):
        direct = complex(case2_pair.kernel.numerator(z)) / complex(
            case2_pair.kernel.denominator(z)
        )
        assert kernel_values(case2_pair.kernel, z)[0] == pytest.approx(direct, rel=1e-10)


def test_singular_series_limit(case2_pair):
    # z*k(z) -> k0 = 1 for the case2 kernel 1/sinh(z); k2 = -1/6
    s = case2_pair.kernel.series
    assert s[0] == pytest.approx(1.0)
    assert s[2] == pytest.approx(-1.0 / 6.0)
    z = 1e-5
    assert z * kernel_values(case2_pair.kernel, z)[0] == pytest.approx(1.0, rel=1e-9)


def test_singular_series_is_sympy_expansion(case2_pair):
    sympy = pytest.importorskip("sympy")
    z = sympy.symbols("z")
    ser = sympy.series(z / sympy.sinh(z), z, 0, 8).removeO()
    for n in range(8):
        expected = complex(ser.coeff(z, n))
        assert case2_pair.kernel.series[n] == pytest.approx(expected, abs=1e-15)


def test_pole_error(case4_pair):
    with pytest.raises(PoleError):
        kernel_values(case4_pair.kernel, 0.0)


def test_regular_kernel_value_at_zero(analytic_pair):
    assert kernel_values(analytic_pair.kernel, 0.0)[0] == pytest.approx(2.0)


@settings(max_examples=20, deadline=None)
@given(z=st.floats(0.05, 1.9))
def test_even_kernel_for_alpha2_zero(z):
    pair = make_pair(General(lam=1.1, mu=0.6j, alpha1=1.0, alpha2=0.0))
    k_plus, k_minus = kernel_values(pair.kernel, np.array([z, -z]))[0]
    assert k_plus == pytest.approx(k_minus, rel=1e-12)


# ---------------------------------------------------------------------------
# special cases


def test_case1_displays(case1_pair):
    z = 0.73
    expected = np.cos(np.pi * z / 4) / np.sin(np.pi * z / 2)
    assert kernel_values(case1_pair.kernel, z)[0] == pytest.approx(expected)
    assert case1_pair.nu == pytest.approx(-(3 * np.pi**2 / 16))
    y = np.linspace(-1, 1, 9)
    a = np.exp(1j * np.pi * y) + np.exp(-1j * np.pi * y) + 2.0
    np.testing.assert_allclose(case1_pair.op.a(y), a, atol=1e-14)


def test_case2_recovers_display(case2_pair):
    z = 0.6
    assert kernel_values(case2_pair.kernel, z)[0] == pytest.approx(1 / np.sinh(z))
    y = 0.3
    a0 = np.cosh(2 * y) - np.cosh(2.0)
    a0p = 2 * np.sinh(2 * y)
    assert case2_pair.op.a(y) == pytest.approx(a0)
    assert case2_pair.op.b(y) == pytest.approx(a0p + a0)
    assert case2_pair.op.c(y) == pytest.approx(a0p / 2 + a0)


def test_case3_display(case3_pair):
    z = 0.9
    assert kernel_values(case3_pair.kernel, z)[0] == pytest.approx(0.5 + 1 / z)
    y = np.linspace(-1, 1, 7)
    np.testing.assert_allclose(case3_pair.op.a(y), y**2 - 1, atol=1e-15)
    np.testing.assert_allclose(case3_pair.op.b(y), 2 * y, atol=1e-15)
    np.testing.assert_allclose(case3_pair.op.c(y), 0.0, atol=1e-15)


def test_case4_display(case4_pair):
    z = -1.3
    assert kernel_values(case4_pair.kernel, z)[0] == pytest.approx(1 / z)
    y = np.linspace(-1, 1, 7)
    np.testing.assert_allclose(case4_pair.op.a(y), y**2 - 1, atol=1e-15)
    np.testing.assert_allclose(case4_pair.op.b(y), 2 * y, atol=1e-15)


def test_case3_validation():
    with pytest.raises(ZeroDivisionError):
        make_pair(Case3(beta=0.0, p=(1.0, 0.0, 0.0)))
    with pytest.raises(InvalidPolynomialError):
        make_pair(Case3(beta=1.0, p=(1.0, 0.5, 0.0)))
    with pytest.raises(InvalidPolynomialError):
        make_pair(Case4(beta=1.0, p=(1.0, 0.0, 0.0, 2.0)))


def test_every_special_pair_satisfies_r1():
    pairs = [
        make_pair(Case1(m=1, alpha=0.3 + 0.2j, beta=1.1)),
        make_pair(Case2(lam=1.0 + 0.8j, alpha=0.5j, beta=0.7)),
        make_pair(Case3(beta=0.8 - 0.3j, p=(1.0, 0.0, 0.4))),
        make_pair(Case4(beta=0.7, p=(0.2, -0.5, 1.1))),
    ]
    for pair in pairs:
        rep = residual_R1(pair)
        assert rep.max_abs <= 1e-9 * rep.scale
        assert pair.op.boundary_residual() < 1e-12


def test_recovery_clauses_pointwise():
    # specializing each item's extra parameters reproduces the general
    # family's coefficients up to one overall operator scale
    y = np.linspace(-0.9, 0.9, 7)

    c2 = make_pair(Case2(lam=1.3, alpha=1.0, beta=0.0))
    gen = make_pair(General(lam=1.3, mu=0.0, alpha1=0.0, alpha2=1.0))
    scale = 1.3**2
    for f, g in ((c2.op.a, gen.op.a), (c2.op.b, gen.op.b), (c2.op.c, gen.op.c)):
        np.testing.assert_allclose(
            np.asarray(f(y)), scale * np.asarray(g(y)), atol=1e-12
        )

    c3 = make_pair(Case3(beta=2.0, p=(1.0, 0.0, 0.0)))
    gen0 = make_pair(General(lam=0.0, mu=0.0, alpha1=1 / 4, alpha2=0.5))
    for f, g in ((c3.op.a, gen0.op.a), (c3.op.b, gen0.op.b), (c3.op.c, gen0.op.c)):
        np.testing.assert_allclose(np.asarray(f(y)), 2 * np.asarray(g(y)), atol=1e-12)
    z = 0.8
    assert kernel_values(c3.kernel, z)[0] == pytest.approx(kernel_values(gen0.kernel, z)[0])


# ---------------------------------------------------------------------------
# admissibility and triviality


def test_admissibility_examples():
    assert check_admissibility(General(lam=1.5j, mu=0.7, alpha1=1, alpha2=1)).ok
    ok2 = check_admissibility(
        General(lam=1.2j * np.pi, mu=0.9j * np.pi, alpha1=0, alpha2=1)
    )
    assert ok2.ok
    bad = check_admissibility(General(lam=1.2j * np.pi, mu=0.3, alpha1=1, alpha2=1))
    assert not bad.ok
    assert bad.reason == "non-removable singularity inside [-2,2]"


def test_triviality_rules():
    assert classify_trivial(General(lam=2.0, mu=1.0, alpha1=1, alpha2=0))
    # mu = 2*lambda: sinh(2z)/sinh(z/2) is a finite sum of exponentials
    assert classify_trivial(General(lam=1.0, mu=2.0, alpha1=1, alpha2=0))
    assert classify_trivial(General(lam=0.0, mu=0.0, alpha1=1, alpha2=0))
    assert not classify_trivial(General(lam=1.0, mu=0.9, alpha1=1, alpha2=0))
    assert not classify_trivial(General(lam=0.0, mu=2.0, alpha1=1, alpha2=0))
    assert not classify_trivial(General(lam=1.0, mu=2.0, alpha1=1, alpha2=1))
    assert not classify_trivial(Case4(beta=0.0, p=(1, 0, 0)))


# ---------------------------------------------------------------------------
# gauge transform


def test_gauge_identity(analytic_pair):
    same = gauge_transform(analytic_pair, tau=0.0, scale=1.0, shift=0.0)
    y = np.linspace(-1, 1, 5)
    np.testing.assert_allclose(same.op.c(y), analytic_pair.op.c(y), atol=1e-15)
    (k_same,) = kernel_values(same.kernel, 0.7)
    assert k_same == pytest.approx(kernel_values(analytic_pair.kernel, 0.7)[0])


def test_gauge_constant_shift(analytic_pair):
    shifted = gauge_transform(analytic_pair, shift=5.0)
    y = 0.42
    assert shifted.op.c(y) - analytic_pair.op.c(y) == pytest.approx(5.0)
    before = residual_R1(analytic_pair)
    after = residual_R1(shifted)
    assert (before.max_abs <= 1e-9 * before.scale) == (after.max_abs <= 1e-9 * after.scale)


def test_gauge_exponential_preserves_r1():
    pair = make_pair(General(lam=1.0, mu=2.0, alpha1=1.0, alpha2=0.0))
    out = gauge_transform(pair, tau=0.3)
    rep = residual_R1(out)
    assert rep.max_abs <= 1e-9 * rep.scale
    (k_out,) = kernel_values(out.kernel, 0.5)
    assert k_out == pytest.approx(kernel_values(pair.kernel, 0.5)[0] * np.exp(0.15))
    assert out.nu is None


def test_gauge_on_singular_pair(case4_pair):
    out = gauge_transform(case4_pair, tau=-0.2, scale=2.0)
    rep = residual_R1(out)
    assert rep.max_abs <= 1e-9 * rep.scale
    assert out.kernel.series[0] == pytest.approx(2.0)  # residue scaled
    assert out.kernel.series[1] == pytest.approx(-0.4)  # tau*residue


# ---------------------------------------------------------------------------
# JSON wire format


def test_params_json_roundtrip():
    cases = [
        General(lam=1 + 2j, mu=-0.5j, alpha1=1.0, alpha2=0.25j),
        Case1(m=3, alpha=1.0, beta=-2j),
        Case2(lam=2.0, alpha=1.0, beta=0.5),
        Case3(beta=2.0, p=(1.0, 0.0, 0.5j)),
        Case4(beta=0.0, p=(1.0, 0.0, 0.0)),
    ]
    for params in cases:
        obj = params_to_json(params)
        assert params_from_json(obj) == params


complex_box = st.builds(
    complex,
    st.floats(-2.5, 2.5, allow_nan=False),
    st.floats(-2.5, 2.5, allow_nan=False),
)


@settings(max_examples=20, deadline=None)
@given(lam=complex_box, mu=complex_box, a1=complex_box, a2=complex_box)
def test_random_admissible_pairs_commute(lam, mu, a1, a2):
    from hypothesis import assume

    params = General(lam=lam, mu=mu, alpha1=a1, alpha2=a2)
    assume(abs(a1) + abs(a2) > 1e-3)
    assume(check_admissibility(params).ok)
    assume(not classify_trivial(params))
    pair = make_pair(params)
    assert pair.op.boundary_residual() < 1e-12
    rep = residual_R1(pair, ny=11, nz=11)
    assert rep.max_abs <= 1e-9 * max(rep.scale, 1e-30)


@pytest.mark.parametrize(
    "lam, mu, a1, a2",
    [
        (1e-5j, 0j, 0j, 1j),
        (6.1e-5j, 0j, 0j, 1j),
        (0.0039, 0j, 0j, 1j),
        (1e-5, 0j, 1.0, 0j),
        (2e-6, 1e-5j, 0.3, 1.0),
        (1e-3j, 0.5, 1.0, 1j),
    ],
)
def test_small_rate_pairs_commute(lam, mu, a1, a2):
    # exponential forms of (cosh(lam y) - cosh lam)/lam^2 and sinh(mu z)/mu
    # lose rounding/|rate|^2 here; the boundary and R1 bounds are those of
    # test_random_admissible_pairs_commute
    pair = make_pair(General(lam=lam, mu=mu, alpha1=a1, alpha2=a2))
    assert pair.op.boundary_residual() < 1e-12
    rep = residual_R1(pair, ny=11, nz=11)
    assert rep.max_abs <= 1e-9 * max(rep.scale, 1e-30)


@pytest.mark.parametrize("rate", [0.1, 0.1j, 0.2, 0.2j])
def test_small_rate_series_continuous_at_switch(rate):
    # just below the switch the Taylor forms, at it the exponential forms
    below = make_pair(General(lam=rate * (1 - 1e-12), mu=rate / 2, alpha1=1.0, alpha2=0.5))
    at = make_pair(General(lam=rate, mu=rate / 2 * (1 + 1e-12), alpha1=1.0, alpha2=0.5))
    y = np.linspace(-1, 1, 9)
    np.testing.assert_allclose(below.op.a(y), at.op.a(y), rtol=0, atol=1e-12)
    z = np.array([-1.9, -0.7, 0.3, 1.2, 2.0])
    (k_below,), (k_at,) = kernel_values(below.kernel, z), kernel_values(at.kernel, z)
    np.testing.assert_allclose(k_below, k_at, rtol=1e-11)


@settings(max_examples=15, deadline=None)
@given(
    tau=st.floats(-0.5, 0.5, allow_nan=False),
    scale=st.floats(0.2, 3.0, allow_nan=False),
    shift=st.floats(-2.0, 2.0, allow_nan=False),
)
def test_gauge_preserves_r1_verdict(tau, scale, shift):
    pair = make_pair(General(lam=1.0, mu=0.7j, alpha1=1.0, alpha2=0.3))
    out = gauge_transform(pair, tau=tau, scale=scale, shift=shift)
    rep = residual_R1(out, ny=11, nz=11)
    assert rep.max_abs <= 1e-9 * max(rep.scale, 1e-30)


def test_params_json_shape():
    obj = params_to_json(General(lam=1 + 2j, mu=0.0, alpha1=1.0, alpha2=0.0))
    assert obj["variant"] == "general"
    assert obj["lambda"] == [1.0, 2.0]
    assert "m" not in obj and "p" not in obj
