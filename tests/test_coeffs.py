import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from commutant_lab.coeffs import ExpPoly


def fd2(f, y, h=1e-5):
    return (f(y + h) - f(y - h)) / (2 * h)


def test_polynomial_eval_and_derivative():
    p = ExpPoly.polynomial((1.0, -2.0, 3.0))  # 1 - 2y + 3y^2
    assert p(0.5) == pytest.approx(1 - 1 + 0.75)
    assert p(0.5, order=1) == pytest.approx(-2 + 3.0)
    assert p(0.5, order=2) == pytest.approx(6.0)
    assert p(0.5, order=3) == 0


def test_exponential_derivatives_match_closed_form():
    rate = 0.7 - 1.3j
    f = ExpPoly.exponential(rate, (2.0, 1.0))  # (2 + y) e^{ry}
    y = 0.31
    expected = rate * (2 + y) * np.exp(rate * y) + np.exp(rate * y)
    assert f(y, order=1) == pytest.approx(expected)
    d = f.derivative()
    assert d(y) == pytest.approx(expected)


def test_cosh_sinh_helpers():
    lam = 1.4 + 0.2j
    c = ExpPoly.cosh(lam)
    s = ExpPoly.sinh(lam)
    y = -0.4
    assert c(y) == pytest.approx(np.cosh(lam * y))
    assert s(y) == pytest.approx(np.sinh(lam * y))
    assert c(y, order=1) == pytest.approx(lam * np.sinh(lam * y))
    # degenerate rates
    assert ExpPoly.cosh(0.0, 3.0)(y) == pytest.approx(3.0)
    assert ExpPoly.sinh(0.0)(y) == 0


def test_conjugate_on_real_axis():
    f = ExpPoly.exponential(1j * 2.0, (1.0 + 1j,))
    g = f.conjugate()
    y = 0.37
    assert g(y) == pytest.approx(np.conjugate(f(y)))
    assert g(y, order=1) == pytest.approx(np.conjugate(f(y, order=1)))


def test_exp_shift_multiplies_by_exponential():
    f = ExpPoly.polynomial((1.0, 2.0))
    g = f.exp_shift(0.5j)
    y = np.linspace(-1, 1, 7)
    np.testing.assert_allclose(g(y), f(y) * np.exp(0.5j * y), rtol=1e-14)


def test_taylor_coefficients():
    f = ExpPoly.exponential(2.0)  # e^{2y}
    t = f.taylor(0.0, 5)
    np.testing.assert_allclose(t, [2.0**n / math.factorial(n) for n in range(5)])


# complex rates including rate 0; polynomial degrees 0..3 and 34, so both
# below and above every nterms tested
_HIGH_DEGREE = tuple((-0.4 + 0.3j) ** i / math.factorial(i) for i in range(35))
ORACLE_F = (
    ExpPoly.exponential(0.7 - 1.3j, (1.0, -0.5, 0.25j))
    + ExpPoly.polynomial((0.3j, 0.0, 1.1, 2.0))
    + ExpPoly.exponential(-1.1j, _HIGH_DEGREE)
    + ExpPoly.exponential(-0.6 + 0.2j, (0.8,))
)


def _mp_closed_form(f):
    mpmath = pytest.importorskip("mpmath")

    def value(y):
        return mpmath.fsum(
            mpmath.polyval([mpmath.mpc(c) for c in reversed(poly)], y) * mpmath.exp(mpmath.mpc(rate) * y)
            for rate, poly in f.terms
        )

    return mpmath, value


@pytest.mark.parametrize("z0", [0.0, 0.7, 5.0 / 3.0, -2.0])
@pytest.mark.parametrize("nterms", [1, 5, 18, 30])
def test_taylor_matches_mpmath(z0, nterms):
    mpmath, value = _mp_closed_form(ORACLE_F)
    with mpmath.workdps(40):
        want = mpmath.taylor(value, mpmath.mpf(z0), nterms - 1)
        got = ORACLE_F.taylor(z0, nterms)
        assert len(got) == nterms
        for k, (g, w) in enumerate(zip(got, want)):
            assert abs(mpmath.mpc(g) - w) <= 1e-13 * abs(w), (k, g, complex(w))


def test_taylor_makes_no_derivative_calls(monkeypatch):
    expected = ORACLE_F.taylor(0.7, 18)

    def refuse(self, y, order=0):
        raise AssertionError("taylor evaluated the function")

    monkeypatch.setattr(ExpPoly, "__call__", refuse)
    assert ORACLE_F.taylor(0.7, 18) == expected


# a tuple of orders returns one array per order, in the order given
@pytest.mark.parametrize("order", [*range(7), (0, 3, 6), (2, 0)])
def test_derivatives_match_mpmath(order):
    mpmath, value = _mp_closed_form(ORACLE_F)
    y = np.array([-0.9, -0.2, 0.35, 1.0])
    got = ORACLE_F(y, order=order)
    if isinstance(order, int):
        order, got = (order,), (got,)
    assert len(got) == len(order)
    with mpmath.workdps(40):
        for m, vals in zip(order, got):
            for g, yy in zip(vals, y):
                w = mpmath.diff(value, mpmath.mpf(float(yy)), m)
                assert abs(mpmath.mpc(g) - w) <= 1e-13 * abs(w), (m, yy, g, complex(w))


def test_scalar_tuple_orders_give_complex():
    y = 0.35
    got = ORACLE_F(y, order=(1, 0))
    assert isinstance(got, tuple) and all(type(v) is complex for v in got)
    assert got == (ORACLE_F(y, order=1), ORACLE_F(y))
    assert type(ORACLE_F(y, order=np.int64(2))) is complex


@settings(max_examples=25, deadline=None)
@given(
    rate=st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    y=st.floats(-1.0, 1.0),
)
def test_derivative_matches_finite_differences(rate, y):
    f = ExpPoly.exponential(rate, (0.3, -1.0, 0.5)) + ExpPoly.polynomial((1.0, 2.0))
    num = fd2(lambda t: f(t), y)
    assert abs(f(y, order=1) - num) < 1e-7 * (1 + abs(num))


def test_at_differences_matches_pointwise():
    x = np.linspace(-1.0, 1.0, 7)
    y = np.array([-0.9, -0.2, 0.0, 0.45, 1.0])
    diff = np.subtract.outer(x, y)
    for f, rtol in (
        # one term of each kind: polynomial times exponential (Horner pass),
        # constant times exponential (outer product only), plain polynomial
        (
            ExpPoly.exponential(0.5 + 2.0j, (1.0, 2.0, -3.0j))
            + ExpPoly.exponential(-1.5, (3.0,))
            + ExpPoly.polynomial((0.5, -1.0, 0.25)),
            1e-14,
        ),
        (ExpPoly.polynomial((0.5, -1.0, 0.25, 2.0)), 1e-14),
        # |r z| ~ 100: __call__'s exp(r z) carries the rounding of r*z
        (ExpPoly.exponential(20.0 - 45.0j, (1.0, 0.5)), 1e-13),
    ):
        got = f.at_differences(x, y, order=(0, 1, 2))
        assert isinstance(got, tuple) and len(got) == 3
        for m, (g, ref) in enumerate(zip(got, f(diff, order=(0, 1, 2)))):
            assert g.shape == (7, 5)
            atol = 1e-14 * np.max(np.abs(ref))
            np.testing.assert_allclose(g, ref, rtol=rtol, atol=atol, err_msg=f"{f} order {m}")
        # an int order is the 1-tuple case
        np.testing.assert_array_equal(f.at_differences(x, y, order=1), got[1])


@pytest.mark.parametrize("rate", [60j, 30.0, 20.0 - 45j])
def test_at_differences_keeps_fast_exponentials_exact(rate):
    # e^{r x_i} e^{-r y_j} stays within a few ulps of e^{r(x_i - y_j)} only if
    # the rounding of r*x is compensated; otherwise it errs by ~|r x| eps
    mpmath = pytest.importorskip("mpmath")
    x = np.cos(np.linspace(0.0, np.pi, 33))  # full-length mantissas
    got = ExpPoly.exponential(rate).at_differences(x, x)
    with mpmath.workdps(40):
        r = mpmath.mpc(rate)
        ref = np.array([[complex(mpmath.exp(r * (mpmath.mpf(a) - mpmath.mpf(b)))) for b in x] for a in x])
    assert np.max(np.abs(got - ref) / np.abs(ref)) <= 4 * np.finfo(float).eps
