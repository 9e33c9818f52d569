import json
import math
from collections import Counter

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
    CommutantError,
    DegenerateError,
    ExpPoly,
    General,
    InvalidPolynomialError,
    PoleError,
    classify_trivial,
    cli,
    families,
    gauge_transform,
    kernel_values,
    make_pair,
    params_from_json,
    params_to_json,
    residual_R1,
)
from conftest import refusal_reason


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
    with pytest.raises(AdmissibilityError):
        make_pair(Case3(beta=0.0, p=(1.0, 0.0, 0.0)))
    with pytest.raises(InvalidPolynomialError):
        make_pair(Case3(beta=1.0, p=(1.0, 0.5, 0.0)))
    with pytest.raises(InvalidPolynomialError):
        make_pair(Case4(beta=1.0, p=(1.0, 0.0, 0.0, 2.0)))


@pytest.mark.parametrize(
    "params",
    [Case2(lam=1.0, alpha=0.0, beta=1.0), Case4(beta=1.0, p=(0.0, 0.0, 0.0))],
    ids=["case2-alpha0", "case4-p0"],
)
def test_first_order_operators_still_build(params):
    # a = 0 but b or c is not: the zero-operator refusal leaves these alone
    pair = make_pair(params)
    assert not pair.op.a.terms and (pair.op.b.terms or pair.op.c.terms)
    assert refusal_reason(params) is None


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


# 1e-6 y in a triple, or 1e-6 z in a kernel numerator
_PERTURBATION = ExpPoly.polynomial((0.0, 1e-6))
_SPECIAL = {
    "case1": Case1(m=1, alpha=0.3 + 0.2j, beta=1.1),
    "case2": Case2(lam=1.0 + 0.8j, alpha=0.5j, beta=0.7),
    # below 2 SERIES_RATE case2's kernel and a are built from the general
    # family's Taylor forms
    "case2-small": Case2(lam=0.05, alpha=0.5j, beta=0.7),
    "case2-tiny": Case2(lam=1e-5j, alpha=0.5j, beta=0.7),
    "case3": Case3(beta=0.8 - 0.3j, p=(1.0, 0.0, 0.4)),
    "case4": Case4(beta=0.7, p=(0.2, -0.5, 1.1)),
}


@pytest.mark.parametrize("what", "abc")
@pytest.mark.parametrize("key", sorted(_SPECIAL))
def test_recovery_check_catches_a_perturbed_triple(monkeypatch, key, what):
    # 1e-6 y on one of a, b, c is 1e4 times the check's relative tolerance
    case = key.split("-")[0]
    builder = f"_{case}_triple"
    original = getattr(families, builder)

    def perturbed(*args):
        triple = list(original(*args))
        triple["abc".index(what)] += _PERTURBATION
        return tuple(triple)

    monkeypatch.setattr(families, builder, perturbed)
    with pytest.raises(AssertionError, match=f"recovery check failed for {case} {what}$"):
        make_pair(_SPECIAL[key])


def test_recovery_check_catches_a_perturbed_case1_kernel(monkeypatch):
    original = families._case1_kernel

    def perturbed(m):
        num, den = original(m)
        return num + _PERTURBATION, den

    monkeypatch.setattr(families, "_case1_kernel", perturbed)
    with pytest.raises(AssertionError, match="recovery check failed for case1 kernel"):
        make_pair(_SPECIAL["case1"])


@pytest.mark.parametrize("key", ["case2-small", "case2-tiny"])
@pytest.mark.parametrize("what", ["a", "kernel"])
def test_case2_recovery_catches_a_perturbed_general_family(monkeypatch, key, what):
    # where case2 takes the general family's own forms, a fault in those
    # forms moves both sides of the comparison with the general family; its
    # closed form, evaluated without cancellation, still tells them apart.
    # 1e-6 z^3 in sinh(rate z)/rate is not a multiple of it
    if what == "a":
        original = families._general_forms

        def perturbed(*args):
            num, den, (a, b, c), nu = original(*args)
            triple = (a + _PERTURBATION, b + _PERTURBATION.derivative(), c + nu * _PERTURBATION)
            return num, den, triple, nu

        monkeypatch.setattr(families, "_general_forms", perturbed)
    else:
        original = families._sinh_over_rate

        def perturbed(rate, scale=1.0):
            return original(rate, scale) + ExpPoly.polynomial((0.0, 0.0, 0.0, 1e-6 * scale))

        monkeypatch.setattr(families, "_sinh_over_rate", perturbed)
    with pytest.raises(AssertionError, match="recovery check failed for case2"):
        make_pair(_SPECIAL[key])


_ONE_FORM = {
    "general-analytic": lambda lam: General(lam=lam, mu=1.1 - 0.4j, alpha1=0.6 + 0.2j, alpha2=0.0),
    "general-pole": lambda lam: General(lam=lam, mu=1.1 - 0.4j, alpha1=0.6 + 0.2j, alpha2=-0.5 + 0.3j),
    "case2": lambda lam: Case2(lam=lam, alpha=0.7, beta=0.3j),
}


@pytest.mark.parametrize("lam", [0.05, 0.11, 0.15, 0.199, 0.201, 0.5])
@pytest.mark.parametrize("variant", sorted(_ONE_FORM))
def test_kernel_denominator_and_a_share_one_form(variant, lam):
    # one test on |lambda/2| builds D = sinh(lambda z/2)/(lambda/2) and
    # a = (cosh(lambda y) - cosh lambda)/lambda^2 both as Taylor polynomials
    # (rate-0 terms only) or both as exponential sums: a pair built half in
    # each form commutes pointwise but not term by term
    pair = make_pair(_ONE_FORM[variant](lam))
    taylor_form = abs(lam / 2) < families.SERIES_RATE
    for f in (pair.kernel.denominator, pair.op.a):
        assert all(rate == 0 for rate, _ in f.terms) == taylor_form


@pytest.mark.parametrize("m", [1000, 10**5])
def test_case1_recovery_holds_for_large_m(m):
    # case1's c = nu*a carries a's rounding times |nu| ~ m^2, so its c is
    # compared relative to max(1, |nu|)
    pair = make_pair(Case1(m=m, alpha=0.3 + 0.2j, beta=1.1))
    assert pair.nu == pytest.approx((np.pi**2 / 4) * ((2 * m + 1) ** 2 / 4 - 1))


@pytest.mark.parametrize("lam", [1.1e-6, 1e-5, 1e-3, 1e-3j, 0.05])
def test_small_rate_case2_builds_and_verifies(tmp_path, lam):
    # below SERIES_RATE case2 takes the general family's Taylor forms: the
    # exponential forms of cosh(lam y) - cosh(lam) and sinh(lam z/2) cancel.
    # With a0 alone in Taylor form, lam = 1.1e-6 fails the kernel comparison
    pair = make_pair(Case2(lam=lam, alpha=0.7, beta=0.3j))
    rep = residual_R1(pair)
    assert rep.max_abs <= 1e-9 * rep.scale
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": params_to_json(pair.params)}))
    assert cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0


# ---------------------------------------------------------------------------
# admissibility and triviality


def test_admissibility_examples():
    assert refusal_reason(General(lam=1.5j, mu=0.7, alpha1=1, alpha2=1)) is None
    assert refusal_reason(General(lam=1.2j * np.pi, mu=0.9j * np.pi, alpha1=0, alpha2=1)) is None
    bad = refusal_reason(General(lam=1.2j * np.pi, mu=0.3, alpha1=1, alpha2=1))
    assert bad == "non-removable singularity inside [-2,2]"


def _outcome(params):
    """("built", classify_trivial) or (refusal class, reason) of make_pair."""
    try:
        make_pair(params)
    except CommutantError as exc:
        return type(exc).__name__, str(exc)
    return "built", classify_trivial(params)


_POLE = ("AdmissibilityError", "non-removable singularity inside [-2,2]")
_ZERO_KERNEL = ("DegenerateError", "the parameters give the zero kernel")
_ZERO_OPERATOR = ("DegenerateError", "the parameters give the zero operator")


def _parametric_pole_rule(params) -> bool:
    """Reference for the parametric pole rule that build_kernel's zero scan
    replaces, on imaginary lambda outside pi*i*Z: case2 refused |lambda| >=
    pi, the general family |lambda| >= pi unless alpha1 = 0 and mu is an odd
    quarter multiple of lambda with |lambda| < 2 pi."""
    s = abs(params.lam.imag)
    if isinstance(params, Case2):
        return s >= math.pi - 1e-12
    r = 4.0 * params.mu / params.lam
    n = round(r.real)
    odd_quarter = params.alpha1 == 0 and abs(r.imag) <= 1e-9 and abs(r.real - n) < 1e-9 and n % 2 != 0
    return s >= math.pi and not (s < 2 * math.pi and odd_quarter)


# imaginary lambda up to 40 pi i, three of them in the pi <= |lambda| < 2 pi
# window, none in pi*i*Z (left to case1 by policy)
_IMAGINARY_LAMBDA = [1j * s for s in np.linspace(0.1, 39.9 * np.pi, 23)]
_IMAGINARY_LAMBDA += [1.2j * np.pi, 1.5j * np.pi, 1.9j * np.pi]
_ALPHAS = ((1.0, 0.0), (0.0, 1.0), (0.0, 0.0), (1.0, 1.0), (0.3 + 0.2j, 0.0))


def test_case2_outcomes_without_the_parametric_pole_rule():
    # build_kernel refuses every case2 lambda the rule refused, with the
    # rule's reason, and builds every other; a zero operator (alpha = beta
    # = 0) is now refused as that, whatever lambda
    lams = [1j * s for s in np.linspace(0.05, 40 * np.pi, 200)]
    for lam in lams:
        for alpha, beta in ((1.0, 0.0), (0.5j, 0.7), (0.0, 1.0)):
            params = Case2(lam=lam, alpha=alpha, beta=beta)
            want = _POLE if _parametric_pole_rule(params) else ("built", False)
            assert _outcome(params) == want, params
        assert _outcome(Case2(lam=lam, alpha=0.0, beta=0.0)) == _ZERO_OPERATOR


def test_general_outcomes_without_the_parametric_pole_rule():
    # a set the rule refused is refused for a pole of its kernel, or has an
    # entire kernel (alpha2 = 0, mu in (lambda/2)Z), or a zero one; a set it
    # passed builds unless its kernel is zero
    seen = Counter()
    for lam in _IMAGINARY_LAMBDA:
        for mu in (*(lam * np.array([0.5, 1, 1.5, -1, 0.25, 0.75, 1.25])), 0.3, 0.9j * np.pi, 1 + 1j):
            for alpha1, alpha2 in _ALPHAS:
                params = General(lam=lam, mu=complex(mu), alpha1=alpha1, alpha2=alpha2)
                got = _outcome(params)
                refused = _parametric_pole_rule(params)
                if alpha1 == alpha2 == 0:
                    allowed = {_ZERO_KERNEL}
                elif refused:
                    allowed = {_POLE, ("built", True)}
                else:
                    allowed = {("built", True), ("built", False)}
                assert got in allowed, (params, got)
                seen[refused, got] += 1
    # each kind of outcome occurs
    assert seen[True, _POLE] and seen[True, ("built", True)] and seen[True, _ZERO_KERNEL]
    assert seen[False, ("built", True)] and seen[False, ("built", False)]


@pytest.mark.parametrize("lam", [10j, 1e4j, 1e6j])
def test_case2_pole_refused_at_the_nearest_zero(monkeypatch, lam):
    # build_kernel reads N's Taylor data at the zero of sinh(lambda z/2)
    # nearest 0, finds it uncancelled and stops: one read at any lambda
    reads = []
    taylor = ExpPoly.taylor

    def spy(self, z0, nterms):
        if z0 != 0:
            reads.append(z0)
        return taylor(self, z0, nterms)

    monkeypatch.setattr(ExpPoly, "taylor", spy)
    with pytest.raises(AdmissibilityError, match=r"non-removable singularity inside \[-2,2\]"):
        make_pair(Case2(lam=lam, alpha=1.0, beta=0.0))
    assert reads == [pytest.approx(2 * math.pi / abs(lam), rel=1e-15)]


@pytest.mark.parametrize("lam", [1 + 2000j, 1 + 3200j])
def test_case2_with_fast_complex_lambda_builds(tmp_path, lam):
    # c = nu a with |nu| = |lambda|^2/4 ~ 2.6e6: the recovery check holds c
    # to 1e-10 max(1, |nu|) of |a|, so correct pairs pass it
    pair = make_pair(Case2(lam=lam, alpha=1.0, beta=0.0))
    assert pair.kernel.singular and not pair.kernel.removable_zeros
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": params_to_json(pair.params)}))
    assert cli.main(["pair", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    assert json.loads((tmp_path / "report.json").read_text())["result"]["admissible"]


@pytest.mark.parametrize("lam", [1.0, 1 + 3200j])
def test_case2_recovery_holds_c_to_its_scale(monkeypatch, lam):
    # a perturbation of c by 3e-10 of the size it is held to,
    # max(1, |nu|) |a|, fails the check; one of 5e-11 does not
    original = families._case2_triple
    weight = max(1.0, abs(lam**2 / 4.0))

    def perturbed(eps):
        def triple(*args):
            a, b, c = original(*args)
            return a, b, c + (eps * weight) * a

        return triple

    params = Case2(lam=lam, alpha=1.0, beta=0.0)
    monkeypatch.setattr(families, "_case2_triple", perturbed(3e-10))
    with pytest.raises(AssertionError, match="recovery check failed for case2 c$"):
        make_pair(params)
    monkeypatch.setattr(families, "_case2_triple", perturbed(5e-11))
    make_pair(params)


def test_entire_kernel_at_wide_lambda_passes_certification(tmp_path):
    # lambda = 1.2 pi i, mu = lambda/2: sinh(mu z)/sinh(lambda z/2) has only
    # removable zeros in [-2, 2]; certify's commands pass it at n = 64
    params = General(lam=1.2j * np.pi, mu=0.6j * np.pi, alpha1=1.0, alpha2=0.0)
    assert classify_trivial(params)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": params_to_json(params), "n": 64, "m": 8}))
    for command in ("pair", "verify", "normality", "commutator", "spectrum"):
        out = str(tmp_path / command)
        assert cli.main([command, "--config", str(cfg), "--out", out, "--quiet"]) == 0, command


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
    assume(refusal_reason(params) is None)
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
