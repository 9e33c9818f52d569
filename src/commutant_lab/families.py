"""Construction of the classified commuting pairs (k, L).

The classified kernels all have the shape

    k(z) = lambda / sinh(lambda z / 2) * (alpha1 sinh(mu z)/mu + alpha2 cosh(mu z)),

with limits substituted when lambda or mu vanish (and Taylor polynomials
in place of the exponential forms when they are small), together with the
coefficient triple

    a(y) = (cosh(lambda y) - cosh lambda) / lambda^2,   b = a',
    c(y) = (lambda^2/4 - mu^2) a(y).

Four special parameter choices admit strictly larger commuting operators;
their parts reproduce the corresponding closed forms verbatim and assert,
at construction time, that the stated parameter specialisation collapses
them back onto the general family.  ``make_pair`` is the one constructor
of a pair, whatever the variant.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .coeffs import ExpPoly
from .errors import AdmissibilityError, DegenerateError, InvalidPolynomialError
from .kernels import KernelSpec, build_kernel

DEGENERACY_THRESHOLD = 1e-6
# Below this |rate| the quotients sinh(rate z)/rate and
# (cosh(rate y) - cosh rate)/rate^2 are built from their Taylor polynomials:
# the exponential forms cancel to within rounding/|rate|^2.
SERIES_RATE = 0.1


# ---------------------------------------------------------------------------
# parameter variants


@dataclass(frozen=True)
class General:
    lam: complex
    mu: complex
    alpha1: complex
    alpha2: complex


@dataclass(frozen=True)
class Case1:
    """alpha1 = 0, lambda = pi*i, mu = (2m+1)/4 * lambda.

    lambda = -pi*i produces the same pairs (swap alpha and beta, negate m+1),
    so only the m-parameterization is exposed.
    """

    m: int
    alpha: complex
    beta: complex


@dataclass(frozen=True)
class Case2:
    """alpha1 = mu = 0: k = 1/sinh(lambda z/2) with a two-parameter operator."""

    lam: complex
    alpha: complex
    beta: complex


@dataclass(frozen=True)
class Case3:
    """mu = lambda = 0, k = 1/beta + 1/z; p quadratic with p'(0) = 0."""

    beta: complex
    p: tuple[complex, complex, complex]


@dataclass(frozen=True)
class Case4:
    """mu = lambda = alpha1 = 0, k = 1/z; p an arbitrary quadratic."""

    beta: complex
    p: tuple[complex, complex, complex]


FamilyParams = Union[General, Case1, Case2, Case3, Case4]


@dataclass(frozen=True)
class DiffOp:
    """Second-order operator L u = a u'' + b u' + c u with analytic coefficients."""

    a: ExpPoly
    b: ExpPoly
    c: ExpPoly

    def boundary_residual(self) -> float:
        """max |a(+-1)| and |b(+-1) - a'(+-1)| over both endpoints."""
        vals = []
        for s in (-1.0, 1.0):
            vals.append(abs(self.a(s)))
            vals.append(abs(self.b(s) - self.a(s, order=1)))
        return max(vals)


@dataclass(frozen=True)
class CommutingPair:
    kernel: KernelSpec
    op: DiffOp
    params: FamilyParams
    nu: complex | None


@dataclass(frozen=True)
class Admissibility:
    ok: bool
    reason: str = ""


# ---------------------------------------------------------------------------
# admissibility and triviality


def _effective(value: complex) -> complex:
    return 0j if abs(value) < DEGENERACY_THRESHOLD else complex(value)


def _is_imaginary(lam: complex) -> bool:
    return abs(lam.real) <= 1e-12 * max(1.0, abs(lam))


def _odd_integer_ratio(mu: complex, lam: complex) -> bool:
    """True when 4*mu/lam is an odd integer (mu = lambda*(2m+1)/4)."""
    if lam == 0:
        return False
    r = 4.0 * mu / lam
    if abs(r.imag) > 1e-9:
        return False
    n = round(r.real)
    return abs(r.real - n) < 1e-9 and n % 2 != 0


def check_admissibility(params: FamilyParams) -> Admissibility:
    """Screen parameters whose kernel would be singular inside [-2,2]\\{0}.

    For purely imaginary lambda, the denominator sinh(lambda z/2) has real
    zeros at +-2*pi/|lambda|; these stay outside [-2,2] iff |lambda| < pi,
    or are cancelled by the numerator iff alpha1 = 0 and mu is an odd
    quarter multiple of lambda (the pi <= |lambda| < 2*pi window).
    """
    if isinstance(params, General):
        lam = _effective(params.lam)
        if lam == 0:
            return Admissibility(True)
        if not _is_imaginary(lam):
            return Admissibility(True)
        s = abs(lam.imag)
        k = round(s / math.pi)
        if k != 0 and abs(s - k * math.pi) < 1e-9:
            return Admissibility(
                False, "lambda in pi*i*Z excluded for the general family (use case1)"
            )
        if s < math.pi:
            return Admissibility(True)
        if s < 2 * math.pi and params.alpha1 == 0 and _odd_integer_ratio(params.mu, lam):
            return Admissibility(True)
        return Admissibility(False, "non-removable singularity inside [-2,2]")
    if isinstance(params, Case1):
        return Admissibility(True)
    if isinstance(params, Case2):
        lam = complex(params.lam)
        if abs(lam) < DEGENERACY_THRESHOLD:
            return Admissibility(False, "lambda = 0 degenerates 1/sinh(lambda z/2)")
        if _is_imaginary(lam) and abs(lam.imag) >= math.pi - 1e-12:
            return Admissibility(False, "non-removable singularity inside [-2,2]")
        return Admissibility(True)
    if isinstance(params, Case3):
        if params.beta == 0:
            return Admissibility(False, "case3 requires beta != 0")
        return Admissibility(True)
    if isinstance(params, Case4):
        return Admissibility(True)
    raise TypeError(f"unknown params variant: {params!r}")


def classify_trivial(params: FamilyParams) -> bool:
    """True iff the parameters force an exponential-polynomial kernel.

    With alpha2 = 0 the kernel lambda*alpha1*sinh(mu z)/(mu sinh(lambda z/2))
    collapses to a finite sum of exponentials exactly when sinh(lambda z/2)
    divides sinh(mu z), i.e. mu = l*lambda/2 for a nonzero integer l (the
    lambda = 2mu cancellation is l = 1); the joint limit lambda = mu = 0
    leaves the constant 2*alpha1.  Any alpha2 != 0 keeps a simple pole,
    which no exponential polynomial has.
    """
    if not isinstance(params, General):
        return False
    if params.alpha2 != 0:
        return False
    if params.alpha1 == 0:
        return False
    lam = _effective(params.lam)
    mu = _effective(params.mu)
    if lam == 0 and mu == 0:
        return True
    if lam == 0:
        return False
    r = 2.0 * mu / lam
    if abs(r.imag) > 1e-9:
        return False
    n = round(r.real)
    return n != 0 and abs(r.real - n) < 1e-9


# ---------------------------------------------------------------------------
# shared formula-level builders (no admissibility checks here)


def _taylor_tail(rate: complex, first: int, scale: complex = 1.0) -> list[complex]:
    """Coefficients of scale * sum_{n = first, first+2, ...} rate^(n-first) x^n / n!.

    Terms stop once they fall below rounding for |x| <= 2, so with
    |rate| < SERIES_RATE the polynomial is exact to rounding there.
    """
    coeffs = [0j] * first + [complex(scale / math.factorial(first))]
    n, term = first, coeffs[-1]
    while True:
        term *= rate * rate / ((n + 1) * (n + 2))
        n += 2
        if abs(term) * 2.0**n < 1e-18:
            return coeffs
        coeffs += [0j, term]


def _sinh_over_rate(rate: complex, scale: complex = 1.0) -> ExpPoly:
    """scale * sinh(rate z)/rate, equal to scale * z at rate 0."""
    if abs(rate) >= SERIES_RATE:
        return ExpPoly.sinh(rate, scale / rate)
    return ExpPoly.polynomial(_taylor_tail(rate, 1, scale))


def _general_kernel_parts(lam: complex, mu: complex, a1: complex, a2: complex):
    """Numerator/denominator of the general kernel, limits substituted."""
    lam = _effective(lam)
    mu = _effective(mu)
    bracket = _sinh_over_rate(mu, a1) + ExpPoly.cosh(mu, a2)
    if abs(lam / 2.0) < SERIES_RATE:
        # lambda/sinh(lambda z/2) = 2/(sinh(lambda z/2)/(lambda/2))
        num = 2.0 * bracket
        den = _sinh_over_rate(lam / 2.0)
    else:
        num = lam * bracket
        den = ExpPoly.sinh(lam / 2.0)
    return num, den


def _general_coeffs(lam: complex):
    """(a, b, c-factor-free a) for the general family; c = nu * a."""
    lam = _effective(lam)
    if abs(lam) < SERIES_RATE:
        # sum_{k>=1} lam^(2k-2) (y^(2k) - 1)/(2k)!; (y^2 - 1)/2 at lam = 0
        coeffs = _taylor_tail(lam, 2)
        coeffs[0] = 0j - sum(coeffs)
        a = ExpPoly.polynomial(coeffs)
    else:
        a = ExpPoly.cosh(lam, 1.0 / lam**2) + ExpPoly.constant(-cmath.cosh(lam) / lam**2)
    return a, a.derivative()


def _general_nu(lam: complex, mu: complex) -> complex:
    return _effective(lam) ** 2 / 4.0 - _effective(mu) ** 2


# ---------------------------------------------------------------------------
# constructors: each variant's parts function validates its parameters and
# returns (N, D, (a, b, c), nu); make_pair assembles the pair from them


def _general_parts(params: General):
    """The general family, taking limits for small lambda/mu."""
    if params.alpha1 == 0 and params.alpha2 == 0:
        raise DegenerateError("alpha1 = alpha2 = 0 gives the zero kernel")
    adm = check_admissibility(params)
    if not adm.ok:
        raise AdmissibilityError(adm.reason)
    num, den = _general_kernel_parts(params.lam, params.mu, params.alpha1, params.alpha2)
    a, b = _general_coeffs(params.lam)
    nu = _general_nu(params.lam, params.mu)
    return num, den, (a, b, nu * a), nu


def _case1_kernel(m: int):
    """cos((2m+1) pi z/4) / sin(pi z/2) as (N, D)."""
    return ExpPoly.cosh(1j * (2 * m + 1) * math.pi / 4.0), ExpPoly.sinh(1j * math.pi / 2.0, -1j)


def _case1_triple(m: int, alpha: complex, beta: complex):
    lam = 1j * math.pi
    a = (
        ExpPoly.exponential(lam, (alpha,))
        + ExpPoly.exponential(-lam, (beta,))
        + ExpPoly.constant(alpha + beta)  # -e^{+-i pi} = +1
    )
    nu = (math.pi**2 / 4.0) * ((2 * m + 1) ** 2 / 4.0 - 1.0)
    return a, a.derivative(), nu


def _case1_parts(params: Case1):
    num, den = _case1_kernel(params.m)
    a, b, nu = _case1_triple(params.m, params.alpha, params.beta)
    _assert_recovery_case1(params)
    return num, den, (a, b, nu * a), nu


def _case2_triple(lam: complex, alpha: complex, beta: complex):
    a0 = ExpPoly.cosh(lam) + ExpPoly.constant(-cmath.cosh(lam))
    a0p = a0.derivative()
    a = alpha * a0
    b = alpha * a0p + beta * a0
    c = (beta / 2.0) * a0p + (alpha * lam**2 / 4.0) * a0
    return a, b, c


def _case2_parts(params: Case2):
    adm = check_admissibility(params)
    if not adm.ok:
        if abs(params.lam) < DEGENERACY_THRESHOLD:
            raise DegenerateError(adm.reason)
        raise AdmissibilityError(adm.reason)
    if params.alpha == 0 and params.beta == 0:
        raise DegenerateError("alpha = beta = 0 gives the zero operator")
    abc = _case2_triple(params.lam, params.alpha, params.beta)
    nu = params.lam**2 / 4.0 if (params.beta == 0 and params.alpha != 0) else None
    _assert_recovery_case2(params)
    return ExpPoly.constant(1.0), ExpPoly.sinh(params.lam / 2.0), abc, nu


def _case34_a(p):
    return ExpPoly.polynomial(np.convolve((-1.0, 0.0, 1.0), p))  # (y^2-1) p(y)


def _case3_triple(beta: complex, p):
    a = _case34_a(p)
    pprime = (p[1], 2.0 * p[2])
    # b = a' + beta*y*p'(y) - beta*p''
    b = (
        a.derivative()
        + ExpPoly.polynomial((0.0,) + tuple(beta * c for c in pprime))
        + ExpPoly.constant(-beta * 2.0 * p[2])
    )
    c = ExpPoly.polynomial(tuple(beta * c_ for c_ in pprime))
    return a, b, c


def _case3_parts(params: Case3):
    if params.beta == 0:
        raise ZeroDivisionError("case3 kernel 1/beta + 1/z requires beta != 0")
    p = _normalize_p(params.p)
    if p[1] != 0:
        raise InvalidPolynomialError("case3 requires p'(0) = 0")
    abc = _case3_triple(params.beta, p)
    nu = 0j if p[2] == 0 else None
    _assert_recovery_case34(params)
    num = ExpPoly.polynomial((1.0, 1.0 / params.beta))  # 1 + z/beta
    return num, ExpPoly.polynomial((0.0, 1.0)), abc, nu


def _case4_triple(beta: complex, p):
    a = _case34_a(p)
    b = a.derivative() + ExpPoly.polynomial((-beta, 0.0, beta))  # + beta (y^2 - 1)
    c = ExpPoly.polynomial((0.0, p[1] + beta, 2.0 * p[2]))  # y p'(y) + beta y
    return a, b, c


def _case4_parts(params: Case4):
    p = _normalize_p(params.p)
    abc = _case4_triple(params.beta, p)
    nu = 0j if (p[1] == 0 and p[2] == 0 and params.beta == 0) else None
    _assert_recovery_case34(params)
    return ExpPoly.constant(1.0), ExpPoly.polynomial((0.0, 1.0)), abc, nu


def _normalize_p(p) -> tuple[complex, complex, complex]:
    coeffs = tuple(complex(v) for v in p)
    if len(coeffs) > 3 and any(c != 0 for c in coeffs[3:]):
        raise InvalidPolynomialError("p must have degree at most 2")
    coeffs = (coeffs + (0j, 0j, 0j))[:3]
    return coeffs


_PARTS = {
    General: _general_parts,
    Case1: _case1_parts,
    Case2: _case2_parts,
    Case3: _case3_parts,
    Case4: _case4_parts,
}


def make_pair(params: FamilyParams) -> CommutingPair:
    """Construct the pair of any variant: the general family or a special case."""
    parts = _PARTS.get(type(params))
    if parts is None:
        raise TypeError(f"unknown params variant: {params!r}")
    num, den, (a, b, c), nu = parts(params)
    return CommutingPair(
        kernel=build_kernel(num, den), op=DiffOp(a=a, b=b, c=c), params=params, nu=nu
    )


# ---------------------------------------------------------------------------
# recovery assertions: specialising each case reproduces the general family


_RECOVERY_Y = np.array([-0.83, -0.31, 0.17, 0.52, 0.94])
_RECOVERY_Z = np.array([-1.37, -0.42, 0.29, 0.88, 1.63])


def _assert_proportional(fvals, gvals, what: str) -> None:
    scale = max(np.max(np.abs(fvals)), 1e-30)
    j = int(np.argmax(np.abs(gvals)))
    if abs(gvals[j]) < 1e-14 * scale:
        if np.max(np.abs(fvals)) > 1e-12 * scale:
            raise AssertionError(f"recovery check failed for {what}")
        return
    factor = fvals[j] / gvals[j]
    if np.max(np.abs(fvals - factor * gvals)) > 1e-10 * scale:
        raise AssertionError(f"recovery check failed for {what}")


def _kernel_samples(num: ExpPoly, den: ExpPoly, z):
    return np.asarray(num(z)) / np.asarray(den(z))


def _assert_recovery_case1(params: Case1) -> None:
    m = params.m
    lam = 1j * math.pi
    mu = (2 * m + 1) / 4.0 * lam
    a_s, b_s, nu_s = _case1_triple(m, 1.0, 1.0)
    a_g, b_g = _general_coeffs(lam)
    _assert_proportional(a_s(_RECOVERY_Y), a_g(_RECOVERY_Y), "case1 a")
    if abs(nu_s - _general_nu(lam, mu)) > 1e-10 * max(1.0, abs(nu_s)):
        raise AssertionError("recovery check failed for case1 nu")
    num_s, den_s = _case1_kernel(m)
    num_g, den_g = _general_kernel_parts(lam, mu, 0.0, 1.0)
    _assert_proportional(
        _kernel_samples(num_s, den_s, _RECOVERY_Z),
        _kernel_samples(num_g, den_g, _RECOVERY_Z),
        "case1 kernel",
    )


def _assert_recovery_case2(params: Case2) -> None:
    lam = complex(params.lam)
    a_s, b_s, c_s = _case2_triple(lam, 1.0, 0.0)
    a_g, b_g = _general_coeffs(lam)
    c_g = _general_nu(lam, 0.0) * a_g
    y = _RECOVERY_Y
    scale = max(np.max(np.abs(a_s(y))), 1e-30)
    factor = lam**2  # a_s = lam^2 * a_g
    for f, g, what in ((a_s, a_g, "a"), (b_s, b_g, "b"), (c_s, c_g, "c")):
        if np.max(np.abs(np.asarray(f(y)) - factor * np.asarray(g(y)))) > 1e-10 * scale:
            raise AssertionError(f"recovery check failed for case2 {what}")
    num_g, den_g = _general_kernel_parts(lam, 0.0, 0.0, 1.0)
    ks = 1.0 / np.asarray(ExpPoly.sinh(lam / 2.0)(_RECOVERY_Z))
    _assert_proportional(ks, _kernel_samples(num_g, den_g, _RECOVERY_Z), "case2 kernel")


def _assert_recovery_case34(params: Case3 | Case4) -> None:
    if isinstance(params, Case3):
        a_s, b_s, c_s = _case3_triple(params.beta, (1.0, 0.0, 0.0))
        alpha1 = 1.0 / (2.0 * params.beta)
    else:
        a_s, b_s, c_s = _case4_triple(0.0, (1.0, 0.0, 0.0))
        alpha1 = 0.0
    a_g, b_g = _general_coeffs(0.0)
    c_g = ExpPoly.zero()
    y = _RECOVERY_Y
    scale = max(np.max(np.abs(a_s(y))), 1e-30)
    for f, g, what in ((a_s, a_g, "a"), (b_s, b_g, "b"), (c_s, c_g, "c")):
        if np.max(np.abs(np.asarray(f(y)) - 2.0 * np.asarray(g(y)))) > 1e-10 * scale:
            raise AssertionError(f"recovery check failed for {type(params).__name__} {what}")
    num_g, den_g = _general_kernel_parts(0.0, 0.0, alpha1, 0.5)
    z = _RECOVERY_Z
    if isinstance(params, Case3):
        ks = 1.0 / params.beta + 1.0 / z
    else:
        ks = 1.0 / z
    _assert_proportional(ks, _kernel_samples(num_g, den_g, z), "case3/4 kernel")


# ---------------------------------------------------------------------------
# gauge transform


def gauge_transform(
    pair: CommutingPair,
    tau: complex = 0.0,
    scale: complex = 1.0,
    shift: complex = 0.0,
) -> CommutingPair:
    """Conjugate the pair by multiplication with e^{tau y}.

    The kernel becomes scale * k(z) e^{tau z}; the operator keeps its
    leading coefficient while (b, c) map to (b - 2 tau a, c - tau b +
    tau^2 a + shift).  Commutation is preserved.
    """
    tau = complex(tau)
    scale = complex(scale)
    shift = complex(shift)
    spec = pair.kernel
    kernel = build_kernel(scale * spec.numerator.exp_shift(tau), spec.denominator)
    a, b, c = pair.op.a, pair.op.b, pair.op.c
    new_b = b + (-2.0 * tau) * a
    new_c = c + (-tau) * b + (tau * tau) * a + ExpPoly.constant(shift)
    nu = pair.nu if (tau == 0 and shift == 0) else None
    return CommutingPair(
        kernel=kernel,
        op=DiffOp(a=a, b=new_b, c=new_c),
        params=pair.params,
        nu=nu,
    )


# ---------------------------------------------------------------------------
# JSON wire format for FamilyParams


def _c2j(value: complex) -> list[float]:
    v = complex(value)
    return [v.real, v.imag]


def _j2c(value) -> complex:
    if not (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
        and all(math.isfinite(v) for v in value)
    ):
        raise ValueError(f"a complex value is a list [re, im] of two finite numbers, got {value!r}")
    return complex(value[0], value[1])


def params_to_json(params: FamilyParams) -> dict:
    if isinstance(params, General):
        return {
            "variant": "general",
            "lambda": _c2j(params.lam),
            "mu": _c2j(params.mu),
            "alpha1": _c2j(params.alpha1),
            "alpha2": _c2j(params.alpha2),
        }
    if isinstance(params, Case1):
        return {"variant": "case1", "m": params.m, "alpha": _c2j(params.alpha), "beta": _c2j(params.beta)}
    if isinstance(params, Case2):
        return {
            "variant": "case2",
            "lambda": _c2j(params.lam),
            "alpha": _c2j(params.alpha),
            "beta": _c2j(params.beta),
        }
    if isinstance(params, (Case3, Case4)):
        return {
            "variant": "case3" if isinstance(params, Case3) else "case4",
            "beta": _c2j(params.beta),
            "p": [_c2j(c) for c in params.p],
        }
    raise TypeError(f"unknown params variant: {params!r}")


def params_from_json(obj: dict) -> FamilyParams:
    if not isinstance(obj, dict):
        raise ValueError(f"params must be a JSON object, got {obj!r}")
    variant = obj.get("variant")
    if variant == "general":
        return General(
            lam=_j2c(obj["lambda"]),
            mu=_j2c(obj["mu"]),
            alpha1=_j2c(obj["alpha1"]),
            alpha2=_j2c(obj["alpha2"]),
        )
    if variant == "case1":
        m = obj["m"]
        if isinstance(m, bool) or not isinstance(m, int):
            raise ValueError(f"m must be an integer, got {m!r}")
        return Case1(m=m, alpha=_j2c(obj["alpha"]), beta=_j2c(obj["beta"]))
    if variant == "case2":
        return Case2(lam=_j2c(obj["lambda"]), alpha=_j2c(obj["alpha"]), beta=_j2c(obj["beta"]))
    if variant in ("case3", "case4"):
        p = tuple(_j2c(c) for c in obj["p"])
        cls = Case3 if variant == "case3" else Case4
        return cls(beta=_j2c(obj["beta"]), p=_normalize_p(p))
    raise ValueError(f"unknown variant {variant!r}")
