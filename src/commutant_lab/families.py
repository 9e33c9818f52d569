"""Construction of the classified commuting pairs (k, L).

The classified kernels all have the shape

    k(z) = lambda / sinh(lambda z / 2) * (alpha1 sinh(mu z)/mu + alpha2 cosh(mu z)),

with limits substituted when lambda or mu vanish (and Taylor polynomials
in place of the exponential forms when they are small: one test on
|lambda/2| decides D and a together, and |mu| decides N's sinh(mu z)/mu),
together with the coefficient triple

    a(y) = (cosh(lambda y) - cosh lambda) / lambda^2,   b = a',
    c(y) = (lambda^2/4 - mu^2) a(y).

Four special parameter choices admit strictly larger commuting operators;
their parts reproduce the corresponding closed forms (case2 small lambda
in the general family's Taylor forms) and assert, at construction time,
that the stated parameter specialisation collapses them back onto the
general family: the kernels are proportional, and (a, b, c) is one multiple
of the general (a, b, nu a).  ``make_pair`` is the one constructor of a
pair, whatever the variant, and the one judge of its parameters, each
refusal a ``CommutantError``: the variant's parts refuse lambda in pi*i*Z
in the general family (left to case1), lambda = 0 in case2 and beta = 0 or
p'(0) != 0 in case3, make_pair a zero kernel, a zero operator or a value
that overflows a double while it builds the pair, and ``build_kernel`` a
pole of the kernel inside [-2,2] other than 0, which it alone judges, from
N and D.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .coeffs import ExpPoly
from .errors import AdmissibilityError, DegenerateError, InvalidPolynomialError
from .kernels import KernelSpec, build_kernel

DEGENERACY_THRESHOLD = 1e-6
# Below this |rate| the quotients sinh(rate z)/rate and
# (cosh(rate y) - cosh rate)/rate^2 are built from their Taylor polynomials:
# the exponential forms cancel to within rounding/|rate|^2.  One test on
# |lambda/2| decides the general kernel's D and a together, and |mu|
# decides N's sinh(mu z)/mu.
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


FamilyParams = General | Case1 | Case2 | Case3 | Case4


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
            a, da = self.a(s, order=(0, 1))
            vals.append(abs(a))
            vals.append(abs(self.b(s) - da))
        return max(vals)


@dataclass(frozen=True)
class CommutingPair:
    kernel: KernelSpec
    op: DiffOp
    params: FamilyParams
    nu: complex | None


# ---------------------------------------------------------------------------
# triviality


def _effective(value: complex) -> complex:
    return 0j if abs(value) < DEGENERACY_THRESHOLD else complex(value)


def classify_trivial(params: FamilyParams) -> bool:
    """True iff the parameters force an exponential-polynomial kernel.

    With alpha2 = 0 the kernel lambda*alpha1*sinh(mu z)/(mu sinh(lambda z/2))
    collapses to a finite sum of exponentials exactly when sinh(lambda z/2)
    divides sinh(mu z), i.e. mu = l*lambda/2 for a nonzero integer l (the
    lambda = 2mu cancellation is l = 1); the joint limit lambda = mu = 0
    leaves the constant 2*alpha1.  Any alpha2 != 0 keeps a simple pole,
    which no exponential polynomial has.
    """
    if not isinstance(params, General) or params.alpha2 != 0 or params.alpha1 == 0:
        return False
    lam, mu = _effective(params.lam), _effective(params.mu)
    if lam == 0:
        return mu == 0
    r = 2.0 * mu / lam
    return abs(r.imag) <= 1e-9 and round(r.real) != 0 and abs(r.real - round(r.real)) < 1e-9


# ---------------------------------------------------------------------------
# shared formula-level builders (no admissibility checks here)


def _taylor_tail(rate: complex, first: int, scale: complex = 1.0) -> list[complex]:
    """Coefficients of scale * sum_{n = first, first+2, ...} rate^(n-first) x^n / n!.

    Terms stop once they fall below rounding for |x| <= 2, so the
    polynomial is exact to rounding where |rate x| < 2 SERIES_RATE.  One test
    on |lambda/2| decides D and a together, and |mu| decides N's
    sinh(mu z)/mu, so that covers sinh(rate z)/rate for |rate| < SERIES_RATE
    on |z| <= 2, and a for |lambda| < 2 SERIES_RATE on |y| <= 1.
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


def _general_forms(lam: complex, mu: complex, a1: complex, a2: complex):
    """The general family's (N, D, (a, b, c), nu), limits substituted.

    One test on |lambda/2| decides D and a together: below SERIES_RATE
    D = sinh(lambda z/2)/(lambda/2), with N carrying lambda/sinh's 2, and
    a = (cosh(lambda y) - cosh lambda)/lambda^2 are both Taylor polynomials,
    above it both are exponential sums.  N's sinh(mu z)/mu has its own test
    on |mu|.
    """
    lam, mu = _effective(lam), _effective(mu)
    bracket = _sinh_over_rate(mu, a1) + ExpPoly.cosh(mu, a2)
    if abs(lam / 2.0) < SERIES_RATE:
        num, den = 2.0 * bracket, _sinh_over_rate(lam / 2.0)
        # sum_{k>=1} lam^(2k-2) (y^(2k) - 1)/(2k)!; (y^2 - 1)/2 at lam = 0
        coeffs = _taylor_tail(lam, 2)
        coeffs[0] = 0j - sum(coeffs)
        a = ExpPoly.polynomial(coeffs)
    else:
        num, den = lam * bracket, ExpPoly.sinh(lam / 2.0)
        a = ExpPoly.cosh(lam, 1.0 / lam**2) + ExpPoly.constant(-cmath.cosh(lam) / lam**2)
    nu = lam**2 / 4.0 - mu**2
    return num, den, (a, a.derivative(), nu * a), nu


# ---------------------------------------------------------------------------
# constructors: each variant's parts function validates its parameters and
# returns (N, D, (a, b, c), nu); make_pair refuses a zero N or (a, b, c),
# or a value that overflows while it builds them or the kernel, and
# assembles the pair from them


def _general_parts(params: General):
    """The general family, taking limits for small lambda/mu.

    lambda in pi*i*Z is left to case1, a policy rather than a pole guard
    (``build_kernel`` refuses poles): lambda = pi*i, mu = 0.75*pi*i (case1's
    m = 1) has only removable zeros in [-2,2], but acceptance criterion 10
    and the ``general/lambdapi`` refusal digest expect it refused.
    """
    lam = _effective(params.lam)
    s = abs(lam.imag)
    if lam != 0 and abs(lam.real) <= 1e-12 * abs(lam) and abs(s - math.pi * round(s / math.pi)) < 1e-9:
        raise AdmissibilityError("lambda in pi*i*Z excluded for the general family (use case1)")
    return _general_forms(lam, params.mu, params.alpha1, params.alpha2)


def _case1_kernel(m: int):
    """cos((2m+1) pi z/4) / sin(pi z/2) as (N, D)."""
    return ExpPoly.cosh(1j * (2 * m + 1) * math.pi / 4.0), ExpPoly.sinh(1j * math.pi / 2.0, -1j)


def _case1_triple(alpha: complex, beta: complex, nu: float):
    lam = 1j * math.pi
    a = (
        ExpPoly.exponential(lam, (alpha,))
        + ExpPoly.exponential(-lam, (beta,))
        + ExpPoly.constant(alpha + beta)  # -e^{+-i pi} = +1
    )
    return a, a.derivative(), nu * a


def _case1_parts(params: Case1):
    m, lam = params.m, 1j * math.pi
    kernel = _case1_kernel(m)
    nu = (math.pi**2 / 4.0) * ((2 * m + 1) ** 2 / 4.0 - 1.0)
    general = General(lam=lam, mu=(2 * m + 1) / 4.0 * lam, alpha1=0.0, alpha2=1.0)
    _assert_recovery("case1", kernel, _case1_triple(1.0, 1.0, nu), general, None)
    return (*kernel, _case1_triple(params.alpha, params.beta, nu), nu)


def _case2_triple(lam: complex, a0: ExpPoly, alpha: complex, beta: complex):
    """Case2's (a, b, c) from a0 = cosh(lambda y) - cosh(lambda)."""
    a0p = a0.derivative()
    a = alpha * a0
    b = alpha * a0p + beta * a0
    c = (beta / 2.0) * a0p + (alpha * lam**2 / 4.0) * a0
    return a, b, c


def _case2_parts(params: Case2):
    """Case2, refusing lambda = 0.  An imaginary lambda with |lambda| >= pi
    puts zeros of sinh(lambda z/2) inside [-2,2] that the constant N cannot
    cancel: ``build_kernel`` refuses it at the zero nearest 0."""
    lam = params.lam
    if abs(lam) < DEGENERACY_THRESHOLD:
        raise DegenerateError("lambda = 0 degenerates 1/sinh(lambda z/2)")
    general = General(lam=lam, mu=0.0, alpha1=0.0, alpha2=1.0)
    if abs(lam / 2.0) < SERIES_RATE:
        # sinh(lam z/2) and cosh(lam y) - cosh(lam) cancel in exponential
        # form: kernel and a0 are the general family's own Taylor forms, so
        # the closed form, evaluated where it does not cancel, is compared
        # with the general family too
        def closed_a0(y):
            return 2.0 * np.sinh(lam * (y + 1.0) / 2.0) * np.sinh(lam * (y - 1.0) / 2.0)

        closed = (closed_a0, lambda y: lam * np.sinh(lam * y), lambda y: lam**2 / 4.0 * closed_a0(y))
        kernel = (np.ones_like, lambda z: np.sinh(lam * z / 2.0))
        _assert_recovery("case2 closed form", kernel, closed, general, lam**2)
        _, den, (a, _, _), _ = _general_forms(lam, 0.0, 0.0, 1.0)
        num, a0 = ExpPoly.constant(2.0 / lam), lam**2 * a
    else:
        num, den = ExpPoly.constant(1.0), ExpPoly.sinh(lam / 2.0)
        a0 = ExpPoly.cosh(lam) + ExpPoly.constant(-cmath.cosh(lam))
    _assert_recovery("case2", (num, den), _case2_triple(lam, a0, 1.0, 0.0), general, lam**2)
    nu = lam**2 / 4.0 if (params.beta == 0 and params.alpha != 0) else None
    return num, den, _case2_triple(lam, a0, params.alpha, params.beta), nu


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
    beta = params.beta
    if beta == 0:
        raise AdmissibilityError("case3 requires beta != 0")
    p = _normalize_p(params.p)
    if p[1] != 0:
        raise InvalidPolynomialError("case3 requires p'(0) = 0")
    kernel = ExpPoly.polynomial((1.0, 1.0 / beta)), ExpPoly.polynomial((0.0, 1.0))  # 1/beta + 1/z
    general = General(lam=0.0, mu=0.0, alpha1=1.0 / (2.0 * beta), alpha2=0.5)
    _assert_recovery("case3", kernel, _case3_triple(beta, (1.0, 0.0, 0.0)), general, 2.0)
    return (*kernel, _case3_triple(beta, p), 0j if p[2] == 0 else None)


def _case4_triple(beta: complex, p):
    a = _case34_a(p)
    b = a.derivative() + ExpPoly.polynomial((-beta, 0.0, beta))  # + beta (y^2 - 1)
    c = ExpPoly.polynomial((0.0, p[1] + beta, 2.0 * p[2]))  # y p'(y) + beta y
    return a, b, c


def _case4_parts(params: Case4):
    p = _normalize_p(params.p)
    kernel = ExpPoly.constant(1.0), ExpPoly.polynomial((0.0, 1.0))  # 1/z
    general = General(lam=0.0, mu=0.0, alpha1=0.0, alpha2=0.5)
    _assert_recovery("case4", kernel, _case4_triple(0.0, (1.0, 0.0, 0.0)), general, 2.0)
    nu = 0j if (p[1] == 0 and p[2] == 0 and params.beta == 0) else None
    return (*kernel, _case4_triple(params.beta, p), nu)


def _normalize_p(p) -> tuple[complex, complex, complex]:
    coeffs = tuple(complex(v) for v in p)
    if len(coeffs) > 3 and any(c != 0 for c in coeffs[3:]):
        raise InvalidPolynomialError("p must have degree at most 2")
    return (coeffs + (0j, 0j, 0j))[:3]


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
    try:
        with np.errstate(over="raise"):
            num, den, (a, b, c), nu = parts(params)
            if not num.terms:
                raise DegenerateError("the parameters give the zero kernel")
            if not (a.terms or b.terms or c.terms):
                raise DegenerateError("the parameters give the zero operator")
            kernel = build_kernel(num, den)
    except (OverflowError, FloatingPointError) as exc:
        raise AdmissibilityError(f"overflow while building the pair ({exc})") from exc
    return CommutingPair(kernel=kernel, op=DiffOp(a=a, b=b, c=c), params=params, nu=nu)


# ---------------------------------------------------------------------------
# recovery check: specialised, each special case reproduces the general family


_RECOVERY_Y = np.array([-0.83, -0.31, 0.17, 0.52, 0.94])
_RECOVERY_Z = np.array([-1.37, -0.42, 0.29, 0.88, 1.63])


def _assert_multiples(case: str, rows, factor) -> None:
    """special = factor * general to 1e-10 * weight of the first row's max
    |special| in each row (what, special, general, weight); None fits factor."""
    first, gvals = rows[0][1], rows[0][2]
    scale = max(np.max(np.abs(first)), 1e-30)
    if factor is None:
        j = int(np.argmax(np.abs(gvals)))
        if abs(gvals[j]) >= 1e-14 * scale:
            factor = first[j] / gvals[j]
        elif np.max(np.abs(first)) > 1e-12 * scale:
            raise AssertionError(f"recovery check failed for {case} {rows[0][0]}")
        else:
            factor = 0.0
    for what, special, general, weight in rows:
        if np.max(np.abs(special - factor * general)) > 1e-10 * weight * scale:
            raise AssertionError(f"recovery check failed for {case} {what}")


def _assert_recovery(case: str, kernel, abc, general: General, factor) -> None:
    """Specialised, a special case collapses onto the general family.

    At fixed points its kernel N/D is a fitted multiple of ``general``'s,
    and its (a, b, c) is ``factor`` (fitted from a when None) times
    ``general``'s (a, b, nu*a), to 1e-10 of its largest |k| or |a|, and
    c to 1e-10 max(1, |nu|) of |a|: c = nu*a carries a's rounding times
    |nu|, which grows as m^2 in case1 and as |lambda|^2/4 in case2.
    """
    y, z = _RECOVERY_Y, _RECOVERY_Z
    num, den = kernel
    num_g, den_g, abc_g, nu = _general_forms(general.lam, general.mu, general.alpha1, general.alpha2)
    _assert_multiples(case, [("kernel", num(z) / den(z), num_g(z) / den_g(z), 1.0)], None)
    weights = (1.0, 1.0, max(1.0, abs(nu)))
    rows = zip("abc", (f(y) for f in abc), (g(y) for g in abc_g), weights)
    _assert_multiples(case, list(rows), factor)


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


_WIRE_NAMES = {General: "general", Case1: "case1", Case2: "case2", Case3: "case3", Case4: "case4"}
_WIRE_KEYS = {"lam": "lambda"}  # other fields keep their names


def params_to_json(params: FamilyParams) -> dict:
    if type(params) not in _WIRE_NAMES:
        raise TypeError(f"unknown params variant: {params!r}")
    obj = {"variant": _WIRE_NAMES[type(params)]}
    for field in dataclasses.fields(params):
        value = getattr(params, field.name)
        if field.name == "p":
            value = [_c2j(c) for c in value]
        elif field.name != "m":
            value = _c2j(value)
        obj[_WIRE_KEYS.get(field.name, field.name)] = value
    return obj


def params_from_json(obj: dict) -> FamilyParams:
    if not isinstance(obj, dict):
        raise ValueError(f"params must be a JSON object, got {obj!r}")
    variant = obj.get("variant")
    cls = next((c for c, name in _WIRE_NAMES.items() if name == variant), None)
    if cls is None:
        raise ValueError(f"unknown variant {variant!r}")
    fields = dataclasses.fields(cls)
    unknown = sorted(set(obj) - {"variant"} - {_WIRE_KEYS.get(f.name, f.name) for f in fields})
    if unknown:
        raise ValueError(f"unknown params keys {unknown} for variant {variant!r}")
    values = {}
    for field in fields:
        value = obj[_WIRE_KEYS.get(field.name, field.name)]
        if field.name == "m":
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"m must be an integer, got {value!r}")
        elif field.name == "p":
            value = _normalize_p(tuple(_j2c(c) for c in value))
        else:
            value = _j2c(value)
        values[field.name] = value
    return cls(**values)
