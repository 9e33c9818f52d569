"""Exponential polynomials: the one function type of the package.

Every coefficient of the differential operators handled here (and every
numerator/denominator of the classified kernels) is a finite sum of
polynomials multiplied by exponentials,

    f(y) = sum_t P_t(y) * exp(rate_t * y),

which is closed under addition, scalar multiplication, differentiation,
multiplication by an exponential factor and (on the real axis) complex
conjugation.  :class:`ExpPoly` implements that algebra exactly, so all
derivative evaluations are analytic rather than finite differences:

* ``f(y, order=m)`` folds the Leibniz sum of each term into one polynomial
  Q = sum_j C(m,j) r^j P^(m-j) and evaluates it in one Horner pass;
* ``f.taylor(z0, n)`` builds Taylor coefficients by series arithmetic (P
  shifted to z0, times the exponential series), without evaluating f.

Every array evaluation goes through ``ExpPoly.__call__``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np


def polyder(coeffs, order: int = 1) -> tuple[complex, ...]:
    """Ascending coefficients of the order-th derivative of a polynomial."""
    c = tuple(coeffs)
    for _ in range(order):
        c = tuple(c[k] * k for k in range(1, len(c)))
    return c


def polyval(coeffs, y):
    """Horner evaluation of ascending coefficients at (array of) y."""
    out = np.zeros_like(np.asarray(y, dtype=complex))
    for c in reversed(coeffs):
        out = out * y + c
    return out


def exp_series_product(series, rate: complex, scale: complex, nterms: int) -> tuple[complex, ...]:
    """First nterms Taylor coefficients of scale * e^{rate h} * sum_j series[j] h^j."""
    exp_coeffs = [complex(scale)]
    for j in range(1, nterms):
        exp_coeffs.append(exp_coeffs[-1] * rate / j)
    out = []
    for k in range(nterms):
        s = 0j
        for j in range(min(k + 1, len(series))):
            s += series[j] * exp_coeffs[k - j]
        out.append(s)
    return tuple(out)


def _trim(coeffs: tuple[complex, ...]) -> tuple[complex, ...]:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


@dataclass(frozen=True)
class ExpPoly:
    """Finite sum of terms P(y) * exp(rate * y), stored as (rate, poly) pairs.

    Polynomials are ascending coefficient tuples; rate 0 holds the plain
    polynomial part.  Terms are kept merged by rate.
    """

    terms: tuple[tuple[complex, tuple[complex, ...]], ...]

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "ExpPoly":
        return ExpPoly(())

    @staticmethod
    def polynomial(coeffs) -> "ExpPoly":
        c = _trim(tuple(complex(v) for v in coeffs))
        return ExpPoly(((0j, c),)) if c else ExpPoly(())

    @staticmethod
    def constant(value: complex) -> "ExpPoly":
        return ExpPoly.polynomial((value,))

    @staticmethod
    def exponential(rate: complex, coeffs=(1.0,)) -> "ExpPoly":
        c = _trim(tuple(complex(v) for v in coeffs))
        if not c:
            return ExpPoly(())
        if rate == 0:
            return ExpPoly.polynomial(c)
        return ExpPoly(((complex(rate), c),))

    @staticmethod
    def cosh(rate: complex, scale: complex = 1.0) -> "ExpPoly":
        """scale * cosh(rate*y); degenerates to the constant scale at rate 0."""
        if rate == 0:
            return ExpPoly.constant(scale)
        h = complex(scale) / 2.0
        return ExpPoly.exponential(rate, (h,)) + ExpPoly.exponential(-rate, (h,))

    @staticmethod
    def sinh(rate: complex, scale: complex = 1.0) -> "ExpPoly":
        """scale * sinh(rate*y); degenerates to zero at rate 0."""
        if rate == 0:
            return ExpPoly.zero()
        h = complex(scale) / 2.0
        return ExpPoly.exponential(rate, (h,)) + ExpPoly.exponential(-rate, (-h,))

    # -- algebra -------------------------------------------------------

    def __add__(self, other: "ExpPoly") -> "ExpPoly":
        merged: dict[complex, list[complex]] = {}
        for rate, poly in self.terms + other.terms:
            acc = merged.setdefault(rate, [])
            for k, c in enumerate(poly):
                if k < len(acc):
                    acc[k] += c
                else:
                    acc.append(c)
        out = []
        for rate, poly in merged.items():
            p = _trim(tuple(poly))
            if p:
                out.append((rate, p))
        out.sort(key=lambda t: (t[0].real, t[0].imag))
        return ExpPoly(tuple(out))

    def __mul__(self, scalar: complex) -> "ExpPoly":
        s = complex(scalar)
        if s == 0:
            return ExpPoly(())
        return ExpPoly(tuple((r, tuple(s * c for c in p)) for r, p in self.terms))

    __rmul__ = __mul__

    def __sub__(self, other: "ExpPoly") -> "ExpPoly":
        return self + (other * (-1.0))

    def __neg__(self) -> "ExpPoly":
        return self * (-1.0)

    def derivative(self, order: int = 1) -> "ExpPoly":
        cur = self
        for _ in range(order):
            out = ExpPoly(())
            for rate, poly in cur.terms:
                dp = polyder(poly)
                out = out + ExpPoly.exponential(rate, dp)
                if rate != 0:
                    out = out + ExpPoly.exponential(rate, tuple(rate * c for c in poly))
            cur = out
        return cur

    def conjugate(self) -> "ExpPoly":
        # valid pointwise for real arguments only
        return ExpPoly(
            tuple(
                (rate.conjugate(), tuple(c.conjugate() for c in poly))
                for rate, poly in self.terms
            )
        )

    def exp_shift(self, tau: complex) -> "ExpPoly":
        """Multiply by exp(tau*y)."""
        if tau == 0:
            return self
        out = ExpPoly(())
        for rate, poly in self.terms:
            out = out + ExpPoly.exponential(rate + complex(tau), poly)
        return out

    # -- evaluation ----------------------------------------------------

    def __call__(self, y, order: int = 0):
        arr = np.asarray(y, dtype=complex)
        out = np.zeros_like(arr)
        for rate, poly in self.terms:
            # d^m/dy^m [P e^{ry}] = e^{ry} Q with Q = sum_j C(m,j) r^j P^{(m-j)};
            # Q is assembled coefficient-wise, then evaluated in one Horner pass
            derivs = [poly]
            for _ in range(order):
                derivs.append(polyder(derivs[-1]))
            jmax = order if rate != 0 else 0  # at rate 0 only P^{(m)} is left
            q = [0j] * len(derivs[order - jmax])
            for j in range(jmax + 1):
                w = math.comb(order, j) * rate**j
                for k, c in enumerate(derivs[order - j]):
                    q[k] += w * c
            if not q:
                continue
            acc = polyval(q, arr)
            if rate != 0:
                acc = acc * np.exp(rate * arr)
            out = out + acc
        if np.isscalar(y):
            return complex(out)
        return out

    def taylor(self, z0: complex, nterms: int) -> tuple[complex, ...]:
        """Taylor coefficients (f(z0), f'(z0), f''(z0)/2!, ...) of length nterms.

        Computed by series arithmetic, without derivative evaluations: each
        term P(y) e^{ry} becomes P shifted to z0 (binomial coefficients)
        times e^{r z0} sum_k (r h)^k / k!, truncated at nterms.
        """
        z0 = complex(z0)
        out = [0j] * nterms
        for rate, poly in self.terms:
            if z0 != 0:
                poly = [
                    sum(math.comb(i, k) * poly[i] * z0 ** (i - k) for i in range(k, len(poly)))
                    for k in range(min(len(poly), nterms))
                ]
            for k, c in enumerate(exp_series_product(poly, rate, cmath.exp(rate * z0), nterms)):
                out[k] += c
        return tuple(out)

    def max_rate(self) -> float:
        return max((abs(r) for r, _ in self.terms), default=0.0)
