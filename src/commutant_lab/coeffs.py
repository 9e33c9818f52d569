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
  Q = sum_j C(m,j) r^j P^(m-j) and evaluates it in one Horner pass (none
  for a constant Q); ``f(y, order=(m1, m2, ...))`` returns every requested
  order from one call, with one exp pass over the stacked exp(r*y) of all
  nonzero rates;
* ``at_differences(fs, x, y, order=...)`` evaluates each f of fs (or its
  derivatives) on the difference grid x_i - y_j from x.size + y.size
  exponentials per term, since e^{r(x_i - y_j)} = e^{r x_i} e^{-r y_j}:
  one table for all terms of all fs, taken in one pass for x and one for
  y, or in a single pass over the rates and their negations when y holds
  x's points; ``f.at_differences(x, y)`` is the table of f alone.  Kernel
  matrices and the kernel values of the residuals take N and D from one
  table;
* ``f.taylor(z0, n)`` builds Taylor coefficients by series arithmetic (P
  shifted to z0, times the exponential series), without evaluating f.

Every other array evaluation goes through ``ExpPoly.__call__``.
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
    out = np.zeros(np.shape(y), dtype=complex)
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


def _two_product(a: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a*x rounded, and its exact rounding error (Dekker 1971, Veltkamp split),
    elementwise over the broadcast of a and x."""
    p = a * x
    c = 134217729.0 * a  # 2**27 + 1
    ah = c - (c - a)
    c = 134217729.0 * x
    xh = c - (c - x)
    al, xl = a - ah, x - xh
    return p, ((ah * xh - p) + ah * xl + al * xh) + al * xl


def _exp_real(rates: np.ndarray, x: np.ndarray) -> np.ndarray:
    """exp(rate_t * x_i) at real x, one row per rate, without the rounding of
    the product rate*x.

    fl(rate*x) is off by up to |rate x| eps/2, which e^{r x_i} e^{-r y_j}
    would carry into f(x_i - y_j) where the terms of f cancel (near a zero
    of a denominator); the first-order correction exp(e) = 1 + e removes it.
    """
    # one split product for the real parts (rows :T) and imaginary parts (T:)
    T = rates.size
    p, e = _two_product(np.concatenate((rates.real, rates.imag))[:, None], x)
    return np.exp(p[:T] + 1j * p[T:]) * (1.0 + (e[:T] + 1j * e[T:]))


def _orders(order) -> tuple[bool, tuple[int, ...]]:
    """(whether ``order`` is a single int, the orders as a tuple)."""
    single = isinstance(order, (int, np.integer))
    return single, (order,) if single else tuple(order)


def _ladder(poly: tuple[complex, ...], top: int) -> list[tuple[complex, ...]]:
    """[P, P', ..., P^(top)]."""
    derivs = [poly]
    for _ in range(top):
        derivs.append(polyder(derivs[-1]))
    return derivs


def _leibniz(rate: complex, derivs, m: int) -> list[complex]:
    """Coefficients of Q with d^m/dy^m [P e^{ry}] = e^{ry} Q, from P's ladder.

    Q = sum_j C(m,j) r^j P^{(m-j)}, assembled coefficient-wise so that it
    takes one Horner pass; at rate 0 only P^{(m)} is left.
    """
    jmax = m if rate != 0 else 0
    q = [0j] * len(derivs[m - jmax])
    for j in range(jmax + 1):
        w = math.comb(m, j) * rate**j
        for k, c in enumerate(derivs[m - j]):
            q[k] += w * c
    return q


def _accumulate(acc: list[complex], poly) -> None:
    """acc += poly coefficient-wise, growing acc to poly's length."""
    for k, c in enumerate(poly):
        if k < len(acc):
            acc[k] += c
        else:
            acc.append(c)


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
            _accumulate(merged.setdefault(rate, []), poly)
        out = [(rate, p) for rate, poly in merged.items() if (p := _trim(tuple(poly)))]
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
        # d/dy [P e^{ry}] = (P' + rP) e^{ry}: a term keeps its rate, so none merge
        terms = self.terms
        for _ in range(order):
            out = []
            for rate, poly in terms:
                q = list(_trim(polyder(poly)))
                if rate != 0:
                    _accumulate(q, _trim(tuple(rate * c for c in poly)))
                if q := _trim(tuple(q)):
                    out.append((rate, q))
            terms = tuple(out)
        return ExpPoly(terms)

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

    def __call__(self, y, order: int | tuple[int, ...] = 0):
        """Value of the order-th derivative at (array of) y.

        ``order`` may also be a tuple (or range) of orders; the result is
        then a tuple of values in that order, and each term's derivative
        ladder and exp(rate*y) are computed once for all of them.  Scalar y
        gives complex values, array y ndarrays.
        """
        single, orders = _orders(order)
        arr = np.asarray(y, dtype=complex)
        outs = [np.zeros_like(arr) for _ in orders]
        top = max(orders, default=0)
        # one exp pass for every nonzero rate; the stacked exponentials hold
        # T*n complex values, T the number of such terms
        exps = iter(np.exp(np.multiply.outer([r for r, _ in self.terms if r != 0], arr)))
        for rate, poly in self.terms:
            derivs = _ladder(poly, top)
            e = next(exps) if rate != 0 else None
            for out, m in zip(outs, orders):
                q = _leibniz(rate, derivs, m)
                if not q:
                    continue
                if len(q) > 1:
                    acc = polyval(q, arr)
                else:
                    # a constant Q needs no Horner pass
                    acc = np.empty_like(arr)
                    acc.fill(q[0])
                if e is not None:
                    # in place, acc *= e is Q*e at every size: numpy's
                    # temporary elision would turn a large Q * e into e * Q,
                    # and it rounds q0 * e with a fused multiply-add where
                    # the in-place product of a one-point array does not
                    acc *= e
                out += acc
        if np.isscalar(y):
            outs = [complex(o) for o in outs]
        return outs[0] if single else tuple(outs)

    def at_differences(self, x, y, order: int | tuple[int, ...] = 0):
        """Matrix of values f^(order)(x_i - y_j) for real point arrays x, y:
        ``at_differences((f,), x, y, order)[0]``."""
        return at_differences((self,), x, y, order)[0]

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


def at_differences(fs, x, y, order: int | tuple[int, ...] = 0) -> list:
    """Matrices of f^(order)(x_i - y_j), one per f in fs, for real point
    arrays x, y.

    Each exponential factors exactly, e^{r(x_i - y_j)} = e^{r x_i}
    e^{-r y_j}, so a term costs x.size + y.size exponentials and one outer
    product; only a non-constant P_t (or Leibniz polynomial Q of a
    derivative) takes a Horner pass over the difference matrix.  The
    exponentials of every term of every f come from one ``_exp_real`` call
    for x and one for y, or from a single call over the rates and their
    negations when y holds x's points (a square grid).  ``order`` may be a
    tuple of orders, as for ``ExpPoly.__call__``; each entry of the result
    is then a tuple of matrices.
    """
    single, orders = _orders(order)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    top = max(orders, default=0)
    rates = np.array([r for f in fs for r, _ in f.terms], dtype=complex)
    T = rates.size
    # y holds x's points when equal bit for bit (a -0.0 against a 0.0 would
    # give e^{-r y} another sign of zero than e^{-r x})
    if x.shape == y.shape and x.tobytes() == y.tobytes():
        E = _exp_real(np.concatenate((rates, -rates)), x)
        EX, EY = E[:T], E[T:]
    else:
        EX, EY = _exp_real(rates, x), _exp_real(-rates, y)
    rows, results = zip(EX, EY), []
    for f in fs:
        outs = [None] * len(orders)
        for (rate, poly), (ex, ey) in zip(f.terms, rows):
            derivs = _ladder(poly, top)
            for k, m in enumerate(orders):
                q = _leibniz(rate, derivs, m)
                if len(q) == 1:
                    term = np.multiply.outer(q[0] * ex, ey)
                elif q:
                    term = polyval(q, np.subtract.outer(x, y)) * np.multiply.outer(ex, ey)
                else:
                    continue
                if outs[k] is None:
                    # the first term is the table, with no table of zeros
                    # to add it to; adding 0 keeps what that sum did to a
                    # zero term's -0.0 parts, which become 0.0
                    term += 0
                    outs[k] = term
                else:
                    outs[k] += term
        outs = [np.zeros((x.size, y.size), dtype=complex) if out is None else out for out in outs]
        results.append(outs[0] if single else tuple(outs))
    return results
