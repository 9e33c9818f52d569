"""Kernel evaluation for the classified convolution kernels.

Every kernel in the classification is a ratio N(z)/D(z) of entire
exponential-polynomial functions whose denominator has a simple zero at
z = 0.  The kernel is analytic at 0 when N(0) = 0 (removable) and has a
simple pole there otherwise; N(0) counts as 0 when it is below 1e-14 of
N's largest Taylor coefficient N_k at 0 taken on N's own length scale,
i.e. of max_k |N_k| / rho^k with rho = max(N's fastest rate, 1), so the
test does not drift with the rate.
Admissible parameters leave at most removable zeros of D elsewhere in
[-2, 2] (e.g. z = +-2 for the cos/sin kernels), where direct evaluation
loses digits.

Evaluation strategy:

* away from all zeros of D: direct ratio, with quotient-rule derivatives;
* within the switch radius of z = 0: stored Taylor data (Taylor series of
  z*k for singular kernels, of k itself for regular ones);
* within the switch radius of a removable zero z0: a local Taylor
  expansion of k at z0, precomputed by series division.

The switch radius translates the fixed argument window 1e-3 through the
denominator's fastest rate, matching the accuracy targets of 1e-12 away
from a switch and 1e-10 at it.

``build_kernel`` is the one constructor of a :class:`KernelSpec` and reads
the pole from the data (N(0) != 0 on N's own scale); a gauge transform
rebuilds its kernel through it from the shifted numerator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coeffs import ExpPoly, _orders, polyder, polyval
from .errors import PoleError

SERIES_TERMS = 16
SWITCH_ARG = 1e-3


def _series_div(num, den, nterms: int) -> tuple[complex, ...]:
    """Taylor coefficients of num/den given Taylor data with den[0] != 0."""
    out = []
    for k in range(nterms):
        s = num[k] if k < len(num) else 0j
        for j in range(1, min(k, len(den) - 1) + 1):
            s -= den[j] * out[k - j]
        out.append(s / den[0])
    return tuple(out)


@dataclass(frozen=True)
class KernelSpec:
    """Evaluatable kernel with its pole flag and Taylor data at 0.

    ``singular`` is True iff |N(0)| > 1e-14 max_k |N_k| / rho^k over N's
    Taylor coefficients at 0, with rho = max(N's fastest rate, 1), i.e. k
    has a simple pole at 0.
    ``series`` holds plain Taylor coefficients: of z*k(z) when ``singular``
    (so series[0] is the residue at 0), of k(z) otherwise (so series[n] is
    the n-th derivative over n!).
    """

    numerator: ExpPoly
    denominator: ExpPoly
    singular: bool
    series: tuple[complex, ...]
    removable_zeros: tuple[float, ...]
    switch_radius: float
    local_series: dict = field(compare=False, repr=False)

    def residue(self) -> complex:
        if not self.singular:
            return 0j
        return self.series[0]


def build_kernel(numerator: ExpPoly, denominator: ExpPoly) -> KernelSpec:
    """Assemble a KernelSpec from entire numerator/denominator data.

    The denominator must have a simple zero at z = 0, so k has a simple
    pole there exactly when N(0) != 0 (relative to N's Taylor data).
    Removable zeros of D elsewhere on [-2, 2] are located from its
    exponential rates and a local expansion of k is prepared at each.
    """
    den_taylor = denominator.taylor(0.0, SERIES_TERMS + 2)
    if abs(den_taylor[0]) > 1e-12 or den_taylor[1] == 0:
        raise ValueError("denominator must vanish to first order at z = 0")
    num_taylor = numerator.taylor(0.0, SERIES_TERMS + 2)
    # N_k grows like rho^k / k!; scaling by rho^k keeps the test rate-free
    rho = max(numerator.max_rate(), 1.0)
    scaled = [abs(c) / rho**k for k, c in enumerate(num_taylor)]
    singular = abs(num_taylor[0]) > 1e-14 * max(scaled)
    # Taylor of z*k = N/(D/z), or of k = (N/z)/(D/z) when N(0) = 0
    series = _series_div(num_taylor if singular else num_taylor[1:], den_taylor[1:], SERIES_TERMS)

    rate = denominator.max_rate()
    switch = SWITCH_ARG / max(rate, 1.0)

    zeros = []
    local = {}
    for z0 in _real_denominator_zeros(denominator):
        nt = numerator.taylor(z0, SERIES_TERMS + 2)
        dt = denominator.taylor(z0, SERIES_TERMS + 2)
        if abs(nt[0]) > 1e-8 * max(abs(c) for c in nt):
            # non-removable; admissibility screens these out upstream
            continue
        zeros.append(z0)
        local[z0] = _series_div(nt[1:], dt[1:], SERIES_TERMS)

    return KernelSpec(
        numerator=numerator,
        denominator=denominator,
        singular=singular,
        series=series,
        removable_zeros=tuple(zeros),
        switch_radius=switch,
        local_series=local,
    )


def _real_denominator_zeros(den: ExpPoly) -> list[float]:
    """Real zeros z != 0 of the denominator inside [-2, 2].

    For D built from sinh(rho*z)-type terms the zeros lie at i*pi*k/rho,
    which are real exactly when rho is purely imaginary.  Each zero is kept
    at full precision: the local series drops N(z0) and D(z0), and a centre
    rounded by eps shifts k' by about k''*eps/2.
    """
    zeros: list[float] = []
    for rate, _ in den.terms:
        if rate == 0:
            continue
        if abs(rate.real) > 1e-12 * abs(rate):
            continue
        sigma = abs(rate.imag)
        k = 1
        while True:
            z0 = np.pi * k / sigma
            if z0 > 2.0 + 1e-9:
                break
            for s in (z0, -z0):
                if abs(den(complex(s))) < 1e-9 and all(abs(s - z) > 1e-12 for z in zeros):
                    zeros.append(float(s))
            k += 1
    return sorted(zeros)


def _laurent_eval(series, z, order: int):
    """Evaluate d^order/dz^order of (sum series[j] z^j)/z.

    That is the pole term series[0]/z plus the Taylor series series[1:].
    """
    pole = series[0] * (-1) ** order * math.factorial(order) / z ** (order + 1)
    return pole + polyval(polyder(series[1:], order), z)


def kernel_values(spec: KernelSpec, z, orders: tuple[int, ...] = (0,)):
    """Evaluate k and requested derivative orders at (array of) points z.

    Returns a tuple of arrays matching ``orders``.  Raises PoleError if a
    singular kernel is evaluated at exactly z = 0.
    """
    arr = np.atleast_1d(np.asarray(z, dtype=complex))
    if spec.singular and np.any(arr == 0):
        raise PoleError("singular kernel evaluated at its pole z = 0")

    out = [np.zeros_like(arr) for _ in orders]
    near0 = np.abs(arr) < spec.switch_radius
    handled = near0.copy()
    for i, m in enumerate(orders):
        if np.any(near0):
            if spec.singular:
                out[i][near0] = _laurent_eval(spec.series, arr[near0], m)
            else:
                out[i][near0] = polyval(polyder(spec.series, m), arr[near0])

    for z0 in spec.removable_zeros:
        mask = (np.abs(arr - z0) < spec.switch_radius) & ~handled
        if np.any(mask):
            delta = arr[mask] - z0
            for i, m in enumerate(orders):
                out[i][mask] = polyval(polyder(spec.local_series[z0], m), delta)
            handled |= mask

    rest = ~handled
    if np.any(rest):
        zz = arr[rest]
        need = range(max(orders) + 1)
        nd, dd = spec.numerator(zz, order=need), spec.denominator(zz, order=need)
        for i, m in enumerate(orders):
            out[i][rest] = _ratio_derivative(nd, dd, m)

    if np.isscalar(z) or np.asarray(z).ndim == 0:
        return tuple(complex(o[0]) for o in out)
    return tuple(o.reshape(np.shape(z)) for o in out)


def kernel_matrix(spec: KernelSpec, x, y, order: int | tuple[int, ...] = 0):
    """Matrix of k^(order)(x_i - y_j) for real point arrays x, y.

    N, D and their derivatives come from ``ExpPoly.at_differences``;
    where no switch window applies k is their ratio and its derivatives the
    quotient rule's, as in ``kernel_values``.  Entries within the switch
    radius of 0 or of a removable zero are taken from ``kernel_values``, so
    the series and Laurent branches are the same as pointwise.  For a
    singular kernel, entries with x_i - y_j exactly 0 are left at 0 for the
    caller.  ``order`` may be a tuple of orders, which gives a tuple of
    matrices.
    """
    single, orders = _orders(order)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    Z = x[:, None] - y[None, :]
    near = np.abs(Z) < spec.switch_radius
    for z0 in spec.removable_zeros:
        near |= np.abs(Z - z0) < spec.switch_radius
    need = range(max(orders) + 1)
    nd = spec.numerator.at_differences(x, y, order=need)
    dd = spec.denominator.at_differences(x, y, order=need)
    if max(orders) > 0:
        # the quotient rule divides by powers of D, which may vanish (or be
        # subnormal) inside the windows: those entries are overwritten below
        dd = (np.where(near, 1.0, dd[0]),) + dd[1:]
    outs = [
        np.divide(nd[0], dd[0], out=np.zeros(Z.shape, dtype=complex), where=~near)
        if m == 0
        else np.where(near, 0j, _ratio_derivative(nd, dd, m))
        for m in orders
    ]
    if spec.singular:
        near &= Z != 0
    if np.any(near):
        for out, vals in zip(outs, kernel_values(spec, Z[near], orders)):
            out[near] = vals
    return outs[0] if single else tuple(outs)


def _ratio_derivative(nd, dd, order: int):
    n0, d0 = nd[0], dd[0]
    if order == 0:
        return n0 / d0
    n1, d1 = nd[1], dd[1]
    if order == 1:
        return (n1 * d0 - n0 * d1) / d0**2
    n2, d2 = nd[2], dd[2]
    if order == 2:
        return (n2 * d0**2 - 2 * n1 * d1 * d0 - n0 * d2 * d0 + 2 * n0 * d1**2) / d0**3
    raise ValueError(f"kernel derivatives implemented up to order 2, got {order}")
