"""Kernel evaluation for the classified convolution kernels.

Every kernel in the classification is a ratio N(z)/D(z) of entire
exponential-polynomial functions whose denominator has a simple zero at
z = 0.  The kernel is analytic at 0 when N(0) = 0 (removable) and has a
simple pole there otherwise; N(0) counts as 0 when it is below 1e-14 of
N's largest Taylor coefficient N_k at 0 taken on N's own length scale,
i.e. of max_k |N_k| / rho^k with rho = max(N's fastest rate, 1), so the
test does not drift with the rate.  Any other zero of D in [-2, 2] must
be removable (e.g. z = +-2 for the cos/sin kernels); there direct
evaluation loses digits.

One evaluator, ``kernel_matrix``, gives k(x_i - y_j) and its derivatives
on a difference grid; ``kernel_values`` is its column y = 0.

* away from all zeros of D: direct ratio, with quotient-rule derivatives;
* within the switch radius of z = 0: stored Taylor data (Taylor series of
  z*k for singular kernels, of k itself for regular ones);
* within the switch radius of a removable zero z0: a local Taylor
  expansion of k at z0, precomputed by series division.

The switch radius translates the fixed argument window 1e-3 through the
denominator's fastest rate, matching the accuracy targets of 1e-12 away
from a switch and 1e-10 at it.

``build_kernel`` is the one constructor of a :class:`KernelSpec` and the
one judge of its poles, from N and D: the pole at 0, and a zero of D in
[-2, 2] that N does not cancel, which it refuses.  A gauge transform
rebuilds its kernel through it from the shifted numerator.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .coeffs import ExpPoly, _orders, at_differences, polyder, polyval
from .errors import AdmissibilityError, PoleError

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

    ``singular`` is True iff k has a simple pole at 0 (N(0) != 0 on N's
    own scale).
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
    The zeros of D elsewhere on [-2, 2] are located from its exponential
    rates and examined nearest 0 first, in one pass: the first that N does
    not cancel (on the same rho-scaled Taylor coefficients as at 0) raises
    AdmissibilityError, so no zero beyond it is read, and at each one
    before it a local expansion of k is prepared.
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

    local = {}
    for z0 in _real_denominator_zeros(denominator):
        nt = numerator.taylor(z0, SERIES_TERMS + 2)
        if abs(nt[0]) > 1e-8 * max(abs(c) / rho**k for k, c in enumerate(nt)):
            raise AdmissibilityError("non-removable singularity inside [-2,2]")
        dt = denominator.taylor(z0, SERIES_TERMS + 2)
        local[z0] = _series_div(nt[1:], dt[1:], SERIES_TERMS)

    return KernelSpec(
        numerator=numerator,
        denominator=denominator,
        singular=singular,
        series=series,
        removable_zeros=tuple(sorted(local)),
        switch_radius=SWITCH_ARG / max(denominator.max_rate(), 1.0),
        local_series=local,
    )


def _real_denominator_zeros(den: ExpPoly):
    """Real zeros z != 0 of the denominator inside [-2, 2], nearest 0 first.

    For D built from sinh(rho*z)-type terms the zeros lie at i*pi*k/rho,
    which are real exactly when rho is purely imaginary.  The candidates
    pi*k/|rho| of all such rates are merged lazily in increasing order (one
    within 1e-12 of the one before is the same zero) and yielded as +z0,
    then -z0, where |D| < 1e-9, so a caller that stops pays for no zero
    beyond.  Each zero is kept at full precision: the local series drops
    N(z0) and D(z0), and a centre rounded by eps shifts k' by ~k''*eps/2.
    """

    def multiples(sigma):
        return (np.pi * k / sigma for k in itertools.count(1))

    sigmas = {abs(r.imag) for r, _ in den.terms if r != 0 and abs(r.real) <= 1e-12 * abs(r)}
    last = 0.0
    for z0 in heapq.merge(*map(multiples, sigmas)):
        if z0 > 2.0 + 1e-9:
            return
        if z0 - last > 1e-12:
            for s in (z0, -z0):
                if abs(den(complex(s))) < 1e-9:
                    yield s
        last = z0


def _laurent_eval(series, z, order: int):
    """Evaluate d^order/dz^order of (sum series[j] z^j)/z.

    That is the pole term series[0]/z plus the Taylor series series[1:].
    """
    pole = series[0] * (-1) ** order * math.factorial(order) / z ** (order + 1)
    return pole + polyval(polyder(series[1:], order), z)


def kernel_values(spec: KernelSpec, z, orders: tuple[int, ...] = (0,)):
    """Evaluate k and requested derivative orders at real (array of) points z.

    This is ``kernel_matrix(spec, z, [0.0], orders)`` in the shape of z, a
    tuple of arrays matching ``orders`` (of complex scalars for a scalar z).
    Raises TypeError for complex z, and PoleError if a singular kernel is
    evaluated at exactly z = 0.
    """
    if np.iscomplexobj(z):
        raise TypeError("kernel_values takes real z")
    arr = np.asarray(z, dtype=float)
    if spec.singular and np.any(arr == 0):
        raise PoleError("singular kernel evaluated at its pole z = 0")
    out = kernel_matrix(spec, arr.reshape(-1), np.zeros(1), tuple(orders))
    if arr.ndim == 0:
        return tuple(complex(o[0, 0]) for o in out)
    return tuple(o.reshape(arr.shape) for o in out)


def kernel_matrix(spec: KernelSpec, x, y, order: int | tuple[int, ...] = 0):
    """Matrix of k^(order)(x_i - y_j) for real point arrays x, y.

    N, D and their derivatives come from one ``coeffs.at_differences``
    call, one exponential table for both; k is their ratio and its
    derivatives the quotient rule's, except in the switch windows,
    |z - z0| < ``switch_radius`` around each expansion centre z0: 0 with
    ``series`` (the Laurent series at a pole), then each removable zero
    with its local series.  An entry in two windows takes
    the first.  For a singular kernel, entries with x_i - y_j exactly 0 are
    left at 0 for the caller.  ``order`` may be a tuple of orders, which
    gives a tuple of matrices.
    """
    single, orders = _orders(order)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    near, windows = _windows(spec, x, y)
    need = range(max(orders) + 1)
    nd, dd = at_differences((spec.numerator, spec.denominator), x, y, order=need)
    if max(orders) > 0:
        # the quotient rule divides by powers of D, which may vanish (or be
        # subnormal) inside the windows: those entries are overwritten below
        dd = (np.where(near, 1.0, dd[0]),) + dd[1:]
    # the derivatives first, as they read N: k itself is then divided into
    # N's table in place
    outs = {m: np.where(near, 0j, _ratio_derivative(nd, dd, m)) for m in set(orders) - {0}}
    if 0 in orders:
        outs[0] = np.divide(nd[0], dd[0], out=nd[0], where=~near)
        outs[0][near] = 0
    outs = [outs[m] for m in orders]
    for z0, series, (i, j) in windows:
        pole = spec.singular and z0 == 0.0
        if i.size:
            h = (x[i] - y[j]).astype(complex) - z0
            for out, m in zip(outs, orders):
                out[i, j] = _laurent_eval(series, h, m) if pole else polyval(polyder(series, m), h)
    return outs[0] if single else tuple(outs)


def _windows(spec: KernelSpec, x: np.ndarray, y: np.ndarray):
    """(near, windows) of ``kernel_matrix`` on z = x_i - y_j: ``near`` marks
    the entries within ``switch_radius`` of an expansion centre, and each
    window (z0, series, (i, j)) holds the indices of the entries it takes,
    those not in an earlier window, less z = 0 exactly at a pole.  The
    difference matrix is freed on return, before N and D are tabulated."""
    Z = x[:, None] - y[None, :]
    centres = [(0.0, spec.series)] + [(z0, spec.local_series[z0]) for z0 in spec.removable_zeros]
    near, windows = np.zeros(Z.shape, dtype=bool), []
    for z0, series in centres:
        # Z - 0.0 is Z
        mask = ((np.abs(Z - z0) if z0 else np.abs(Z)) < spec.switch_radius) & ~near
        near |= mask
        if spec.singular and z0 == 0.0:
            mask &= Z != 0  # left at 0 for the caller
        windows.append((z0, series, np.nonzero(mask)))
    return near, windows


def _ratio_derivative(nd, dd, order: int):
    n0, d0 = nd[0], dd[0]
    n1, d1 = nd[1], dd[1]
    if order == 1:
        return (n1 * d0 - n0 * d1) / d0**2
    n2, d2 = nd[2], dd[2]
    if order == 2:
        return (n2 * d0**2 - 2 * n1 * d1 * d0 - n0 * d2 * d0 + 2 * n0 * d1**2) / d0**3
    raise ValueError(f"kernel derivatives implemented up to order 2, got {order}")
