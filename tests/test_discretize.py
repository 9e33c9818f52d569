import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.legendre import legvander
from scipy.special import roots_jacobi

from commutant_lab import (
    Case2,
    Case4,
    DiffOp,
    ExpPoly,
    General,
    RegularKernelError,
    SingularKernelError,
    build_grid,
    collocation_L,
    differentiation_matrices,
    make_pair,
    nystrom_K,
    nystrom_K_pv,
    pv_log_weight,
)
from commutant_lab.discretize import k_reg_values


# ---------------------------------------------------------------------------
# grids


@pytest.mark.parametrize(
    "n, nodes, weights",
    [
        (2, [-1.0, 1.0], [1.0, 1.0]),
        (3, [-1.0, 0.0, 1.0], [1 / 3, 4 / 3, 1 / 3]),
        # roots of P3' are +-1/sqrt(5)
        (4, [-1.0, -1 / np.sqrt(5), 1 / np.sqrt(5), 1.0], [1 / 6, 5 / 6, 5 / 6, 1 / 6]),
    ],
    ids=["n2", "n3", "n4"],
)
def test_lobatto_small_rules(n, nodes, weights):
    # independent closed forms; exactness on deg <= 2n - 3
    g = build_grid(n)
    np.testing.assert_allclose(g.nodes, nodes, atol=1e-15)
    np.testing.assert_allclose(g.weights, weights, atol=1e-15)
    for deg in range(2 * n - 2):
        quad = np.sum(g.weights * g.nodes**deg)
        exact = 0.0 if deg % 2 else 2.0 / (deg + 1)
        assert quad == pytest.approx(exact, abs=1e-14)


@pytest.mark.parametrize("n", [3, 4, 9, 64, 256])
def test_nodes_match_gauss_jacobi(n):
    # interior LGL nodes are the Gauss nodes of the weight 1 - x^2; scipy's
    # weights drift at large n, so only its nodes serve as an oracle
    nodes, _ = roots_jacobi(n - 2, 1, 1)
    np.testing.assert_allclose(build_grid(n).nodes[1:-1], nodes, rtol=0, atol=5e-16)


def test_grid_matches_mpmath_refinement():
    # 40-digit Newton on P'_N from the grid's nodes, N = n - 1
    n = 64
    N = n - 1
    g = build_grid(n)
    with mpmath.workdps(40):
        for x, w in zip(g.nodes[1:-1], g.weights[1:-1]):
            t = mpmath.mpf(x)
            for _ in range(4):
                p, pm = mpmath.legendre(N, t), mpmath.legendre(N - 1, t)
                dp = N * (pm - t * p) / (1 - t**2)
                t -= dp * (1 - t**2) / (2 * t * dp - N * (N + 1) * p)
            w_ref = 2 / (n * N * mpmath.legendre(N, t) ** 2)
            assert abs(t - x) <= 1e-16
            assert abs(w_ref - w) <= 1e-13 * w_ref


@settings(max_examples=15, deadline=None)
@given(n=st.integers(2, 40))
def test_weights_sum_to_interval_length(n):
    g = build_grid(n)
    assert np.sum(g.weights) == pytest.approx(2.0, abs=1e-12)
    assert np.all(np.diff(g.nodes) > 0)
    assert np.all(g.weights > 0)


@pytest.mark.parametrize("n", [9, 64, 256])
def test_quadrature_exactness_degrees(n):
    gl = build_grid(n)
    for deg in range(2 * n - 2):  # lobatto exact through 2n-3
        exact = 0.0 if deg % 2 else 2.0 / (deg + 1)
        assert np.sum(gl.weights * gl.nodes**deg) == pytest.approx(exact, abs=1e-13)


def test_size_validation():
    with pytest.raises(ValueError):
        build_grid(1)


# ---------------------------------------------------------------------------
# differentiation


def test_differentiation_polynomial_exactness():
    g = build_grid(10)
    D1, D2 = g.D1, g.D2
    np.testing.assert_array_equal(D1, differentiation_matrices(g.nodes)[0])
    u = g.nodes**5 - 2 * g.nodes**2
    np.testing.assert_allclose(D1 @ u, 5 * g.nodes**4 - 4 * g.nodes, atol=1e-11)
    np.testing.assert_allclose(D2 @ u, 20 * g.nodes**3 - 4, atol=1e-10)


# ---------------------------------------------------------------------------
# collocation of L


def test_collocation_on_legendre_operator(case4_pair):
    g = build_grid(12)
    L = collocation_L(case4_pair.op, g)
    np.testing.assert_allclose(L.entries @ g.nodes, 2 * g.nodes, atol=1e-12)
    np.testing.assert_allclose(L.entries @ g.nodes**2, 6 * g.nodes**2 - 2, atol=1e-12)


def test_collocation_identity_operator():
    op = DiffOp(a=ExpPoly.zero(), b=ExpPoly.zero(), c=ExpPoly.constant(1.0))
    g = build_grid(6)
    L = collocation_L(op, g)
    np.testing.assert_allclose(L.entries, np.eye(6), atol=1e-15)


def test_collocation_exact_on_low_degrees(sinc_pair):
    # operator reproduction on polynomials up to degree n-3
    n = 14
    g = build_grid(n)
    L = collocation_L(sinc_pair.op, g)
    x = g.nodes
    for deg in range(n - 2):
        u = x**deg
        du2 = deg * (deg - 1) * x ** max(deg - 2, 0)
        du1 = deg * x ** max(deg - 1, 0)
        expected = (x**2 - 1) / 2 * du2 + x * du1 + (np.pi**2 / 4) * (x**2 - 1) / 2 * u
        np.testing.assert_allclose(L.entries @ u, expected, atol=1e-9)


# ---------------------------------------------------------------------------
# Nystrom, regular kernels


def test_constant_kernel_row_sums():
    pair = make_pair(General(lam=2.0, mu=1.0, alpha1=1.0, alpha2=0.0))  # k = 2
    g = build_grid(16)
    K = nystrom_K(pair, g)
    np.testing.assert_allclose(K.entries @ np.ones(16), 4.0, atol=1e-13)


def test_symmetric_for_even_real_kernel(sinc_pair):
    g = build_grid(64)
    K = nystrom_K(sinc_pair, g)
    M = K.entries / g.weights[None, :]  # strip quadrature scaling
    assert np.max(np.abs(M - M.T)) <= 1e-12
    assert np.max(np.abs(M.imag)) == 0.0


def test_top_eigenvalue_real_positive_simple(sinc_pair):
    g = build_grid(64)
    K = nystrom_K(sinc_pair, g)
    mu = np.linalg.eigvals(K.entries)
    mu = mu[np.argsort(-np.abs(mu))]
    assert abs(mu[0].imag) < 1e-12
    assert mu[0].real > 0
    assert abs(mu[1]) < 0.9 * abs(mu[0])


def test_nystrom_convergence_on_constant(sinc_pair):
    # row-wise quadrature of the analytic kernel converges spectrally
    errs = []
    for n in (8, 16, 32):
        g = build_grid(n)
        K = nystrom_K(sinc_pair, g)
        approx = K.entries @ np.ones(n)
        exact = np.array(
            [_sinc_integral(x) for x in g.nodes]
        )
        errs.append(np.max(np.abs(approx - exact)))
    assert errs[1] <= errs[0] / 10
    assert errs[2] <= 1e-12


def _sinc_integral(x: float) -> float:
    # int_{-1}^{1} 2 sin(pi (x-y)/2) / ((pi/2)(x-y)) dy via Si
    from scipy.special import sici

    si_hi, _ = sici(np.pi * (x + 1) / 2)
    si_lo, _ = sici(np.pi * (x - 1) / 2)
    return (4 / np.pi) * (si_hi - si_lo)


def test_nystrom_rejects_singular(case4_pair, sinc_pair):
    with pytest.raises(SingularKernelError):
        nystrom_K(case4_pair, build_grid(8))
    with pytest.raises(RegularKernelError):
        nystrom_K_pv(sinc_pair, build_grid(8))


# ---------------------------------------------------------------------------
# Nystrom, principal value


def test_pv_pole_row_sums(case4_pair):
    g = build_grid(64)
    K = nystrom_K_pv(case4_pair, g)
    mask = g.interior()
    rowsum = (K.entries @ np.ones(64))[mask]
    np.testing.assert_allclose(rowsum, pv_log_weight(g.nodes[mask]), atol=1e-12)
    # midpoint: odd symmetry makes the pv integral vanish
    mid = np.argmin(np.abs(g.nodes))
    # x = 0 is not a node for even n; check antisymmetry instead
    np.testing.assert_allclose(rowsum, -rowsum[::-1], atol=1e-12)


@pytest.mark.parametrize("n", [32, 64, 128, 256])
def test_pv_exact_on_legendre_polynomials(case4_pair, n):
    # Neumann's formula: pv int P_k(y)/(x - y) dy = 2 Q_k(x), with the Ferrers
    # Q_k from Q_0 = log((1+x)/(1-x))/2, Q_1 = x Q_0 - 1 and the recurrence
    g = build_grid(n)
    K = nystrom_K_pv(case4_pair, g)
    mask = g.interior()
    x = g.nodes[mask]
    Q = [0.5 * pv_log_weight(x)]
    Q.append(x * Q[0] - 1.0)
    for k in range(1, 9):
        Q.append(((2 * k + 1) * x * Q[k] - k * Q[k - 1]) / (k + 1))
    P = legvander(g.nodes, 9)
    for k in range(1, 10):
        np.testing.assert_allclose((K.entries @ P[:, k])[mask], 2.0 * Q[k], rtol=0, atol=1e-12)


# kernel, its residue r and the closed form of k in mpmath
PV_ORACLE_PAIRS = {
    "case4": (Case4(beta=0.0, p=(1.0, 0.0, 0.0)), 1, lambda z: 1 / z),
    "case2": (Case2(lam=2.0, alpha=1.0, beta=1.0), 1, lambda z: 1 / mpmath.sinh(z)),
    "general_pole": (
        General(lam=2.0, mu=1.0, alpha1=1.0, alpha2=1.0),
        2,
        lambda z: 2 * mpmath.exp(z) / mpmath.sinh(z),
    ),
}


@pytest.mark.parametrize("pair_name", sorted(PV_ORACLE_PAIRS))
@pytest.mark.parametrize(
    "u, n", [(mpmath.exp, 32), (lambda y: 1 / (1 + 4 * y**2), 64)], ids=["exp", "runge"]
)
def test_pv_matches_mpmath_on_smooth_functions(pair_name, u, n):
    # pv int k(x - y) u(y) dy = int [k(x - y) u(y) - r u(x)/(x - y)] dy
    # + r u(x) log((1+x)/(1-x)); the bounded integrand is integrated by
    # mp.quad split at y = x, on 8 interior nodes (max-norm relative error)
    params, r, k = PV_ORACLE_PAIRS[pair_name]
    g = build_grid(n)
    K = nystrom_K_pv(make_pair(params), g)
    Ku = K.entries @ np.array([complex(u(mpmath.mpf(y))) for y in g.nodes])
    rows = np.linspace(1, n - 2, 8).astype(int)
    with mpmath.workdps(30):
        ref = []
        for x in (mpmath.mpf(g.nodes[i]) for i in rows):
            smooth = mpmath.quad(lambda y: k(x - y) * u(y) - r * u(x) / (x - y), [-1, x, 1])
            ref.append(complex(smooth + r * u(x) * mpmath.log((1 + x) / (1 - x))))
    ref = np.array(ref)
    assert np.max(np.abs(Ku[rows] - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_pv_closed_form_value():
    # pole-only kernel, u = 1, x = 0.5: pv integral is log(3)
    assert pv_log_weight(np.array([0.5]))[0] == pytest.approx(float(mpmath.log(3)))


def test_pv_case3_row_sums(case3_pair):
    g = build_grid(48)
    K = nystrom_K_pv(case3_pair, g)
    mask = g.interior()
    rowsum = (K.entries @ np.ones(48))[mask]
    expected = pv_log_weight(g.nodes[mask]) + 1.0  # + int of 1/beta with beta=2
    np.testing.assert_allclose(rowsum, expected, atol=1e-12)


def test_pv_endpoint_convention(case4_pair):
    g = build_grid(16)
    K = nystrom_K_pv(case4_pair, g)
    assert g.log_weight()[0] == g.log_weight()[-1] == 0.0
    assert np.all(np.isfinite(K.entries))


def test_k_reg_series_matches_direct(case2_pair):
    z = np.array([0.05, 0.099, 0.101, 0.5])
    vals = k_reg_values(case2_pair, z)
    expected = 1 / np.sinh(z) - 1 / z
    np.testing.assert_allclose(vals, expected, atol=1e-13)
