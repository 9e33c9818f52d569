import dataclasses
import functools
import importlib.util
import json
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.legendre import legvander

from commutant_lab import (
    Case1,
    Case2,
    Case3,
    Case4,
    DiffOp,
    EigFailure,
    ExpPoly,
    General,
    GridMismatchError,
    build_grid,
    collocation_L,
    commutator_norm,
    joint_diagonalization,
    make_pair,
    nystrom_K,
    nystrom_K_pv,
    params_from_json,
    params_to_json,
    spectral_norm,
)
from commutant_lab import reportio
from commutant_lab import spectra
from commutant_lab.cli import DEFAULT_TOLERANCES, main
from commutant_lab.spectra import _commutator_columns

import mutations
from conftest import commutator_columns_sequential, joint_diagonalization_sequential

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def test_spectral_norm_against_svd():
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30)))
    s = np.array([10.0, 5.0] + list(np.linspace(1.0, 0.1, 28)))
    A = q @ np.diag(s) @ q.conj().T
    assert spectral_norm(A) == pytest.approx(10.0, rel=1e-9)


def test_spectral_norm_exact_on_sinc_pair(sinc_pair):
    g = build_grid(64)
    K = nystrom_K(sinc_pair, g).entries
    L = collocation_L(sinc_pair.op, g).entries
    for A in (L, K @ L - L @ K):
        top = np.linalg.svd(A, compute_uv=False)[0]
        assert spectral_norm(A) == pytest.approx(top, rel=1e-12)


def test_spectral_norm_reports_failed_svd():
    for bad in (np.nan, np.inf):
        with pytest.raises(EigFailure):
            spectral_norm(np.full((4, 4), bad))


def test_krylov_spectral_norm_reports_non_finite_input():
    # n = 256 once took a Lanczos read; the dense SVD must raise there too
    for bad in (np.nan, np.inf):
        with pytest.raises(EigFailure):
            spectral_norm(np.full((256, 256), bad))


def identity_op():
    return DiffOp(a=ExpPoly.zero(), b=ExpPoly.zero(), c=ExpPoly.constant(1.0))


def test_identity_commutes_exactly(sinc_pair):
    g = build_grid(32)
    K = nystrom_K(sinc_pair, g)
    L = collocation_L(identity_op(), g)
    assert commutator_norm(K, L)[0] == 0.0


def test_sinc_commutator_small(sinc_pair):
    g = build_grid(64)
    K = nystrom_K(sinc_pair, g)
    L = collocation_L(sinc_pair.op, g)
    assert commutator_norm(K, L)[0] <= 1e-8


def test_perturbed_c_breaks_commutation(sinc_pair):
    # the perturbation [K, 0.1y] is O(0.1*||K||) absolute; relative to
    # ||K|| ||L|| it shrinks as ||L|| grows, so probe at moderate n and
    # against the unperturbed floor
    op = sinc_pair.op
    bad = DiffOp(a=op.a, b=op.b, c=op.c + ExpPoly.polynomial((0.0, 0.1)))
    g = build_grid(8)
    K = nystrom_K(sinc_pair, g)
    base = commutator_norm(K, collocation_L(op, g))[0]
    broken = commutator_norm(K, collocation_L(bad, g))[0]
    assert broken >= 1e-3
    assert broken >= 1e3 * max(base, 1e-16)


def test_perturbed_c_breaks_pv_commutation(case4_pair):
    # the split-log pv commutator of the criterion-06 pair sits at rounding;
    # perturbing c by eps*y must show up linearly in eps
    op = case4_pair.op
    g = build_grid(8)
    K = nystrom_K_pv(case4_pair, g)
    base = commutator_norm(K, collocation_L(op, g))[0]
    assert base <= 1e-14
    broken = []
    for eps in (1e-2, 1e-4):
        bad = DiffOp(a=op.a, b=op.b, c=op.c + ExpPoly.polynomial((0.0, eps)))
        broken.append(commutator_norm(K, collocation_L(bad, g))[0])
    assert broken[0] >= 1e-5
    assert broken[0] / broken[1] == pytest.approx(100.0, rel=1e-3)


@pytest.mark.parametrize("fixture", ["case1_pair", "case2_pair", "case3_pair", "case4_pair"])
def test_pv_split_commutator_exact_on_low_degrees(fixture, request):
    # the split-log form is exact calculus: on Legendre P_0..P_{n/2}, where
    # nothing aliases, the interior commutator is at rounding for every pole pair
    pair = request.getfixturevalue(fixture)
    g = build_grid(64)
    K = nystrom_K_pv(pair, g)
    L = collocation_L(pair.op, g)
    V = legvander(g.nodes, 32)
    C = _commutator_columns(K, L, V, g.D1 @ V)[0][1:-1]
    scale = (
        spectral_norm(K.entries[1:-1, 1:-1]) * spectral_norm(L.entries[1:-1, 1:-1]) * spectral_norm(V[1:-1])
    )
    assert spectral_norm(C) <= 1e-12 * scale


def test_commutator_scale_invariance(sinc_pair):
    g = build_grid(32)
    K = nystrom_K(sinc_pair, g)
    L = collocation_L(sinc_pair.op, g)
    base = commutator_norm(K, L)[0]
    K2 = dataclasses.replace(K, entries=7.5 * K.entries)
    L2 = dataclasses.replace(L, entries=(0.2 - 0.1j) * L.entries)
    assert commutator_norm(K2, L2)[0] == pytest.approx(base, rel=1e-6)


def test_grid_mismatch(sinc_pair):
    K = nystrom_K(sinc_pair, build_grid(16))
    L = collocation_L(sinc_pair.op, build_grid(24))
    with pytest.raises(GridMismatchError):
        commutator_norm(K, L)


def test_pv_commutator_needs_an_interior_node(case4_pair):
    # n = 2: both nodes are +-1, so the restricted commutator would be 0/0;
    # the zero L: s_0 = 0, so the normalizer t s_0 is 0 and the quotient
    # would mean nothing
    zero = DiffOp(a=ExpPoly.zero(), b=ExpPoly.zero(), c=ExpPoly.zero())
    cases = [(2, case4_pair.op, "interior"), (8, zero, "normalizer")]
    for n, op, match in cases:
        g = build_grid(n)
        with pytest.raises(ValueError, match=match):
            commutator_norm(nystrom_K_pv(case4_pair, g), collocation_L(op, g))


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("alpha2", [0.0, 1.0])
def test_commutator_reads_an_L_that_annihilates_constants(alpha2, n):
    # lambda^2/4 = mu^2 gives nu = 0, so c = nu a = 0 and L p_0 = 0: a
    # normalizer ||L p_k|| per degree would divide by 0 at k = 0, and by
    # rounding-sized ||L p_0|| in floating point
    pair = make_pair(General(lam=2.0, mu=1.0, alpha1=1.0, alpha2=alpha2))
    K, L = matrices(pair.params, n)
    assert np.all(pair.op.c(K.grid.nodes) == 0.0)
    read, degree = commutator_norm(K, L)
    check = "commutator_pv_rel" if pair.kernel.singular else "commutator_rel"
    assert np.isfinite(read) and read <= DEFAULT_TOLERANCES[check]
    assert 0 <= degree <= n // 2


@pytest.mark.parametrize("n", [64, 256, 512])
def test_benchmark_draws_pass_the_commutator_check(n):
    # every pair commutes by construction: the 36 draws of certify seed 1,
    # 6 analytic and 30 with a pole, at both benchmark grid sizes and at
    # n = 512, the largest n these draws pass the default tolerances at (the
    # read's floor grows with n: certify seed 2 job 27 reads 1.23e-8 at 512,
    # and at 1024 pole draws read up to 2.6e-8)
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    worst = {}
    for i in range(36):
        params = params_from_json(workloads.job_config("certify", 1, i)["params"])
        K, L = matrices(params, n)
        check = "commutator_pv_rel" if K.kernel.singular else "commutator_rel"
        worst[check] = max(worst.get(check, 0.0), commutator_norm(K, L)[0])
    print(f"n = {n}: largest reads {worst}")
    assert all(read <= DEFAULT_TOLERANCES[check] for check, read in worst.items()), worst
    assert len(worst) == 2


# pole pairs with 0.1 <= |lambda| < 0.2, where D and a switch form together
SMALL_RATE_POLES = {
    "case2": Case2(lam=0.15 * np.exp(-1.2j), alpha=0.7, beta=0.3j),
    "general": General(lam=0.15 * np.exp(0.7j), mu=1.1 - 0.4j, alpha1=0.6 + 0.2j, alpha2=-0.5 + 0.3j),
}


@pytest.mark.parametrize("n, floor", [(64, 1e-12), (256, 5e-11)])
@pytest.mark.parametrize("draw", sorted(SMALL_RATE_POLES))
def test_small_rate_pole_pairs_commute_at_the_floor(draw, n, floor):
    # built in one form, these read 2.6e-13 - 2.1e-11; with D in Taylor form
    # and a in exponential form they read 1.4e-11 - 1.7e-9
    read = commutator_norm(*matrices(SMALL_RATE_POLES[draw], n))[0]
    assert read <= floor, read


@pytest.mark.parametrize("n", mutations.NS)
@pytest.mark.parametrize("mutation", sorted(mutations.MUTATIONS))
@pytest.mark.parametrize("path", sorted(mutations.PATHS))
def test_commutator_mutation_matrix(path, mutation, n):
    # the CLI check passes the pair and fails each breaking mutation at the
    # detection eps; moving alpha1 keeps the kernel in L's commutant
    tol = DEFAULT_TOLERANCES[mutations.CHECKS[path]]
    assert mutations.read(path, mutation, n, 0.0) <= tol
    breaks = mutations.MUTATIONS[mutation][1]
    for eps in (mutations.DETECT_EPS,) if breaks else (mutations.DETECT_EPS, 1e-3):
        assert (mutations.read(path, mutation, n, eps) > tol) == breaks


def test_pv_modes_need_as_many_interior_nodes():
    # at n = 3 two pv modes would be normalized over one interior node
    pair = make_pair(General(lam=0.5, mu=1j, alpha1=1.0, alpha2=1.0))
    g = build_grid(3)
    K, L = nystrom_K_pv(pair, g), collocation_L(pair.op, g)
    with pytest.raises(ValueError, match="exceeds the 1 nodes"):
        joint_diagonalization(K, L, 2)
    assert joint_diagonalization(K, L, 1).offdiag_energy == 0.0


def test_joint_diagonalization_sinc(sinc_pair):
    g = build_grid(128)
    K = nystrom_K(sinc_pair, g)
    L = collocation_L(sinc_pair.op, g)
    spec = joint_diagonalization(K, L, 8)
    assert spec.offdiag_energy <= 1e-6
    # L is self-adjoint, so its modes are orthonormal in the weighted metric
    assert spec.eigvec_cond == pytest.approx(1.0, abs=1e-9)
    assert not spec.degenerate
    # L-eigenvalues sorted ascending in modulus; all essentially real
    mags = np.abs(spec.L_eigenvalues)
    assert np.all(np.diff(mags) >= -1e-9)
    ray = spec.rayleigh[np.argsort(-np.abs(spec.rayleigh))]
    scale = np.max(np.abs(spec.K_eigenvalues_direct))
    assert np.max(np.abs(ray - spec.K_eigenvalues_direct)) <= 1e-6 * scale
    # leading mode residuals are small; trailing ones sit at the noise floor
    assert np.all(spec.mode_residuals[:4] <= 1e-8)


@pytest.mark.parametrize(
    "params",
    [
        General(lam=0.05 + 1.8j, mu=-1.42 + 1.79j, alpha1=-0.38 - 0.15j, alpha2=0.0),
        General(lam=1.3 - 0.4j, mu=0.6 + 1.1j, alpha1=0.7, alpha2=0.0),
    ],
    ids=["draw", "mixed"],
)
def test_offdiag_on_non_normal_analytic_pairs(params):
    # complex lambda and mu make L non-normal: its eigenvectors are not
    # orthogonal, but V^-1 K V is still diagonal for a commuting pair, while
    # c -> c + 1e-3 y breaks the commutation and shows off the diagonal
    pair = make_pair(params)
    g = build_grid(64)
    K = nystrom_K(pair, g)
    spec = joint_diagonalization(K, collocation_L(pair.op, g), 8)
    assert spec.offdiag_energy <= 1e-10
    assert 1.05 < spec.eigvec_cond < 10.0
    op = pair.op
    bad = DiffOp(a=op.a, b=op.b, c=op.c + ExpPoly.polynomial((0.0, 1e-3)))
    assert joint_diagonalization(K, collocation_L(bad, g), 8).offdiag_energy >= 1e-5


def test_joint_diagonalization_degenerate_flag(sinc_pair):
    g = build_grid(32)
    K = nystrom_K(sinc_pair, g)
    L = collocation_L(identity_op(), g)
    spec = joint_diagonalization(K, L, 4)
    assert spec.degenerate


def test_mode_residual_bounded_by_commutator_over_gap(sinc_pair):
    # empirical constant in: residual_j <= C * comm / gap_j for separated modes
    g = build_grid(96)
    K = nystrom_K(sinc_pair, g)
    L = collocation_L(sinc_pair.op, g)
    comm = commutator_norm(K, L)[0]
    spec = joint_diagonalization(K, L, 4)
    lam = spec.L_eigenvalues
    C = 0.0
    for j in range(4):
        gap = min(abs(lam[j] - lam[i]) for i in range(len(lam)) if i != j)
        C = max(C, spec.mode_residuals[j] * gap / max(comm, 1e-300))
    print(f"empirical residual/gap constant C = {C:.3e}")
    assert C < 1e6  # sanity envelope; the point is the residuals track comm/gap


def test_real_even_kernel_has_real_spectrum(sinc_pair):
    # real even kernel: symmetric matrix in the weighted metric, real spectrum
    g = build_grid(48)
    K = nystrom_K(sinc_pair, g)
    mu = np.linalg.eigvals(K.entries)
    assert np.max(np.abs(mu.imag)) <= 1e-10


def test_singular_interior_report(case1_pair):
    # non-compact singular K: the report is produced with interior weighting,
    # no eigenfunction-quality assertion is mathematically available
    g = build_grid(48)
    K = nystrom_K_pv(case1_pair, g)
    L = collocation_L(case1_pair.op, g)
    spec = joint_diagonalization(K, L, 4)
    assert np.all(np.isfinite(spec.mode_residuals))
    assert len(spec.rayleigh) == 4


def test_report_serialization(sinc_pair):
    g = build_grid(24)
    K = nystrom_K(sinc_pair, g)
    L = collocation_L(sinc_pair.op, g)
    spec = joint_diagonalization(K, L, 3)
    obj = json.loads(reportio.dumps(spec))
    assert len(obj["L_eigenvalues"]) == 3
    assert obj["eigvec_cond"] == spec.eigvec_cond
    assert obj["mode_cond"] == spec.mode_cond.tolist()
    rows = spec.rows()
    assert len(rows) == 3 and len(rows[0]) == 6


def legendre_op():
    """((1 - y^2) u')': collocation on LGL maps degree <= n-1 to itself, so
    its eigenvalues there are exactly -k(k+1), k = 0, 1, ..., one of them 0."""
    return DiffOp(
        a=ExpPoly.polynomial((1.0, 0.0, -1.0)), b=ExpPoly.polynomial((0.0, -2.0)), c=ExpPoly.zero()
    )


@pytest.mark.parametrize("n", [16, 64, 256])
def test_legendre_operator_modes_exact(sinc_pair, n):
    # L is singular, so X = (L - sigma I)^-1 needs the shift; at n = 16 the
    # Krylov space is the whole space
    g = build_grid(n)
    spec = joint_diagonalization(nystrom_K(sinc_pair, g), collocation_L(legendre_op(), g), 8)
    k = np.arange(8)
    assert np.max(np.abs(spec.L_eigenvalues - (-k * (k + 1)))) <= 1e-9
    # P_0..P_7 are orthogonal under the LGL rule, and L is self-adjoint there,
    # so each eigenvalue is perfectly conditioned
    assert spec.eigvec_cond == pytest.approx(1.0, abs=1e-9)
    assert np.max(np.abs(spec.mode_cond - 1.0)) <= 1e-9


def dense_reference(K, L, m):
    """(L eigenvalues, rayleigh, offdiag, eigvec_cond) from the full eig(L):
    G = (V^-1 K V)[:m, :m] for the whole eigenbasis V."""
    lam, V = np.linalg.eig(L.entries)
    order = np.argsort(np.abs(lam))
    lam, V = lam[order][:m], V[:, order]
    rows = slice(1, -1) if K.kernel.singular else slice(None)
    wi = K.grid.weights[rows]
    V[:, :m] /= np.sqrt(np.einsum("i,ij->j", wi, np.abs(V[rows, :m]) ** 2))
    G = np.linalg.solve(V, K.entries @ V[:, :m])[:m]
    rayleigh = np.diag(G)
    close = np.abs(lam[:, None] - lam[None, :]) <= 1e-8 * np.max(np.abs(lam))
    offdiag = np.max(np.abs(G[~close])) / np.max(np.abs(rayleigh))
    return lam, rayleigh, offdiag, np.linalg.cond(np.sqrt(wi)[:, None] * V[rows, :m])


# one complex draw per variant; case1 with m = 0 has eigvec_cond ~ 1e3
REFERENCE_DRAWS = {
    "general-analytic": General(lam=0.05 + 1.8j, mu=-1.42 + 1.79j, alpha1=-0.38 - 0.15j, alpha2=0.0),
    "general-pole": General(lam=0.77 - 1.11j, mu=1.24 - 1.24j, alpha1=-0.35 + 0.21j, alpha2=0.71 - 0.52j),
    "case1": Case1(m=0, alpha=-0.73 + 0.98j, beta=-0.93 + 0.06j),
    "case2": Case2(lam=-0.68 + 1.07j, alpha=-0.83 + 0.2j, beta=0.52 + 0.17j),
    "case3": Case3(beta=0.33 - 0.48j, p=(-0.46 - 0.43j, 0.0, 0.74 + 0.53j)),
    "case4": Case4(beta=-0.99 - 0.69j, p=(0.72 - 0.6j, 0.61 - 0.33j, 0.43 + 0.62j)),
}


def matrices(params, n):
    pair = make_pair(params)
    g = build_grid(n)
    K = nystrom_K_pv(pair, g) if pair.kernel.singular else nystrom_K(pair, g)
    return K, collocation_L(pair.op, g)


@pytest.mark.parametrize("n", [32, 64, 128])
@pytest.mark.parametrize("variant", sorted(REFERENCE_DRAWS))
def test_joint_diagonalization_matches_dense_eig(variant, n):
    K, L = matrices(REFERENCE_DRAWS[variant], n)
    spec = joint_diagonalization(K, L, 8)
    lam, rayleigh, offdiag, cond = dense_reference(K, L, 8)
    # same modes in the same order; relative to the largest of the m, since
    # one of them may lie near 0
    if cond <= 100:
        assert np.max(np.abs(spec.L_eigenvalues - lam)) <= 1e-10 * np.max(np.abs(lam))
    # rounding, amplified by the conditioning of the modes
    tol = 1e-11 * cond**2
    assert abs(spec.eigvec_cond - cond) <= tol * cond
    assert np.max(np.abs(spec.rayleigh - rayleigh)) <= tol * spectral_norm(K.entries)
    assert abs(spec.offdiag_energy - offdiag) <= tol * max(offdiag, 1.0)


@pytest.mark.parametrize("variant", sorted(REFERENCE_DRAWS))
def test_l_modes_match_arpack_shift_invert(variant):
    # an independent implementation: ARPACK's shift-invert mode about 0 gives
    # the 8 eigenvalues of smallest modulus
    from scipy.sparse.linalg import eigs

    K, L = matrices(REFERENCE_DRAWS[variant], 256)
    spec = joint_diagonalization(K, L, 8)
    ref = eigs(L.entries, k=8, sigma=0.0, which="LM", return_eigenvectors=False)
    ref = ref[np.argsort(np.abs(ref))]
    # ill-conditioned pole modes differ between solvers by up to ~6e-7
    tol = 1e-10 if spec.eigvec_cond <= 100 else 1e-6
    assert np.max(np.abs(spec.L_eigenvalues - ref)) <= tol * np.max(np.abs(ref))


def test_joint_diagonalization_never_eigs_the_full_l(monkeypatch):
    K, L = matrices(REFERENCE_DRAWS["general-analytic"], 128)
    shapes = []
    eig = np.linalg.eig

    def recording_eig(a):
        shapes.append(np.shape(a))
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", recording_eig)
    joint_diagonalization(K, L, 8)
    assert (128, 128) not in shapes


def test_joint_diagonalization_is_deterministic():
    K, L = matrices(REFERENCE_DRAWS["case4"], 64)
    a, b = joint_diagonalization(K, L, 8), joint_diagonalization(K, L, 8)
    assert np.array_equal(a.L_eigenvalues, b.L_eigenvalues)
    assert np.array_equal(a.rayleigh, b.rayleigh)


def assert_same_report(a, b):
    for field in dataclasses.fields(a):
        assert np.array_equal(getattr(a, field.name), getattr(b, field.name)), field.name


def record_worker_calls(monkeypatch, failing=None) -> list:
    """Wrap the second call of every ``_beside`` from here on.  Each is
    recorded as None until it starts, "running" until it has returned or
    raised, then True if it ran on the worker thread and False if on this
    one; the one numbered ``failing`` runs out of memory in place of its
    work."""
    calls, beside = [], spectra._beside

    def recording(first, second, n):
        i = len(calls)
        calls.append(None)

        def recorded():
            calls[i] = "running"
            try:
                if i == failing:
                    raise MemoryError("Unable to allocate 516 KiB for an array with shape (256, 129)")
                return second()
            finally:
                calls[i] = threading.current_thread().name == "commutant-lab-worker"

        return beside(first, recorded, n)

    monkeypatch.setattr(spectra, "_beside", recording)
    return calls


def assert_worker_idle(calls, worker_calls):
    """The worker ran worker_calls of the recorded calls, no recorded call
    is still running, and none is left queued."""
    assert "running" not in calls and calls.count(True) == worker_calls
    assert spectra._CALLS.empty()


@pytest.mark.parametrize("n", [64, 128, 256])
@pytest.mark.parametrize("variant", sorted(REFERENCE_DRAWS))
def test_joint_diagonalization_equals_the_sequential_reads(variant, n, monkeypatch):
    # from _KRYLOV_N rows on, K is read on the worker thread while L's
    # modes are read here; the report is the sequential order's, bit for bit
    K, L = matrices(REFERENCE_DRAWS[variant], n)
    calls = record_worker_calls(monkeypatch)
    assert_same_report(joint_diagonalization(K, L, 8), joint_diagonalization_sequential(K, L, 8))
    assert None not in calls and len(calls) == 1
    assert_worker_idle(calls, n >= spectra._KRYLOV_N)


@pytest.mark.parametrize("n", [64, 128, 256])
@pytest.mark.parametrize("variant", sorted(REFERENCE_DRAWS))
def test_commutator_equals_the_sequential_products(variant, n, monkeypatch):
    # from _KRYLOV_N rows on, K X and then K (L X) run on the worker thread
    # while L X and L (K X) run here; the columns and the read are the
    # sequential order's, bit for bit, for X in either memory order
    K, L = matrices(REFERENCE_DRAWS[variant], n)
    X, DX = K.grid.legendre, K.grid.dlegendre
    calls = record_worker_calls(monkeypatch)
    for Y in (X, np.ascontiguousarray(X)):
        got, expected = _commutator_columns(K, L, Y, DX), commutator_columns_sequential(K, L, Y, DX)
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))
        assert None not in calls and len(calls) == 2
        assert_worker_idle(calls, 2 * (n >= spectra._KRYLOV_N))
        calls.clear()
    read = commutator_norm(K, L)
    monkeypatch.setattr(spectra, "_commutator_columns", commutator_columns_sequential)
    assert read == commutator_norm(K, L)


@pytest.mark.parametrize("failing", [0, 1], ids=["K X", "K L X"])
@pytest.mark.parametrize("variant", ["general-analytic", "case4"])
def test_failing_worker_product_reaches_the_caller(variant, failing, monkeypatch):
    # a worker product that runs out of memory: the caller of
    # commutator_norm gets its error, the worker is left idle, and the next
    # call reads as if it never happened
    K, L = matrices(REFERENCE_DRAWS[variant], 256)
    with monkeypatch.context() as patch:
        patch.setattr(spectra, "_commutator_columns", commutator_columns_sequential)
        fresh = commutator_norm(K, L)
    with monkeypatch.context() as patch:
        calls = record_worker_calls(patch, failing)
        with pytest.raises(MemoryError, match="Unable to allocate"):
            commutator_norm(K, L)
    assert len(calls) == failing + 1
    assert_worker_idle(calls, failing + 1)
    assert commutator_norm(K, L) == fresh


def test_beside_raises_the_calling_thread_failure_first(monkeypatch):
    # both calls fail: first's failure is raised, after the worker has
    # finished second from _KRYLOV_N rows on; below, second never runs
    def first():
        raise ValueError("first")

    def second():
        raise MemoryError("second")

    for n in (spectra._KRYLOV_N - 1, spectra._KRYLOV_N):
        with monkeypatch.context() as patch:
            calls = record_worker_calls(patch)
            with pytest.raises(ValueError, match="first") as failure:
                spectra._beside(first, second, n)
        assert failure.value.__context__ is None
        assert calls == ([True] if n >= spectra._KRYLOV_N else [None])
        assert spectra._CALLS.empty()
    with pytest.raises(MemoryError, match="second"):
        spectra._beside(lambda: 0, second, spectra._KRYLOV_N)
    assert spectra._beside(lambda: 0, lambda: 1, spectra._KRYLOV_N) == (0, 1)


def test_the_worker_keeps_nothing_of_a_finished_call():
    # the worker thread must not hold a caller's arrays into the next job:
    # once _beside has returned, second's argument is gone without a
    # collection
    payload = np.ones(8)
    alive = weakref.ref(payload)
    second = functools.partial(np.sum, payload)
    del payload
    assert spectra._beside(lambda: 0, second, spectra._KRYLOV_N) == (0, 8.0)
    del second
    assert alive() is None


@pytest.mark.parametrize("n", [32, 128, 256])
def test_uncertified_modes_raise(sinc_pair, monkeypatch, n):
    g = build_grid(n)
    K, L = nystrom_K(sinc_pair, g), collocation_L(sinc_pair.op, g)
    fresh = joint_diagonalization_sequential(K, L, 4)
    calls = record_worker_calls(monkeypatch)
    with monkeypatch.context() as patch:
        # both reads fail their certificates (K's from _KRYLOV_N rows on):
        # L's failure is raised, as in the sequential order
        patch.setattr(spectra, "_BACKWARD_TOL", 1e-30)
        with pytest.raises(EigFailure, match="backward error") as failure:
            joint_diagonalization(K, L, 4)
    assert failure.value.mode.startswith("L mode")
    assert_same_report(joint_diagonalization(K, L, 4), fresh)
    bad = dataclasses.replace(L, entries=np.full_like(L.entries, np.nan))
    with pytest.raises(EigFailure):
        joint_diagonalization(K, bad, 4)
    assert_same_report(joint_diagonalization(K, L, 4), fresh)
    assert len(calls) == 4
    assert_worker_idle(calls, 4 * (n >= spectra._KRYLOV_N))


@pytest.mark.parametrize("n", [128, 256])
def test_uncertified_k_read_raises_when_l_modes_pass(monkeypatch, n):
    K, L = matrices(REFERENCE_DRAWS["general-analytic"], n)
    fresh = joint_diagonalization_sequential(K, L, 8)
    certify = spectra._certify

    def strict_on_k(what, lam, R, V, scale):
        certify(what, lam, R, V, scale * 1e-30 if what == "K eigenvalue" else scale)

    calls = record_worker_calls(monkeypatch)
    with monkeypatch.context() as patch:
        patch.setattr(spectra, "_certify", strict_on_k)
        with pytest.raises(EigFailure, match="backward error") as failure:
            joint_diagonalization(K, L, 8)
    assert failure.value.mode.startswith("K eigenvalue")
    assert_same_report(joint_diagonalization(K, L, 8), fresh)
    assert len(calls) == 2
    assert_worker_idle(calls, 2)


def test_mode_cond_sees_one_ill_conditioned_eigenvalue():
    # spectral benchmark seed 1 job 8: the modes as a set read eigvec_cond
    # 572, while the eigenvalue of mode 7 has condition 1.0e7
    params = Case1(
        m=1, alpha=-0.5220061228014192 + 0.19209830093597247j, beta=0.3861450876099437 - 0.2747183483368849j
    )
    K, L = matrices(params, 256)
    spec = joint_diagonalization(K, L, 8)
    assert spec.eigvec_cond < 1e3
    assert np.max(spec.mode_cond) >= 1e6
    assert np.all(spec.mode_cond >= 1.0 - 1e-12)


def test_l_modes_certified_with_the_shift_next_to_an_eigenvalue():
    # spectral benchmark seed 1410 job 231: the shift lies 0.003 from L's
    # smallest eigenvalue, so ||X|| is 300 |theta| of the next mode, whose
    # left Ritz vector kept a backward error of 1.8e-12 before the refined
    # inverse-iteration step
    params = Case2(
        lam=0.9723215095126752 - 0.30722172315587404j,
        alpha=0.5099164815393598 - 0.29844113099341874j,
        beta=-0.2449335958099026 + 0.9139687794580516j,
    )
    _, L = matrices(params, 256)
    lam, V, U = spectra._l_modes(L, 8)
    sigma = -spectra._SHIFT * np.max(np.abs(L.op.a(L.grid.nodes)))
    assert np.min(np.abs(lam - sigma)) < 0.01
    A = L.entries
    scale = np.linalg.norm(A)
    right = np.linalg.norm(A @ V - lam * V, axis=0) / np.linalg.norm(V, axis=0)
    Uh = U.conj().T
    left = np.linalg.norm(Uh @ A - lam[:, None] * Uh, axis=1) / np.linalg.norm(U, axis=0)
    assert np.max(np.maximum(right, left)) <= 1e-13 * scale


def test_l_modes_certified_on_a_benign_left_mode(tmp_path):
    # certify benchmark seed 1508 job 790: left mode 7 (eigenvalue
    # 10.78 - 42.96i, condition 1.76) read 1.19e-12 when the left run
    # applied X^H without refinement and repaired its modes afterwards
    params = Case3(
        beta=-0.715941418452439 + 1.2373471749031455j,
        p=(0.14203216638408178 - 0.6195488089553944j, 0j, 0.12178057032842271 - 0.32489834106628535j),
    )
    K, L = matrices(params, 64)
    joint_diagonalization(K, L, 8)
    lam, V, U = spectra._l_modes(L, 8)
    A = L.entries
    scale = np.linalg.norm(A)
    right = np.linalg.norm(A @ V - lam * V, axis=0) / np.linalg.norm(V, axis=0)
    Uh = U.conj().T
    left = np.linalg.norm(Uh @ A - lam[:, None] * Uh, axis=1) / np.linalg.norm(U, axis=0)
    assert np.max(np.maximum(right, left)) <= spectra._BACKWARD_TOL * scale

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": params_to_json(params), "n": 64, "m": 8}))
    out = tmp_path / "out"
    main(["spectrum", "--config", str(cfg), "--out", str(out), "--quiet"])
    names = [check["name"] for check in json.loads((out / "report.json").read_text())["checks"]]
    assert names == ["offdiag", "rayleigh_rel"]


@pytest.mark.parametrize("n", [128, 256])
@pytest.mark.parametrize("variant", sorted(REFERENCE_DRAWS))
def test_krylov_reads_match_dense(variant, n):
    K, L = matrices(REFERENCE_DRAWS[variant], n)
    # set-wise: pole K's top eigenvalues come in equal-modulus clusters, and
    # which members of a cluster are listed is arbitrary for either solver
    mu = joint_diagonalization(K, L, 8).K_eigenvalues_direct
    dense = np.linalg.eigvals(K.entries)
    scale = np.max(np.abs(dense))
    assert np.max(np.min(np.abs(mu[:, None] - dense[None, :]), axis=1)) <= 1e-12 * scale
    top = np.sort(np.abs(dense))[::-1][:8]
    assert np.max(np.abs(np.abs(mu) - top)) <= 1e-12 * scale
    assert np.all(np.diff(np.abs(mu)) <= 0.0)


def record_decompositions(monkeypatch) -> list:
    """Record the (name, shape) of every eigen- or singular-value call
    through np.linalg from here on; norm(A, 2) calls LAPACK's SVD without
    going through np.linalg.svd, so it counts, other norms do not."""
    calls = []

    def recording(fn, name):
        def wrapper(a, *args, **kwargs):
            if name != "norm" or args[:1] == (2,) or kwargs.get("ord") == 2:
                calls.append((name, np.shape(a)))
            return fn(a, *args, **kwargs)

        return wrapper

    for name in ("eig", "eigvals", "eigh", "eigvalsh", "svd", "norm"):
        monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg, name), name))
    return calls


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("variant", ["general-analytic", "case4"])
def test_commutator_runs_no_solver(variant, n, monkeypatch):
    # the read takes products and column norms on the Legendre columns only
    K, L = matrices(REFERENCE_DRAWS[variant], n)
    calls = record_decompositions(monkeypatch)
    commutator_norm(K, L)
    assert calls == []


@pytest.mark.parametrize("variant", ["general-analytic", "case4"])
def test_matrix_path_never_decomposes_a_full_matrix(variant, monkeypatch):
    # above the crossover K's eigenvalues come from a Krylov read, and L's
    # modes always do
    n = 256
    K, L = matrices(REFERENCE_DRAWS[variant], n)
    shapes = record_decompositions(monkeypatch)
    commutator_norm(K, L)
    joint_diagonalization(K, L, 8)
    assert shapes and all(min(shape) < n - 2 for _, shape in shapes), shapes


def test_uncertified_krylov_reads_raise(monkeypatch):
    K, L = matrices(REFERENCE_DRAWS["general-analytic"], 128)
    monkeypatch.setattr(spectra, "_BACKWARD_TOL", 1e-30)
    with pytest.raises(EigFailure, match="K eigenvalue 0 .* backward error"):
        spectra._k_dominant(K.entries, 8)
