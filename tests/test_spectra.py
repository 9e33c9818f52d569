import dataclasses
import json

import numpy as np
import pytest
from numpy.polynomial.legendre import legvander

from commutant_lab import (
    DiffOp,
    EigFailure,
    ExpPoly,
    GridMismatchError,
    build_grid,
    collocation_L,
    commutator_norm,
    joint_diagonalization,
    nystrom_K,
    nystrom_K_pv,
    spectral_norm,
)
from commutant_lab import reportio
from commutant_lab.spectra import _pv_commutator


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
    with pytest.raises(EigFailure):
        spectral_norm(np.full((4, 4), np.nan))


def identity_op():
    return DiffOp(a=ExpPoly.zero(), b=ExpPoly.zero(), c=ExpPoly.constant(1.0))


def test_identity_commutes_exactly(sinc_pair):
    g = build_grid(32)
    K = nystrom_K(sinc_pair, g)
    L = collocation_L(identity_op(), g)
    assert commutator_norm(K, L) == 0.0


def test_sinc_commutator_small(sinc_pair):
    g = build_grid(64)
    K = nystrom_K(sinc_pair, g)
    L = collocation_L(sinc_pair.op, g)
    assert commutator_norm(K, L) <= 1e-8


def test_perturbed_c_breaks_commutation(sinc_pair):
    # the perturbation [K, 0.1y] is O(0.1*||K||) absolute; relative to
    # ||K|| ||L|| it shrinks as ||L|| grows, so probe at moderate n and
    # against the unperturbed floor
    op = sinc_pair.op
    bad = DiffOp(a=op.a, b=op.b, c=op.c + ExpPoly.polynomial((0.0, 0.1)))
    g = build_grid(8)
    K = nystrom_K(sinc_pair, g)
    base = commutator_norm(K, collocation_L(op, g))
    broken = commutator_norm(K, collocation_L(bad, g))
    assert broken >= 1e-3
    assert broken >= 1e3 * max(base, 1e-16)


def test_perturbed_c_breaks_pv_commutation(case4_pair):
    # the split-log pv commutator of the criterion-06 pair sits at rounding;
    # perturbing c by eps*y must show up linearly in eps
    op = case4_pair.op
    g = build_grid(8)
    K = nystrom_K_pv(case4_pair, g)
    base = commutator_norm(K, collocation_L(op, g))
    assert base <= 1e-14
    broken = []
    for eps in (1e-2, 1e-4):
        bad = DiffOp(a=op.a, b=op.b, c=op.c + ExpPoly.polynomial((0.0, eps)))
        broken.append(commutator_norm(K, collocation_L(bad, g)))
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
    mask = g.interior()
    V = legvander(g.nodes, 32)
    C = _pv_commutator(K, L)[mask] @ V
    scale = (
        spectral_norm(K.entries[np.ix_(mask, mask)])
        * spectral_norm(L.entries[np.ix_(mask, mask)])
        * spectral_norm(V[mask])
    )
    assert spectral_norm(C) <= 1e-12 * scale


def test_commutator_scale_invariance(sinc_pair):
    g = build_grid(32)
    K = nystrom_K(sinc_pair, g)
    L = collocation_L(sinc_pair.op, g)
    base = commutator_norm(K, L)
    K2 = dataclasses.replace(K, entries=7.5 * K.entries)
    L2 = dataclasses.replace(L, entries=(0.2 - 0.1j) * L.entries)
    assert commutator_norm(K2, L2) == pytest.approx(base, rel=1e-6)


def test_grid_mismatch(sinc_pair):
    K = nystrom_K(sinc_pair, build_grid(16))
    L = collocation_L(sinc_pair.op, build_grid(24))
    with pytest.raises(GridMismatchError):
        commutator_norm(K, L)


def test_joint_diagonalization_sinc(sinc_pair):
    g = build_grid(128)
    K = nystrom_K(sinc_pair, g)
    L = collocation_L(sinc_pair.op, g)
    spec = joint_diagonalization(K, L, 8)
    assert spec.offdiag_energy <= 1e-6
    assert not spec.degenerate
    # L-eigenvalues sorted ascending in modulus; all essentially real
    mags = np.abs(spec.L_eigenvalues)
    assert np.all(np.diff(mags) >= -1e-9)
    ray = spec.rayleigh[np.argsort(-np.abs(spec.rayleigh))]
    scale = np.max(np.abs(spec.K_eigenvalues_direct))
    assert np.max(np.abs(ray - spec.K_eigenvalues_direct)) <= 1e-6 * scale
    # leading mode residuals are small; trailing ones sit at the noise floor
    assert np.all(spec.mode_residuals[:4] <= 1e-8)


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
    comm = commutator_norm(K, L)
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
    rows = spec.rows()
    assert len(rows) == 3 and len(rows[0]) == 6
