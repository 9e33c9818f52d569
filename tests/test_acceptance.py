"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  Two
criteria measure against a derived reference rather than a raw matrix
product: 4b asks for a decade of commutator decay per doubling of n on
every doubling above the double-precision rounding floor (1e3 eps), and
6 measures the pv commutator in the split-log form K = r diag(l) + S
(``spectra.commutator_norm``), since L applied to the endpoint-log part
of K is not a polynomial.
"""

import dataclasses
import json

import numpy as np

from commutant_lab import (
    Case1,
    Case2,
    Case3,
    Case4,
    DiffOp,
    ExpPoly,
    General,
    adjoint_coeffs,
    build_grid,
    classify_trivial,
    collocation_L,
    commutator_norm,
    interior_points,
    is_normal,
    is_selfadjoint,
    joint_diagonalization,
    lemma_coeff_check,
    make_pair,
    nystrom_K,
    nystrom_K_pv,
    phi_defect,
    pv_log_weight,
    residual_R1,
    singular_relation_check,
    taylor_relation_check,
)
from commutant_lab.cli import main as cli_main
from conftest import CallableCoeff, refusal_reason, selfadjoint_matrix_defect

SINC = General(lam=0.0, mu=1j * np.pi / 2, alpha1=1.0, alpha2=0.0)
ANALYTIC = General(lam=1.0, mu=2.0, alpha1=1.0, alpha2=0.0)

SPECIAL_CHOICES = [
    Case1(m=0, alpha=1.0, beta=1.0),
    Case1(m=1, alpha=0.3 + 0.2j, beta=1.1),
    Case2(lam=2.0, alpha=1.0, beta=1.0),
    Case2(lam=1.0 + 0.8j, alpha=0.5j, beta=0.7),
    Case3(beta=2.0, p=(1.0, 0.0, 0.0)),
    Case3(beta=0.8 - 0.3j, p=(1.0, 0.0, 0.4)),
    Case4(beta=0.0, p=(1.0, 0.0, 0.0)),
    Case4(beta=0.7, p=(0.2, -0.5, 1.1)),
]


def announce(tag: str, ok: bool, detail: str) -> None:
    print(f"criterion {tag}: {'PASS' if ok else 'FAIL'} - {detail}")


def seeded_general_draws(seed: int = 42, count: int = 25):
    rng = np.random.default_rng(seed)
    draws = []
    while len(draws) < count:
        lam = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        mu = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        a1 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        a2 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) if len(draws) % 2 == 0 else 0j
        params = General(lam=lam, mu=mu, alpha1=a1, alpha2=a2)
        if refusal_reason(params) is not None or classify_trivial(params):
            continue
        draws.append(params)
    return draws


def test_criterion_01_identity_residuals():
    worst = 0.0
    for params in seeded_general_draws():
        rep = residual_R1(make_pair(params))
        worst = max(worst, rep.max_abs / rep.scale)
    for params in SPECIAL_CHOICES:
        rep = residual_R1(make_pair(params))
        worst = max(worst, rep.max_abs / rep.scale)
    case4 = residual_R1(make_pair(Case4(beta=0.0, p=(1.0, 0.0, 0.0))))
    ok = worst <= 1e-9 and case4.max_abs <= 1e-13
    announce("01", ok, f"worst rel residual {worst:.2e}; case4 abs {case4.max_abs:.2e}")
    assert worst <= 1e-9
    assert case4.max_abs <= 1e-13


def test_criterion_02_sensitivity():
    results = []
    for params in (ANALYTIC, SINC):
        pair = make_pair(params)
        for eps in (1e-2, 1e-4):
            op = pair.op
            pert = DiffOp(a=op.a, b=op.b, c=op.c + ExpPoly.polynomial((0.0, eps)))
            rep = residual_R1(dataclasses.replace(pair, op=pert, nu=None))
            rel = rep.max_abs / rep.scale
            results.append((eps, rel))
    ok = all(0.1 * eps <= rel <= 10 * eps for eps, rel in results)
    announce("02", ok, "; ".join(f"eps={eps:.0e} rel={rel:.2e}" for eps, rel in results))
    for eps, rel in results:
        assert 0.1 * eps <= rel <= 10 * eps


def test_criterion_03_series_system():
    analytic_pairs = [
        make_pair(ANALYTIC),
        make_pair(SINC),
        make_pair(General(lam=2.0, mu=0.0, alpha1=1.0, alpha2=0.0)),
    ]
    worst_taylor = max(float(np.max(taylor_relation_check(p, N=6))) for p in analytic_pairs)
    worst_nu = 0.0
    worst_odd = 0.0
    for pair in analytic_pairs:
        out = lemma_coeff_check(pair)
        lam, mu = pair.params.lam, pair.params.mu
        worst_nu = max(worst_nu, abs(out["nu"] - (lam**2 / 4 - mu**2)))
        s = pair.kernel.series
        worst_odd = max(worst_odd, abs(s[1]), abs(s[3]))
    fix = make_pair(ANALYTIC)
    k = fix.kernel.series
    k0, k2 = k[0], 2.0 * k[2]
    nu = lemma_coeff_check(fix)["nu"]
    fixture_ok = (
        abs(k0 - 2.0) <= 1e-12 and abs(k2 - 2.5) <= 1e-12 and abs(nu + 3.75) <= 1e-9
    )
    ok = worst_taylor <= 1e-10 and worst_nu <= 1e-9 and worst_odd <= 1e-12 and fixture_ok
    announce(
        "03",
        ok,
        f"taylor {worst_taylor:.2e}; nu err {worst_nu:.2e}; odd coeffs {worst_odd:.2e}; "
        f"fixture k0={k0.real:g} k2={k2.real:g} nu={nu.real:g}",
    )
    assert worst_taylor <= 1e-10
    assert worst_nu <= 1e-9
    assert worst_odd <= 1e-12
    assert fixture_ok


def _sinc_commutator(n: int) -> float:
    pair = make_pair(SINC)
    grid = build_grid(n)
    return commutator_norm(nystrom_K(pair, grid), collocation_L(pair.op, grid))[0]


def test_criterion_04a_regular_commutator():
    c64 = _sinc_commutator(64)
    ok = c64 <= 1e-8
    announce("04a", ok, f"n=64 relative commutator {c64:.2e}")
    assert c64 <= 1e-8


def test_criterion_04b_commutator_decay_ratio():
    # a decade of decay per doubling of n (spectral convergence), tested on
    # every doubling that starts above the rounding floor; for this entire
    # kernel the commutator reaches that floor near n = 16, so the decay is
    # measured on the ladder below it and c32, c64 must stay at the floor
    ladder = (4, 8, 16, 32, 64)
    comms = [_sinc_commutator(n) for n in ladder]
    floor = 1e3 * np.finfo(float).eps
    ratios = [c0 / c1 for c0, c1 in zip(comms, comms[1:]) if c0 > floor]
    first_floor = next((i for i, c in enumerate(comms) if c <= floor), len(comms))
    stays = all(c <= floor for c in comms[first_floor:])
    ok = len(ratios) >= 2 and min(ratios) >= 10 and stays
    ladder_txt = ", ".join(f"c{n}={c:.1e}" for n, c in zip(ladder, comms))
    announce(
        "04b",
        ok,
        f"{ladder_txt}; ratios above floor {floor:.1e}: "
        + ", ".join(f"{q:.1e}" for q in ratios),
    )
    assert len(ratios) >= 2, (
        f"fewer than two doublings start above the floor {floor:.1e} ({ladder_txt})"
    )
    assert min(ratios) >= 10, (
        f"slower than a decade per doubling above the floor {floor:.1e} "
        f"(ratios {[f'{q:.2e}' for q in ratios]}; {ladder_txt})"
    )
    assert stays, f"commutator leaves the rounding floor {floor:.1e} again ({ladder_txt})"


def test_criterion_05_joint_diagonalization():
    pair = make_pair(SINC)
    grid = build_grid(128)
    spec = joint_diagonalization(
        nystrom_K(pair, grid), collocation_L(pair.op, grid), 8
    )
    ray = spec.rayleigh[np.argsort(-np.abs(spec.rayleigh))]
    scale = float(np.max(np.abs(spec.K_eigenvalues_direct)))
    match = float(np.max(np.abs(ray - spec.K_eigenvalues_direct))) / scale
    ok = spec.offdiag_energy <= 1e-6 and match <= 1e-6
    announce("05", ok, f"offdiag {spec.offdiag_energy:.2e}; rayleigh match {match:.2e}")
    assert spec.offdiag_energy <= 1e-6
    assert match <= 1e-6


def test_criterion_06_pv_commutation():
    pair = make_pair(Case4(beta=0.0, p=(1.0, 0.0, 0.0)))
    grid = build_grid(128)
    K = nystrom_K_pv(pair, grid)
    L = collocation_L(pair.op, grid)
    rowsum = (K.entries @ np.ones(grid.n))[1:-1]
    rowsum_err = float(np.max(np.abs(rowsum - pv_log_weight(grid.nodes[1:-1]))))
    comm = commutator_norm(K, L)[0]
    ok = rowsum_err <= 1e-12 and comm <= 1e-3
    announce("06", ok, f"interior commutator {comm:.2e}; rowsum err {rowsum_err:.2e}")
    assert rowsum_err <= 1e-12
    assert comm <= 1e-3, (
        f"interior split-log pv commutator {comm:.3e} exceeds 1e-3: K = r diag(l) + S "
        f"with S and L both degree-preserving for this pair should commute to rounding"
    )


def test_criterion_07_boundary_defect_decay():
    rng = np.random.default_rng(7)
    eps = np.logspace(-4, -2, 9)
    singular_pairs = [
        make_pair(Case1(m=0, alpha=1.0, beta=1.0)),
        make_pair(Case2(lam=2.0, alpha=1.0, beta=1.0)),
        make_pair(Case3(beta=2.0, p=(1.0, 0.0, 0.0))),
        make_pair(Case4(beta=0.7, p=(0.2, -0.5, 1.1))),
    ]
    worst = np.inf
    for pair in singular_pairs:
        for _ in range(5):
            coeffs = rng.uniform(-1, 1, size=4)
            x = float(rng.uniform(-0.7, 0.7))
            u = lambda y, c=coeffs: c[0] + c[1] * y + c[2] * y**2 + c[3] * y**3
            du = lambda y, c=coeffs: c[1] + 2 * c[2] * y + 3 * c[3] * y**2
            vals = np.array([abs(phi_defect(pair, u, du, x, float(e))) for e in eps])
            slope = float(np.polyfit(np.log(eps), np.log(vals), 1)[0])
            worst = min(worst, slope)
    ok = worst >= 0.9
    announce("07", ok, f"worst log-log slope {worst:.3f} over 20 seeded samples")
    assert worst >= 0.9


def test_criterion_08_singular_series_relation():
    fixtures = [
        make_pair(Case2(lam=2.0, alpha=1.0, beta=1.0)),
        make_pair(Case3(beta=2.0, p=(1.0, 0.0, 0.0))),
        make_pair(Case4(beta=0.0, p=(1.0, 0.0, 0.0))),
    ]
    worst = 0.0
    consts = []
    for pair in fixtures:
        out = singular_relation_check(pair)
        worst = max(worst, out["residual"])
        consts.append(out["fitted_const"])
        assert np.isfinite(consts[-1].real) and np.isfinite(consts[-1].imag)
    case4_const = consts[-1]
    ok = worst <= 1e-10 and abs(case4_const + 1.0 / 3.0) <= 1e-12
    announce("08", ok, f"worst residual {worst:.2e}; case4 const {case4_const.real:.12f}")
    assert worst <= 1e-10
    assert abs(case4_const + 1.0 / 3.0) <= 1e-12


def _normality_instances():
    sinc = make_pair(SINC).op
    case4 = make_pair(Case4(beta=0.0, p=(1.0, 0.0, 0.0))).op
    case2_sa = make_pair(Case2(lam=2.0, alpha=1.0, beta=0.0)).op
    case1_sa = make_pair(Case1(m=0, alpha=0.5, beta=0.5)).op
    sinc_real_c = DiffOp(a=sinc.a, b=sinc.b, c=sinc.c + ExpPoly.polynomial((0.0, 0.1)))
    case2_n = make_pair(Case2(lam=2.0, alpha=1.0, beta=1.0)).op
    case1_n = make_pair(Case1(m=0, alpha=1.0, beta=0.0)).op
    sinc_im_c = DiffOp(a=sinc.a, b=sinc.b, c=sinc.c + ExpPoly.constant(1j))
    sinc_bad_b = DiffOp(a=sinc.a, b=sinc.b + ExpPoly.constant(0.1), c=sinc.c)
    case4_n = make_pair(Case4(beta=0.7, p=(1.0, 0.0, 0.0))).op
    return [
        sinc, case4, case2_sa, case1_sa, sinc_real_c,
        case2_n, case1_n, sinc_im_c, sinc_bad_b, case4_n,
    ]


def _normal_not_selfadjoint_op() -> DiffOp:
    s = lambda y: np.sqrt(1 - y**2)
    b = CallableCoeff(
        (lambda y: -2 * y + s(y), lambda y: -2 - y / s(y), lambda y: -1 / s(y) ** 3)
    )
    c = CallableCoeff(
        (
            lambda y: -0.5 - y**2 / (2 * (1 - y**2)) - 2 * y / s(y),
            lambda y: -y / (1 - y**2) ** 2 - 2 / s(y) ** 3,
            lambda y: -(1 + 3 * y**2) / (1 - y**2) ** 3 - 6 * y / s(y) ** 5,
        )
    )
    return DiffOp(a=ExpPoly.polynomial((1.0, 0.0, -1.0)), b=b, c=c)


def test_criterion_09_normality():
    agree = 0
    for op in _normality_instances():
        verdict, _ = is_selfadjoint(op)
        matrix_verdict = selfadjoint_matrix_defect(op) <= 1e-8
        agree += verdict == matrix_verdict
    fixture = is_normal(_normal_not_selfadjoint_op())
    fixture_worst = max(
        fixture.condition_residuals[k]
        for k in (
            "im_a_zero", "a_positive", "b1_sqrt_a",
            "re_b0_eq_aprime", "c1_imag_const", "c0_real_const",
        )
    )
    y = interior_points()
    involution = 0.0
    for op in _normality_instances()[:4]:
        twice = adjoint_coeffs(adjoint_coeffs(op))
        for f, g in ((op.a, twice.a), (op.b, twice.b), (op.c, twice.c)):
            involution = max(
                involution, float(np.max(np.abs(np.asarray(f(y)) - np.asarray(g(y)))))
            )
    ok = agree == 10 and fixture.normal and fixture_worst <= 1e-10 and involution <= 1e-13
    announce(
        "09",
        ok,
        f"verdict agreement {agree}/10; fixture worst {fixture_worst:.2e}; "
        f"involution {involution:.2e}",
    )
    assert agree == 10
    assert fixture.normal and not fixture.selfadjoint
    assert fixture_worst <= 1e-10
    assert involution <= 1e-13


def test_criterion_10_admissibility_table():
    pi = np.pi
    table = [
        (General(lam=1.5j, mu=0.7, alpha1=1, alpha2=1), True),
        (General(lam=3.0j, mu=1 + 1j, alpha1=2, alpha2=0), True),
        (General(lam=0.5j, mu=2.2, alpha1=0, alpha2=1), True),
        (General(lam=2.8j, mu=1.3j, alpha1=1, alpha2=1), True),
        (General(lam=1.2j * pi, mu=0.9j * pi, alpha1=0, alpha2=1), True),
        (General(lam=1.6j * pi, mu=0.4j * pi, alpha1=0, alpha2=1), True),
        (General(lam=1.5j * pi, mu=-0.375j * pi, alpha1=0, alpha2=1), True),
        (General(lam=1.2j * pi, mu=0.9j * pi, alpha1=1, alpha2=1), False),
        (General(lam=1.2j * pi, mu=0.3, alpha1=0, alpha2=1), False),
        (General(lam=2.5j * pi, mu=1.875j * pi, alpha1=0, alpha2=1), False),
        (General(lam=1j * pi, mu=0.75j * pi, alpha1=0, alpha2=1), False),
        (General(lam=2j * pi, mu=0.5j * pi, alpha1=0, alpha2=1), False),
    ]
    verdicts = [refusal_reason(p) is None for p, _ in table]
    expected = [e for _, e in table]
    ok = verdicts == expected
    announce("10", ok, f"{sum(v == e for v, e in zip(verdicts, expected))}/12 verdicts exact")
    assert verdicts == expected


def test_criterion_11_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 42, "count": 25}))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        status = cli_main(["sweep", "--config", str(cfg), "--out", str(out), "--quiet"])
        assert status == 0
        outs.append(out)
    identical = all(
        (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
        for f in ("report.json", "summary.csv", "sweep.csv")
    )
    announce("11", identical, "sweep --seed 42 reports byte-identical across two runs")
    assert identical
