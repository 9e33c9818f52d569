import json
import csv
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from commutant_lab import build_grid, cli, make_pair, params_from_json
from commutant_lab.cli import main

SINC = {
    "variant": "general",
    "lambda": [0.0, 0.0],
    "mu": [0.0, float(np.pi / 2)],
    "alpha1": [1.0, 0.0],
    "alpha2": [0.0, 0.0],
}
CASE1 = {"variant": "case1", "m": 0, "alpha": [1.0, 0.0], "beta": [1.0, 0.0]}
CASE4 = {"variant": "case4", "beta": [0.0, 0.0], "p": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}
INADMISSIBLE = {
    "variant": "general",
    "lambda": [0.0, float(1.2 * np.pi)],
    "mu": [0.3, 0.0],
    "alpha1": [1.0, 0.0],
    "alpha2": [1.0, 0.0],
}
# the commands of one certification, in the benchmark's order
CERTIFY = ("pair", "verify", "normality", "commutator", "spectrum")


@pytest.fixture
def cold_memo():
    """An empty pair memo, before and after the test: a test that patches a
    build layer must not read a pair or matrices built without the patch."""
    cli._MEMO.clear()
    yield
    cli._MEMO.clear()


def write_config(path, **kwargs):
    with open(path, "w") as fh:
        json.dump(kwargs, fh)
    return str(path)


def read_summary(outdir):
    with open(outdir / "summary.csv") as fh:
        return list(csv.DictReader(fh))


def test_verify_regular(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", params=SINC)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["schema"] == 1
    assert report["command"] == "verify"
    names = {row["name"] for row in read_summary(out)}
    assert {"r1_rel", "taylor_abs", "lemma_abs"} <= names
    # R2 with L1 = L2 = L equals R1 bit for bit, so verify does not report it
    assert "r2_rel" not in names
    assert "residual_R2" not in report["result"]


def test_verify_singular_case4(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", params=CASE4)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    rows = read_summary(out)
    by_name = {r["name"]: r for r in rows}
    assert float(by_name["r1_rel"]["value"]) <= 1e-13
    assert "singular_relation_abs" in by_name


def test_verify_alpha2_lost_to_rounding(tmp_path):
    # below |mu| 0.1 the Taylor form keeps alpha2 = 1e-300 (N(0) = 2e-300),
    # still a zero next to alpha1 = 1: the regular kernel, which verifies
    params = {**SINC, "lambda": [1.0, 0.0], "mu": [0.05, 0.0], "alpha2": [1e-300, 0.0]}
    cfg = write_config(tmp_path / "cfg.json", params=params)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert json.loads((out / "report.json").read_text())["result"]["singular"] is False


def test_pair_series_round_trips_signed_zeros(tmp_path):
    # a case2 pole kernel: z*k is even, so its odd Taylor coefficients are
    # zeros, some of them -0.0
    params = {
        "variant": "case2",
        "lambda": [-0.8602942293955618, 1.1054656400643421],
        "alpha": [0.04333358978848545, -0.5984651951016662],
        "beta": [-0.32448729806169463, 0.5986968886985895],
    }
    cfg = write_config(tmp_path / "cfg.json", params=params)
    out = tmp_path / "out"
    assert main(["pair", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    written = json.loads((out / "report.json").read_text())["result"]["series"]
    series = make_pair(params_from_json(params)).kernel.series
    parts = [(c.real, c.imag) for c in series]
    assert all(isinstance(x, float) for pair in written for x in pair)
    assert any(x == 0 and math.copysign(1.0, x) < 0 for pair in parts for x in pair)
    hexes = [[x.hex() for x in pair] for pair in written]
    assert hexes == [[x.hex() for x in pair] for pair in parts]


def test_pair_command_writes_samples(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", params=SINC)
    out = tmp_path / "out"
    assert main(["pair", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert (out / "kernel_samples.csv").exists()
    assert (out / "coefficient_samples.csv").exists()


def test_commutator_regular(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", params=SINC, n=64)
    out = tmp_path / "out"
    assert main(["commutator", "--config", cfg, "--out", str(out), "--quiet", "--dump"]) == 0
    assert (out / "K_matrix.csv").exists()
    assert (out / "L_matrix.csv").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["result"]["commutator_rel"] <= 1e-8
    assert report["result"]["worst_degree"] in range(33)


def test_commutator_rowsum_scales_with_kernel(tmp_path):
    # a commuting case2 pair with |residue| 8.3 and interior ||K||_inf 75.5:
    # its row sums round to 1.6e-12 absolute, 2.1e-14 relative to ||K||_inf
    params = {
        "variant": "case2",
        "lambda": [0.14909171895438167, 0.19068140864016403],
        "alpha": [-0.18029914792543367, -0.9162079983268228],
        "beta": [0.13064082582337688, -0.28077112677810523],
    }
    cfg = write_config(tmp_path / "cfg.json", params=params, n=64)
    out = tmp_path / "out"
    main(["commutator", "--config", cfg, "--out", str(out), "--quiet"])
    by_name = {r["name"]: r for r in read_summary(out)}
    assert by_name["rowsum_rel"]["pass"] == "true"
    assert float(by_name["rowsum_rel"]["value"]) <= 1e-13


def test_spectrum_command(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", params=SINC, n=96, m=6)
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    with open(out / "modes.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["idx", "L_eig_re", "L_eig_im", "rayleigh_re", "rayleigh_im", "residual"]
    assert len(rows) == 7


@pytest.mark.parametrize("params", [SINC, CASE1], ids=["analytic", "pole"])
def test_matrix_commands_same_bytes_on_cold_and_warm_grid(tmp_path, params):
    cfg = write_config(tmp_path / "cfg.json", params=params, n=48, m=6)
    files = {
        "commutator": ("report.json", "summary.csv"),
        "spectrum": ("report.json", "summary.csv", "modes.csv"),
    }
    runs = {}
    for warmth in ("cold", "warm"):
        for cmd, names in files.items():
            cli._MEMO.clear()
            if warmth == "cold":
                build_grid.cache_clear()
            out = tmp_path / warmth / cmd
            main([cmd, "--config", cfg, "--out", str(out), "--quiet"])
            runs[warmth, cmd] = [(out / name).read_bytes() for name in names]
    for cmd in files:
        assert runs["cold", cmd] == runs["warm", cmd]


def test_normality_command(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", params=SINC)
    out = tmp_path / "out"
    assert main(["normality", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["result"]["selfadjoint"] is True
    assert report["result"]["normality"]["normal"] is True


def test_exit_status_reflects_tolerances(tmp_path):
    # impossible tolerance: everything else identical, command must exit 1
    cfg = write_config(tmp_path / "cfg.json", params=SINC, tolerances={"r1_rel": 1e-30})
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    rows = read_summary(out)
    assert any(r["pass"] == "false" for r in rows)


def test_sweep_deterministic(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", seed=42, count=10)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["sweep", "--config", cfg, "--out", str(out1), "--quiet"]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(out2), "--quiet"]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
    with open(out1 / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10
    assert all(r["pass"] == "true" for r in rows)


def test_sweep_seed_changes_output(tmp_path):
    cfg1 = write_config(tmp_path / "c1.json", seed=1, count=5)
    cfg2 = write_config(tmp_path / "c2.json", seed=2, count=5)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["sweep", "--config", cfg1, "--out", str(out1), "--quiet"])
    main(["sweep", "--config", cfg2, "--out", str(out2), "--quiet"])
    assert (out1 / "sweep.csv").read_bytes() != (out2 / "sweep.csv").read_bytes()


def test_malformed_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", "--config", str(bad), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    cfg = write_config(tmp_path / "cfg.json", params=SINC, tolerances={"r1_rel": -1.0})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o2"), "--quiet"]) == 2
    cfg2 = write_config(tmp_path / "cfg2.json")
    assert main(["verify", "--config", cfg2, "--out", str(tmp_path / "o3"), "--quiet"]) == 2
    bad_inputs = [
        ("verify", {"params": SINC, "tolerances": {"r1_rell": 1e-30}}),
        ("verify", {"params": SINC, "tolerances": [1]}),
        ("verify", {"params": SINC, "tolerances": {"r1_rel": "x"}}),
        ("commutator", {"params": CASE4, "tolerances": {"rowsum_abs": 1e-12}}),
        ("verify", {"params": SINC, "tolerances": {"r2_rel": 1e-9}}),
        ("verify", {"params": SINC, "grid_kind": "gauss_legendre"}),
        ("verify", {"params": SINC, "output_path": 5}),
        ("commutator", {"params": SINC, "n": "abc"}),
        ("commutator", {"params": SINC, "n": 16.5}),
        ("commutator", {"params": CASE4, "n": 2}),
        ("spectrum", {"params": SINC, "n": 2, "m": 2}),
        ("spectrum", {"params": SINC, "m": 0}),
        ("spectrum", {"params": SINC, "n": 8, "m": 9}),
        ("sweep", {"count": 0}),
        ("sweep", {"seed": -1}),
        ("verify", {"params": [SINC]}),
        ("verify", {"params": {**SINC, "lambda": [1]}}),
        ("verify", {"params": {**SINC, "lambda": [float("nan"), 0.0]}}),
        ("verify", {"params": {**SINC, "mu": [0.0, float("inf")]}}),
        ("verify", {"params": {**SINC, "alpha1": [True, 0.0]}}),
        ("verify", {"params": {**SINC, "alpha1": "1"}}),
        ("verify", {"params": {**CASE4, "p": [[1.0, 0.0, 0.0]]}}),
        ("verify", {"params": {**CASE1, "m": 1.7}}),
        ("verify", {"params": {**CASE1, "m": True}}),
    ]
    for i, (command, raw) in enumerate(bad_inputs):
        cfg = write_config(tmp_path / f"bad{i}.json", **raw)
        out = tmp_path / f"bad{i}"
        assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 2, raw


def test_inadmissible_params_error_status(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", params=INADMISSIBLE)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out), "--quiet"]) == 1


@pytest.mark.parametrize("command", ["pair", "verify"])
@pytest.mark.parametrize(
    "params",
    [
        {**SINC, "lambda": [720.0, 0.0], "alpha2": [1.0, 0.0]},
        {**SINC, "lambda": [1e308, 0.0], "alpha2": [1.0, 0.0]},
        {"variant": "case2", "lambda": [720.0, 0.0], "alpha": [1.0, 0.0], "beta": [0.0, 0.0]},
    ],
    ids=["general-720", "general-1e308", "case2-720"],
)
def test_overflowing_lambda_error_status(tmp_path, capsys, command, params):
    # cosh(lambda) overflows a double: a clean error status, not a traceback
    cfg = write_config(tmp_path / "cfg.json", params=params)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 1
    assert "error: OverflowError" in capsys.readouterr().err


def test_matrix_csv_cell_format(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", params=SINC, n=8)
    out = tmp_path / "out"
    main(["commutator", "--config", cfg, "--out", str(out), "--quiet", "--dump"])
    with open(out / "K_matrix.csv") as fh:
        row = next(csv.reader(fh))
    assert len(row) == 8
    re_part, im_part = row[0].split(",")
    float(re_part), float(im_part)


def run_commands(cfg, root, cold):
    """Exit status and written files of each certify command, by command."""
    out = {}
    for cmd in CERTIFY:
        if cold:
            cli._MEMO.clear()
        outdir = root / cmd
        status = main([cmd, "--config", cfg, "--out", str(outdir), "--quiet", "--dump"])
        out[cmd] = status, {f.name: f.read_bytes() for f in sorted(outdir.iterdir())}
    return out


@pytest.mark.parametrize("params", [SINC, CASE1], ids=["analytic", "pole"])
def test_commands_same_bytes_on_cold_and_warm_memo(tmp_path, params):
    cfg = write_config(tmp_path / "cfg.json", params=params, n=48, m=6)
    cold = run_commands(cfg, tmp_path / "cold", cold=True)
    main(["spectrum", "--config", cfg, "--out", str(tmp_path / "warmup"), "--quiet"])
    pair, K, L = cli._MEMO["pair"], *cli._MEMO["KL"]
    warm = run_commands(cfg, tmp_path / "warm", cold=False)
    assert cli._MEMO["pair"] is pair and cli._MEMO["KL"] == (K, L)
    assert set(cold["commutator"][1]) >= {"report.json", "summary.csv", "K_matrix.csv", "L_matrix.csv"}
    assert warm == cold


def test_commutator_then_spectrum_builds_matrices_once(tmp_path, monkeypatch, cold_memo):
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("make_pair", "build_grid", "nystrom_K", "nystrom_K_pv", "collocation_L"):
        monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))

    def run(cmd, params, n):
        cfg = write_config(tmp_path / "cfg.json", params=params, n=n, m=4)
        main([cmd, "--config", cfg, "--out", str(tmp_path / cmd), "--quiet"])

    run("commutator", CASE1, 32)
    run("spectrum", CASE1, 32)
    assert calls == Counter(make_pair=1, build_grid=1, nystrom_K_pv=1, collocation_L=1)
    # another n: K and L again, not the pair
    run("spectrum", CASE1, 40)
    assert calls == Counter(make_pair=1, build_grid=2, nystrom_K_pv=2, collocation_L=2)
    # other params: the pair too
    run("commutator", SINC, 40)
    assert calls == Counter(make_pair=2, build_grid=3, nystrom_K_pv=2, nystrom_K=1, collocation_L=3)
    # one entry: the first config is built again
    run("commutator", CASE1, 32)
    assert calls == Counter(make_pair=3, build_grid=4, nystrom_K_pv=3, nystrom_K=1, collocation_L=4)


def test_signed_zero_params_keep_their_own_entry(tmp_path):
    # equal as numbers, so a memo keyed on equality would echo the first
    for sign in (1.0, -1.0, 1.0):
        params = {**SINC, "lambda": [0.5, math.copysign(0.0, sign)]}
        cfg = write_config(tmp_path / "cfg.json", params=params, n=16, m=4)
        for cmd in CERTIFY:
            out = tmp_path / cmd
            main([cmd, "--config", cfg, "--out", str(out), "--quiet"])
            echoed = json.loads((out / "report.json").read_text())["result"]["params"]["lambda"]
            assert math.copysign(1.0, echoed[1]) == sign, (cmd, sign)


def test_cached_matrices_are_read_only(tmp_path, cold_memo):
    cfg = cli.load_config(write_config(tmp_path / "cfg.json", params=CASE1, n=16), "commutator")
    pair, K, L = cli._build_matrices(cfg)
    for M in (K, L):
        with pytest.raises(ValueError, match="read-only"):
            M.entries[0, 0] = 1.0


@pytest.mark.parametrize("command", CERTIFY)
def test_inadmissible_params_exit_1_after_warm_memo(tmp_path, command):
    good = write_config(tmp_path / "good.json", params=SINC, n=16, m=4)
    bad = write_config(tmp_path / "bad.json", params=INADMISSIBLE, n=16, m=4)
    main(["spectrum", "--config", good, "--out", str(tmp_path / "good"), "--quiet"])
    assert main([command, "--config", bad, "--out", str(tmp_path / "bad"), "--quiet"]) == 1


def test_smallest_grid_modes_fail_cleanly(tmp_path, monkeypatch, capsys, cold_memo):
    # m <= n passes the config check, but m pv modes cannot be normalized
    # over fewer than m interior nodes: a config error, exit 2, with the
    # interior node count, before any grid or matrix is built and without a
    # report; an analytic pair keeps the m <= n rule
    def no_grid(n):
        raise AssertionError("built a grid")

    monkeypatch.setattr(cli, "build_grid", no_grid)
    pole = {**SINC, "lambda": [0.5, 0.0], "mu": [0.0, 1.0], "alpha2": [1.0, 0.0]}
    for params, n, m in ((pole, 3, 2), (CASE4, 4, 4)):
        cfg = write_config(tmp_path / "cfg.json", params=params, n=n, m=m)
        out = tmp_path / f"out{n}"
        assert main(["spectrum", "--config", cfg, "--out", str(out), "--quiet"]) == 2
        assert f"m = {m} exceeds the {n - 2} interior nodes of n = {n}" in capsys.readouterr().err
        assert not (out / "report.json").exists()
    monkeypatch.undo()
    cfg = write_config(tmp_path / "cfg.json", params=SINC, n=4, m=4)
    out = tmp_path / "analytic"
    assert main(["spectrum", "--config", cfg, "--out", str(out), "--quiet"]) != 2
    assert (out / "report.json").exists()


def test_failed_eig_certificate_still_writes_a_report(tmp_path, monkeypatch, cold_memo):
    # a mode that fails its backward-error certificate is a failing check
    # with its finite value, the mode and the reason, and exit status 1;
    # a re-run writes the same bytes
    monkeypatch.setattr(cli.spectra, "_BACKWARD_TOL", 1e-30)
    cfg = write_config(tmp_path / "cfg.json", params=CASE1, n=16, m=4)
    written = []
    for run in ("first", "again"):
        out = tmp_path / run
        assert main(["spectrum", "--config", cfg, "--out", str(out), "--quiet"]) == 1
        assert not (out / "modes.csv").exists()
        written.append([(out / name).read_bytes() for name in ("report.json", "summary.csv")])
    assert written[0] == written[1]
    report = json.loads(written[0][0])
    (check,) = report["checks"]
    assert check["name"] == "eig_certificate" and check["pass"] is False
    assert math.isfinite(check["value"]) and check["value"] > check["tolerance"] == 1e-30
    cert = report["result"]["eig_certificate"]
    assert cert["backward_error"] == check["value"]
    assert cert["mode"] == "L mode 0" and cert["reason"].startswith("L mode 0 ")


def test_commands_import_no_scipy(tmp_path):
    # numpy is the one runtime dependency; importing scipy.sparse.linalg
    # alone takes about as long as a whole certify setup
    cfg = write_config(tmp_path / "cfg.json", params=CASE1, n=16, m=4, count=2)
    script = "\n".join(
        [
            "import json, sys",
            "from commutant_lab.cli import main",
            f"status = [main([c, '--config', {cfg!r}, '--out', {str(tmp_path)!r} + '/' + c, '--quiet'])"
            f" for c in {sorted(cli.COMMANDS)!r}]",
            "print(json.dumps([status, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))",
        ]
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    status, scipy_modules = json.loads(run.stdout)
    assert len(status) == 6 and all(s in (0, 1) for s in status), status
    assert scipy_modules == []
