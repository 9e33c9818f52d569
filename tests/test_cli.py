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

from commutant_lab import (
    CommutantError,
    build_grid,
    cli,
    discretize,
    kernels,
    make_pair,
    params_from_json,
    residuals,
)
from commutant_lab.cli import main

import digests
from conftest import refusal_reason

SINC = {
    "variant": "general",
    "lambda": [0.0, 0.0],
    "mu": [0.0, float(np.pi / 2)],
    "alpha1": [1.0, 0.0],
    "alpha2": [0.0, 0.0],
}
CASE1 = {"variant": "case1", "m": 0, "alpha": [1.0, 0.0], "beta": [1.0, 0.0]}
CASE4 = {"variant": "case4", "beta": [0.0, 0.0], "p": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}
GENERAL_POLE = {**SINC, "lambda": [0.5, 0.3], "mu": [1.0, -0.5], "alpha2": [1.0, 0.0]}
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


@pytest.mark.parametrize("name", ["case2/alpha0", "case4/p0"])
def test_normality_judges_first_order_operators(tmp_path, name):
    # a = 0 and L* = -L: normal, not self-adjoint
    cfg = write_config(tmp_path / "cfg.json", params=digests.FIRST_ORDER[name])
    out = tmp_path / "out"
    assert main(["normality", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    result = json.loads((out / "report.json").read_text())["result"]
    assert (result["selfadjoint"], result["normality"]["normal"]) == (False, True)


def test_normality_passes_selfadjoint_operator_whose_a_changes_sign(tmp_path):
    # a = y^3 - y vanishes at y = 0 inside: selfadjoint_implies_normal holds
    params = {"variant": "case4", "beta": [0.0, 0.0], "p": [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]}
    cfg = write_config(tmp_path / "cfg.json", params=params)
    out = tmp_path / "out"
    assert main(["normality", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    result = json.loads((out / "report.json").read_text())["result"]
    assert (result["selfadjoint"], result["normality"]["normal"]) == (True, True)


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
        ("verify", {"params": {**SINC, "m": 3, "bogus": 1}}),
    ]
    for i, (command, raw) in enumerate(bad_inputs):
        cfg = write_config(tmp_path / f"bad{i}.json", **raw)
        out = tmp_path / f"bad{i}"
        assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 2, raw


def test_unknown_params_keys_are_named():
    with pytest.raises(ValueError, match=r"unknown params keys \['bogus', 'm'\]"):
        params_from_json({**SINC, "m": 3, "bogus": 1})
    with pytest.raises(ValueError, match=r"unknown params keys \['lam'\]"):
        params_from_json({**CASE1, "lam": [1.0, 0.0]})


@pytest.mark.parametrize("under", ["", "sub"], ids=["a-file", "under-a-file"])
def test_out_that_cannot_be_created_is_a_config_error(tmp_path, capsys, under):
    blocker = tmp_path / "file"
    blocker.write_text("")
    cfg = write_config(tmp_path / "cfg.json", params=SINC)
    out = blocker / under if under else blocker
    assert main(["verify", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith(f"config error: cannot create output directory {out}: ")


@pytest.mark.parametrize("blocked", ["report.json", "summary.csv", "kernel_samples.csv"])
def test_report_file_that_cannot_be_written_is_a_config_error(tmp_path, capsys, blocked):
    # a directory where a report file goes: a config error, not a traceback
    cfg = write_config(tmp_path / "cfg.json", params=SINC)
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    assert main(["pair", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith(f"config error: cannot write {out / blocked}: ")


def test_tables_lists_every_file_a_command_writes(tmp_path, cold_memo):
    cfg = write_config(tmp_path / "cfg.json", params=CASE1, n=16, m=4, count=2)
    for command in cli.COMMANDS:
        out = tmp_path / command
        main([command, "--config", cfg, "--out", str(out), "--dump", "--quiet"])
        written = {path.name for path in out.iterdir()}
        assert written == {"report.json", "summary.csv", *cli.TABLES[command]}, command


def test_refused_pair_leaves_no_earlier_samples(tmp_path, cold_memo):
    # a refusal writes no samples: those of an earlier run into the same
    # directory go, so they do not sit beside a report that says admissible: false
    out = tmp_path / "out"
    good = write_config(tmp_path / "good.json", params=SINC)
    main(["pair", "--config", good, "--out", str(out), "--quiet"])
    assert (out / "kernel_samples.csv").exists()
    bad = write_config(tmp_path / "bad.json", params=digests.REFUSALS["general/alpha0"])
    assert main(["pair", "--config", bad, "--out", str(out), "--quiet"]) == 1
    assert json.loads((out / "report.json").read_text())["result"]["admissible"] is False
    assert sorted(path.name for path in out.iterdir()) == ["report.json", "summary.csv"]


def test_commutator_without_dump_leaves_no_earlier_matrices(tmp_path, cold_memo):
    cfg = write_config(tmp_path / "cfg.json", params=SINC, n=16)
    out = tmp_path / "out"
    assert main(["commutator", "--config", cfg, "--out", str(out), "--dump", "--quiet"]) == 0
    assert (out / "K_matrix.csv").exists() and (out / "L_matrix.csv").exists()
    assert main(["commutator", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert sorted(path.name for path in out.iterdir()) == ["report.json", "summary.csv"]


def test_failed_eig_certificate_leaves_no_earlier_modes(tmp_path, monkeypatch, cold_memo):
    cfg = write_config(tmp_path / "cfg.json", params=CASE1, n=16, m=4)
    out = tmp_path / "out"
    main(["spectrum", "--config", cfg, "--out", str(out), "--quiet"])
    assert (out / "modes.csv").exists()
    monkeypatch.setattr(cli.spectra, "_BACKWARD_TOL", 1e-30)
    assert main(["spectrum", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    assert "eig_certificate" in json.loads((out / "report.json").read_text())["result"]
    assert sorted(path.name for path in out.iterdir()) == ["report.json", "summary.csv"]


def test_report_that_cannot_be_written_stops_the_run_before_its_tables(tmp_path, capsys, cold_memo):
    # the run exits 2 before its body: no table of it sits beside the files
    # an earlier run left
    cfg = write_config(tmp_path / "cfg.json", params=SINC)
    out = tmp_path / "out"
    (out / "report.json").mkdir(parents=True)
    assert main(["pair", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith(f"config error: cannot write {out / 'report.json'}: ")
    assert [path.name for path in out.iterdir()] == ["report.json"]


def test_one_parser_keeps_no_state_between_calls(tmp_path, capsys, cold_memo):
    cfg = write_config(tmp_path / "cfg.json", params=SINC, n=16, m=4)
    argv = ["commutator", "--config", cfg, "--quiet", "--out"]
    assert main([*argv, str(tmp_path / "dumped"), "--dump"]) == 0
    assert (tmp_path / "dumped" / "K_matrix.csv").exists()
    assert main([*argv, str(tmp_path / "plain")]) == 0
    assert sorted(f.name for f in (tmp_path / "plain").iterdir()) == ["report.json", "summary.csv"]
    with pytest.raises(SystemExit) as bogus:
        main(["bogus", "--config", cfg])
    assert bogus.value.code == 2
    capsys.readouterr()
    # the next call writes what a fresh process writes
    pair = ["pair", "--config", cfg, "--quiet", "--out"]
    assert main([*pair, str(tmp_path / "after")]) == 0
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    cold = [sys.executable, "-m", "commutant_lab.cli", *pair, str(tmp_path / "cold")]
    subprocess.run(cold, env=env, check=True)
    after = {f.name: f.read_bytes() for f in (tmp_path / "after").iterdir()}
    assert after == {f.name: f.read_bytes() for f in (tmp_path / "cold").iterdir()}
    assert len(after) == 4


@pytest.mark.parametrize("name", list(digests.REFUSALS))
def test_every_refusal_is_reported(tmp_path, capsys, cold_memo, name):
    # make_pair refuses; refusal_reason, pair's report and verify's
    # error line all carry its reason
    params = digests.REFUSALS[name]
    with pytest.raises(CommutantError) as refusal:
        make_pair(params_from_json(params))
    reason = str(refusal.value)
    assert refusal_reason(params_from_json(params)) == reason
    cfg = write_config(tmp_path / "cfg.json", params=params)
    assert main(["pair", "--config", cfg, "--out", str(tmp_path / "pair"), "--quiet"]) == 1
    report = json.loads((tmp_path / "pair" / "report.json").read_text())
    assert report["checks"] == [{"name": "admissible", "value": 1.0, "tolerance": 0.5, "pass": False}]
    assert (report["result"]["admissible"], report["result"]["reason"]) == (False, reason)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "verify"), "--quiet"]) == 1
    assert capsys.readouterr().err == f"error: {type(refusal.value).__name__}: {reason}\n"


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


# at 256 spectrum reads K on the worker thread, at 48 it has none
@pytest.mark.parametrize("n", [48, 256])
@pytest.mark.parametrize("params", [SINC, CASE1], ids=["analytic", "pole"])
def test_commands_same_bytes_on_cold_and_warm_memo(tmp_path, params, n):
    cfg = write_config(tmp_path / "cfg.json", params=params, n=n, m=6)
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
    for array in (K.entries, L.entries, K.samples):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 1.0


@pytest.mark.parametrize("params", [CASE1, GENERAL_POLE], ids=["case1", "general-pole"])
def test_cold_pole_commutator_evaluates_the_kernel_once(tmp_path, monkeypatch, cold_memo, params):
    # the row-sum check reads the kernel samples K was built from
    calls = []
    evaluate = kernels.kernel_matrix

    def recording(spec, x, y, *args, **kwargs):
        calls.append((np.shape(x), np.shape(y)))
        return evaluate(spec, x, y, *args, **kwargs)

    for module in (kernels, discretize, residuals):
        monkeypatch.setattr(module, "kernel_matrix", recording)
    cfg = write_config(tmp_path / "cfg.json", params=params, n=64)
    main(["commutator", "--config", cfg, "--out", str(tmp_path), "--quiet"])
    assert "rowsum_rel" in json.loads((tmp_path / "report.json").read_text())["result"]
    assert calls == [((64,), (64,))]


def test_digests_are_reproducible(cold_memo):
    # one job per workload: every output file and every exit code, twice
    jobs = {"certify": 1, "spectral": 1, "sweep": 1}
    first = digests.digests(seeds=(1,), jobs=jobs)
    # 18 for the five certify calls, 7 for the two spectral, 4 for sweep
    assert len(first) == 29
    assert {v for k, v in first.items() if k.endswith("/exit")} <= {0, 1}
    assert digests.digests(seeds=(1,), jobs=jobs) == first


def test_digests_cover_every_refusal(cold_memo):
    out = digests.digests(jobs={}, refusals=digests.REFUSALS)
    names = [f"refusals/{name}" for name in digests.REFUSALS]
    assert {k: v for k, v in out.items() if k.endswith("/exit")} == {
        f"{name}/{cmd}/exit": 1 for name in names for cmd in ("pair", "verify")
    }
    assert all(f"{name}/pair/report.json" in out for name in names)


def test_digests_compare_groups_differences(tmp_path, capsys):
    # two synthetic digest files: a changed hash in two jobs of one file, a
    # changed exit code and an entry only one side has
    a = {
        "certify/1/0/pair/kernel_samples.csv": "aa",
        "certify/2/5/pair/kernel_samples.csv": "bb",
        "certify/1/0/pair/report.json": "cc",
        "certify/1/0/verify/exit": 0,
        "spectral/1/3/spectrum/modes.csv": "dd",
    }
    b = {**a, "certify/1/0/pair/kernel_samples.csv": "ab", "certify/2/5/pair/kernel_samples.csv": "bc"}
    b["certify/1/0/verify/exit"] = 1
    del b["spectral/1/3/spectrum/modes.csv"]
    b["spectral/2/0/commutator/exit"] = 0
    paths = []
    for name, data in (("a.json", a), ("b.json", b)):
        paths.append(str(tmp_path / name))
        Path(paths[-1]).write_text(json.dumps(data))
    assert digests.main(["--compare", *paths]) == 1
    out = capsys.readouterr().out
    assert "certify/pair/kernel_samples.csv: 2 differ" in out
    assert "certify/verify/exit: 1 differ" in out
    assert "  certify/1/0/verify/exit: 0 1" in out
    assert "spectral/spectrum/modes.csv: 1 differ" in out
    assert "spectral/commutator/exit: 1 differ" in out
    assert "report.json" not in out
    assert out.splitlines()[-1] == "5 of 6 entries differ"
    assert digests.main(["--compare", paths[0], paths[0]]) == 0
    assert capsys.readouterr().out == "0 of 5 entries differ\n"


def test_digests_compare_runs_as_a_script(tmp_path):
    # the command every byte-identity claim rests on, run as it is run: a
    # fresh `python tests/digests.py --compare A B`, with no src on its path
    a = {"certify/1/0/pair/report.json": "aa", "certify/2/3/pair/report.json": "bb", "sweep/1/0/sweep/exit": 0}
    b = {**a, "certify/2/3/pair/report.json": "bc"}
    del b["sweep/1/0/sweep/exit"]
    paths = []
    for name, data in (("a.json", a), ("b.json", b)):
        paths.append(str(tmp_path / name))
        Path(paths[-1]).write_text(json.dumps(data))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}

    def compare(first, second):
        argv = [sys.executable, digests.__file__, "--compare", first, second]
        return subprocess.run(argv, env=env, cwd=tmp_path, capture_output=True, text=True)

    same = compare(paths[0], paths[0])
    assert (same.returncode, same.stdout, same.stderr) == (0, "0 of 3 entries differ\n", "")
    differ = compare(*paths)
    assert differ.returncode == 1
    assert differ.stdout.splitlines() == [
        "certify/pair/report.json: 1 differ",
        "  certify/2/3/pair/report.json: bb bc",
        "sweep/sweep/exit: 1 differ",
        "  sweep/1/0/sweep/exit: 0 -",
        "2 of 3 entries differ",
    ]


@pytest.mark.parametrize("command", CERTIFY)
def test_inadmissible_params_exit_1_after_warm_memo(tmp_path, command):
    good = write_config(tmp_path / "good.json", params=SINC, n=16, m=4)
    bad = write_config(tmp_path / "bad.json", params=INADMISSIBLE, n=16, m=4)
    main(["spectrum", "--config", good, "--out", str(tmp_path / "good"), "--quiet"])
    assert main([command, "--config", bad, "--out", str(tmp_path / "bad"), "--quiet"]) == 1


def test_smallest_grid_modes_fail_cleanly(tmp_path, monkeypatch, capsys, cold_memo):
    # m pv modes cannot be normalized over fewer than m interior nodes,
    # even with m <= n: a config error, exit 2, with the interior node
    # count, before any grid or matrix is built and without a report; an
    # analytic pair keeps the m <= n rule
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
    cfg = write_config(tmp_path / "cfg.json", params=SINC, n=4, m=5)
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "over"), "--quiet"]) == 2
    assert "m = 5 exceeds the grid size n = 4" in capsys.readouterr().err
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


@pytest.mark.parametrize("n", [16, 128])
def test_commands_import_no_scipy(tmp_path, n):
    # numpy is the one runtime dependency; importing scipy.sparse.linalg
    # alone takes about as long as a whole certify setup.  At n = 128
    # spectrum starts the worker thread, and the process must still exit
    cfg = write_config(tmp_path / "cfg.json", params=CASE1, n=n, m=4, count=2)
    script = "\n".join(
        [
            "import json, sys, threading",
            "from commutant_lab.cli import main",
            f"status = [main([c, '--config', {cfg!r}, '--out', {str(tmp_path)!r} + '/' + c, '--quiet'])"
            f" for c in {sorted(cli.COMMANDS)!r}]",
            "scipy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')",
            "print(json.dumps([status, scipy, [t.name for t in threading.enumerate()]]))",
        ]
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    status, scipy_modules, threads = json.loads(run.stdout)
    assert len(status) == 6 and all(s in (0, 1) for s in status), status
    assert scipy_modules == []
    assert ("commutant-lab-worker" in threads) == (n >= 128), threads
