"""Tests of the benchmark itself (not of the package).

Run from the repository root:  python3 -m pytest bench/tests -q
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import pytest  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from commutant_lab import cli, reportio  # noqa: E402


def _snapshot():
    """id of every attribute of every package module, plus COMMANDS and ExpPoly.__call__."""
    from commutant_lab.coeffs import ExpPoly

    snap = {
        (mod.__name__, key): id(value)
        for mod in tracing._package_modules()
        for key, value in vars(mod).items()
    }
    snap.update({("COMMANDS", k): id(v) for k, v in cli.COMMANDS.items()})
    snap[("ExpPoly", "__call__")] = id(ExpPoly.__dict__["__call__"])
    return snap


def _run_job(workload, index, tmp_path):
    tmp_path.mkdir(parents=True, exist_ok=True)
    cfg = tmp_path / f"cfg-{index}.json"
    cfg.write_text(json.dumps(workloads.job_config(workload, 3, index)))
    for _, argv in workloads.job_argvs(workload, cfg, tmp_path / f"out-{index}"):
        assert cli.main(argv) in (0, 1)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_configs(workload):
    first = [workloads.job_config(workload, 11, i) for i in range(24)]
    again = [workloads.job_config(workload, 11, i) for i in range(24)]
    other = [workloads.job_config(workload, 12, i) for i in range(24)]
    warmup = [workloads.job_config(workload, 11, i, stream=1) for i in range(24)]
    assert json.dumps(first) == json.dumps(again)
    assert first != other
    assert first != warmup


@pytest.mark.parametrize("workload", ["certify", "spectral"])
def test_round_robin_covers_all_variants(workload):
    names = {"general-analytic": "general", "general-pole": "general"}
    for start in (0, 6, 36):
        got = []
        for i in range(start, start + len(workloads.VARIANTS)):
            params = workloads.job_config(workload, 5, i)["params"]
            variant = workloads.variant_of(i)
            assert params["variant"] == names.get(variant, variant)
            if params["variant"] == "general":
                assert (params["alpha2"] != [0.0, 0.0]) == (variant == "general-pole")
            got.append(variant)
        assert tuple(got) == workloads.VARIANTS


def test_wrappers_fully_removed_after_traced_run(tmp_path):
    before = _snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert _snapshot() != before
        _run_job("certify", 2, tmp_path)
    finally:
        tracer.uninstall()
    assert tracer.leftovers() == []
    assert _snapshot() == before
    metrics = tracing.layer_metrics(tracer)
    assert metrics["families.make_pair.calls"][0] == 5
    assert metrics["spectra.joint_diagonalization.calls"][0] == 1
    assert metrics["cli.spectrum.self_s"][0] > 0


def test_counts_repeat_for_the_same_job(tmp_path):
    counts = []
    for run in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            _run_job("sweep", 0, tmp_path / str(run))
        finally:
            tracer.uninstall()
        metrics = tracing.layer_metrics(tracer)
        counts.append({k: v for k, (v, unit) in metrics.items() if unit in ("count", "bytes", "flop")})
    assert counts[0] == counts[1]
    assert counts[0]["coeffs.ExpPoly.__call__.calls"] > 0


def _report(path, checks):
    rows = [{"name": n, "value": v, "tolerance": 1e-9, "pass": p} for n, v, p in checks]
    reportio.write_json(path, {"schema": 1, "command": "verify", "checks": rows, "result": {}})
    return path


@pytest.mark.parametrize(
    "checks, fails",
    [
        ([("r1_rel", 1e-15, True), ("offdiag", 0.3, False)], False),  # honest failure only
        ([("r1_rel", 1e-3, False), ("offdiag", 0.3, False)], True),  # guaranteed check fails
        ([("r1_rel", float("nan"), False)], True),
        ([("offdiag", float("inf"), False)], True),
    ],
)
def test_failure_rule_on_reports(tmp_path, checks, fails):
    tally = workloads.CheckTally()
    reason, raw = workloads.judge_call(1, _report(tmp_path / "report.json", checks), tally)
    assert (reason is not None) == fails
    assert raw is not None
    assert tally.run == len(checks)


def test_failure_rule_without_report(tmp_path):
    tally = workloads.CheckTally()
    path = _report(tmp_path / "report.json", [("r1_rel", 0.0, True)])
    assert workloads.judge_call(None, path, tally)[0] == "raised"
    assert workloads.judge_call(2, path, tally)[0] == "exit status 2"
    assert workloads.judge_call(0, tmp_path / "missing.json", tally)[0] == "no report.json"
