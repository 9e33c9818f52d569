"""The names the benchmark's tracer wraps must exist in the package.

``bench/tracing.py`` wraps layers by (module, function) name, plus
``ExpPoly.__call__`` and the CLI command table.  Deleting or renaming one
of them breaks the benchmark; these tests make that fail in tier 1 too,
not only in ``bench/tests``.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_are_callables(tracing):
    for mod_name, fn_name in tracing.TARGETS:
        module = importlib.import_module(f"{tracing.PACKAGE}.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"{mod_name}.{fn_name}"


def test_exppoly_call_is_defined_on_the_class(tracing):
    mod_name, cls_name, method = tracing.EXPPOLY_CALL.split(".")
    cls = getattr(importlib.import_module(f"{tracing.PACKAGE}.{mod_name}"), cls_name)
    # the tracer patches the class's own attribute, not an inherited one
    assert callable(vars(cls).get(method))


def test_cli_commands_hold_traced_commands(tracing):
    from commutant_lab import cli

    assert set(tracing.COMMAND_NAMES) <= set(cli.COMMANDS)


def test_report_writers_take_the_path_first(tmp_path):
    # the tracer counts reportio.bytes from the file at args[0]
    from commutant_lab import reportio

    json_path, csv_path = tmp_path / "report.json", tmp_path / "table.csv"
    reportio.write_json(json_path, {"schema": 1})
    reportio.write_csv(csv_path, [["name", "value"], ["x", 1.0]])
    assert json_path.stat().st_size > 0 and csv_path.stat().st_size > 0


@pytest.mark.parametrize("variant", ["analytic", "pole"])
def test_cold_job_calls_each_traced_build_once(tracing, tmp_path, variant):
    # the tracer rebinds cli's make_pair and build aliases; a job whose pair
    # is not in the CLI's memo must reach each of them once, so the traced
    # pass, which follows an untraced pass over the same jobs, sees every build
    from commutant_lab import cli

    params = {
        "variant": "general",
        "lambda": [0.5, 0.0],
        "mu": [0.0, 1.0],
        "alpha1": [1.0, 0.0],
        "alpha2": [1.0 if variant == "pole" else 0.0, 0.0],
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": params, "n": 32, "m": 4}))
    nystrom = "discretize.nystrom_K_pv" if variant == "pole" else "discretize.nystrom_K"
    cli._MEMO.clear()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for cmd in ("pair", "verify", "normality", "commutator", "spectrum"):
            cli.main([cmd, "--config", str(cfg), "--out", str(tmp_path / cmd), "--quiet"])
    finally:
        tracer.uninstall()
        cli._MEMO.clear()
    assert tracer.leftovers() == []
    calls = tracer.calls()
    for name in ("families.make_pair", "discretize.build_grid", nystrom, "discretize.collocation_L"):
        assert calls[name] == 1, name
    for cmd in ("pair", "verify", "normality", "commutator", "spectrum"):
        assert calls[f"cli.{cmd}"] == 1, cmd
