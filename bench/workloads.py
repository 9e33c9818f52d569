"""Seeded job generation and the per-job correctness rule.

A job is a list of CLI invocations on one generated config.  Only the
continuous parameters come from the workload seed; the variant follows a
fixed round-robin over the job index, so two seeds differ in parameter
values but never in the mix of variants (drawing the variant at random
moved throughput by up to 20% between seeds).

This module does not import the package under test: configs are plain
JSON-ready dicts, and the failure rule reads the written ``report.json``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

VARIANTS = ("general-analytic", "general-pole", "case1", "case2", "case3", "case4")

# command list and grid settings of one job, per workload
WORKLOADS = {
    "sweep": {"commands": ("sweep",)},
    "certify": {
        "commands": ("pair", "verify", "normality", "commutator", "spectrum"),
        "n": 64,
        "m": 8,
    },
    "spectral": {"commands": ("commutator", "spectrum"), "n": 256, "m": 8},
}
SWEEP_COUNT = 8

# checks the program guarantees for every admissible pair; a failure of one
# of these is a wrong answer, not an honest limitation of a discretization
GUARANTEED_CHECKS = frozenset(
    {
        "admissible",
        "boundary_abs",
        "r1_rel",
        "r2_rel",
        "taylor_abs",
        "lemma_abs",
        "singular_relation_abs",
        "involution_abs",
        "self_commute_abs",
        "selfadjoint_implies_normal",
        "sweep_pass_fraction",
    }
)


def _job_rng(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, index])


def _cplx(rng: np.random.Generator, radius: float) -> list[float]:
    return [float(rng.uniform(-radius, radius)), float(rng.uniform(-radius, radius))]


def variant_of(index: int) -> str:
    return VARIANTS[index % len(VARIANTS)]


def draw_params(variant: str, rng: np.random.Generator, index: int) -> dict:
    """Params block (families JSON wire format) for one variant.

    |lambda| <= 2*sqrt(2) < pi keeps every general and case2 draw
    admissible; the integer m of case1 is not a continuous parameter, so
    it follows the job index.
    """
    if variant in ("general-analytic", "general-pole"):
        return {
            "variant": "general",
            "lambda": _cplx(rng, 2.0),
            "mu": _cplx(rng, 2.0),
            "alpha1": _cplx(rng, 1.0),
            "alpha2": _cplx(rng, 1.0) if variant == "general-pole" else [0.0, 0.0],
        }
    if variant == "case1":
        m = (index // len(VARIANTS)) % 2
        return {"variant": "case1", "m": m, "alpha": _cplx(rng, 1.0), "beta": _cplx(rng, 1.0)}
    if variant == "case2":
        return {
            "variant": "case2",
            "lambda": _cplx(rng, 2.0),
            "alpha": _cplx(rng, 1.0),
            "beta": _cplx(rng, 1.0),
        }
    if variant == "case3":
        modulus = float(rng.uniform(0.5, 2.0))
        phase = float(rng.uniform(-math.pi, math.pi))
        beta = [modulus * math.cos(phase), modulus * math.sin(phase)]
        return {"variant": "case3", "beta": beta, "p": [_cplx(rng, 1.0), [0.0, 0.0], _cplx(rng, 1.0)]}
    if variant == "case4":
        return {"variant": "case4", "beta": _cplx(rng, 1.0), "p": [_cplx(rng, 1.0) for _ in range(3)]}
    raise ValueError(f"unknown variant {variant!r}")


def job_config(workload: str, seed: int, index: int, stream: int = 0) -> dict:
    """The config of job ``index``; a pure function of its arguments.

    ``stream`` separates independent draws, such as warm-up jobs, from the
    measured ones.
    """
    spec = WORKLOADS[workload]
    rng = _job_rng(seed, stream, index)
    if workload == "sweep":
        # sweep draws its own general-family parameters from this seed
        return {"seed": int(rng.integers(0, 2**31 - 1)), "count": SWEEP_COUNT}
    return {"params": draw_params(variant_of(index), rng, index), "n": spec["n"], "m": spec["m"]}


def job_argvs(workload: str, config_path: Path, outdir: Path) -> list[tuple[str, list[str]]]:
    """(command, argv) of every CLI call in one job; each writes its own directory."""
    return [
        (cmd, [cmd, "--config", str(config_path), "--out", str(outdir / cmd), "--quiet"])
        for cmd in WORKLOADS[workload]["commands"]
    ]


class CheckTally:
    """Checks run and passed, and sweep draws accepted, over a set of reports."""

    def __init__(self) -> None:
        self.run = 0
        self.passed = 0
        self.accepted = 0
        self.attempts = 0

    def add_report(self, report: dict) -> str | None:
        """Count a report's checks; return why it fails the job, or None."""
        if report.get("command") == "sweep":
            self.accepted += report["result"]["accepted"]
            self.attempts += report["result"]["attempts"]
        reason = None
        for check in report.get("checks", []):
            self.run += 1
            self.passed += bool(check["pass"])
            value = check["value"]
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                reason = reason or f"non-finite {check['name']}"
            elif check["name"] in GUARANTEED_CHECKS and not check["pass"]:
                reason = reason or f"guaranteed check {check['name']} failed"
        return reason


def judge_call(status: int | None, report_path: Path, tally: CheckTally) -> tuple[str | None, bytes | None]:
    """Apply the failure rule to one CLI call.

    ``status`` is None when the call raised.  Exit status 1 means an honest
    check failure and is not by itself a failed job.  Returns the failure
    reason (or None) and the report bytes.
    """
    if status is None:
        return "raised", None
    if status == 2:
        return "exit status 2", None
    try:
        raw = report_path.read_bytes()
    except FileNotFoundError:
        return "no report.json", None
    try:
        report = json.loads(raw)
    except ValueError:
        return "unreadable report.json", raw
    return tally.add_report(report), raw
