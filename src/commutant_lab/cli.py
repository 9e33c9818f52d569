"""Batch driver: construct pairs, run the verification pipeline, write reports.

Usage:
    commutant-lab <pair|verify|commutator|spectrum|normality|sweep>
                  --config PATH [--out DIR] [--dump] [--quiet]

The config is a single JSON object; reports are written as report.json
(full, with the schema and package version) and summary.csv (one row per
check: name, value, tolerance, pass).  Commands hand their result objects
to ``reportio`` as they are; it turns complex numbers, numpy values and
result dataclasses into JSON.  Identical config + seed produces
byte-identical files on one machine with a fixed BLAS thread count, with or
without the worker thread on which, from n = 128 on, ``spectra._beside``
runs K's half of ``spectrum`` and ``commutator``; the matrix reports
of ``commutator`` and ``spectrum`` can change in their last digits with the
BLAS thread count.  Exit status is 0 iff every check passed its
tolerance; a report file that cannot be written is a config error
(status 2), like an output directory that cannot be created and an n whose
matrices do not fit in memory.  A command
first removes report.json, summary.csv and the tables it can write
(``TABLES``) from it, so a directory holds one run's files.

A process builds its argument parser once, and keeps the last pair it
built and that pair's K and L on the last n, so commands run one after
another on one config (as a certification does) build them once; ``sweep``
builds its own draws.  The outputs are the same as from a fresh process.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, reportio, spectra
from .discretize import build_grid, collocation_L, nystrom_K, nystrom_K_pv, pv_rowsum_error
from .errors import CommutantError, ConfigError, EigFailure
from .families import (
    CommutingPair,
    FamilyParams,
    General,
    classify_trivial,
    make_pair,
    params_from_json,
    params_to_json,
)
from .kernels import kernel_values
from .normality import (
    adjoint_coeffs,
    commute_conditions,
    is_normal,
    interior_points,
)
from .residuals import (
    lemma_coeff_check,
    residual_R1,
    singular_relation_check,
    taylor_relation_check,
)
from .spectra import commutator_norm, joint_diagonalization

DEFAULT_TOLERANCES = {
    "boundary_abs": 1e-12,
    "r1_rel": 1e-9,
    "taylor_abs": 1e-10,
    "lemma_abs": 1e-9,
    "singular_relation_abs": 1e-10,
    # the commutator read (relative to K's and L's sizes on the Legendre
    # columns) has a floor that grows with n: these two hold to n = 256 on
    # the benchmark draws (pole reads <= 4.7e-10), and at n = 512 on seed 1
    # (<= 4.87e-9) but not on one seed-2 draw (1.23e-8); 2.6e-8 at n = 1024
    "commutator_rel": 1e-8,
    "commutator_pv_rel": 1e-8,
    "rowsum_rel": 1e-12,
    "offdiag": 1e-6,
    "rayleigh_rel": 1e-6,
    "involution_abs": 1e-13,
    "self_commute_abs": 1e-12,
    "normal_conditions": 1e-10,
}


# points of kernel_samples.csv, evenly spaced on [-2, 2]
KERNEL_SAMPLES = 401


@dataclass
class RunConfig:
    command: str
    params: FamilyParams | None
    n: int = 64
    m: int = 8
    tolerances: dict = field(default_factory=dict)
    output_path: str = "out"
    seed: int = 0
    count: int = 25

    def tol(self, name: str) -> float:
        return float(self.tolerances.get(name, DEFAULT_TOLERANCES[name]))


CONFIG_KEYS = frozenset({"params", "n", "m", "tolerances", "output_path", "seed", "count"})


def _int_field(raw: dict, key: str, default: int, least: int) -> int:
    value = raw.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ConfigError(f"{key} must be an integer >= {least}, got {value!r}")
    return value


def load_config(path: str, command: str) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(set(raw) - CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}")
    tolerances = raw.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ConfigError("tolerances must be a JSON object")
    unknown = sorted(set(tolerances) - set(DEFAULT_TOLERANCES))
    if unknown:
        raise ConfigError(f"unknown tolerances {unknown}")
    for name, value in tolerances.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not value > 0:
            raise ConfigError(f"tolerance {name} must be a positive number, got {value!r}")
    params = None
    if "params" in raw:
        try:
            params = params_from_json(raw["params"])
        except (KeyError, ValueError, TypeError) as exc:
            raise ConfigError(f"bad params block: {exc}") from exc
    # n = 2 has no interior node, where the pv measures and L's modes live
    n = _int_field(raw, "n", 64, 3)
    m = _int_field(raw, "m", 8, 1)
    output_path = raw.get("output_path", "out")
    if not isinstance(output_path, str):
        raise ConfigError("output_path must be a string")
    return RunConfig(
        command=command,
        params=params,
        n=n,
        m=m,
        tolerances=tolerances,
        output_path=output_path,
        seed=_int_field(raw, "seed", 0, 0),
        count=_int_field(raw, "count", 25, 1),
    )


def _require_params(cfg: RunConfig) -> FamilyParams:
    if cfg.params is None:
        raise ConfigError(f"command {cfg.command!r} needs a params block")
    return cfg.params


# The last pair built in this process ("params", "pair") and its K and L on
# the last n ("n", "KL"), so the commands of one certification build them
# once.  One entry: the key is repr(params), whose exact bits keep 0.0 and
# -0.0 apart, and the old entry is dropped before a new build, so peak memory
# does not grow.  Builds look up the module's names at call time, so code
# that rebinds them (a tracer) sees every build.
_MEMO: dict = {}


def _build_pair(params: FamilyParams) -> CommutingPair:
    key = repr(params)
    if _MEMO.get("params") != key:
        _MEMO.clear()
        _MEMO["pair"] = make_pair(params)
        _MEMO["params"] = key
    return _MEMO["pair"]


def _write(write, path: Path, *args) -> None:
    """``write(path, *args)``; a report file that cannot be written is a config error."""
    try:
        write(path, *args)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _sample_kernel(pair: CommutingPair):
    z = np.linspace(-2.0, 2.0, KERNEL_SAMPLES)
    if pair.kernel.singular:
        z = z[np.abs(z) > 1e-6]
    (kv,) = kernel_values(pair.kernel, z, orders=(0,))
    return z, kv


def cmd_pair(cfg: RunConfig, outdir: Path, dump: bool, summary: reportio.Summary) -> dict:
    params = _require_params(cfg)
    try:
        pair, reason = _build_pair(params), ""
    except CommutantError as exc:  # a refusal is a failing check with its reason
        pair, reason = None, str(exc)
    summary.add("admissible", 1.0 if pair is None else 0.0, 0.5)
    report: dict = {
        "params": params_to_json(params),
        "admissible": pair is not None,
        "reason": reason,
        "trivial": classify_trivial(params),
    }
    if pair is None:
        return report
    bres = pair.op.boundary_residual()
    summary.add("boundary_abs", bres, cfg.tol("boundary_abs"))
    report["boundary_residual"] = bres
    report["singular"] = pair.kernel.singular
    report["series"] = pair.kernel.series
    if pair.nu is not None:
        # case1's nu is a float; the field stays [re, im]
        report["nu"] = complex(pair.nu)
    z, kv = _sample_kernel(pair)
    y = np.linspace(-1.0, 1.0, 201)
    av, bv, cv = (f(y) for f in (pair.op.a, pair.op.b, pair.op.c))
    _write(
        reportio.write_csv,
        outdir / "kernel_samples.csv",
        [["z", "k_re", "k_im"]] + np.column_stack([z, kv.real, kv.imag]).tolist(),
    )
    _write(
        reportio.write_csv,
        outdir / "coefficient_samples.csv",
        [["y", "a_re", "a_im", "b_re", "b_im", "c_re", "c_im"]]
        + np.column_stack([y, av.real, av.imag, bv.real, bv.imag, cv.real, cv.imag]).tolist(),
    )
    return report


def cmd_verify(cfg: RunConfig, outdir: Path, dump: bool, summary: reportio.Summary) -> dict:
    pair = _build_pair(_require_params(cfg))
    rep1 = residual_R1(pair)
    summary.add("r1_rel", rep1.max_abs / max(rep1.scale, 1e-300), cfg.tol("r1_rel"))
    report = {
        "params": params_to_json(pair.params),
        "singular": pair.kernel.singular,
        "residual_R1": rep1,
    }
    if pair.kernel.singular:
        sing = singular_relation_check(pair)
        summary.add("singular_relation_abs", sing["residual"], cfg.tol("singular_relation_abs"))
        report["singular_relation"] = sing
    else:
        tay = taylor_relation_check(pair, N=6)
        summary.add("taylor_abs", float(np.max(tay)), cfg.tol("taylor_abs"))
        lem = lemma_coeff_check(pair)
        worst = max(lem["b_eq_aprime"], lem["c_eq_nu_a"], lem["a_ode"])
        summary.add("lemma_abs", worst, cfg.tol("lemma_abs"))
        report["taylor_residuals"] = tay
        report["lemma"] = lem
    return report


def _dump_matrices(outdir: Path, K, L) -> None:
    _write(reportio.write_csv, outdir / "K_matrix.csv", K.entries.tolist())
    _write(reportio.write_csv, outdir / "L_matrix.csv", L.entries.tolist())


def _build_matrices(cfg: RunConfig):
    """The pair of cfg.params with its K and L on cfg.n nodes, from ``_MEMO``."""
    pair = _build_pair(_require_params(cfg))
    if _MEMO.get("n") != cfg.n:
        _MEMO.pop("n", None)
        _MEMO.pop("KL", None)
        grid = build_grid(cfg.n)
        K = nystrom_K_pv(pair, grid) if pair.kernel.singular else nystrom_K(pair, grid)
        L = collocation_L(pair.op, grid)
        K.entries.flags.writeable = L.entries.flags.writeable = False
        _MEMO["KL"], _MEMO["n"] = (K, L), cfg.n
    return (pair, *_MEMO["KL"])


def cmd_commutator(cfg: RunConfig, outdir: Path, dump: bool, summary: reportio.Summary) -> dict:
    pair, K, L = _build_matrices(cfg)
    singular = pair.kernel.singular
    norm, degree = commutator_norm(K, L)
    tol_name = "commutator_pv_rel" if singular else "commutator_rel"
    summary.add(tol_name, norm, cfg.tol(tol_name))
    report = {
        "params": params_to_json(pair.params),
        "n": cfg.n,
        "singular": singular,
        "interior_restricted": singular,
        "commutator_rel": norm,
        "worst_degree": degree,
    }
    if singular:
        err = pv_rowsum_error(K)
        summary.add("rowsum_rel", err, cfg.tol("rowsum_rel"))
        report["rowsum_rel"] = err
    if dump:
        _dump_matrices(outdir, K, L)
    return report


def cmd_spectrum(cfg: RunConfig, outdir: Path, dump: bool, summary: reportio.Summary) -> dict:
    # a pv K's modes are normalized over the n - 2 nodes inside (-1, 1),
    # other modes over all n; checked on the pair, before any matrix is built
    if _build_pair(_require_params(cfg)).kernel.singular:
        if cfg.m > cfg.n - 2:
            raise ConfigError(
                f"m = {cfg.m} exceeds the {cfg.n - 2} interior nodes of n = {cfg.n} "
                "that a pole kernel's modes are normalized over"
            )
    elif cfg.m > cfg.n:
        raise ConfigError(f"m = {cfg.m} exceeds the grid size n = {cfg.n}")
    pair, K, L = _build_matrices(cfg)
    if dump:
        _dump_matrices(outdir, K, L)
    report = {"params": params_to_json(pair.params), "n": cfg.n, "m": cfg.m}
    try:
        spec = joint_diagonalization(K, L, cfg.m)
    except EigFailure as exc:
        if exc.backward is None:
            raise
        # a mode that fails its certificate is a failing check with its
        # value, so the run still writes a report
        summary.add("eig_certificate", exc.backward, spectra._BACKWARD_TOL)
        report["eig_certificate"] = {"mode": exc.mode, "backward_error": exc.backward, "reason": str(exc)}
        return report
    summary.add("offdiag", spec.offdiag_energy, cfg.tol("offdiag"))
    ray = spec.rayleigh[np.argsort(-np.abs(spec.rayleigh))]
    direct = spec.K_eigenvalues_direct
    scale = float(np.max(np.abs(direct))) + 1e-300
    match = float(np.max(np.abs(ray - direct))) / scale
    summary.add("rayleigh_rel", match, cfg.tol("rayleigh_rel"))
    _write(
        reportio.write_csv,
        outdir / "modes.csv",
        [["idx", "L_eig_re", "L_eig_im", "rayleigh_re", "rayleigh_im", "residual"]] + spec.rows(),
    )
    report["spectral"] = spec
    report["rayleigh_match_rel"] = match
    return report


def cmd_normality(cfg: RunConfig, outdir: Path, dump: bool, summary: reportio.Summary) -> dict:
    pair = _build_pair(_require_params(cfg))
    op = pair.op
    y = interior_points()
    twice = adjoint_coeffs(adjoint_coeffs(op))
    inv = 0.0
    for f, g in ((op.a, twice.a), (op.b, twice.b), (op.c, twice.c)):
        inv = max(inv, float(np.max(np.abs(f(y) - g(y)))))
    summary.add("involution_abs", inv, cfg.tol("involution_abs"))
    self_comm = max(commute_conditions(op, op).values())
    summary.add("self_commute_abs", self_comm, cfg.tol("self_commute_abs"))
    rep = is_normal(op, tol=cfg.tol("normal_conditions"))
    summary.add(
        "selfadjoint_implies_normal", 0.0 if (not rep.selfadjoint or rep.normal) else 1.0, 0.5
    )
    return {
        "params": params_to_json(pair.params),
        "involution_abs": inv,
        "self_commute_abs": self_comm,
        "selfadjoint": rep.selfadjoint,
        "selfadjoint_residuals": rep.selfadjoint_residuals,
        "normality": rep,
    }


# sweep.csv columns: the draw's parameters, then its R1 residual and verdict
SWEEP_FIELDS = (
    "idx", "lambda_re", "lambda_im", "mu_re", "mu_im",
    "alpha1_re", "alpha1_im", "alpha2_re", "alpha2_im",
    "max_abs", "scale", "rel", "pass",
)


def cmd_sweep(cfg: RunConfig, outdir: Path, dump: bool, summary: reportio.Summary) -> dict:
    rng = np.random.default_rng(cfg.seed)
    tol = cfg.tol("r1_rel")
    rows = []
    rejections = []
    accepted = 0
    attempts = 0
    while accepted < cfg.count and attempts < 50 * cfg.count:
        attempts += 1
        lam = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        mu = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        a1 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        a2 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) if accepted % 2 == 0 else 0j
        params = General(lam=lam, mu=mu, alpha1=a1, alpha2=a2)
        try:
            pair = make_pair(params)
        except CommutantError as exc:
            rejections.append({"attempt": attempts, "reason": str(exc)})
            continue
        if classify_trivial(params):
            rejections.append({"attempt": attempts, "reason": "trivial kernel"})
            continue
        rep = residual_R1(pair)
        rel = rep.max_abs / max(rep.scale, 1e-300)
        draw = (accepted, lam.real, lam.imag, mu.real, mu.imag, a1.real, a1.imag, a2.real, a2.imag)
        rows.append(dict(zip(SWEEP_FIELDS, (*draw, rep.max_abs, rep.scale, rel, rel <= tol))))
        accepted += 1
    all_ok = all(r["pass"] for r in rows) and accepted == cfg.count
    summary.add("sweep_pass_fraction", 0.0 if all_ok else 1.0, 0.5)
    _write(reportio.write_csv, outdir / "sweep.csv", rows, SWEEP_FIELDS)
    return {
        "seed": cfg.seed,
        "count": cfg.count,
        "accepted": accepted,
        "attempts": attempts,
        "rejections": rejections,
        "draws": [{"idx": r["idx"], "rel": r["rel"], "pass": r["pass"]} for r in rows],
    }


COMMANDS = {
    "pair": cmd_pair,
    "verify": cmd_verify,
    "commutator": cmd_commutator,
    "spectrum": cmd_spectrum,
    "normality": cmd_normality,
    "sweep": cmd_sweep,
}

# the tables each command can write, removed with report.json and summary.csv before it runs
TABLES = {
    "pair": ("kernel_samples.csv", "coefficient_samples.csv"),
    "verify": (),
    "commutator": ("K_matrix.csv", "L_matrix.csv"),
    "spectrum": ("K_matrix.csv", "L_matrix.csv", "modes.csv"),
    "normality": (),
    "sweep": ("sweep.csv",),
}


# built once: parse_args returns a new Namespace on every call
_PARSER = argparse.ArgumentParser(
    prog="commutant-lab",
    description="verify commuting convolution/differential operator pairs",
)
_PARSER.add_argument("command", choices=sorted(COMMANDS))
_PARSER.add_argument("--config", required=True, help="path to a JSON run config")
_PARSER.add_argument("--out", default=None, help="output directory (default: config output_path)")
_PARSER.add_argument("--dump", action="store_true", help="export matrices as CSV")
_PARSER.add_argument("--quiet", action="store_true", help="suppress per-check lines")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        cfg = load_config(args.config, args.command)
        outdir = Path(args.out if args.out is not None else cfg.output_path)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {outdir}: {exc}") from exc
        for name in ("report.json", "summary.csv", *TABLES[args.command]):
            _write(partial(Path.unlink, missing_ok=True), outdir / name)
        summary = reportio.Summary()
        try:
            body = COMMANDS[args.command](cfg, outdir, args.dump, summary)
        except MemoryError as exc:
            # the grid, K and L take O(n^2) memory: an n too large for the machine
            reason = f"n = {cfg.n} does not fit in memory"
            raise ConfigError(f"{reason}: {exc}" if str(exc) else reason) from exc
        report = {
            "schema": reportio.SCHEMA_VERSION,
            "version": __version__,
            "command": args.command,
            "checks": summary.rows,
            "result": body,
        }
        _write(reportio.write_json, outdir / "report.json", report)
        _write(summary.write, outdir / "summary.csv")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (CommutantError, ValueError, ArithmeticError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    if not args.quiet:
        for row in summary.rows:
            status = "PASS" if row["pass"] else "FAIL"
            print(f"{status} {row['name']}: {row['value']!r} (tol {row['tolerance']!r})")
    return 0 if summary.all_pass() else 1

if __name__ == "__main__":
    sys.exit(main())
