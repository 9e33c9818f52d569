"""Digests of every CLI output byte over the benchmark draws.

Runs the commands of ``bench/workloads.py`` (loaded read-only, not imported
as a package) through ``cli.main`` in one process, job after job as the
benchmark does: certify jobs 0-47 at n = 64, spectral jobs 0-23 at
n = 256 and sweep jobs 0-23, seeds 1-2, and the case2 draws with small
lambda in ``SMALL_RATE``, with BLAS on one thread; and ``pair`` and
``verify`` on each parameter set of ``REFUSALS``, which ``make_pair``
refuses, certify's commands on each first-order family of
``FIRST_ORDER`` and on each imaginary-heavy parameter set of ``ADMITTED``,
and ``commutator`` and ``spectrum`` with ``--dump`` on the certify jobs of
``DUMPS``.  It writes one JSON object that maps each
output file (``certify/1/0/pair/report.json``,
``refusals/case3/beta0/pair/report.json``) to the sha256 of its bytes and
each call (``certify/1/0/pair/exit``) to its exit code, or to the
exception it ended in (``"AssertionError: ..."``, with its traceback on
stderr), so a tree on which a call fails unhandled can still be compared.
A change meant to keep every output byte is checked by running it on both
trees, with this script from either one, and comparing the two files:

    PYTHONPATH=src python tests/digests.py change.json
    PYTHONPATH=/path/to/parent/src python tests/digests.py parent.json
    python tests/digests.py --compare parent.json change.json

``--compare`` prints the entries that differ, or that one file lacks,
grouped by workload/command/file (``certify/pair/kernel_samples.csv``),
and exits 1 if there are any.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    # before numpy is loaded: BLAS threads may sum in another order
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

import contextlib
import hashlib
import importlib.util
import io
import json
import math
import sys
import tempfile
import traceback
from functools import partial
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
SEEDS = (1, 2)
# workload -> number of jobs per seed
JOBS = {"certify": 48, "spectral": 24, "sweep": 24}
# (workload, seed, job) of case2 draws beyond JOBS where case2 is built from
# the general family's Taylor forms: one test on |lambda/2| decides D and a
# together (|mu| decides N's sinh(mu z)/mu), so both are Taylor for
# |lambda| < 0.2 (job 111 of seed 1 draws |lambda| = 0.18, job 465 of seed 2
# draws 0.065).  Jobs 0-47 draw no case2 lambda that small.
SMALL_RATE = tuple(
    (w, seed, i) for w in ("certify", "spectral") for seed, i in ((1, 111), (2, 465))
)

# name -> params block that make_pair refuses ([re, im] numbers): pair
# reports the refusal in report.json, verify exits 1 with an error line
REFUSALS = {
    "general/alpha0": {
        "variant": "general", "lambda": [1.0, 0.0], "mu": [1.0, 0.0],
        "alpha1": [0.0, 0.0], "alpha2": [0.0, 0.0],
    },
    "general/lambda1.2pi": {
        "variant": "general", "lambda": [0.0, 1.2 * math.pi], "mu": [0.3, 0.0],
        "alpha1": [1.0, 0.0], "alpha2": [1.0, 0.0],
    },
    "general/lambdapi": {
        "variant": "general", "lambda": [0.0, math.pi], "mu": [0.0, 0.75 * math.pi],
        "alpha1": [0.0, 0.0], "alpha2": [1.0, 0.0],
    },
    "case1/zero": {"variant": "case1", "m": 1, "alpha": [0.0, 0.0], "beta": [0.0, 0.0]},
    "case2/zero": {"variant": "case2", "lambda": [1.0, 0.0], "alpha": [0.0, 0.0], "beta": [0.0, 0.0]},
    "case2/lambda1e-7": {"variant": "case2", "lambda": [1e-7, 0.0], "alpha": [1.0, 0.0], "beta": [0.0, 0.0]},
    "case2/lambda1.05pi": {
        "variant": "case2", "lambda": [0.0, 1.05 * math.pi], "alpha": [1.0, 0.0], "beta": [0.0, 0.0],
    },
    "case3/beta0": {"variant": "case3", "beta": [0.0, 0.0], "p": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]},
    "case3/oddp": {"variant": "case3", "beta": [1.0, 0.0], "p": [[1.0, 0.0], [0.5, 0.0], [0.0, 0.0]]},
    "case3/zero": {"variant": "case3", "beta": [1.0, 0.0], "p": [[0.0, 0.0]] * 3},
    "case4/zero": {"variant": "case4", "beta": [0.0, 0.0], "p": [[0.0, 0.0]] * 3},
}

# (seed, job) of certify jobs whose commutator and spectrum also run with
# --dump, one per variant of the round-robin: the complex cells of
# K_matrix.csv and L_matrix.csv
DUMPS = tuple((1, i) for i in range(6))

# name -> params block whose L is first order (a = 0): certify's commands run
# on each at certify's n and m
FIRST_ORDER = {
    "case2/alpha0": {"variant": "case2", "lambda": [1.0, 0.0], "alpha": [0.0, 0.0], "beta": [1.0, 0.0]},
    "case2/alpha0-complex-lambda": {
        "variant": "case2", "lambda": [1.0, 0.5], "alpha": [0.0, 0.0], "beta": [1.0, 0.0],
    },
    "case4/p0": {"variant": "case4", "beta": [1.0, 0.0], "p": [[0.0, 0.0]] * 3},
    "case4/p0-imaginary-beta": {"variant": "case4", "beta": [0.0, 1.0], "p": [[0.0, 0.0]] * 3},
}

# name -> params block with |Im lambda| > pi that make_pair builds: two
# general kernels with only removable zeros in [-2, 2] (alpha2 = 0, mu in
# (lambda/2)Z) and a case2 lambda whose poles lie 6.1e-7 k off the real
# axis; certify's commands run on each at certify's n and m
ADMITTED = {
    "general/lambda1.2pi": {
        "variant": "general", "lambda": [0.0, 1.2 * math.pi], "mu": [0.0, 0.6 * math.pi],
        "alpha1": [1.0, 0.0], "alpha2": [0.0, 0.0],
    },
    "general/lambda3.2pi": {
        "variant": "general", "lambda": [0.0, 3.2 * math.pi], "mu": [0.0, 3.2 * math.pi],
        "alpha1": [0.3, 0.2], "alpha2": [0.0, 0.0],
    },
    "case2/lambda1+3200i": {
        "variant": "case2", "lambda": [1.0, 3200.0], "alpha": [1.0, 0.0], "beta": [0.0, 0.0],
    },
}


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _argvs(commands, *flags):
    """(command, argv) of each of commands in one job, laid out as the
    benchmark's argv, with flags appended."""

    def argvs(config: Path, jobdir: Path):
        return [
            (cmd, [cmd, "--config", str(config), "--out", str(jobdir / cmd), "--quiet", *flags])
            for cmd in commands
        ]

    return argvs


def digests(
    seeds=SEEDS, jobs=JOBS, extra=(), refusals=(), first_order=(), admitted=(), dumps=()
) -> dict[str, str | int]:
    """sha256 of every output file and the exit code of every call, by path,
    over jobs 0..count-1 of each seed, the (workload, seed, job) in extra,
    the REFUSALS named in refusals, the FIRST_ORDER named in first_order,
    the ADMITTED named in admitted and the certify (seed, job) in dumps."""
    from commutant_lab import cli  # here, so --compare runs without the package

    workloads = _workloads()
    runs = [(w, seed, i) for w, count in jobs.items() for seed in seeds for i in range(count)]
    # (output directory, config, (command, argv) of each call from config and directory)
    calls = [
        (f"{w}/{seed}/{i}", workloads.job_config(w, seed, i), partial(workloads.job_argvs, w))
        for w, seed, i in runs + list(extra)
    ]
    pair_verify = _argvs(("pair", "verify"))
    calls += [(f"refusals/{name}", {"params": REFUSALS[name]}, pair_verify) for name in refusals]
    grid = {k: workloads.WORKLOADS["certify"][k] for k in ("n", "m")}
    certify = partial(workloads.job_argvs, "certify")
    for group, table, names in (
        ("first_order", FIRST_ORDER, first_order), ("admitted", ADMITTED, admitted)
    ):
        calls += [(f"{group}/{name}", {"params": table[name], **grid}, certify) for name in names]
    dump = _argvs(("commutator", "spectrum"), "--dump")
    calls += [(f"dumps/{seed}/{i}", workloads.job_config("certify", seed, i), dump) for seed, i in dumps]
    out: dict[str, str | int] = {}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, cfg, argvs in calls:
            jobdir = root / name
            jobdir.mkdir(parents=True)
            config = jobdir / "config.json"
            config.write_text(json.dumps(cfg))
            for cmd, argv in argvs(config, jobdir):
                try:
                    with contextlib.redirect_stderr(io.StringIO()):
                        status = cli.main(argv)
                except Exception as exc:  # an unhandled failure is an entry too
                    traceback.print_exc()
                    status = f"{type(exc).__name__}: {exc}"
                out[f"{name}/{cmd}/exit"] = status
        for path in sorted(root.rglob("*")):
            if path.is_file() and path.name != "config.json":
                out[path.relative_to(root).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def compare(a: dict, b: dict) -> dict[str, list[str]]:
    """Keys whose entries differ between a and b, or that one lacks, grouped
    by workload/command/file: the key without its seed and job."""
    groups: dict[str, list[str]] = {}
    for key in sorted(a.keys() | b.keys()):
        if a.get(key) != b.get(key):
            workload, _seed, _job, *rest = key.split("/")
            groups.setdefault("/".join([workload, *rest]), []).append(key)
    return groups


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        a, b = (json.loads(Path(p).read_text()) for p in argv[1:])
        groups = compare(a, b)
        for group, keys in groups.items():
            print(f"{group}: {len(keys)} differ")
            for key in keys:
                print(f"  {key}: {a.get(key, '-')} {b.get(key, '-')}")
        differ = sum(len(keys) for keys in groups.values())
        print(f"{differ} of {len(a.keys() | b.keys())} entries differ")
        return 1 if differ else 0
    if len(argv) != 1:
        print(f"usage: {sys.argv[0]} OUT.json | --compare A.json B.json", file=sys.stderr)
        return 2
    result = digests(
        extra=SMALL_RATE, refusals=REFUSALS, first_order=FIRST_ORDER, admitted=ADMITTED, dumps=DUMPS
    )
    Path(argv[0]).write_text(json.dumps(result, indent=0, sort_keys=True) + "\n")
    print(f"{len(result)} digests and exit codes written to {argv[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
