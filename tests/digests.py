"""Digests of every CLI output byte over the benchmark draws.

Runs the commands of ``bench/workloads.py`` (loaded read-only, not imported
as a package) through ``cli.main`` in one process, job after job as the
benchmark does: certify jobs 0-47 at n = 64 and spectral jobs 0-23 at
n = 256, seeds 1-2, with BLAS on one thread.  It writes one JSON object
that maps each output file (``certify/1/0/pair/report.json``) to the sha256
of its bytes and each call (``certify/1/0/pair/exit``) to its exit code.
A change meant to keep every output byte is checked by running it on both
trees, with this script from either one, and comparing the two files:

    PYTHONPATH=src python tests/digests.py change.json
    PYTHONPATH=/path/to/parent/src python tests/digests.py parent.json
    diff parent.json change.json && echo identical
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
import sys
import tempfile
from pathlib import Path

from commutant_lab import cli

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
SEEDS = (1, 2)
# workload -> number of jobs per seed
JOBS = {"certify": 48, "spectral": 24}


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def digests(seeds=SEEDS, jobs=JOBS) -> dict[str, str | int]:
    """sha256 of every output file and the exit code of every call, by path."""
    workloads = _workloads()
    out: dict[str, str | int] = {}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for workload, count in jobs.items():
            for seed in seeds:
                for i in range(count):
                    jobdir = root / workload / str(seed) / str(i)
                    jobdir.mkdir(parents=True)
                    config = jobdir / "config.json"
                    config.write_text(json.dumps(workloads.job_config(workload, seed, i)))
                    for cmd, argv in workloads.job_argvs(workload, config, jobdir):
                        with contextlib.redirect_stderr(io.StringIO()):
                            out[f"{workload}/{seed}/{i}/{cmd}/exit"] = cli.main(argv)
        for path in sorted(root.rglob("*")):
            if path.is_file() and path.name != "config.json":
                out[path.relative_to(root).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUT.json")
    result = digests()
    Path(sys.argv[1]).write_text(json.dumps(result, indent=0, sort_keys=True) + "\n")
    print(f"{len(result)} digests and exit codes written to {sys.argv[1]}")
