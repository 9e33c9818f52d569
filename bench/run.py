"""Certification benchmark: one closed-loop client driving the commutant-lab CLI.

Usage (from the repository root):

    python3 bench/run.py --workload {sweep,certify,spectral} --seed N \
        --seconds S --trace {0,1}

Each job calls ``commutant_lab.cli.main`` in-process on configs generated
from the workload seed; the next job starts only after the previous one
returns.  ``--trace 0`` times the unwrapped program and prints the
end-to-end metrics; ``--trace 1`` runs a fixed job set untraced and then
traced, and prints the per-layer metrics.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Full results, raw samples, provenance and (traced) spans are
written under ``.bench_out/`` in the repository root.  See NOTES.md for the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

MIN_JOBS = 100  # p90 needs at least 10 jobs beyond it
MAX_LOOP_S = 120.0  # keeps a slow machine within the 180 s run limit
SETUP_PROBES = 3
TRACE_ROUNDS = {"sweep": 6, "certify": 12, "spectral": 6}

# job streams: disjoint parameter draws for warm-up and measured jobs
TIMED, WARMUP = 0, 1


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def single_thread_blas() -> None:
    """Run BLAS on one thread; must run before numpy is imported.

    One client in one process is the load.  On 2 vCPUs, a second BLAS
    thread made the timings depend on what else ran on the other core
    (spectral throughput spread 19% between runs against 6% with one
    thread), and the matrices here (n <= 256) gain little from it.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if none is found."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                fn = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return int(fn())
    return None


def import_package():
    """Import commutant_lab from this checkout's src/, never from elsewhere."""
    if not (SRC / "commutant_lab" / "__init__.py").is_file():
        raise SystemExit(f"bench: no package source at {SRC / 'commutant_lab'}")
    sys.path.insert(0, str(SRC))
    import commutant_lab
    from commutant_lab import cli

    if Path(commutant_lab.__file__).resolve().parent != SRC / "commutant_lab":
        raise SystemExit(f"bench: imported commutant_lab from {commutant_lab.__file__}")
    return cli


class SpeedProbe:
    """A fixed piece of work, independent of the package, timed between jobs.

    The host's speed swings: on a 2-vCPU Xeon virtual machine the same job
    took 150 to 316 ms within one minute, in stretches of about a second,
    with CPU time equal to wall time.  The probe's time tracks those swings
    (correlation about 0.8 with job latency), so each job time is reported
    scaled by REFERENCE_S / (mean probe time before and after the job).  A
    scaled time is the job's time on a host where the probe takes
    REFERENCE_S; the raw times are kept beside it.
    """

    REFERENCE_S = 0.004

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._matrix = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        self._x = np.linspace(-1.0, 1.0, 500)

    def seconds(self) -> float:
        """Time of one pass: a small LAPACK call, small numpy calls, a Python loop."""
        np = self._np
        t0 = perf_counter()
        np.linalg.eigvals(self._matrix)
        for k in range(40):
            complex(np.sum(np.exp((0.3 + 0.1j * k) * self._x)))
        acc = 0.0
        for i in range(8000):
            acc += (i % 7) * 0.5
        return perf_counter() - t0


@dataclass
class Job:
    latency_s: float
    probe_s: float  # mean probe time just before and just after the job
    reason: str | None  # why the job failed, or None
    reports: dict  # report.json bytes by command

    @property
    def scaled_s(self) -> float:
        return self.latency_s * SpeedProbe.REFERENCE_S / self.probe_s


class Client:
    """The single client: runs jobs one after another and judges each."""

    def __init__(self, cli, workload: str, seed: int, workdir: Path) -> None:
        import workloads

        self.cli = cli
        self.wl = workloads
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.tally = workloads.CheckTally()
        self.failures: list[str] = []
        self.probe = SpeedProbe()
        self._last_probe = self.probe.seconds()

    def run_job(self, stream: int, index: int) -> Job:
        jobdir = self.workdir / "job"
        shutil.rmtree(jobdir, ignore_errors=True)
        jobdir.mkdir(parents=True)
        config_path = jobdir / "config.json"
        config = self.wl.job_config(self.workload, self.seed, index, stream)
        config_path.write_text(json.dumps(config))
        calls = self.wl.job_argvs(self.workload, config_path, jobdir)
        statuses = []
        probe_before = self._last_probe
        t0 = perf_counter()
        for _, argv in calls:
            try:
                statuses.append(self.cli.main(argv))
            except Exception:
                traceback.print_exc()
                statuses.append(None)
        latency = perf_counter() - t0
        self._last_probe = self.probe.seconds()
        reason = None
        reports = {}
        for (cmd, _), status in zip(calls, statuses):
            why, raw = self.wl.judge_call(status, jobdir / cmd / "report.json", self.tally)
            reports[cmd] = raw
            if why is not None and reason is None:
                reason = f"{cmd}: {why}"
        if reason is not None:
            self.failures.append(f"job {stream}/{index} {json.dumps(config)}: {reason}")
        return Job(latency, (probe_before + self._last_probe) / 2, reason, reports)


def prepare(args, workdir: Path) -> tuple[Client, list[Job]]:
    """Import, input generation and one untimed warm-up round of every variant."""
    client = Client(import_package(), args.workload, args.seed, workdir)
    warmup = [client.run_job(WARMUP, index) for index in range(len(client.wl.VARIANTS))]
    client.tally = client.wl.CheckTally()
    client.failures = []
    return client, warmup


@dataclass
class Pass:
    """The jobs of one run of consecutive jobs, and its wall time."""

    jobs: list[Job] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def failed(self) -> int:
        return sum(job.reason is not None for job in self.jobs)

    @property
    def first(self) -> dict | None:
        return self.jobs[0].reports if self.jobs else None


def run_jobs(client: Client, indices, deadline_s: float | None = None, tracer=None) -> Pass:
    """Run jobs in order; with a deadline, stop at the first full round past it."""
    rnd = len(client.wl.VARIANTS)
    out = Pass()
    t0 = perf_counter()
    for index in indices:
        if tracer is not None:
            tracer.job = index
        out.jobs.append(client.run_job(TIMED, index))
        if deadline_s is not None and (index + 1) % rnd == 0:
            elapsed = perf_counter() - t0
            if (elapsed >= deadline_s and len(out.jobs) >= MIN_JOBS) or elapsed >= MAX_LOOP_S:
                break
    out.wall_s = perf_counter() - t0
    return out


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def setup_probe(args) -> tuple[float, float]:
    """(scaled, raw) seconds from a fresh interpreter to timed-loop start.

    Measured in a child process: perf_counter is the system-wide monotonic
    clock, so the child subtracts the parent's timestamp taken just before
    the spawn.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    spawned = perf_counter()
    proc = subprocess.run(cmd + ["--setup-probe", repr(spawned)], capture_output=True,
                          text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["setup_s"], out["raw_setup_s"]


def provenance(args) -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    with contextlib.redirect_stdout(io.StringIO()):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
        commit = proc.stdout.strip() or commit
    return {
        "nproc": nproc(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "git_commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "client": "closed loop, 1 client, in-process cli.main",
        "probe_reference_s": SpeedProbe.REFERENCE_S,
    }


def measure_end_to_end(args, client: Client) -> tuple[dict, dict]:
    timed = run_jobs(client, range(10**9), deadline_s=args.seconds)
    checks_run, checks_passed = client.tally.run, client.tally.passed
    again = run_jobs(client, [0]).first
    setups = [setup_probe(args) for _ in range(SETUP_PROBES)]
    scaled = [job.scaled_s for job in timed.jobs]
    raw = [job.latency_s for job in timed.jobs]
    attempted = len(timed.jobs)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(s for s, _ in setups), "s"),
        "jobs_per_s": (attempted / sum(scaled), "1/s"),
        "job_p50_ms": (1e3 * nearest_rank(scaled, 0.5), "ms"),
        "job_p90_ms": (1e3 * nearest_rank(scaled, 0.9), "ms"),
        "ok_frac": ((attempted - timed.failed) / attempted, "ratio"),
        "check_pass_frac": (checks_passed / max(checks_run, 1), "ratio"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    facts = {
        "attempted": attempted,
        "failed": timed.failed,
        "rerun_identical": again == timed.first,
        "p90_samples": attempted,
        "p90_jobs_beyond": attempted - math.ceil(0.9 * attempted),
        "checks_run": checks_run,
        "checks_passed": checks_passed,
        "wall_s": timed.wall_s,
        "probe_median_s": statistics.median(job.probe_s for job in timed.jobs),
        "raw_setup_s": statistics.median(r for _, r in setups),
        "raw_jobs_per_s": attempted / timed.wall_s,
        "raw_job_p50_ms": 1e3 * nearest_rank(raw, 0.5),
        "raw_job_p90_ms": 1e3 * nearest_rank(raw, 0.9),
        "samples": {
            "job_latency_s": raw,
            "job_probe_s": [job.probe_s for job in timed.jobs],
            "setup_scaled_raw_s": setups,
        },
    }
    return metrics, facts


def measure_layers(args, client: Client) -> tuple[dict, dict]:
    import tracing

    jobs = range(TRACE_ROUNDS[args.workload] * len(client.wl.VARIANTS))
    plain = run_jobs(client, jobs)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_jobs(client, jobs, tracer=tracer)
    finally:
        tracer.uninstall()
    leftovers = tracer.leftovers()
    if client.tally.attempts:
        accept = client.tally.accepted / client.tally.attempts
    else:  # one generated pair per job, admissible by construction
        accept = (len(jobs) - plain.failed) / len(jobs)
    again = run_jobs(client, [0]).first

    # the reference SVDs run inside traced jobs; they are not tracing overhead
    reference = tracer.reference_seconds_by_job()
    traced_s = sum(
        (job.latency_s - reference.get(i, 0.0)) * SpeedProbe.REFERENCE_S / job.probe_s
        for i, job in zip(jobs, traced.jobs)
    )
    plain_s = sum(job.scaled_s for job in plain.jobs)
    metrics = tracing.layer_metrics(tracer)
    metrics["families.accept_ratio"] = (accept, "ratio")
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "ratio")
    metrics["trace.jobs"] = (len(jobs), "count")
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
    tracer.write_spans(spans_path)
    facts = {
        "attempted": 2 * len(jobs),
        "failed": plain.failed + traced.failed,
        "rerun_identical": again == plain.first and traced.first == plain.first,
        "wrappers_left": leftovers,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "untraced_wall_s": plain.wall_s,
        "traced_wall_s": traced.wall_s,
    }
    return metrics, facts


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(TRACE_ROUNDS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--setup-probe", type=float, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    single_thread_blas()
    workdir = OUT / f"work-{os.getpid()}"
    try:
        if args.setup_probe is not None:
            _, warmup = prepare(args, workdir)
            raw = perf_counter() - args.setup_probe
            probe = statistics.median(job.probe_s for job in warmup)
            print(json.dumps({"setup_s": raw * SpeedProbe.REFERENCE_S / probe, "raw_setup_s": raw}))
            return 0
        client, _ = prepare(args, workdir)
        facts = provenance(args)
        if facts["blas_threads"] is not None and facts["blas_threads"] > facts["nproc"]:
            raise SystemExit(f"bench: BLAS uses {facts['blas_threads']} threads on {facts['nproc']} cpus")
        if args.trace:
            metrics, run_facts = measure_layers(args, client)
        else:
            metrics, run_facts = measure_end_to_end(args, client)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    samples = run_facts.pop("samples", {})
    facts.update(run_facts)
    facts["job_failures"] = client.failures[:20]
    correct = (
        run_facts["failed"] == 0
        and run_facts["rerun_identical"]
        and not run_facts.get("wrappers_left")
    )
    OUT.mkdir(exist_ok=True)
    record = {
        "correct": correct,
        "provenance": facts,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": samples,
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print("provenance " + json.dumps(facts))
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value!r:>24} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": run_facts["attempted"],
        "failed": run_facts["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
