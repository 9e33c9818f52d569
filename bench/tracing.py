"""Span tracing of the package's layers, installed from outside the package.

``Tracer.install`` wraps each layer's public functions and rebinds every
module attribute that refers to an original (the ``from ... import``
aliases included), plus ``ExpPoly.__call__`` and the entries of
``cli.COMMANDS``.  ``Tracer.uninstall`` puts every original back and
``Tracer.leftovers`` lists any binding that is not the original again.

A span is (name id, start, end, parent span, job id); spans stay in memory
until the run ends.  A span's self time is its duration minus the time its
child spans cover.  Counts (calls, points, entries, flops, bytes) depend
only on the inputs, so they repeat exactly for a given seed.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import Counter
from time import perf_counter

import numpy as np

PACKAGE = "commutant_lab"
REFERENCE = "trace.reference"

# (module, function) wrapped in place; the span name is "<module>.<function>"
TARGETS = (
    ("kernels", "kernel_values"),
    ("kernels", "build_kernel"),
    ("residuals", "residual_R1"),
    ("residuals", "residual_R2"),
    ("residuals", "taylor_relation_check"),
    ("residuals", "lemma_coeff_check"),
    ("residuals", "singular_relation_check"),
    ("families", "make_pair"),
    ("normality", "interior_points"),
    ("normality", "adjoint_coeffs"),
    ("normality", "is_selfadjoint"),
    ("normality", "commute_conditions"),
    ("normality", "is_normal"),
    ("reportio", "write_json"),
    ("reportio", "write_csv"),
    ("discretize", "build_grid"),
    ("discretize", "differentiation_matrices"),
    ("discretize", "nystrom_K"),
    ("discretize", "nystrom_K_pv"),
    ("discretize", "collocation_L"),
    ("spectra", "joint_diagonalization"),
    ("spectra", "commutator_norm"),
    ("spectra", "spectral_norm"),
)
EXPPOLY_CALL = "coeffs.ExpPoly.__call__"
COMMAND_NAMES = ("pair", "verify", "normality", "commutator", "spectrum", "sweep")

# reported self times that add up several spans
SELF_GROUPS = {
    "residuals.series_checks": (
        "residuals.taylor_relation_check",
        "residuals.lemma_coeff_check",
        "residuals.singular_relation_check",
    ),
    "normality": tuple(f"normality.{fn}" for mod, fn in TARGETS if mod == "normality"),
}


def joint_diagonalization_flops(n: int, m: int) -> int:
    """Flops computed from matrix sizes, not counted by hardware.

    Dense nonsymmetric eigensolvers cost about 25 n^3 real flops with
    eigenvectors (``eig`` of L) and 10 n^3 without (``eigvals`` of K);
    complex arithmetic is 4 real flops per operation.  The projection adds
    K @ V (n x n by n x m) and the m x m Gram matrix.
    """
    return 4 * (25 + 10) * n**3 + 8 * n * n * m + 8 * n * m * m


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.job = -1
        self.counts: Counter = Counter()
        self.spectral_norm_err = 0.0
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}  # id -> wrapper, kept alive
        self._reference_id = self._name_id(REFERENCE)

    # -- wrapping ----------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _wrap(self, fn, name: str, after=None):
        """A function that records a span around ``fn`` and then calls ``after``.

        ``after(args, result, parent)`` runs outside the span, so counting
        and reference checks do not count as the layer's own time.
        """
        name_id = self._name_id(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name_id, t0, t1, parent, self.job)
            if after is not None:
                after(args, result, parent)
            return result

        self._wrappers[id(wrapper)] = wrapper
        return wrapper

    def _rebind_everywhere(self, original, wrapper) -> None:
        for mod in _package_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _counting(self, quantity: str, measure):
        def after(args, result, parent):
            self.counts[quantity] += measure(args, result)

        return after

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        import commutant_lab.cli as cli
        from commutant_lab.coeffs import ExpPoly

        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in _package_modules()}
        entries = self._counting("discretize.entries", lambda args, result: int(result.entries.size))
        after = {
            "kernels.kernel_values": self._counting("kernels.kernel_values.points", _points),
            "residuals.residual_R1": self._counting(
                "residuals.residual_R1.points", lambda args, result: int(result.n_points)
            ),
            "reportio.write_json": self._counting("reportio.bytes", _file_size),
            "reportio.write_csv": self._counting("reportio.bytes", _file_size),
            "discretize.nystrom_K": entries,
            "discretize.nystrom_K_pv": entries,
            "discretize.collocation_L": entries,
            "spectra.joint_diagonalization": self._counting(
                "spectra.joint_diagonalization.flops_computed",
                lambda args, result: joint_diagonalization_flops(args[0].grid.n, int(args[2])),
            ),
            "spectra.spectral_norm": self._spectral_norm_reference,
        }
        for mod_name, fn_name in TARGETS:
            name = f"{mod_name}.{fn_name}"
            original = getattr(mods[mod_name], fn_name)
            self._rebind_everywhere(original, self._wrap(original, name, after.get(name)))

        original = ExpPoly.__dict__["__call__"]
        self._patches.append((ExpPoly, "__call__", original))
        ExpPoly.__call__ = self._wrap(
            original, EXPPOLY_CALL, self._counting(f"{EXPPOLY_CALL}.points", _points)
        )

        for cmd in COMMAND_NAMES:
            original = cli.COMMANDS[cmd]
            wrapper = self._wrap(original, f"cli.{cmd}")
            self._patches.append((cli.COMMANDS, cmd, original))
            cli.COMMANDS[cmd] = wrapper
            self._rebind_everywhere(original, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def leftovers(self) -> list[str]:
        """Bindings that are not the original object again (empty when clean)."""
        bad = []
        for owner, key, original in self._patches:
            current = owner[key] if isinstance(owner, dict) else getattr(owner, key)
            if current is not original:
                bad.append(f"{getattr(owner, '__name__', 'COMMANDS')}.{key}")
        for mod in _package_modules():
            for key, value in vars(mod).items():
                if id(value) in self._wrappers:
                    bad.append(f"{mod.__name__}.{key}")
        return bad

    def _spectral_norm_reference(self, args, result, parent) -> None:
        """Signed relative error against the SVD 2-norm, the largest in magnitude.

        The SVD runs in a span of its own so that the calling layer's self
        time does not include it.
        """
        t0 = perf_counter()
        ref = float(np.linalg.norm(args[0], 2))
        t1 = perf_counter()
        self.spans.append((self._reference_id, t0, t1, parent, self.job))
        if ref > 0:
            err = (float(result) - ref) / ref
            if abs(err) > abs(self.spectral_norm_err):
                self.spectral_norm_err = err

    # -- analysis ----------------------------------------------------

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for name_id, t0, t1, parent, job in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        out: dict[str, float] = {}
        for i, (name_id, t0, t1, parent, job) in enumerate(self.spans):
            name = self.names[name_id]
            out[name] = out.get(name, 0.0) + (t1 - t0) - covered[i]
        return out

    def calls(self) -> Counter:
        return Counter(self.names[s[0]] for s in self.spans)

    def reference_seconds_by_job(self) -> dict[int, float]:
        """Seconds spent in reference SVDs, by job id."""
        out: dict[int, float] = {}
        for name_id, t0, t1, parent, job in self.spans:
            if name_id == self._reference_id:
                out[job] = out.get(job, 0.0) + t1 - t0
        return out

    def write_spans(self, path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("span,name,start_s,end_s,parent,job\n")
            for i, (name_id, t0, t1, parent, job) in enumerate(self.spans):
                fh.write(f"{i},{self.names[name_id]},{t0 - origin:.9f},{t1 - origin:.9f},{parent},{job}\n")


def _package_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def _points(args, result) -> int:
    """Size of the second positional argument: z of kernel_values, y of ExpPoly."""
    return int(np.size(args[1]))


def _file_size(args, result) -> int:
    return os.path.getsize(args[0])


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    selfs = tracer.self_times()
    calls = tracer.calls()
    counts = tracer.counts

    def self_s(name: str) -> float:
        return selfs.get(name, 0.0)

    out: dict[str, tuple[float, str]] = {}
    for name in (EXPPOLY_CALL, "kernels.kernel_values", "residuals.residual_R1"):
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.points"] = (counts[f"{name}.points"], "count")
        out[f"{name}.self_s"] = (self_s(name), "s")
    out["kernels.build_kernel.self_s"] = (self_s("kernels.build_kernel"), "s")
    for name in ("residuals.residual_R2", "families.make_pair"):
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s(name), "s")
    for group, members in SELF_GROUPS.items():
        out[f"{group}.self_s"] = (sum(self_s(m) for m in members), "s")
    for fn in ("write_json", "write_csv"):
        out[f"reportio.{fn}.self_s"] = (self_s(f"reportio.{fn}"), "s")
    out["reportio.bytes"] = (counts["reportio.bytes"], "bytes")
    for fn in ("build_grid", "differentiation_matrices", "nystrom_K", "nystrom_K_pv", "collocation_L"):
        out[f"discretize.{fn}.self_s"] = (self_s(f"discretize.{fn}"), "s")
    out["discretize.entries"] = (counts["discretize.entries"], "count")
    jd = "spectra.joint_diagonalization"
    out[f"{jd}.calls"] = (calls[jd], "count")
    out[f"{jd}.self_s"] = (self_s(jd), "s")
    out[f"{jd}.flops_computed"] = (counts[f"{jd}.flops_computed"], "flop")
    out["spectra.commutator_norm.self_s"] = (self_s("spectra.commutator_norm"), "s")
    out["spectra.spectral_norm.calls"] = (calls["spectra.spectral_norm"], "count")
    out["spectra.spectral_norm.self_s"] = (self_s("spectra.spectral_norm"), "s")
    out["spectra.spectral_norm.rel_err_max"] = (tracer.spectral_norm_err, "ratio")
    for cmd in COMMAND_NAMES:
        out[f"cli.{cmd}.self_s"] = (self_s(f"cli.{cmd}"), "s")
    return out
