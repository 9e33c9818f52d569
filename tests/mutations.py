"""Mutation matrix of the commutator check: what it detects and what it must not.

Each mutation moves one parameter of a commuting pair by eps, either in L
with the kernel kept or in the kernel with L kept, and reads the check the
CLI ``commutator`` command applies (``commutator_rel`` for an analytic
kernel, ``commutator_pv_rel`` for a pole kernel) at its default tolerance.
The first three break the commutation; the last keeps it, because L does
not depend on alpha1, so the moved kernel is still in L's commutant.

Run as a script to print the table that the README quotes:

    PYTHONPATH=src python tests/mutations.py
"""

from __future__ import annotations

import dataclasses

from commutant_lab import (
    DiffOp,
    ExpPoly,
    General,
    build_grid,
    collocation_L,
    commutator_norm,
    make_pair,
    nystrom_K,
    nystrom_K_pv,
)
from commutant_lab.cli import DEFAULT_TOLERANCES

# one general pair with complex lambda and mu (L not normal), on both paths
PATHS = {
    "analytic": General(lam=0.5 + 0.3j, mu=1.0 - 0.5j, alpha1=1.0, alpha2=0.0),
    "pole": General(lam=0.5 + 0.3j, mu=1.0 - 0.5j, alpha1=1.0, alpha2=1.0),
}
CHECKS = {"analytic": "commutator_rel", "pole": "commutator_pv_rel"}
DETECT_EPS = 1e-6
NS = (64, 256)


def _c_plus_eps_y(params: General, eps: float):
    op = make_pair(params).op
    return params, DiffOp(a=op.a, b=op.b, c=op.c + ExpPoly.polynomial((0.0, eps)))


def _moved(field: str, in_kernel: bool):
    def mutate(params: General, eps: float):
        moved = dataclasses.replace(params, **{field: getattr(params, field) + eps})
        kernel_params, op_params = (moved, params) if in_kernel else (params, moved)
        return kernel_params, make_pair(op_params).op

    return mutate


# name -> (mutation (params, eps) -> (kernel params, L's operator), breaks)
MUTATIONS = {
    "c + eps*y": (_c_plus_eps_y, True),
    "lambda + eps in L": (_moved("lam", in_kernel=False), True),
    "mu + eps in L": (_moved("mu", in_kernel=False), True),
    "alpha1 + eps in k": (_moved("alpha1", in_kernel=True), False),
}


def read(path: str, mutation: str, n: int, eps: float) -> float:
    """The commutator read of ``path``'s pair under ``mutation`` at eps, on n nodes."""
    kernel_params, op = MUTATIONS[mutation][0](PATHS[path], eps)
    pair = make_pair(kernel_params)
    grid = build_grid(n)
    K = nystrom_K_pv(pair, grid) if pair.kernel.singular else nystrom_K(pair, grid)
    return commutator_norm(K, collocation_L(op, grid))[0]


def table(eps_values=(0.0, 1e-9, DETECT_EPS, 1e-3)) -> list[str]:
    lines = [
        f"{'path':9s} {'check':18s} {'mutation':18s} {'n':>4s} "
        + " ".join(f"{f'eps={e:g}':>10s}" for e in eps_values)
    ]
    for path, check in CHECKS.items():
        for mutation in MUTATIONS:
            for n in NS:
                reads = " ".join(f"{read(path, mutation, n, e):10.1e}" for e in eps_values)
                lines.append(f"{path:9s} {check:18s} {mutation:18s} {n:4d} {reads}")
    tols = ", ".join(f"{c} = {DEFAULT_TOLERANCES[c]:g}" for c in CHECKS.values())
    lines.append(f"tolerances: {tols}")
    return lines


if __name__ == "__main__":
    print("\n".join(table()))
