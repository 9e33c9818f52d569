"""Deterministic report serialization through the standard library.

Reports must be byte-identical across runs with the same config and seed
(on one machine, with a fixed BLAS thread count: matrix values can change
in their last digits with the thread count).
``dumps`` is ``json.dumps`` with one hook, ``_plain``, for the values the
library hands over as they are: complex numbers become ``[re, im]``,
numpy arrays and scalars become Python lists and numbers, and result
dataclasses become their fields.  JSON keys keep insertion order (configs
are built deterministically).  ``write_csv`` is one ``csv.writer`` for list
rows (header first) and for dict rows under a fixed header; a bool cell
reads ``true``/``false`` and a complex cell ``"re,im"``.  Every float
is written as Python's shortest round-trip repr, so -0.0 keeps its sign.
"""

from __future__ import annotations

import csv
import dataclasses
import json

import numpy as np

SCHEMA_VERSION = 1


def _plain(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    if dataclasses.is_dataclass(obj):
        return vars(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps(obj) -> str:
    return json.dumps(obj, default=_plain) + "\n"


def write_json(path, obj) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(dumps(obj))


def _cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, complex):
        return f"{float(value.real)!r},{float(value.imag)!r}"
    return value


def write_csv(path, rows, fields=None) -> None:
    """Write ``rows`` with LF line endings.

    Without ``fields`` the rows are lists and the first one is the header.
    With ``fields`` the rows are dicts, written under the header ``fields``
    (also when there are no rows) in that column order.
    """
    if fields is not None:
        rows = [fields, *([row[f] for f in fields] for row in rows)]
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(map(_cell, row) for row in rows)


class Summary:
    """Accumulates named checks (value vs tolerance) for summary.csv."""

    FIELDS = ("name", "value", "tolerance", "pass")

    def __init__(self) -> None:
        self.rows: list[dict] = []

    def add(self, name: str, value: float, tolerance: float, passed: bool | None = None) -> bool:
        ok = bool(value <= tolerance) if passed is None else bool(passed)
        self.rows.append(dict(zip(self.FIELDS, (name, float(value), float(tolerance), ok))))
        return ok

    def all_pass(self) -> bool:
        return all(row["pass"] for row in self.rows)

    def write(self, path) -> None:
        write_csv(path, self.rows, self.FIELDS)
