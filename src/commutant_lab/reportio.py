"""Deterministic report serialization through the standard library.

Reports must be byte-identical across runs with the same config and seed
(on one machine, with a fixed BLAS thread count, with or without the worker
thread of ``spectra._beside``, which makes the calls the calling thread
would, into arrays of the same layout: matrix values can change in their
last digits with the BLAS thread count).
``dumps`` is ``json.dumps`` with one hook, ``_plain``, for the values the
library hands over as they are: complex numbers become ``[re, im]``,
numpy arrays and scalars become Python lists and numbers, and result
dataclasses become their fields.  JSON keys keep insertion order (configs
are built deterministically).

``write_csv`` writes every table, list rows (header first) and dict rows
under a fixed header alike, column by column: it picks each column's text
rule once, from the types its cells hold, and applies the rule to the
whole column with ``map``, so no Python function runs once per cell.  A
bool cell (``bool`` or ``np.bool_``) reads ``true``/``false``, a complex
cell ``"re,im"``, and any other cell ``str(value)``, quoted when it holds
a comma, a quote or a line break.  Every float is written as Python's
shortest round-trip repr, so -0.0 keeps its sign.
"""

from __future__ import annotations

import dataclasses
import json
import re
from operator import itemgetter

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


_BOOL_TEXT = {True: "true", False: "false"}.__getitem__
# str of a float or np.float64 part is its shortest round-trip repr
_COMPLEX_TEXT = '"{0.real},{0.imag}"'.format
# what makes a text cell quoted
_QUOTED = re.compile('[,"\r\n]')


def write_csv(path, rows, fields=None) -> None:
    """Write ``rows`` as UTF-8 with LF line endings.

    Without ``fields`` the rows are equally long lists and the first one is
    the header (or the first row of a headerless matrix); it is written on
    its own, so its names do not mix into its columns' rules.  With
    ``fields`` the rows are dicts, written under the header ``fields``
    (also when there are no rows) in that column order.
    """
    rows = list(rows)
    if fields is None:
        if len(set(map(len, rows))) > 1:
            raise ValueError("rows of a table must be equally long")
        blocks = (zip(*rows[:1]), zip(*rows[1:]))
    else:
        blocks = (zip(fields), [list(map(itemgetter(f), rows)) for f in fields])
    lines = []
    for columns in blocks:
        texts = []
        for cells in columns:
            rule_of, text_kinds = {}, set()
            for kind in set(map(type, cells)):
                if issubclass(kind, (bool, np.bool_)):
                    rule_of[kind] = _BOOL_TEXT
                elif issubclass(kind, (complex, np.complexfloating)):
                    rule_of[kind] = _COMPLEX_TEXT
                else:
                    rule_of[kind] = str
                    if not issubclass(kind, (int, float, np.number)):
                        text_kinds.add(kind)
            rules = set(rule_of.values()) or {str}  # no cells: any rule
            if len(rules) == 1:
                column = list(map(rules.pop(), cells))
            else:  # a column that mixes rules: each cell by its type's
                column = [rule_of[type(c)](c) for c in cells]
            if text_kinds and _QUOTED.search("".join(column)):
                column = [
                    '"' + t.replace('"', '""') + '"' if type(c) in text_kinds and _QUOTED.search(t) else t
                    for c, t in zip(cells, column)
                ]
            texts.append(column)
        lines += map(",".join, zip(*texts))
    lines.append("")
    with open(path, "wb") as fh:
        fh.write("\n".join(lines).encode())


class Summary:
    """Accumulates named checks (value vs tolerance) for summary.csv."""

    FIELDS = ("name", "value", "tolerance", "pass")

    def __init__(self) -> None:
        self.rows: list[dict] = []

    def add(self, name: str, value: float, tolerance: float) -> bool:
        ok = bool(value <= tolerance)
        self.rows.append(dict(zip(self.FIELDS, (name, float(value), float(tolerance), ok))))
        return ok

    def all_pass(self) -> bool:
        return all(map(itemgetter("pass"), self.rows))

    def write(self, path) -> None:
        write_csv(path, self.rows, self.FIELDS)
