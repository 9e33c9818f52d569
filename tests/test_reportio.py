import json
import math

import numpy as np
import pytest

from commutant_lab import reportio
from commutant_lab.residuals import ResidualReport


def test_dumps_plain_values():
    report = ResidualReport(
        max_abs=np.float64(1e-15), rms=0.5, argmax=(0.25, -0.0), n_points=7, scale=2.0
    )
    obj = {
        "float": np.float64(0.1),
        "int": np.int64(3),
        "bool": np.bool_(True),
        "array": np.array([[1.0, 2.5]]),
        "complex": 1 - 2j,
        "complex_array": np.array([0.5 + 1j]),
        "neg_zero": -0.0,
        "report": report,
    }
    back = json.loads(reportio.dumps(obj))
    assert back == {
        "float": 0.1,
        "int": 3,
        "bool": True,
        "array": [[1.0, 2.5]],
        "complex": [1.0, -2.0],
        "complex_array": [[0.5, 1.0]],
        "neg_zero": -0.0,
        "report": {"max_abs": 1e-15, "rms": 0.5, "argmax": [0.25, -0.0], "n_points": 7, "scale": 2.0},
    }
    assert back["bool"] is True
    assert math.copysign(1.0, back["neg_zero"]) < 0
    assert math.copysign(1.0, back["report"]["argmax"][1]) < 0
    assert reportio.dumps(obj).endswith("}\n")


def test_dumps_rejects_unknown_types():
    with pytest.raises(TypeError):
        reportio.dumps({"s": {1, 2}})


def test_write_csv_cells(tmp_path):
    path = tmp_path / "t.csv"
    rows = [
        ["name", "ok", "z"],
        ["a", True, complex(1.5, -0.0)],
        ["b", False, np.complex128(complex(-0.0, 2.0))],
    ]
    reportio.write_csv(path, rows)
    assert path.read_bytes() == b'name,ok,z\na,true,"1.5,-0.0"\nb,false,"-0.0,2.0"\n'


def test_write_csv_dict_rows_keep_header(tmp_path):
    fields = ("idx", "rel", "pass")
    path = tmp_path / "t.csv"
    reportio.write_csv(path, [{"pass": True, "idx": 0, "rel": 0.5}], fields)
    assert path.read_bytes() == b"idx,rel,pass\n0,0.5,true\n"
    # no rows: the header alone, so the file's shape does not depend on the data
    reportio.write_csv(path, [], fields)
    assert path.read_bytes() == b"idx,rel,pass\n"
