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


# (rows, fields) -> bytes; the expected bytes are those of a csv.writer whose
# cells were mapped by the old per-cell rule, except that np.bool_ then read
# True/False
WRITER_CASES = {
    "plain": (
        [["name", "count", "x"], ["a", 3, np.float64(0.1)], ["b", -7, np.float64(-2.5e-300)],
         ["c", 10**20, np.float64(1e16)]],
        None,
        b"name,count,x\na,3,0.1\nb,-7,-2.5e-300\nc,100000000000000000000,1e+16\n",
    ),
    "floats": (
        [["x"], [-0.0], [math.nan], [math.inf], [-math.inf], [1e-05], [1e16], [5e-324]],
        None,
        b"x\n-0.0\nnan\ninf\n-inf\n1e-05\n1e+16\n5e-324\n",
    ),
    "bools": (
        [["ok", "np_ok"], [True, np.bool_(True)], [False, np.bool_(False)]],
        None,
        b"ok,np_ok\ntrue,true\nfalse,false\n",
    ),
    "complexes": (
        [["z", "np_z"], [complex(1.5, -0.0), np.complex128(complex(-0.0, 2.0))],
         [complex(math.nan, -math.inf), np.complex128(complex(1e-05, 5e-324))]],
        None,
        b'z,np_z\n"1.5,-0.0","-0.0,2.0"\n"nan,-inf","1e-05,5e-324"\n',
    ),
    "dict-no-rows": ([], ("idx", "rel", "pass"), b"idx,rel,pass\n"),
    # --dump: a complex matrix, no header
    "matrix": (
        [[complex(1.0, 0.0), complex(-0.0, 1e16)], [complex(0.5, -2.0), complex(math.inf, math.nan)]],
        None,
        b'"1.0,0.0","-0.0,1e+16"\n"0.5,-2.0","inf,nan"\n',
    ),
}


@pytest.mark.parametrize("name", list(WRITER_CASES))
def test_write_csv_bytes(tmp_path, name):
    rows, fields, expected = WRITER_CASES[name]
    path = tmp_path / "t.csv"
    reportio.write_csv(path, rows, fields)
    assert path.read_bytes() == expected


def test_write_csv_mixed_column_keeps_each_cells_rule(tmp_path):
    # a column whose cells need different rules: each cell reads as it
    # would in a column of its own type
    path = tmp_path / "t.csv"
    rows = [["v"], [True], [0.5], [1 - 2j], ["a,b"], [np.bool_(False)], [7]]
    reportio.write_csv(path, rows)
    assert path.read_bytes() == b'v\ntrue\n0.5\n"1.0,-2.0"\n"a,b"\nfalse\n7\n'


def test_write_csv_quotes_text_cells_as_csv_requires(tmp_path):
    path = tmp_path / "t.csv"
    reportio.write_csv(path, [["a,b", 'say "hi"', "line\nbreak", "plain"]])
    assert path.read_bytes() == b'"a,b","say ""hi""","line\nbreak",plain\n'


def test_write_csv_refuses_ragged_rows(tmp_path):
    with pytest.raises(ValueError, match="equally long"):
        reportio.write_csv(tmp_path / "t.csv", [["a", "b"], [1.0]])
