import json

import numpy as np
import pytest

from torusop.lattice import GridSpec
from torusop.operators import quantize
from torusop.serial import json_bytes, write_csv
from torusop.symbols import named_symbol


def test_json_bytes_deterministic():
    g = GridSpec(1, 32, 1.0)
    P = quantize(named_symbol(g, "laplace+1"))
    doc = {"order": P.order, "provenance": P.provenance,
           "matrix": {"real": P.matrix.real, "imag": P.matrix.imag}}
    a = json_bytes(doc)
    b = json_bytes(doc)
    assert a == b
    # valid JSON with sorted keys
    doc = json.loads(a)
    assert list(doc.keys()) == sorted(doc.keys())


def test_json_bytes_handles_numpy_scalars():
    # strict JSON: a non-finite float is written as its name, a string
    doc = json.loads(json_bytes({
        "i": np.int64(3), "f": np.float64(0.5),
        "b": np.bool_(True), "a": np.arange(3),
        "n": np.float64(np.nan), "x": np.array([np.inf, 0.0]),
        "t": (-float("inf"),),
    }), parse_constant=lambda name: pytest.fail(name))
    assert doc == {"i": 3, "f": 0.5, "b": True, "a": [0, 1, 2],
                   "n": "nan", "x": ["inf", 0.0], "t": ["-inf"]}


def test_json_bytes_of_numpy_scalars_equal_their_python_twins():
    doc = {"f": np.float32(0.1), "i": np.int64(-7), "b": np.bool_(False),
           "x": [np.float32(np.inf), np.float64(2.5)],
           "nested": {"t": (np.int64(1), np.bool_(True))}}
    twin = {"f": float(np.float32(0.1)), "i": -7, "b": False,
            "x": [float("inf"), 2.5], "nested": {"t": (1, True)}}
    assert json_bytes(doc) == json_bytes(twin)
    assert b"inf" in json_bytes(doc)


def test_write_csv_format(tmp_path):
    path = tmp_path / "rows.csv"
    write_csv(path, ("name", "value"), [("a", 0.1), ("b", 2)])
    text = path.read_text()
    lines = text.split("\n")
    assert lines[0] == "name,value"
    assert lines[1] == "a,%.17g" % 0.1
    assert lines[2] == "b,2"
    assert text.endswith("\n")
    # identical rows produce identical bytes
    path2 = tmp_path / "rows2.csv"
    write_csv(path2, ("name", "value"), [("a", 0.1), ("b", 2)])
    assert path.read_bytes() == path2.read_bytes()
