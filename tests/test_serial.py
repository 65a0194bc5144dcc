import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from torusop.lattice import GridSpec, Region, Section, ball_region
from torusop.operators import DiscreteOperator, fourier_multiplier, quantize
from torusop.serial import (
    from_container,
    json_bytes,
    load,
    save,
    to_container,
    write_csv,
)
from torusop.symbols import Symbol, named_symbol


def test_section_round_trip(tmp_path):
    g = GridSpec(1, 32, 2.0, fiber_dim=2)
    rng = np.random.default_rng(0)
    u = Section(g, rng.standard_normal((32, 2))
                + 1j * rng.standard_normal((32, 2)))
    path = tmp_path / "u.json"
    save(u, path)
    v = load(path)
    assert v.grid == g
    assert np.abs(v.values - u.values).max() == 0.0


def test_region_round_trip(tmp_path):
    g = GridSpec(1, 64, 1.0)
    reg = ball_region(g, np.zeros(1), 1.0)
    path = tmp_path / "reg.json"
    save(reg, path)
    back = load(path)
    assert (back.mask == reg.mask).all()


def test_symbol_round_trip(tmp_path):
    g = GridSpec(1, 32, 1.0)
    p = named_symbol(g, "elliptic_x")
    path = tmp_path / "p.json"
    save(p, path)
    q = load(path)
    assert q.order == p.order
    assert q.hermitian_valued == p.hermitian_valued
    assert q.x_independent == p.x_independent
    assert np.abs(q.samples - p.samples).max() == 0.0


def test_operator_round_trip_keeps_flags(tmp_path):
    g = GridSpec(1, 32, 1.0)
    P = fourier_multiplier(g, lambda xi: xi[..., 0], order=1,
                           propagation_speed=1.0)
    path = tmp_path / "P.json"
    save(P, path)
    Q = load(path)
    assert Q.order == 1
    assert Q.self_adjoint == P.self_adjoint
    assert Q.provenance == P.provenance
    assert Q.propagation_speed == 1.0
    assert np.abs(Q.matrix - P.matrix).max() == 0.0


def test_operator_container_with_extra_flag_loads_unchanged():
    # earlier writers stored "hermitian_symbol" and "scalar_symbol" flags;
    # loading ignores them
    g = GridSpec(1, 16, 1.0)
    P = fourier_multiplier(g, lambda xi: xi[..., 0], order=1,
                           propagation_speed=1.0)
    doc = to_container(P)
    assert not {"hermitian_symbol", "scalar_symbol"} & set(doc["flags"])
    old = json.loads(json_bytes(doc))
    old["flags"].update(hermitian_symbol=True, scalar_symbol=True)
    Q = from_container(old)
    assert to_container(Q)["flags"] == doc["flags"]
    assert Q.matrix.tobytes() == P.matrix.tobytes()


@pytest.mark.parametrize("name, retired", [
    ("elliptic_x", {"x_independent": False}),
    ("laplace+1", {"x_independent": True}),
])
def test_symbol_container_with_retired_flag_loads_bit_exact(name, retired):
    # earlier writers stored x_independent, which the samples' shape holds
    p = named_symbol(GridSpec(1, 16, 1.0), name)
    doc = to_container(p)
    assert "x_independent" not in doc["flags"]
    old = json.loads(json_bytes(doc))
    old["flags"].update(retired)
    q = from_container(old)
    assert q.x_independent == retired["x_independent"]
    assert to_container(q)["flags"] == doc["flags"]
    assert _bits(q.samples) == _bits(p.samples)


def test_container_schema_enforced():
    g = GridSpec(1, 32, 1.0)
    doc = to_container(ball_region(g, np.zeros(1), 1.0))
    assert doc["schema"] == "torusop-v1"
    doc["schema"] = "other"
    with pytest.raises(ValueError):
        from_container(doc)


def test_unserializable_type_rejected():
    with pytest.raises(TypeError):
        to_container(object())


def test_json_bytes_deterministic():
    g = GridSpec(1, 32, 1.0)
    P = quantize(named_symbol(g, "laplace+1"))
    a = json_bytes(to_container(P))
    b = json_bytes(to_container(P))
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


def _hermitian(a):
    """(a + a^H) / 2 over the last two axes: exactly Hermitian."""
    return (a + np.conj(np.swapaxes(a, -1, -2))) / 2.0


def _container_object(kind, grid, rng, special, flags):
    """A random object of ``kind`` holding the ``special`` floats in slots
    that (a + a^H) / 2 keeps as they are: the fiber diagonal of a symbol,
    the diagonal of an operator.  They are at most 1e300 in size, so the
    average stays finite."""
    n, r = grid.n_points, grid.fiber_dim

    def values(shape, slots):
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        view = slots(a)
        view[:len(special)] = special[:view.size]
        return a

    if kind == "section":
        return Section(grid, values((n, r), np.ravel))
    if kind == "region":
        return Region(grid, rng.random(n) < 0.5)
    if kind == "symbol":
        a = values((1 if flags[0] else n, n, r, r),
                   lambda a: a.reshape(-1, r, r)[:, 0, 0])
        return Symbol(grid, int(rng.integers(-2, 3)),
                      _hermitian(a) if flags[1] else a,
                      hermitian_valued=flags[1])
    dim = grid.state_dim
    a = values((dim, dim), lambda a: a.reshape(-1)[::dim + 1])
    # a propagation bound past the grid's diameter zeroes nothing
    return DiscreteOperator(
        grid, int(rng.integers(-2, 3)), _hermitian(a) if flags[0] else a,
        provenance="composed", self_adjoint=flags[0],
        propagation_bound=(10.0 * grid.period_scale if flags[2] else None),
        propagation_speed=(float(rng.uniform(0.5, 2.0)) if flags[2]
                           else None),
    )


def _bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


# signed zero, the least subnormal and the widest values allowed
SPECIAL = [-0.0, 5e-324, -1e300, 1e300]


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(("section", "region", "symbol", "operator")),
       shape=st.sampled_from(((1, 4, 1), (1, 8, 2), (2, 4, 1), (2, 4, 2))),
       seed=st.integers(0, 2 ** 32 - 1),
       special=st.lists(st.floats(-1e300, 1e300), max_size=4),
       flags=st.tuples(*[st.booleans()] * 3))
@example(kind="section", shape=(1, 4, 1), seed=0, special=SPECIAL,
         flags=(False,) * 3)
@example(kind="symbol", shape=(2, 4, 2), seed=0, special=SPECIAL,
         flags=(False, True, False))
@example(kind="operator", shape=(2, 4, 2), seed=0, special=SPECIAL,
         flags=(True,) * 3)
def test_save_load_round_trip_is_bit_exact(kind, shape, seed, special,
                                           flags):
    dim, N, fiber = shape
    grid = GridSpec(dim, N, 1.5, fiber)
    obj = _container_object(kind, grid, np.random.default_rng(seed),
                            special, flags)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "obj.json")
        save(obj, path)
        back = load(path)
    assert type(back) is type(obj) and back.grid == grid
    for name, value in vars(obj).items():
        if isinstance(value, np.ndarray):
            assert _bits(getattr(back, name)) == _bits(value), name
        else:
            assert getattr(back, name) == value, name


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
