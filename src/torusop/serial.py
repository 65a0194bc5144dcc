"""Self-describing JSON containers and deterministic CSV emission.

Sections and regions serialize as {schema, kind, dim, N, L, r, data};
symbols and operators additionally carry {k, flags}.  A symbol's flag is
hermitian_valued (whether it depends on x is the shape of its data); an
operator's are provenance, self_adjoint and, when set, propagation_bound
and propagation_speed.  Loading ignores any other flag, such as the
hermitian_symbol, x_independent and scalar_symbol flags that earlier
writers stored.  Complex arrays are
stored as paired real/imaginary nested lists.  All writers sort keys and
format floats through a fixed %.17g so identical inputs produce identical
bytes.  JSON output is strict (RFC 8259): a non-finite float is written as
the string "inf", "-inf" or "nan".
"""

from __future__ import annotations

import json
import math

import numpy as np

from .lattice import GridSpec, Region, Section
from .operators import DiscreteOperator
from .symbols import Symbol

__all__ = [
    "to_container",
    "from_container",
    "save",
    "load",
    "write_csv",
    "json_bytes",
]

SCHEMA = "torusop-v1"


def _grid_header(grid: GridSpec) -> dict:
    return {
        "schema": SCHEMA,
        "dim": grid.dim,
        "N": grid.points_per_axis,
        "L": grid.period_scale,
        "r": grid.fiber_dim,
    }


def _grid_from_header(doc: dict) -> GridSpec:
    return GridSpec(doc["dim"], doc["N"], doc["L"], doc["r"])


def _pack(arr: np.ndarray):
    a = np.asarray(arr)
    if np.iscomplexobj(a):
        return {"real": a.real.tolist(), "imag": a.imag.tolist()}
    return {"real": a.tolist()}


def _unpack(doc) -> np.ndarray:
    real = np.asarray(doc["real"], dtype=float)
    if "imag" not in doc:
        return real
    # set the parts, not real + 1j * imag, which turns a -0.0 real part
    # into +0.0 wherever the imaginary part has no sign bit
    out = np.empty(real.shape, dtype=complex)
    out.real = real
    out.imag = doc["imag"]
    return out


def to_container(obj) -> dict:
    if isinstance(obj, Section):
        doc = _grid_header(obj.grid)
        doc.update(kind="section", data=_pack(obj.values))
        return doc
    if isinstance(obj, Region):
        doc = _grid_header(obj.grid)
        doc.update(kind="region", data=_pack(obj.mask.astype(int)))
        return doc
    if isinstance(obj, Symbol):
        doc = _grid_header(obj.grid)
        doc.update(
            kind="symbol", k=obj.order, data=_pack(obj.samples),
            flags={"hermitian_valued": bool(obj.hermitian_valued)},
        )
        return doc
    if isinstance(obj, DiscreteOperator):
        doc = _grid_header(obj.grid)
        flags = {
            "provenance": obj.provenance,
            "self_adjoint": bool(obj.self_adjoint),
        }
        if obj.propagation_bound is not None:
            flags["propagation_bound"] = float(obj.propagation_bound)
        if obj.propagation_speed is not None:
            flags["propagation_speed"] = float(obj.propagation_speed)
        doc.update(kind="operator", k=obj.order, data=_pack(obj.matrix),
                   flags=flags)
        return doc
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def from_container(doc: dict):
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"unknown schema {doc.get('schema')!r}")
    grid = _grid_from_header(doc)
    kind = doc["kind"]
    if kind == "section":
        return Section(grid, _unpack(doc["data"]))
    if kind == "region":
        return Region(grid, _unpack(doc["data"]).astype(bool))
    if kind == "symbol":
        flags = doc["flags"]
        return Symbol(grid, doc["k"], _unpack(doc["data"]),
                      hermitian_valued=flags["hermitian_valued"])
    if kind == "operator":
        flags = doc["flags"]
        return DiscreteOperator(
            grid, doc["k"], _unpack(doc["data"]),
            provenance=flags["provenance"],
            self_adjoint=flags["self_adjoint"],
            propagation_bound=flags.get("propagation_bound"),
            propagation_speed=flags.get("propagation_speed"),
        )
    raise ValueError(f"unknown container kind {kind!r}")


def _finite_only(o):
    """``o`` with numpy scalars made Python ones and every non-finite float
    replaced by its name as a string."""
    if isinstance(o, (np.bool_, np.integer)):
        return o.item()
    if isinstance(o, (float, np.floating)):
        return float(o) if math.isfinite(o) else repr(float(o))
    if isinstance(o, dict):
        return {k: _finite_only(v) for k, v in o.items()}
    if isinstance(o, (list, tuple)):
        return [_finite_only(v) for v in o]
    if isinstance(o, np.ndarray):
        return _finite_only(o.tolist())
    return o


def json_bytes(doc: dict) -> bytes:
    return json.dumps(_finite_only(doc), sort_keys=True, indent=1,
                      allow_nan=False).encode() + b"\n"


def save(obj, path) -> None:
    with open(path, "wb") as fh:
        fh.write(json_bytes(to_container(obj)))


def load(path):
    with open(path) as fh:
        return from_container(json.load(fh))


def _cell(x) -> str:
    if isinstance(x, (float, np.floating)):
        return "%.17g" % x
    return str(x)


def write_csv(path, header, rows) -> None:
    """Deterministic CSV: fixed column order and float format."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(x) for x in row))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
