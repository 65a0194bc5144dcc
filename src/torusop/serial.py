"""Deterministic JSON and CSV emission for the run artifacts.

All writers sort keys and format floats through a fixed %.17g so identical
inputs produce identical bytes.  JSON output is strict (RFC 8259): a
non-finite float is written as the string "inf", "-inf" or "nan".
"""

from __future__ import annotations

import json
import math

import numpy as np

__all__ = ["write_csv", "json_bytes"]


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
