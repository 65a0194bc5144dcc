"""Tests of the benchmark's own machinery: tracer, counters, failure accounting.

Run with ``PYTHONPATH=src python -m pytest bench``.
"""

import numpy as np
import pytest

import torusop
from torusop import lattice, operators, parametrix, symbols

import loop
import tracing
import workloads


def test_tracer_sees_every_binding_and_restores_originals():
    before = tracing.bindings_snapshot()
    g = lattice.GridSpec(1, 16, 1.0)
    p = symbols.named_symbol(g, "laplace+1")
    tracer = tracing.Tracer()
    with tracer:
        torusop.parametrix.quantize(p)   # the name parametrix imported
        torusop.quantize(p)              # the package re-export
        lattice.Region(g, np.arange(16) < 3).distance_field()
    names = [s.name for s in tracer.spans]
    assert names.count("operators.quantize") == 2
    assert "lattice.distance_field" in names
    # DiscreteOperator validation is recorded as a child of quantize
    quantize_spans = {i for i, s in enumerate(tracer.spans)
                      if s.name == "operators.quantize"}
    children = [s for s in tracer.spans
                if s.name == "operators.DiscreteOperator"]
    assert children and all(s.parent in quantize_spans for s in children)
    after = tracing.bindings_snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def _traced_counts(name, seed, workdir):
    wl = workloads.make(name, seed, workdir)
    tracer = tracing.Tracer()
    with tracer:
        res = loop.closed_loop(wl.op, first=1, count=1, tracer=tracer)
    assert res.failed == 0, res.errors
    calls = {k: v[0] for k, v in tracer.layer_table().items()}
    return {k: tuple(v) for k, v in tracer.linalg.items()}, calls


@pytest.mark.parametrize("name,kind", [("calculus-1d", "svd"),
                                       ("quantize-2d", "eigh")])
def test_linalg_counts_repeat_exactly(name, kind, tmp_path):
    first = _traced_counts(name, 11, str(tmp_path))
    second = _traced_counts(name, 11, str(tmp_path))
    assert first == second
    linalg, _calls = first
    assert linalg[kind][0] > 0 and linalg[kind][1] > 0


def test_wrong_or_raising_ops_are_counted_not_fatal(tmp_path, monkeypatch):
    wl = workloads.make("quantize-2d", 5, str(tmp_path))
    quantize = operators.quantize

    def corrupted(p):
        P = quantize(p)
        return operators.DiscreteOperator(P.grid, P.order,
                                          P.matrix * (1 + 1e-6))

    def raising(*args, **kwargs):
        raise FloatingPointError("injected")

    def op(i):
        if i == 1:
            monkeypatch.setattr(operators, "quantize", corrupted)
        elif i == 2:
            monkeypatch.setattr(parametrix, "elliptic_estimate_constant",
                                raising)
        try:
            return wl.op(i)
        finally:
            monkeypatch.undo()

    res = loop.closed_loop(op, first=0, count=3)
    assert (res.attempted, res.failed, len(res.verified_s)) == (3, 2, 1)
    assert "failed its gate" in res.errors[0]
    assert "FloatingPointError: injected" in res.errors[1]


def test_tail_is_highest_percentile_with_ten_beyond():
    assert loop.tail(range(1, 41)) == (30, 75)
    assert loop.tail(range(1, 6)) == (5, 100)
