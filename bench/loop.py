"""Closed-loop driver, failure accounting and metric assembly."""

from __future__ import annotations

import math
import resource
import time
from dataclasses import dataclass, field

import numpy as np

from torusop import funcalc, lattice, operators, quasiloc, symbols

TAIL_BEYOND = 10


@dataclass
class Call:
    ok: bool
    seconds: float
    error: str | None


def checked_call(op, index: int) -> Call:
    """Run op(index); a raising op or a failed gate is a failed Call."""
    start = time.perf_counter()
    try:
        ok = bool(op(index))
        error = None if ok else f"op {index}: result failed its gate"
    except Exception as exc:  # one bad op must not abort the run
        ok, error = False, f"op {index}: {type(exc).__name__}: {exc}"
    return Call(ok, time.perf_counter() - start, error)


@dataclass
class LoopResult:
    verified_s: list = field(default_factory=list)  # seconds per passing op
    busy_s: float = 0.0                              # all op time
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)


def closed_loop(op, first: int, seconds: float | None = None,
                count: int | None = None, tracer=None) -> LoopResult:
    """Start op(first), op(first + 1), ... each after the previous returns.

    Stops after ``count`` ops, or once ``seconds`` of loop time have passed
    (the op in flight at the deadline completes and counts).
    """
    res = LoopResult()
    start = time.perf_counter()
    index = first
    while True:
        if count is not None and res.attempted >= count:
            break
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
        if tracer is not None:
            tracer.op_id = index
        call = checked_call(op, index)
        res.attempted += 1
        res.busy_s += call.seconds
        if call.ok:
            res.verified_s.append(call.seconds)
        else:
            res.failed += 1
            res.errors.append(call.error)
        index += 1
    return res


def merge(a: LoopResult, b: LoopResult) -> LoopResult:
    return LoopResult(a.verified_s + b.verified_s, a.busy_s + b.busy_s,
                      a.attempted + b.attempted, a.failed + b.failed,
                      a.errors + b.errors)


def tail(samples) -> tuple:
    """(value, percentile) of the highest percentile with 10 samples beyond.

    With fewer than 11 samples no percentile qualifies; the maximum is
    returned as percentile 100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100
    return xs[n - 1 - TAIL_BEYOND], math.floor(100 * (n - TAIL_BEYOND) / n)


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(res: LoopResult, setups) -> tuple:
    """(metrics, tail percentile); latencies are those of verified ops."""
    lat = res.verified_s or [res.busy_s / res.attempted]
    value, pct = tail(lat)
    return {
        "ops_per_s": _metric(len(res.verified_s) / res.busy_s, "1/s"),
        "op_s.p50": _metric(np.median(lat), "s"),
        "op_s.tail": _metric(value, "s"),
        "peak_rss_mb": _metric(peak_rss_mb(), "MB"),
        "setup_s": _metric(np.median(setups), "s"),
    }, pct


# ---------------------------------------------------------------------------
# N ladder: fitted log-log cost exponents (traced runs only)

LADDER_N = (128, 256, 512)
LADDER_REPEATS = 3


def _ladder_cases(n):
    g = lattice.GridSpec(1, n, 4.0)
    p = symbols.named_symbol(g, "elliptic_x")
    P = operators.quantize(p)
    M = operators.fourier_multiplier(g, lambda xi: 1.0 + xi[..., 0] ** 2,
                                     order=2)
    T = operators.quantize(symbols.named_symbol(g, "schwartz_xi"))
    region = lattice.ball_region(g, np.zeros(1), 0.5)
    return {
        "operators.quantize": lambda: operators.quantize(p),
        "operators.op_norm": lambda: operators.op_norm(P, 0.0, -2.0),
        "funcalc.spectral_data": lambda: funcalc.spectral_data(M),
        "quasiloc.dominating_function": lambda: quasiloc.dominating_function(
            T, 0.0, 0.0, (0.5, 1.0, 2.0), [region], probes=2),
    }


def ladder_exponents() -> dict:
    """{function: slope of log(median seconds) against log N}."""
    times = {}
    for n in LADDER_N:
        for name, fn in _ladder_cases(n).items():
            samples = []
            for _ in range(LADDER_REPEATS):
                start = time.perf_counter()
                fn()
                samples.append(time.perf_counter() - start)
            times.setdefault(name, []).append(np.median(samples))
    return {name: float(np.polyfit(np.log(LADDER_N), np.log(ts), 1)[0])
            for name, ts in times.items()}


# ---------------------------------------------------------------------------
# per-layer metrics


def per_layer(tracer, plain: LoopResult, traced: LoopResult,
              exponents: dict) -> dict:
    out = {}
    for name, (calls, self_s) in tracer.layer_table().items():
        out[f"{name}.calls"] = _metric(calls, "count")
        out[f"{name}.self_s"] = _metric(self_s, "s")
    out["serial.bytes_written"] = _metric(tracer.bytes_written, "bytes")
    for kind, (calls, work) in tracer.linalg.items():
        out[f"linalg.{kind}.calls"] = _metric(calls, "count")
        if kind != "qr":
            out[f"linalg.{kind}.work"] = _metric(work, "count")
    hits, misses = tracer.fourier_cache
    out["operators.fourier_matrix.hit_ratio"] = _metric(
        hits / (hits + misses) if hits + misses else 0.0, "ratio")
    out["funcalc.spectral_data.fastpath_ratio"] = _metric(
        tracer.fastpath_ratio(), "ratio")
    for name, slope in exponents.items():
        out[f"{name}.exp"] = _metric(slope, "exponent")
    p50 = lambda res: np.median(res.verified_s) if res.verified_s else 0.0
    out["trace.overhead_s"] = _metric(p50(traced) - p50(plain), "s")
    both = merge(plain, traced)
    out["fail_ratio"] = _metric(both.failed / both.attempted, "ratio")
    return out
