"""Spans around torusop's public functions and counters at the LAPACK boundary.

Modules inside torusop import names directly (``from .operators import
quantize``), so wrapping one module attribute misses calls made through the
other bindings.  ``Tracer.install`` therefore replaces every binding of each
traced object across ``torusop.*`` (plus the class attributes that stand for
constructors and methods) and ``Tracer.uninstall`` puts the original objects
back by identity.

Spans are kept in memory as (name, start, end, parent, op_id, eigh calls
inside) and written out by ``dump``.  A layer's self time is its span's
duration minus the time covered by its direct child spans; calls nest on a
single thread, so direct children never overlap.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from collections import namedtuple

import numpy as np
import numpy.linalg
import scipy.linalg

try:
    import numpy.linalg._linalg as _np_linalg_impl
except ImportError:  # numpy < 2
    import numpy.linalg.linalg as _np_linalg_impl

from torusop import (
    cli, funcalc, khomology, lattice, operators, parametrix, quasiloc, serial,
    symbols,
)

Span = namedtuple("Span", "name start end parent op_id eigh_inside")

# (layer name, owner, attribute).  An owner that is a class is patched in
# place; an owner that is a module is the defining module of a function whose
# every binding across torusop gets wrapped.
TARGETS = (
    ("lattice.distance_field", lattice.Region, "distance_field"),
    ("lattice.cutoff_eta", lattice, "cutoff_eta"),
    ("lattice.sobolev_norm", lattice, "sobolev_norm"),
    ("lattice.restricted_seminorm", lattice, "restricted_seminorm"),
    ("symbols.symbol_from_callable", symbols, "symbol_from_callable"),
    ("symbols.compose_symbols", symbols, "compose_symbols"),
    ("symbols.invert_principal", symbols, "invert_principal"),
    ("symbols.check_elliptic", symbols, "check_elliptic"),
    ("operators.quantize", operators, "quantize"),
    ("operators.fourier_multiplier", operators, "fourier_multiplier"),
    ("operators.multiplication_operator", operators,
     "multiplication_operator"),
    ("operators.op_norm", operators, "op_norm"),
    ("operators.compose", operators, "compose"),
    ("operators.commutator", operators, "commutator"),
    ("operators.DiscreteOperator", operators.DiscreteOperator,
     "__post_init__"),
    ("parametrix.build_parametrix", parametrix, "build_parametrix"),
    ("parametrix.band_projector", parametrix, "band_projector"),
    ("parametrix.elliptic_estimate_constant", parametrix,
     "elliptic_estimate_constant"),
    ("funcalc.spectral_data", funcalc, "spectral_data"),
    ("funcalc.SpectralData", funcalc.SpectralData, "__post_init__"),
    ("funcalc.spectral_apply", funcalc, "spectral_apply"),
    ("funcalc.wave_operator", funcalc, "wave_operator"),
    ("funcalc.fourier_apply", funcalc, "fourier_apply"),
    ("funcalc.chi_resolvent_integral", funcalc, "chi_resolvent_integral"),
    ("quasiloc.dominating_function", quasiloc, "dominating_function"),
    ("quasiloc.wave_quasilocality_scan", quasiloc,
     "wave_quasilocality_scan"),
    ("quasiloc.uniform_approx_profile", quasiloc, "uniform_approx_profile"),
    ("quasiloc.eps_rank", quasiloc, "eps_rank"),
    ("khomology.assemble_module", khomology, "assemble_module"),
    ("khomology.homotopy_scan", khomology, "homotopy_scan"),
    ("serial.json_bytes", serial, "json_bytes"),
    ("serial.write_csv", serial, "write_csv"),
    ("cli.run", cli, "run"),
)

LAYERS = tuple(name for name, _owner, _attr in TARGETS)


def _svd_work(a, *_args, **_kwargs):
    shape = np.shape(a)
    m, n = shape[-2:]
    return math.prod(shape[:-2]) * m * n * min(m, n)


def _eigh_work(a, *_args, **_kwargs):
    return np.shape(a)[-1] ** 3


def _no_work(*_args, **_kwargs):
    return 0


# (counter, function, work model, modules whose bindings are wrapped).
# numpy.linalg.norm(., 2) reaches the SVD through the module global of
# numpy.linalg._linalg, so that binding is wrapped as well.
LINALG = (
    ("svd", _np_linalg_impl.svd, _svd_work, (numpy.linalg, _np_linalg_impl)),
    ("eigh", scipy.linalg.eigh, _eigh_work, (scipy.linalg,)),
    ("qr", _np_linalg_impl.qr, _no_work, (numpy.linalg, _np_linalg_impl)),
)


def _torusop_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "torusop" or n.startswith("torusop."))]


class Tracer:
    """Records spans and LAPACK counts while installed."""

    def __init__(self):
        self.spans = []
        self.op_id = None
        self.linalg = {kind: [0, 0] for kind, *_rest in LINALG}
        self.bytes_written = 0
        self.fourier_cache = (0, 0)  # (hits, misses) while installed
        self._stack = []
        self._patched = []  # (owner, attribute, original)

    # -- installation -----------------------------------------------------

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        info = operators.fourier_matrix.cache_info()
        self._cache_start = (info.hits, info.misses)
        modules = _torusop_modules()
        for name, owner, attr in TARGETS:
            if isinstance(owner, type):
                self._patch(owner, attr, self._span_wrapper(
                    name, owner.__dict__[attr]))
                continue
            original = getattr(owner, attr)
            wrapper = self._span_wrapper(name, original)
            for module in modules:
                for key in [k for k, v in vars(module).items()
                            if v is original]:
                    self._patch(module, key, wrapper)
        for kind, original, work, homes in LINALG:
            wrapper = self._count_wrapper(kind, original, work)
            for module in homes:
                for key in [k for k, v in vars(module).items()
                            if v is original]:
                    self._patch(module, key, wrapper)

    def uninstall(self):
        info = operators.fourier_matrix.cache_info()
        self.fourier_cache = (info.hits - self._cache_start[0],
                              info.misses - self._cache_start[1])
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _span_wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(index)
            eigh_before = tracer.linalg["eigh"][0]
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = Span(
                    name, start, end, parent, tracer.op_id,
                    tracer.linalg["eigh"][0] - eigh_before)
            if name == "serial.json_bytes":
                tracer.bytes_written += len(result)
            elif name == "serial.write_csv":
                tracer.bytes_written += os.path.getsize(args[0])
            return result

        return wrapper

    def _count_wrapper(self, kind, fn, work):
        counter = self.linalg[kind]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counter[0] += 1
            counter[1] += work(*args, **kwargs)
            return fn(*args, **kwargs)

        return wrapper

    # -- results ----------------------------------------------------------

    def layer_table(self) -> dict:
        """{layer: (calls, self seconds)} for every traced layer."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        table = {name: [0, 0.0] for name in LAYERS}
        for span, covered in zip(self.spans, child_time):
            row = table[span.name]
            row[0] += 1
            row[1] += (span.end - span.start) - covered
        return {name: tuple(row) for name, row in table.items()}

    def fastpath_ratio(self) -> float:
        """spectral_data calls served without an eigh fallback, per call."""
        calls = [s for s in self.spans if s.name == "funcalc.spectral_data"]
        if not calls:
            return 0.0
        return sum(1 for s in calls if s.eigh_inside == 0) / len(calls)

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span._asdict()) + "\n")


def bindings_snapshot() -> dict:
    """Every attribute a tracer may patch, keyed by (owner, attribute)."""
    snap = {}
    for module in _torusop_modules():
        snap.update({(module.__name__, k): v for k, v in vars(module).items()})
    for _name, owner, attr in TARGETS:
        if isinstance(owner, type):
            snap[(owner.__qualname__, attr)] = owner.__dict__[attr]
    for _kind, _fn, _work, homes in LINALG:
        for module in homes:
            snap.update({(module.__name__, k): v
                         for k, v in vars(module).items()})
    return snap


__all__ = ["Tracer", "Span", "TARGETS", "LAYERS", "bindings_snapshot"]
