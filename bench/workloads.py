"""The benchmark's workloads: closed loops of verified torusop operations.

Each workload draws the inputs of operation ``i`` from
``numpy.random.default_rng([seed, i])``: symbol parameters inside their
elliptic range, probe seeds, region centres and quadrature widths.  The seed
never changes a grid size.  ``op(i)`` returns True only when every result of the
operation passes the tolerance the acceptance suite (tests/test_acceptance.py)
or the CLI applies to the same quantity.

Calls go through the torusop modules at call time (``operators.quantize``,
not a name bound at import) so a tracer that rebinds them sees every call.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile

import numpy as np

from torusop import cli, funcalc, lattice, operators, parametrix, quasiloc
from torusop import symbols


class Calculus1D:
    """Parametrix sweeps, composition remainders and the exact parametrix gate.

    Chosen because op_norm (its SVDs and the frequency representation) is
    most of the time here: fewer or thinner factorizations show up first.
    """

    name = "calculus-1d"
    GRID = dict(dim=1, points_per_axis=256, period_scale=4.0)
    EXCISION = 8.0  # criterion 04

    def __init__(self, seed: int):
        self.seed = seed
        self.grid = lattice.GridSpec(**self.GRID)
        self.laplace = symbols.named_symbol(self.grid, "laplace+1")

    def op(self, i: int) -> bool:
        rng = np.random.default_rng([self.seed, i])
        a_ell, a_drift = rng.uniform(1.5, 3.0, size=2)
        g = self.grid
        p = symbols.named_symbol(g, "elliptic_x", {"a": a_ell})
        P = operators.quantize(p)

        # criterion 04: J sweeps converge, off-band residual monotone in J
        sweeps = [parametrix.build_parametrix(P, p, J, self.EXCISION,
                                              norm_range=1)
                  for J in (1, 2)]
        off = [res.off_band_norms[(0, 0)] for res in sweeps]
        band = [res.band_norms[(0, 0)] for res in sweeps]
        ok = not any(res.diverged for res in sweeps)
        ok &= off[1] <= 1.02 * off[0]
        ok &= bool(np.all(np.isfinite(band)))

        # criterion 02 shape: ||PQ - Op(p #_J q)|| : H^s -> H^{s-k+J+1}
        q = symbols.named_symbol(g, "drift", {"a": a_drift})
        PQ = operators.compose(P, operators.quantize(q))
        J = 1
        R = operators.quantize(symbols.compose_symbols(p, q, J))
        k = p.order + q.order
        D = operators.DiscreteOperator(g, k, PQ.matrix - R.matrix,
                                       provenance="composed")
        for s in (0.0, 1.0):
            ok &= bool(np.isfinite(operators.op_norm(D, s, s - k + J + 1)))

        # criterion 04: the parametrix of a multiplier is exact off the band
        exact = parametrix.build_parametrix(
            operators.quantize(self.laplace), self.laplace, 1,
            self.EXCISION, norm_range=1)
        ok &= exact.off_band_norms[(0, 0)] <= 1e-10
        return bool(ok)


class Quantize2D:
    """2D quantization (state_dim 1024) and the 2D elliptic estimate.

    Chosen because quantize dominates and no operator norm is taken: the
    workload for a faster quantize, and the bypass for op_norm changes.
    """

    name = "quantize-2d"
    FINE = dict(dim=2, points_per_axis=32, period_scale=1.0)
    COARSE = (16, 20)
    PLANE_WAVES = 4

    def __init__(self, seed: int):
        self.seed = seed
        self.grid = lattice.GridSpec(**self.FINE)
        self.coarse = [lattice.GridSpec(2, n, 1.0) for n in self.COARSE]
        half = self.grid.points_per_axis // 2
        modes = np.abs(self.grid.frequencies * self.grid.period_scale)
        # the Nyquist slot holds a symmetrized sample, so skip it
        self.modes = np.flatnonzero((np.rint(modes) < half).all(axis=1))

    def op(self, i: int) -> bool:
        rng = np.random.default_rng([self.seed, i])
        a = rng.uniform(1.5, 3.0)
        g = self.grid
        p = symbols.named_symbol(g, "elliptic_x", {"a": a})
        P = operators.quantize(p)

        # criterion 01: quantization is exact on plane waves
        ok = True
        for m in rng.choice(self.modes, self.PLANE_WAVES, replace=False):
            u = np.exp(1j * g.points @ g.frequencies[m])
            expect = p.samples[:, m, 0, 0] * u
            err = float(np.abs(P.matrix @ u - expect).max())
            ok &= err <= 1e-11 * max(1.0, float(np.abs(expect).max()))

        # criterion 05: the estimate constant is stable under refinement
        probe_seed = int(rng.integers(2 ** 31))
        consts = [
            parametrix.elliptic_estimate_constant(
                operators.quantize(symbols.named_symbol(gc, "elliptic_x",
                                                        {"a": a})),
                2.0, seed=probe_seed)
            for gc in self.coarse
        ]
        ok &= bool(np.all(np.isfinite(consts)))
        ok &= max(consts) <= 1.10 * min(consts)
        return bool(ok)


class WaveScan:
    """Wave-operator quasilocality of 1 + xi^2-type multipliers at N=1024.

    Chosen because the SpectralData gate SVDs and the distance fields of the
    scan dominate, with no quantize and no op_norm call.
    """

    name = "wave-scan"
    GRID = dict(dim=1, points_per_axis=1024, period_scale=8.0)
    T_LIST = (0.0625, 0.125, 0.25)      # criterion 06
    R_LIST = (2.0, 4.0, 8.0, 16.0)
    REGION_RADIUS = 4.0
    ROUTE_BUDGET = 1e-5                 # criterion 07

    def __init__(self, seed: int):
        self.seed = seed
        self.grid = lattice.GridSpec(**self.GRID)

    def op(self, i: int) -> bool:
        rng = np.random.default_rng([self.seed, i])
        mass = rng.uniform(0.5, 2.0)
        centre = rng.uniform(0.0, self.grid.period)
        probe_seed = int(rng.integers(2 ** 31))
        width = rng.uniform(0.2, 0.3)
        g = self.grid
        P = operators.fourier_multiplier(
            g, lambda xi: mass + xi[..., 0] ** 2, order=2)
        sd = funcalc.spectral_data(P)
        rep = quasiloc.wave_quasilocality_scan(
            P, 2, self.T_LIST, self.R_LIST, 1.0,
            region=lattice.ball_region(g, np.array([centre]),
                                       self.REGION_RADIUS),
            probes=2, seed=probe_seed, spectral=sd)
        ok = not rep.range_limited
        ok &= -1.3 <= rep.slope_R <= -0.7
        ok &= 0.7 <= rep.growth_t <= 1.3

        # quadrature routes against the spectral oracle; the Gaussian is
        # scaled to the spectrum so the wave route stays resolved
        sigma = width * sd.spectral_radius
        gauss = funcalc.named_function("gaussian", {"sigma": sigma})
        wave = funcalc.fourier_apply(P, gauss, t_max=12.0 / sigma,
                                     n_quad=2048, spectral=sd)
        resolvent = funcalc.chi_resolvent_integral(P, spectral=sd)
        ok &= wave.defect <= self.ROUTE_BUDGET
        ok &= resolvent.defect <= self.ROUTE_BUDGET
        return bool(ok)


def artifact_digest(root: str) -> str:
    """sha256 over every artifact under root; manifest timestamps dropped."""
    h = hashlib.sha256()
    for dirpath, dirnames, files in os.walk(root):
        dirnames.sort()
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read()
            if name == "manifest.json":
                doc = json.loads(data)
                doc.pop("timestamp")
                data = json.dumps(doc, sort_keys=True).encode()
            h.update(os.path.relpath(path, root).encode() + b"\0" + data)
    return h.hexdigest()


class SuiteSmall:
    """In-process ``full-suite`` CLI runs into fresh directories.

    Chosen because per-call overhead outweighs O(n^3) cost at the default
    N=64-256, and because it is the only workload that reaches khomology,
    serial and cli and writes files.
    """

    name = "suite-small"

    def __init__(self, seed: int, workdir: str):
        self.suite_seed = seed % 2 ** 31
        self.workdir = workdir
        self.reference = None

    def op(self, i: int) -> bool:
        out = tempfile.mkdtemp(prefix=f"op{i}-", dir=self.workdir)
        try:
            code = cli.run("full-suite", out=out, seed=self.suite_seed)
            digest = artifact_digest(out)
        finally:
            shutil.rmtree(out)
        if self.reference is None:
            self.reference = digest
        return code == 0 and digest == self.reference


WORKLOADS = {w.name: w for w in (Calculus1D, Quantize2D, WaveScan,
                                 SuiteSmall)}


def make(name: str, seed: int, workdir: str):
    if name == SuiteSmall.name:
        return SuiteSmall(seed, workdir)
    return WORKLOADS[name](seed)
