"""Differential tests: the FFT Fourier layer against dense DFT-matrix formulas.

Each oracle multiplies by the unitary W = operators.fourier_matrix, lifted
to the fiber as kron(W, I_r): the slow path that lattice.to_frequency /
from_frequency and the FFT quantization replace.  The choice of the
Fourier basis in spectral_data is held to ``_fourier_diagonal``, the
separate multiplier check it made before SpectralData's own check decided.
"""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from torusop import funcalc, operators, parametrix
from torusop.funcalc import SpectralData, spectral_data
from torusop.lattice import GridSpec, from_frequency, to_frequency
from torusop.operators import (
    DiscreteOperator,
    compose,
    fourier_matrix,
    fourier_multiplier,
    multiplier_matrix,
    op_norm,
    quantize,
    symmetrize,
)
from torusop.parametrix import (
    band_projector,
    build_parametrix,
)
from torusop.symbols import NAMED_SYMBOLS, named_symbol

REL = 1e-12

GRIDS = [GridSpec(1, 64, 1.5, r) for r in (1, 2)] + [
    GridSpec(2, 8, 1.0, r) for r in (1, 2)
]
GRID_IDS = [f"{g.dim}d-N{g.points_per_axis}-r{g.fiber_dim}" for g in GRIDS]


def _w(grid):
    return np.kron(fourier_matrix(grid), np.eye(grid.fiber_dim))


def _weights(grid, s):
    """(1 + |xi|^2)^(s/2) per state of kron(W, I_r), from the frequencies."""
    mag = np.linalg.norm(grid.frequencies, axis=-1)
    return np.repeat((1.0 + mag ** 2) ** (s / 2.0), grid.fiber_dim)


def _rel(a, b):
    return float(np.abs(a - b).max() / np.abs(b).max())


def _random_states(grid, m, seed=0):
    rng = np.random.default_rng(seed)
    shape = (grid.state_dim, m)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _dense_quantize(p):
    g = p.grid
    w = fourier_matrix(g)
    t = w[:, :, None, None] * p.samples
    t = t.transpose(0, 2, 1, 3).reshape(g.state_dim, g.state_dim)
    return t @ np.kron(w.conj().T, np.eye(g.fiber_dim))


def _dense_weighted_rep(A, s, t):
    w = _w(A.grid)
    scale = _weights(A.grid, t)[:, None] / _weights(A.grid, s)[None, :]
    return (w.conj().T @ A.matrix @ w) * scale


def _dense_op_norm(A, s, t):
    return float(np.linalg.norm(_dense_weighted_rep(A, s, t), 2))


def _dense_diagonal(A):
    """The real diagonal of the dense W* A W, or None when an off-diagonal
    entry exceeds 1e-12 of its largest diagonal entry."""
    w = _w(A.grid)
    rep = w.conj().T @ A.matrix @ w
    diag = np.diag(rep).real.copy()
    np.fill_diagonal(rep, 0.0)
    scale = float(np.abs(diag).max()) or 1.0
    return diag if float(np.abs(rep).max()) <= 1e-12 * scale else None


def _real_multiplier(grid, vals):
    return DiscreteOperator(grid, 0, multiplier_matrix(grid, vals),
                            self_adjoint=True)


def _kernel_values(A):
    """A's value per frequency state if A is a Fourier multiplier: its
    kernel at x = 0, the first r columns of A, is sqrt(n_points) times
    their transform, read on the fiber diagonal [m*r + s, s]."""
    g = A.grid
    n, r = g.n_points, g.fiber_dim
    kern = math.sqrt(n) * to_frequency(g, A.matrix[:, :r])
    return kern.reshape(n, r, r)[:, np.arange(r), np.arange(r)].ravel()


def _fourier_diagonal(A):
    """A's real value per frequency state if A is a Fourier multiplier,
    else None: the multiplier check spectral_data made before SpectralData
    owned it.  The kernel values are accepted only if no entry of
    A - multiplier_matrix(values) exceeds 1e-12 of the largest value."""
    values = _kernel_values(A)
    diff = multiplier_matrix(A.grid, values)
    diff -= A.matrix
    off = float(np.abs(diff).max())
    scale = float(np.abs(values).max()) or 1.0
    return values.real if off <= 1e-12 * scale else None


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).tobytes()


def _assert_spectral_data_matches_oracle(P):
    """spectral_data(P) takes the path ``_fourier_diagonal`` chooses, with
    the eigenvalues it reads or those of the dense eigensolve, bit for bit.
    Returns whether that path is the Fourier basis."""
    sd = spectral_data(P)
    diag = _fourier_diagonal(P)
    fourier = diag is not None
    assert (sd.vectors is None) is fourier
    want = diag if fourier else scipy.linalg.eigh(P.matrix)[0]
    assert _bits(sd.eigenvalues) == _bits(want)
    return fourier


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_to_and_from_frequency_match_dense_w(grid):
    w = _w(grid)
    cols = _random_states(grid, 3)
    assert _rel(to_frequency(grid, cols), w.conj().T @ cols) <= REL
    assert _rel(from_frequency(grid, cols), w @ cols) <= REL
    # a single state vector keeps its shape
    vec = cols[:, 0]
    assert to_frequency(grid, vec).shape == vec.shape
    assert _rel(to_frequency(grid, vec), w.conj().T @ vec) <= REL
    assert _rel(from_frequency(grid, to_frequency(grid, cols)), cols) <= REL


@pytest.mark.parametrize("name", sorted(NAMED_SYMBOLS))
@pytest.mark.parametrize("dim,N", [(1, 64), (2, 8)])
def test_quantize_matches_dense_w(name, dim, N):
    fiber = 2 if name.startswith("dirac") else 1
    g = GridSpec(dim, N, 1.5, fiber)
    p = named_symbol(g, name)
    P = quantize(p)
    assert _rel(P.matrix, _dense_quantize(p)) <= REL

    # the Nyquist slot quantizes its symmetrized sample: on the plane wave
    # with mode -N/2 along axis 0, P acts by that sample at each point
    idx = [0] * dim
    idx[0] = N // 2
    m = int(np.ravel_multi_index(idx, g.grid_shape()))
    wave = np.exp(1j * g.points @ g.frequencies[m])
    scale = max(1.0, float(np.abs(p.samples).max()))
    for slot in range(fiber):
        u = np.zeros((g.n_points, fiber), dtype=complex)
        u[:, slot] = wave
        full = np.broadcast_to(p.samples,
                               (g.n_points,) + p.samples.shape[1:])
        expect = np.einsum("xab,xb->xa", full[:, m], u)
        got = (P.matrix @ u.ravel()).reshape(g.n_points, fiber)
        assert np.abs(got - expect).max() <= REL * scale


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_op_norm_matches_dense_w(grid):
    name = "dirac" if grid.fiber_dim > 1 else "elliptic_x"
    P = quantize(named_symbol(grid, name))
    rng = np.random.default_rng(1)
    pert = rng.standard_normal(P.matrix.shape)
    A = DiscreteOperator(grid, P.order, P.matrix + 1e-3 * pert,
                         provenance="composed")
    for s, t in ((0.0, 0.0), (1.0, 0.0), (0.0, -2.0), (-1.0, 2.0)):
        expect = _dense_op_norm(A, s, t)
        assert abs(op_norm(A, s, t) - expect) <= REL * expect


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_op_norm_on_modes_matches_dense_projector_composition(grid):
    # the norm of A composed with the spectral projector onto the masked
    # frequencies, without and with the projector as an operator
    name = "dirac" if grid.fiber_dim > 1 else "elliptic_x"
    A = quantize(named_symbol(grid, name))
    radius = 0.5 * float(grid.frequency_magnitude.max())
    for off_band in (False, True):
        modes = grid.frequency_magnitude <= radius
        if off_band:
            modes = ~modes
        AP = compose(A, band_projector(grid, radius, off_band=off_band))
        for s, t in ((0.0, 0.0), (1.0, 0.0), (0.0, -2.0), (-1.0, 2.0)):
            expect = _dense_op_norm(AP, s, t)
            assert abs(op_norm(A, s, t, modes) - expect) <= REL * expect


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_fourier_multiplier_matches_dense_w(grid):
    fn = lambda xi: 1.0 + np.exp(1j * xi[..., 0]) + (xi ** 2).sum(axis=-1)
    M = fourier_multiplier(grid, fn, order=2)
    w = _w(grid)
    vals = np.repeat(fn(grid.frequencies), grid.fiber_dim)
    assert _rel(M.matrix, (w * vals[None, :]) @ w.conj().T) <= REL


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_spectral_data_fast_path_matches_dense_w(grid, monkeypatch):
    P = fourier_multiplier(grid, lambda xi: 1.0 + (xi ** 2).sum(axis=-1),
                           order=2)

    def no_eigh(*args, **kwargs):
        raise AssertionError("multiplier fell back to a dense eigensolve")

    monkeypatch.setattr(scipy.linalg, "eigh", no_eigh)
    sd = spectral_data(P)
    w = _w(grid)
    dense_diag = np.diag(w.conj().T @ P.matrix @ w).real
    # position by position: eigenvalue i belongs to frequency state i
    assert _rel(sd.eigenvalues, dense_diag) <= REL
    # and the eigenbasis, the Fourier basis of to_frequency, is the lifted
    # W itself
    assert _rel(from_frequency(grid, np.eye(grid.state_dim)), w) <= REL


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_multiplier_matrix_matches_dense_w(grid):
    rng = np.random.default_rng(2)
    vals = (rng.standard_normal(grid.state_dim)
            + 1j * rng.standard_normal(grid.state_dim))
    w = _w(grid)
    assert _rel(multiplier_matrix(grid, vals),
                (w * vals[None, :]) @ w.conj().T) <= REL


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_fourier_diagonal_matches_dense_w(grid):
    M = fourier_multiplier(grid, lambda xi: 1.0 + np.cos(xi[..., 0])
                           + 0.5 * np.sin((xi ** 2).sum(axis=-1)))
    w = _w(grid)
    # momentum is odd, so its kernel is not even in x: values read from a
    # row of A, or at -xi, differ from the oracle's
    for A in (M, fourier_multiplier(grid, lambda xi: xi[..., 0])):
        expect = np.diag(w.conj().T @ A.matrix @ w).real
        assert _assert_spectral_data_matches_oracle(A)
        assert _rel(spectral_data(A).eigenvalues, expect) <= REL
    # an x-dependent perturbation far below the multiplier is still seen
    x = grid.points[:, 0]
    bump = np.repeat(1e-9 * np.cos(x / grid.period_scale), grid.fiber_dim)
    perturbed = DiscreteOperator(grid, 0, M.matrix + np.diag(bump),
                                 provenance="composed", self_adjoint=True)
    assert not _assert_spectral_data_matches_oracle(perturbed)
    # all values zero: the entrywise test's scale is 1
    assert _assert_spectral_data_matches_oracle(
        fourier_multiplier(grid, lambda xi: 0.0 * xi[..., 0]))


def test_fourier_diagonal_rejects_a_quantized_drift():
    drift = quantize(named_symbol(GRIDS[0], "drift"))
    assert _fourier_diagonal(drift) is None
    with pytest.raises(ValueError, match="spectral reconstruction defect"):
        SpectralData(_kernel_values(drift).real, None, drift)
    assert not _assert_spectral_data_matches_oracle(symmetrize(drift))


FIBER2 = [g for g in GRIDS if g.fiber_dim == 2]


@pytest.mark.parametrize("grid", FIBER2,
                         ids=[f"{g.dim}d-N{g.points_per_axis}" for g in FIBER2])
def test_fourier_diagonal_reads_each_fiber_slot(grid):
    rng = np.random.default_rng(3)
    vals = rng.standard_normal(grid.state_dim)
    A = _real_multiplier(grid, vals)
    assert _assert_spectral_data_matches_oracle(A)
    got = spectral_data(A).eigenvalues
    assert _rel(got, _dense_diagonal(A)) <= REL
    assert _rel(got, vals) <= REL


# magnitudes near the underflow threshold lose relative precision in any
# FFT, the oracle's products included, so the values stay clear of it
_VALUE = st.one_of(st.just(0.0), st.floats(1e-6, 1e3), st.floats(-1e3, -1e-6))


@settings(max_examples=50, deadline=None)
@given(dim=st.sampled_from([1, 2]), fiber=st.sampled_from([1, 2]),
       data=st.data())
def test_fourier_diagonal_matches_dense_w_on_random_values(dim, fiber, data):
    grid = GridSpec(dim, 16 if dim == 1 else 8, 1.0, fiber)
    vals = data.draw(arrays(float, grid.state_dim, elements=_VALUE))
    A = _real_multiplier(grid, vals)
    expect = _dense_diagonal(A)
    assert expect is not None
    assert _assert_spectral_data_matches_oracle(A)
    got = spectral_data(A).eigenvalues
    assert np.abs(got - expect).max() <= REL * (np.abs(expect).max() or 1.0)


# each named family on the grids whose fiber its symbol blocks fit
FAMILY_CASES = [(g, name) for g in GRIDS for name in sorted(NAMED_SYMBOLS)
                if g.fiber_dim == (2 if name.startswith("dirac") else 1)]


@pytest.mark.parametrize("grid, name", FAMILY_CASES, ids=[
    f"{g.dim}d-r{g.fiber_dim}-{name}" for g, name in FAMILY_CASES])
def test_spectral_data_takes_the_oracle_path_on_named_families(grid, name):
    # symmetrized where the quantization is not self-adjoint.  The scalar
    # x-independent families are multipliers and take the Fourier basis;
    # the Dirac families' blocks mix the fiber, so they take the dense
    # eigensolve, as every x-dependent family does
    p = named_symbol(grid, name)
    P = quantize(p)
    if not P.self_adjoint:
        P = symmetrize(P)
    fourier = _assert_spectral_data_matches_oracle(P)
    assert fourier is (p.x_independent and grid.fiber_dim == 1)


SPY_GRIDS = [GridSpec(1, 1024, 8.0), GridSpec(2, 8, 1.0, 2)]


@pytest.mark.parametrize("grid", SPY_GRIDS, ids=["wave-scan", "2d-r2"])
def test_spectral_data_checks_a_multiplier_once(grid, monkeypatch):
    # a multiplier costs the cheap gate and no n x n multiplier matrix; a
    # non-multiplier is refused the Fourier basis before the gate, and only
    # the eigh path's decomposition reaches it
    events = []

    def spy(name, fn):
        def counted(*args, **kwargs):
            events.append(name)
            return fn(*args, **kwargs)
        return counted

    def full_matrix(g, values, states=None):
        if states is None:
            events.append("multiplier")
        return multiplier_matrix(g, values, states)

    def norm(x, ord=None, *args, **kwargs):
        if ord == 2:
            # the exact check's spectral norms, one SVD each
            events.append("svd")
        return np_norm(x, ord, *args, **kwargs)

    np_norm = np.linalg.norm
    monkeypatch.setattr(funcalc, "multiplier_matrix", full_matrix)
    monkeypatch.setattr(funcalc, "_gate_passes",
                        spy("gate", funcalc._gate_passes))
    monkeypatch.setattr(scipy.linalg, "eigh", spy("eigh", scipy.linalg.eigh))
    monkeypatch.setattr(np.linalg, "norm", norm)
    P = fourier_multiplier(grid, lambda xi: 1.2 + (xi ** 2).sum(axis=-1),
                           order=2)
    assert spectral_data(P).vectors is None
    assert events == ["gate"]
    events.clear()
    # an x-dependent perturbation of 1e-9 relative to P's largest entry
    x = grid.points[:, 0]
    bump = np.repeat(1e-9 * np.abs(P.matrix).max()
                     * np.cos(x / grid.period_scale), grid.fiber_dim)
    perturbed = DiscreteOperator(grid, 0, P.matrix + np.diag(bump),
                                 provenance="composed", self_adjoint=True)
    assert spectral_data(perturbed).vectors is not None
    # the refused Fourier basis took no gate, no SVD and no n x n matrix
    assert events[:1] == ["eigh"] and "multiplier" not in events


def test_spectral_data_takes_no_eigh_past_the_dense_cap(monkeypatch):
    # only a decomposition that does not rebuild P sends spectral_data to
    # the dense eigensolve; the cap's refusal of a multiplier matrix
    # reaches the caller
    def no_eigh(*args, **kwargs):
        raise AssertionError("dense eigensolve past the dense cap")

    P = fourier_multiplier(GRIDS[0], lambda xi: 1.0 + xi[..., 0] ** 2,
                           order=2)
    monkeypatch.setattr(operators, "STATE_DIM_CAP", GRIDS[0].state_dim - 1)
    monkeypatch.setattr(scipy.linalg, "eigh", no_eigh)
    with pytest.raises(ValueError, match="exceeds the dense cap"):
        spectral_data(P)


NO_REP_GRIDS = [GridSpec(1, 256, 1.0), GridSpec(2, 16, 1.0),
                GridSpec(1, 64, 1.5, 2)]


@pytest.mark.parametrize("grid", NO_REP_GRIDS, ids=[
    f"{g.dim}d-N{g.points_per_axis}-r{g.fiber_dim}" for g in NO_REP_GRIDS])
def test_spectral_data_of_a_multiplier_takes_no_dense_transform(grid,
                                                                monkeypatch):
    def no_rep(A):
        raise AssertionError("W* A W taken for a multiplier")

    widest = []

    def spy(transform):
        def counted(g, cols):
            widest.append(np.shape(cols)[1] if np.ndim(cols) == 2 else 1)
            return transform(g, cols)
        return counted

    monkeypatch.setattr(operators, "_to_fourier_rep", no_rep)
    monkeypatch.setattr(operators, "to_frequency", spy(to_frequency))
    monkeypatch.setattr(funcalc, "to_frequency", spy(to_frequency))
    monkeypatch.setattr(funcalc, "from_frequency", spy(from_frequency))
    P = fourier_multiplier(grid, lambda xi: 1.0 + (xi ** 2).sum(axis=-1),
                           order=2)
    sd = spectral_data(P)
    assert sd.vectors is None
    assert "frequency_rep" not in P.__dict__
    # the kernel's r columns and the gate's one probe vector, nothing wider
    assert widest and max(widest) <= grid.fiber_dim
    expect = np.repeat(1.0 + grid.frequency_magnitude ** 2, grid.fiber_dim)
    assert _rel(sd.eigenvalues, expect) <= REL


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_spectral_apply_fourier_basis_matches_dense_products(grid):
    P = fourier_multiplier(grid, lambda xi: 1.0 + (xi ** 2).sum(axis=-1),
                           order=2)
    sd = spectral_data(P)
    assert sd.vectors is None
    v, lam = from_frequency(grid, np.eye(grid.state_dim)), sd.eigenvalues
    for f in (lam, np.exp(0.3j * lam), lam / np.sqrt(1.0 + lam ** 2)):
        vals = np.asarray(f, dtype=complex)
        assert _rel(sd.apply(vals), (v * vals[None, :]) @ v.conj().T) <= REL


def test_parametrix_masked_norms_match_projector_composition(monkeypatch):
    made = []
    identity_defect = parametrix._identity_defect

    def recording(*args):
        made.append(identity_defect(*args))
        return made[-1]

    monkeypatch.setattr(parametrix, "_identity_defect", recording)
    g = GridSpec(1, 64, 2.0)
    p = named_symbol(g, "elliptic_x")
    res = build_parametrix(quantize(p), p, 1, excision_width=2.0,
                           norm_range=2)
    radius = res.excision_radius + res.excision_width
    off = compose(res.S1, band_projector(g, radius, off_band=True))
    band = compose(res.S1, band_projector(g, radius))
    for (k, l), value in res.off_band_norms.items():
        expect = op_norm(off, -float(k), float(l))
        assert abs(value - expect) <= REL * expect
        assert abs(value - _dense_op_norm(off, -float(k), float(l))) \
            <= REL * expect
        expect = op_norm(band, -float(k), float(l))
        assert abs(res.band_norms[(k, l)] - expect) <= REL * expect
    for (tag, k, l), value in res.residual_norms.items():
        # S1 is formed first, with Q; S2 = I - QP on its first entry's read
        S = made[0] if tag == "S1" else made[1]
        expect = _dense_op_norm(S, -float(k), float(l))
        assert abs(value - expect) <= REL * expect


def test_parametrix_masked_norms_on_exact_multiplier_case():
    # the off-band residual of laplace+1 is roundoff in both paths, so it is
    # checked by the gate it feeds, not by a relative difference
    g = GridSpec(1, 64, 2.0)
    p = named_symbol(g, "laplace+1")
    res = build_parametrix(quantize(p), p, 1, excision_width=2.0,
                           norm_range=2)
    radius = res.excision_radius + res.excision_width
    off = compose(res.S1, band_projector(g, radius, off_band=True))
    assert res.off_band_norms[(0, 0)] <= 1e-10
    assert op_norm(off, 0.0, 0.0) <= 1e-10
