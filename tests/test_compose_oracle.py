"""The composition expansion, the symbol-class constants and the parametrix
sweeps against their direct formulations, bit for bit.

The oracles below take one ``_xi_partial`` and one ``_x_partial`` per
multi-index and apply the three scalar factors of each term one by one;
the constants oracle differences each ``_x_partial`` in xi per
multi-index; the parametrix oracle runs the same sweeps on that
composition and forms S2 = I - QP together with S1.  The library keeps
each symbol's xi-differences, takes the x-derivatives from one FFT per
axis and forms S2 on its first read; none of that may change a bit of any
result.
"""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusop import parametrix
from torusop.lattice import GridSpec
from torusop.operators import DiscreteOperator, op_norm, quantize
from torusop.parametrix import _denoise_x_spectrum, build_parametrix
from torusop.symbols import (
    NAMED_SYMBOLS,
    Symbol,
    _block_norms,
    _multi_indices,
    check_elliptic,
    compose_symbols,
    estimate_constants,
    invert_principal,
    named_symbol,
    symbol_from_callable,
)


def _x_partial(sym: Symbol, alpha: tuple) -> np.ndarray:
    """Spectral partial derivative d^alpha/dx^alpha of the samples."""
    g = sym.grid
    if sum(alpha) == 0:
        return sym.samples
    if sym.x_independent:
        return np.zeros_like(sym.samples)
    a = sym.samples.reshape(g.grid_shape() + sym.samples.shape[1:])
    xi_axis = g.axis_modes / g.period_scale
    for ax, order in enumerate(alpha):
        if order == 0:
            continue
        hat = np.fft.fft(a, axis=ax)
        shape = [1] * a.ndim
        shape[ax] = g.points_per_axis
        hat = hat * (1j * xi_axis.reshape(shape)) ** order
        a = np.fft.ifft(hat, axis=ax)
    return a.reshape(sym.samples.shape)


def _xi_partial(samples: np.ndarray, grid: GridSpec, beta: tuple) -> np.ndarray:
    """Centered-difference partial derivative in xi (one-sided at edges).

    On even grids the half-mode slot holds the symmetrized sample, which
    for symbols with an odd-in-xi part is not a smooth continuation of its
    neighbours.  The difference stencil therefore runs over the sorted
    interior modes only, and the half-mode slot receives the symmetric
    average of the two one-sided edge values.
    """
    if sum(beta) == 0:
        return samples
    g = grid
    n_x = samples.shape[0]
    a = samples.reshape((n_x,) + g.grid_shape() + samples.shape[2:])
    dxi = 1.0 / g.period_scale
    for ax, order in enumerate(beta):
        axis = 1 + ax
        for _ in range(order):
            # grids are even: the sorted layout puts the half mode at index 0
            a = np.fft.fftshift(a, axes=axis)
            interior = np.take(a, range(1, g.points_per_axis), axis=axis)
            d_int = np.gradient(interior, dxi, axis=axis, edge_order=2)
            lo = np.take(d_int, [0], axis=axis)
            hi = np.take(d_int, [d_int.shape[axis] - 1], axis=axis)
            a = np.concatenate([0.5 * (lo + hi), d_int], axis=axis)
            a = np.fft.ifftshift(a, axes=axis)
    return a.reshape(samples.shape)


def _compose_oracle(p, q, J):
    """sum_(|a|<=J) i^|a|/a! (D_xi^a p)(D_x^a q), term by term."""
    g = p.grid
    total = None
    for alpha in _multi_indices(g.dim, J):
        n = sum(alpha)
        fact = math.prod(math.factorial(ai) for ai in alpha)
        # D_xi^a p = (-i d/dxi)^a p ; D_x^a q = (-i d/dx)^a q
        dxi_p = (-1j) ** n * _xi_partial(p.samples, g, alpha)
        dx_q = (-1j) ** n * _x_partial(q, alpha)
        term = (1j ** n / fact) * np.matmul(dxi_p, dx_q)
        total = term if total is None else total + term
    return total


def _parametrix_oracle(P, p, J, excision_width):
    """The symbol-correction sweeps on the oracle composition, with S1 and
    S2 formed together."""
    cert = check_elliptic(p)
    g = p.grid
    q0 = invert_principal(p, cert, excision_width)
    q = q0
    expansion = max(J, 1)
    offband = g.frequency_magnitude > cert.radius + excision_width
    history, worst, diverged = [], (), False
    for _ in range(J):
        r = g.fiber_dim
        defect = Symbol(g, 0, _compose_oracle(p, q, expansion)
                        - np.eye(r, dtype=complex))
        mags = np.linalg.norm(defect.samples, axis=(-2, -1))
        level = float(mags[:, offband].max()) if offband.any() else 0.0
        history.append(level)
        if len(history) > 1 and history[-1] > 2.0 * history[-2]:
            diverged = True
            i, j = np.unravel_index(np.argmax(mags), mags.shape)
            worst = (int(i), int(j), float(g.frequency_magnitude[j]), level)
        corr = _compose_oracle(q0, defect, expansion)
        x_max = g.points_per_axis / (2.0 * g.period_scale)
        eps = np.finfo(float).eps
        threshold = max(1e-12, 100.0 * eps * x_max ** expansion)
        q = Symbol(g, -p.order,
                   _denoise_x_spectrum(q.samples - corr, g, threshold))
    Q = quantize(q).matrix
    eye = np.eye(g.state_dim)
    return dict(Q=Q, S1=eye - P.matrix @ Q, S2=eye - Q @ P.matrix,
                offband=offband, history=tuple(history), diverged=diverged,
                worst=worst)


def _bits(a):
    """The raw bit patterns, so signed zeros count as different."""
    return np.ascontiguousarray(a).view(np.int64)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(_bits(a), _bits(b))


def _coupled(g, a=2.0):
    """An x-dependent symbol that couples the fiber slots (any fiber)."""
    eye = np.eye(g.fiber_dim)
    swap = eye[::-1]

    def fn(x, xi):
        d = a + np.cos(x[..., 0]) + (xi ** 2).sum(axis=-1)
        b = 0.3 * np.sin(x[..., -1])
        return d[..., None, None] * eye + b[..., None, None] * swap

    return symbol_from_callable(g, 2, fn, hermitian_valued=True)


def _symbol(g, name):
    return _coupled(g) if name == "coupled" else named_symbol(g, name)


# the pairs of criterion 02 and of the compose-check scenario
SCALAR_PAIRS = [
    ("elliptic_x", "drift"),
    ("sqrt_laplace", "drift"),
    ("schwartz_drift", "elliptic_x"),
    ("laplace+1", "magnetic"),
    ("elliptic_x", "schwartz_drift"),
    ("elliptic_x", "laplace+1"),
    ("mult_cos", "momentum"),
]
FIBER2_PAIRS = [
    ("dirac", "dirac_mass"),
    ("dirac_mass", "coupled"),
    ("coupled", "dirac"),
    ("coupled", "coupled"),
]
COMPOSE_CASES = (
    [(GridSpec(1, 64, 1.0), pq) for pq in SCALAR_PAIRS]
    + [(GridSpec(2, 12, 1.0), pq) for pq in SCALAR_PAIRS]
    + [(GridSpec(1, 64, 1.0, 2), pq) for pq in FIBER2_PAIRS]
    + [(GridSpec(2, 8, 1.0, 2), pq) for pq in FIBER2_PAIRS]
)


@pytest.mark.parametrize(
    "grid, pair", COMPOSE_CASES,
    ids=[f"{g.dim}d-r{g.fiber_dim}-{p}*{q}" for g, (p, q) in COMPOSE_CASES])
def test_compose_equals_oracle_bitwise(grid, pair):
    p, q = (_symbol(grid, name) for name in pair)
    for J in range(4):
        got = compose_symbols(p, q, J)
        want = _compose_oracle(p, q, J)
        assert _same_bits(got.samples, want), J
        assert got.x_independent == (p.x_independent and q.x_independent)


def _random_symbol(g, rng, x_independent, kind):
    n_x = 1 if x_independent else g.n_points
    shape = (n_x, g.n_points, g.fiber_dim, g.fiber_dim)
    a = rng.standard_normal(shape) + 0j
    if kind != "real":
        a.imag = rng.standard_normal(shape)
    if kind == "signed-zeros":
        a.real[rng.random(shape) < 0.3] = -0.0
        a.imag[rng.random(shape) < 0.3] = 0.0
        a[rng.random(shape) < 0.2] = complex(-0.0, -0.0)
    return Symbol(g, 0, a)


@settings(max_examples=60, deadline=None)
@given(dim=st.sampled_from([1, 2]), fiber=st.sampled_from([1, 2]),
       J=st.integers(0, 3), L=st.sampled_from([0.7, 1.0, 3.0]),
       p_indep=st.booleans(), q_indep=st.booleans(),
       kind=st.sampled_from(["complex", "real", "signed-zeros"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_compose_equals_oracle_on_random_samples(dim, fiber, J, L, p_indep,
                                                 q_indep, kind, seed):
    g = GridSpec(dim, 8, L, fiber)
    rng = np.random.default_rng(seed)
    p = _random_symbol(g, rng, p_indep, kind)
    q = _random_symbol(g, rng, q_indep, kind)
    assert _same_bits(compose_symbols(p, q, J).samples,
                      _compose_oracle(p, q, J))
    # a second composition reads p's kept ladder
    assert _same_bits(compose_symbols(p, p, J).samples,
                      _compose_oracle(p, p, J))


@pytest.mark.parametrize("dim", [1, 2])
def test_xi_ladder_is_the_direct_difference_kept_read_only(dim):
    g = GridSpec(dim, 12, 1.0)
    rng = np.random.default_rng(dim)
    p = _random_symbol(g, rng, False, "complex")
    other = _random_symbol(g, rng, False, "complex")
    assert p.xi_difference((0,) * dim) is p.samples
    for beta in _multi_indices(dim, 3):
        d = p.xi_difference(beta)
        assert _same_bits(d, _xi_partial(p.samples, g, beta)), beta
        assert _same_bits(other.xi_difference(beta),
                          _xi_partial(other.samples, g, beta)), beta
        assert p.xi_difference(beta) is d
        if sum(beta):
            assert not d.flags.writeable
            with pytest.raises(ValueError):
                d[0, 0, 0, 0] = 1.0


def _constants_oracle(p, alpha_max, beta_max):
    """max ||d_x^a d_xi^b p|| / (1+|xi|)^(k-|b|), one pair (a, b) at a time."""
    g = p.grid
    absxi = g.frequency_magnitude
    constants = {}
    for alpha in _multi_indices(g.dim, alpha_max):
        da = _x_partial(p, alpha)
        for beta in _multi_indices(g.dim, beta_max):
            norms = _block_norms(_xi_partial(da, g, beta))
            weight = (1.0 + absxi) ** (p.order - sum(beta))
            constants[(alpha, beta)] = float((norms / weight[None, :]).max())
    return constants


def _same_constants(got, want):
    return list(got) == list(want) and _same_bits(
        np.array(list(got.values())), np.array(list(want.values())))


CONSTANTS_CASES = [
    (GridSpec(dim, n, 1.0, 2 if name.startswith("dirac") else 1), name)
    for dim, n in ((1, 64), (2, 16)) for name in NAMED_SYMBOLS
]


@pytest.mark.parametrize(
    "grid, family", CONSTANTS_CASES,
    ids=[f"{g.dim}d-{f}" for g, f in CONSTANTS_CASES])
def test_estimate_constants_equal_oracle_bitwise(grid, family):
    p = named_symbol(grid, family)
    # later calls read the xi-differences of p that earlier calls kept
    for alpha_max, beta_max in ((2, 2), (3, 1), (0, 3)):
        assert _same_constants(estimate_constants(p, alpha_max, beta_max),
                               _constants_oracle(p, alpha_max, beta_max)), (
            alpha_max, beta_max)


@settings(max_examples=25, deadline=None)
@given(dim=st.sampled_from([1, 2]), fiber=st.sampled_from([1, 2]),
       order=st.integers(-2, 2), alpha_max=st.integers(0, 2),
       beta_max=st.integers(0, 2), x_indep=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_estimate_constants_equal_oracle_on_random_samples(
        dim, fiber, order, alpha_max, beta_max, x_indep, seed):
    g = GridSpec(dim, 8, 1.0, fiber)
    p = _random_symbol(g, np.random.default_rng(seed), x_indep, "complex")
    p = Symbol(g, order, p.samples)
    assert p.x_independent == x_indep
    assert _same_constants(estimate_constants(p, alpha_max, beta_max),
                           _constants_oracle(p, alpha_max, beta_max))


PARAMETRIX_CASES = [
    (GridSpec(1, 64, 2.0), "elliptic_x", 4.0),
    (GridSpec(1, 128, 4.0), "elliptic_x", 8.0),
    (GridSpec(1, 64, 2.0), "laplace+1", 4.0),
    (GridSpec(1, 128, 2.0), "magnetic", 4.0),
    (GridSpec(1, 32, 1.0, 2), "coupled", 1.0),
    (GridSpec(2, 8, 1.0), "coupled", 1.0),
    (GridSpec(2, 8, 1.0, 2), "coupled", 1.0),
]


@pytest.mark.parametrize(
    "grid, family, width", PARAMETRIX_CASES,
    ids=[f"{g.dim}d-N{g.points_per_axis}-r{g.fiber_dim}-{f}"
         for g, f, _w in PARAMETRIX_CASES])
def test_parametrix_equals_oracle_bitwise(grid, family, width, monkeypatch):
    made = _counting_residuals(monkeypatch)
    p = _symbol(grid, family)
    P = quantize(p)
    for J in range(4):
        res = build_parametrix(P, p, J, width, norm_range=2)
        want = _parametrix_oracle(P, p, J, width)
        assert _same_bits(res.Q.matrix, want["Q"]), J
        assert _same_bits(res.S1.matrix, want["S1"]), J
        # the first ("S2", k, l) read forms S2 = I - QP
        res.residual_norms[("S2", 0, 0)]
        assert _same_bits(made[-1].matrix, want["S2"]), J
        assert res.defect_history == want["history"]
        assert res.diverged == want["diverged"]
        assert res.worst_cell == want["worst"]
        S = {tag: DiscreteOperator(grid, -1000, want[tag],
                                   provenance="smoothing")
             for tag in ("S1", "S2")}
        off = want["offband"]
        for tag, k, l in res.residual_norms:
            assert res.residual_norms[(tag, k, l)] == op_norm(
                S[tag], -float(k), float(l))
        for (k, l), norm in res.off_band_norms.items():
            assert norm == op_norm(S["S1"], -float(k), float(l), off)
        for (k, l), norm in res.band_norms.items():
            assert norm == op_norm(S["S1"], -float(k), float(l), ~off)


def test_diverging_parametrix_equals_oracle_bitwise():
    g = GridSpec(1, 32, 0.5)
    p = named_symbol(g, "elliptic_x", {"a": 1.05})
    P = quantize(p)
    res = build_parametrix(P, p, 3, excision_width=4.0)
    want = _parametrix_oracle(P, p, 3, 4.0)
    assert want["diverged"] and res.diverged
    assert res.worst_cell == want["worst"]
    assert res.defect_history == want["history"]
    assert _same_bits(res.Q.matrix, want["Q"])


def _counting_residuals(monkeypatch):
    made = []
    identity_defect = parametrix._identity_defect

    def counting(*args):
        made.append(identity_defect(*args))
        return made[-1]

    monkeypatch.setattr(parametrix, "_identity_defect", counting)
    return made


def test_band_tables_never_form_s2(monkeypatch):
    made = _counting_residuals(monkeypatch)
    g = GridSpec(1, 64, 2.0)
    p = named_symbol(g, "elliptic_x")
    res = build_parametrix(quantize(p), p, 2, excision_width=4.0,
                           norm_range=2)
    assert len(made) == 1 and made[0] is res.S1
    for key in res.off_band_norms:
        res.off_band_norms[key]
        res.band_norms[key]
        res.residual_norms[("S1",) + key]
    assert len(made) == 1
    res.residual_norms[("S2", 1, 0)]
    assert len(made) == 2
    res.residual_norms[("S2", 0, 1)]
    assert len(made) == 2


def test_s2_entries_share_one_operator(monkeypatch):
    made = _counting_residuals(monkeypatch)
    seen = []
    norm = parametrix.op_norm

    def recording(A, *args):
        seen.append(A)
        return norm(A, *args)

    monkeypatch.setattr(parametrix, "op_norm", recording)
    g = GridSpec(1, 64, 2.0)
    p = named_symbol(g, "elliptic_x")
    res = build_parametrix(quantize(p), p, 1, excision_width=4.0,
                           norm_range=2)
    res.residual_norms[("S2", 0, 1)]
    res.residual_norms[("S2", 1, 1)]
    assert seen[0] is seen[1] is made[1]
    # the first S2 norm kept the representation on the shared operator
    assert "frequency_rep" in vars(made[1])


@pytest.mark.parametrize("read_s2", ["table", "never"])
def test_dropping_the_result_frees_the_residuals_without_gc(monkeypatch,
                                                            read_s2):
    # S1 and S2 are recorded by weak reference as they are formed
    made = []
    identity_defect = parametrix._identity_defect

    def recording(*args):
        residual = identity_defect(*args)
        made.append(weakref.ref(residual))
        return residual

    monkeypatch.setattr(parametrix, "_identity_defect", recording)
    g = GridSpec(1, 64, 2.0)
    p = named_symbol(g, "elliptic_x")
    P = quantize(p)
    gc.collect()
    gc.disable()
    try:
        res = build_parametrix(P, p, 2, excision_width=4.0, norm_range=2)
        res.off_band_norms[(0, 0)]
        if read_s2 == "table":
            res.residual_norms[("S2", 0, 0)]
        refs = made + [weakref.ref(res.Q)]
        assert len(refs) == (3 if read_s2 == "table" else 2)
        del res
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()
