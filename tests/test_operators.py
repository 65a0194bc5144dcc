import math
import tracemalloc
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusop import operators
from torusop.funcalc import spectral_data, wave_operator
from torusop.lattice import GridSpec, Section
from torusop.operators import (
    SELF_ADJOINT_TOL,
    _TILE,
    DiscreteOperator,
    _circulant_matrix,
    _hermitian_kernel,
    _hermitian_part,
    _kn_matrix,
    _multiplier_samples,
    apply_operator,
    commutator,
    compose,
    decay_profile,
    fourier_multiplier,
    multiplication_operator,
    multiplier_matrix,
    op_norm,
    quantize,
    symmetrize,
)
from torusop.symbols import NAMED_SYMBOLS, named_symbol, symbol_from_callable


def test_quantize_identity():
    g = GridSpec(1, 64, 1.0)
    one = symbol_from_callable(g, 0, lambda x, xi: 1.0 + 0.0 * xi[..., 0],
                               hermitian_valued=True, x_independent=True)
    P = quantize(one)
    assert np.abs(P.matrix - np.eye(g.state_dim)).max() <= 1e-12


def test_quantize_frequency_multiplier_on_plane_waves():
    g = GridSpec(1, 64, 2.0)
    P = quantize(named_symbol(g, "momentum"))
    for m in (-20, -3, 0, 7, 25):
        u = Section(g, np.exp(1j * (m / g.period_scale) * g.points))
        v = apply_operator(P, u)
        assert np.abs(v.values - (m / g.period_scale) * u.values).max() \
            <= 1e-11 * max(1.0, abs(m))


def test_quantize_mult_symbol_is_diagonal():
    g = GridSpec(1, 32, 1.0)
    P = quantize(named_symbol(g, "mult_cos"))
    expect = np.diag(2.0 + np.cos(g.points[:, 0]))
    assert np.abs(P.matrix - expect).max() <= 1e-12


def test_mapping_order_stability():
    # ||P||_{s, s-k} drifts under 10% across N doubling and L doubling
    for pname, k in (("laplace+1", 2), ("elliptic_x", 2), ("momentum", 1)):
        vals = []
        for N, L in ((64, 1.0), (128, 1.0), (64, 2.0)):
            g = GridSpec(1, N, L)
            P = quantize(named_symbol(g, pname))
            vals.append(op_norm(P, 0.0, float(-k)))
        assert max(vals) <= 1.10 * min(vals)


def test_composition_order_and_propagation_bookkeeping():
    g = GridSpec(1, 64, 1.0)
    A = multiplication_operator(g, np.cos(g.points[:, 0]))
    B = multiplication_operator(g, np.sin(g.points[:, 0]))
    C = compose(A, B)
    assert C.order == 0
    offdiag = C.matrix - np.diag(np.diag(C.matrix))
    assert np.abs(offdiag).max() == 0.0


def test_adjoint_and_symmetrize():
    g = GridSpec(1, 64, 1.0)
    P = quantize(named_symbol(g, "drift"))
    assert not P.self_adjoint
    S = symmetrize(P)
    assert S.self_adjoint
    expected = (P.matrix + P.matrix.conj().T) / 2.0
    assert S.matrix.tobytes() == expected.tobytes()
    # a one-step shift: not Hermitian, with a propagation speed to carry
    n = g.n_points
    B = DiscreteOperator(g, 1, np.diag(np.cos(g.points[:, 0]))
                         + 2.0 * np.roll(np.eye(n), 1, axis=1),
                         provenance="composed", propagation_speed=1.0)
    for A in (P, B):
        SA = symmetrize(A)
        assert SA.self_adjoint
        for name in ("grid", "order", "provenance", "propagation_speed"):
            assert getattr(SA, name) == getattr(A, name), name
    # symmetrization perturbs P by a bounded (order-zero) correction
    D = DiscreteOperator(g, 0, S.matrix - P.matrix, provenance="composed")
    assert np.isfinite(op_norm(D, 0.0, 0.0))


def test_commutator_drops_an_order_exactly_on_a_scalar_bundle():
    rng = np.random.default_rng(3)
    # fiber 1: even plain operators, built from bare matrices, drop one
    g = GridSpec(1, 16, 1.0)
    A = DiscreteOperator(g, 2, rng.standard_normal((16, 16)),
                         provenance="composed")
    B = DiscreteOperator(g, 1, rng.standard_normal((16, 16)),
                         provenance="composed")
    assert commutator(A, B).order == 2
    # fiber 2: matrix principal symbols need not commute, so no order drops,
    # not even for multipliers and multiplications
    g2 = GridSpec(1, 16, 1.0, fiber_dim=2)
    pairs = [
        (quantize(named_symbol(g2, "dirac")),
         quantize(named_symbol(g2, "dirac_mass"))),
        (fourier_multiplier(g2, lambda xi: xi[..., 0], order=1),
         multiplication_operator(g2, np.cos(g2.points[:, 0]))),
    ]
    for P, Q in pairs:
        assert commutator(P, Q).order == P.order + Q.order


def test_commutator_of_commuting_multipliers_vanishes():
    g = GridSpec(1, 32, 1.0)
    A = multiplication_operator(g, np.cos(g.points[:, 0]))
    B = multiplication_operator(g, np.sin(g.points[:, 0]))
    assert np.abs(commutator(A, B).matrix).max() <= 1e-14


def test_fourier_multiplier_translation_exact():
    g = GridSpec(1, 128, 1.0)
    P = fourier_multiplier(g, lambda xi: xi[..., 0], order=1,
                           propagation_speed=1.0)
    # e^{ihP} = e^{h d/dx} with h = one grid step: shift toward smaller index
    from torusop.funcalc import wave_columns, wave_operator
    U = wave_operator(P, g.spacing)
    rng = np.random.default_rng(1)
    u = Section(g, rng.standard_normal((g.n_points, 1)) + 0j)
    v = apply_operator(U, u)
    assert np.abs(v.values - np.roll(u.values, -1, axis=0)).max() <= 1e-12
    _cols, bound = wave_columns(P, g.spacing, np.arange(g.state_dim))
    assert bound == pytest.approx(g.spacing)


def test_op_norm_oracle_on_sobolev_weights():
    # multiplier (1+xi^2)^{1/2} has H^1 -> H^0 norm exactly 1
    g = GridSpec(1, 64, 1.0)
    P = fourier_multiplier(g, lambda xi: np.sqrt(1 + xi[..., 0] ** 2),
                           order=1)
    assert op_norm(P, 1.0, 0.0) == pytest.approx(1.0, rel=1e-9)


def _counting_representations(monkeypatch):
    """A list that grows by one per frequency representation taken."""
    calls, to_rep = [], operators._to_fourier_rep

    def counting(A):
        calls.append(A)
        return to_rep(A)

    monkeypatch.setattr(operators, "_to_fourier_rep", counting)
    return calls


def test_op_norm_takes_one_representation_per_operator(monkeypatch):
    g = GridSpec(1, 32, 1.0)
    P = quantize(named_symbol(g, "elliptic_x"))
    calls = _counting_representations(monkeypatch)
    first = op_norm(P, 0.0, -2.0)
    op_norm(P, 1.0, 0.0, g.frequency_magnitude > 4.0)
    assert op_norm(P, 0.0, -2.0) == first
    assert calls == [P]
    decay_profile(P, num_shells=4, norm_range=1)
    assert calls == [P]


def test_frequency_rep_is_read_only():
    g = GridSpec(1, 32, 1.0)
    P = quantize(named_symbol(g, "drift"))
    rep = P.frequency_rep
    assert rep is P.frequency_rep
    with pytest.raises(ValueError, match="read-only"):
        rep[0, 0] = 1.0
    with pytest.raises(FrozenInstanceError):
        P.frequency_rep = rep.copy()
    assert np.array_equal(P.frequency_rep, operators._to_fourier_rep(P))


def test_spectral_data_leaves_the_representation_unset():
    # the multiplier fast path takes its own representation and overwrites
    # its diagonal; keeping it on the operator would pin n^2 entries
    g = GridSpec(1, 32, 1.0)
    P = fourier_multiplier(g, lambda xi: xi[..., 0], order=1)
    assert spectral_data(P).vectors is None
    assert "frequency_rep" not in vars(P)


def test_decay_profile_shells_cover_grid():
    g = GridSpec(1, 64, 1.0)
    P = quantize(named_symbol(g, "schwartz_xi"))
    prof = decay_profile(P, num_shells=8, norm_range=1)
    assert len(prof.shells) == 8
    assert prof.shells[0][2] >= prof.shells[-1][2]
    assert all(np.isfinite(v) for v in prof.norms.values())


@pytest.mark.parametrize("grid", [GridSpec(1, 64, 1.5), GridSpec(2, 8, 1.0)],
                         ids=["1d-N64", "2d-N8"])
def test_quantize_x_independent_equals_fourier_multiplier(grid):
    # one kernel builder serves both; an even symbol samples the Nyquist
    # slot as the multiplier does, so the matrices agree bit for bit
    P = quantize(named_symbol(grid, "laplace+1"))
    M = fourier_multiplier(grid, lambda xi: 1 + (xi ** 2).sum(-1), order=2)
    assert np.abs(P.matrix - M.matrix).max() == 0.0


@pytest.mark.parametrize("dim,N", [(1, 64), (2, 8)])
def test_quantize_self_adjoint_flag_follows_kernel_defect(dim, N):
    # the flag is set by one scan: max|A - A*| <= SELF_ADJOINT_TOL max|A|
    # on the raw kernel, and a flagged matrix is (A + A*) / 2
    for name in sorted(NAMED_SYMBOLS):
        fiber = 2 if name.startswith("dirac") else 1
        p = named_symbol(GridSpec(dim, N, 1.5, fiber), name)
        raw = _kn_matrix(p.grid, p.samples)
        flag = (np.abs(raw - raw.conj().T).max()
                <= SELF_ADJOINT_TOL * np.abs(raw).max())
        P = quantize(p)
        assert P.self_adjoint == flag, name
        expect = (raw + raw.conj().T) / 2.0 if flag else raw
        assert np.array_equal(P.matrix, expect), name


def _random_multiplier(dim, N, seed, real):
    g = GridSpec(dim, N, 1.0)
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(g.n_points)
    if not real:
        vals = vals + 1j * rng.standard_normal(g.n_points)
    return g, vals, fourier_multiplier(g, lambda xi: vals, order=1,
                                       propagation_speed=1.0)


@settings(max_examples=20, deadline=None)
@given(grid=st.sampled_from(((1, 16), (1, 32), (2, 4), (2, 8))),
       seed=st.integers(0, 2 ** 32 - 1), real=st.booleans(),
       s=st.floats(-2.0, 2.0), t=st.floats(-2.0, 2.0))
def test_op_norm_of_a_multiplier_is_its_weighted_sup(grid, seed, real, s, t):
    g, vals, A = _random_multiplier(*grid, seed, real)
    weight = lambda r: (1.0 + (g.frequencies ** 2).sum(axis=-1)) ** (r / 2.0)
    expect = float((np.abs(vals) * weight(t) / weight(s)).max())
    assert op_norm(A, s, t) == pytest.approx(expect, rel=1e-12)


def _gathered_kn_matrix(grid, a):
    """The kernel matrix read through (j - k) mod N index arrays: the
    oracle for the circulant view of _kn_matrix."""
    d, N = grid.dim, grid.points_per_axis
    n, r = grid.n_points, grid.fiber_dim
    shape = grid.grid_shape()
    m = a.shape[0]
    x_shape = shape if m == n else (1,) * d
    b = np.fft.ifftn(a.reshape(x_shape + shape + (r, r)),
                     axes=tuple(range(d, 2 * d)))
    ix = np.ix_(*[np.arange(N)] * (2 * d))
    j, k = ix[:d], ix[d:]
    x = j if m == n else (0,) * d
    kern = b[x + tuple((ji - ki) % N for ji, ki in zip(j, k))]
    return kern.reshape(n, n, r, r).transpose(0, 2, 1, 3).reshape(n * r, n * r)


@pytest.mark.parametrize("dim,N", [(1, 32), (2, 8)])
@pytest.mark.parametrize("fiber", [1, 2])
@pytest.mark.parametrize("x_dependent", [False, True])
def test_kn_matrix_equals_offset_gather(dim, N, fiber, x_dependent):
    g = GridSpec(dim, N, 1.0, fiber)
    rng = np.random.default_rng([dim, N, fiber])
    shape = (g.n_points if x_dependent else 1, g.n_points, fiber, fiber)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    got = _kn_matrix(g, a)
    assert got.flags.c_contiguous and got.flags.writeable
    assert np.array_equal(got, _gathered_kn_matrix(g, a))


@pytest.mark.parametrize("dim,N", [(1, 32), (2, 8)])
@pytest.mark.parametrize("fiber", [1, 2])
def test_multiplier_columns_equal_full_matrix_columns(dim, N, fiber):
    # any states, in any order and with repeats, not only whole points
    g = GridSpec(dim, N, 1.0, fiber)
    rng = np.random.default_rng([dim, N, fiber, 1])
    values = (rng.standard_normal(g.state_dim)
              + 1j * rng.standard_normal(g.state_dim))
    full = multiplier_matrix(g, values)
    for states in (np.arange(g.state_dim), np.array([3]),
                   rng.choice(g.state_dim, 7, replace=False),
                   np.array([5, 0, 5, g.state_dim - 1])):
        got = multiplier_matrix(g, values, states)
        want = np.ascontiguousarray(full[:, states])
        assert got.flags.c_contiguous
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), \
            states


def _random_matrix(n, seed, hermitian):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if hermitian:
        a = a + a.conj().T
        a[1, 2] += 1e-13  # a defect at roundoff level
    return a


@pytest.mark.parametrize("grid", [GridSpec(2, 20, 1.0), GridSpec(1, 36, 1.0, 2)],
                         ids=["2d-N20", "1d-fiber2-N36"])
@pytest.mark.parametrize("hermitian", [True, False])
def test_hermitian_part_equals_full_matrix_expressions(grid, hermitian):
    n = grid.state_dim
    assert n % _TILE != 0
    a = _random_matrix(n, n, hermitian)
    full = np.abs(a - a.conj().T).max()
    defect, herm = _hermitian_part(a, full)
    assert defect == full
    assert np.array_equal(herm.view(np.int64),
                          ((a + a.conj().T) / 2.0).view(np.int64))
    # just under the defect: no output, and still the whole defect
    assert _hermitian_part(a, np.nextafter(full, 0.0)) == (full, None)


def _panel_hermitian_part(a, tol):
    """The row-panel scan that ``_hermitian_part``'s tile pairs replaced.

    Each block of 64 rows is paired with the conjugate transpose of the
    same block of columns; the oracle of the tiled scan.
    """
    out = np.empty_like(a)
    defect = 0.0
    for i in range(0, a.shape[0], 64):
        rows = slice(i, i + 64)
        ct = a[:, rows].conj().T
        defect = max(defect, float(np.abs(a[rows] - ct).max()))
        if defect <= tol:
            np.add(a[rows], ct, out=out[rows])
            out[rows] /= 2.0
    return defect, (out if defect <= tol else None)


@pytest.mark.parametrize("dim,N", [(1, 144), (2, 12)])
def test_hermitian_part_tiles_equal_the_panel_scan(dim, N):
    # compared as uint64, since float equality would hide a flipped signed
    # zero: every named symbol's matrix (fiber 1 and 2, n not a multiple of
    # the tile) and a random non-Hermitian one, at the self-adjoint
    # tolerance and at tol = inf (symmetrize's pass)
    cases = []
    for name in sorted(NAMED_SYMBOLS):
        fiber = 2 if name.startswith("dirac") else 1
        p = named_symbol(GridSpec(dim, N, 1.5, fiber), name)
        cases.append(_kn_matrix(p.grid, p.samples))
    cases.append(_random_matrix(cases[0].shape[0], dim, hermitian=False))
    assert {a.shape[0] % _TILE != 0 for a in cases} == {True}
    assert len({a.shape[0] for a in cases}) == 2
    outcomes = set()
    for a in cases:
        scale = float(np.abs(a).max())
        for tol in (SELF_ADJOINT_TOL * scale, math.inf):
            defect, herm = _hermitian_part(a, tol)
            want_defect, want = _panel_hermitian_part(a, tol)
            assert defect == want_defect
            outcomes.add(want is None)
            if want is None:
                assert herm is None
            else:
                assert np.array_equal(herm.view(np.uint64),
                                      want.view(np.uint64))
    assert outcomes == {True, False}


def test_self_adjoint_flag_keeps_its_check():
    g = GridSpec(2, 20, 1.0)
    a = _random_matrix(g.state_dim, 7, True)
    A = DiscreteOperator(g, 0, a, self_adjoint=True)
    assert np.array_equal(A.matrix, (a + a.conj().T) / 2.0)
    assert A.self_adjoint
    a[3, 5] += 1e-6
    with pytest.raises(ValueError, match="operator flagged self_adjoint but "
                       f"defect {np.abs(a - a.conj().T).max():.3e}"):
        DiscreteOperator(g, 0, a, self_adjoint=True)


def test_self_adjoint_check_allocates_one_output():
    g = GridSpec(1, 1024, 1.0)
    a = _random_matrix(g.state_dim, 0, True)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        A = DiscreteOperator(g, 0, a, self_adjoint=True)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * A.matrix.nbytes


def _adjoint_kernel(b, N, dim):
    """b(-delta)*^T by explicit (-i) mod N index arrays."""
    flip = b[np.ix_(*[(-np.arange(N)) % N] * dim)]
    return flip.conj().swapaxes(-1, -2)


@pytest.mark.parametrize("dim,N", [(1, 20), (2, 6)])
@pytest.mark.parametrize("fiber", [1, 2])
@pytest.mark.parametrize("hermitian", [True, False])
def test_hermitian_kernel_equals_panel_scan(dim, N, fiber, hermitian):
    # the kernel-level check against the panel scan of the expanded matrix:
    # the same defect, and bitwise the same Hermitian part, with the
    # tolerance exactly at the defect and one ulp below it
    g = GridSpec(dim, N, 1.0, fiber)
    rng = np.random.default_rng([dim, N, fiber, hermitian])
    shape = g.grid_shape() + (fiber, fiber)
    b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if hermitian:
        b = b + _adjoint_kernel(b, N, dim)
        b[(1,) * dim + (0, 0)] += 1e-13  # a defect at roundoff level
    mat = _circulant_matrix(g, b)
    full = np.abs(mat - mat.conj().T).max()
    assert full > 0
    for tol in (full, np.nextafter(full, 0.0)):
        defect, herm = _hermitian_kernel(b, tol)
        want_defect, want = _panel_hermitian_part(mat, tol)
        assert defect == want_defect == full
        if tol < full:
            assert herm is None and want is None
        else:
            assert np.array_equal(_circulant_matrix(g, herm).view(np.int64),
                                  want.view(np.int64))


def _panel_route(grid, a):
    """quantize's flag and matrix by the panel scan of the whole matrix."""
    raw = _kn_matrix(grid, a)
    scale = float(np.abs(raw).max()) or 1.0
    _defect, herm = _panel_hermitian_part(raw, SELF_ADJOINT_TOL * scale)
    return herm is not None, raw if herm is None else herm


@pytest.mark.parametrize("dim,N", [(1, 64), (2, 8)])
def test_x_independent_operators_skip_the_panel_scan(dim, N, monkeypatch):
    # quantize and fourier_multiplier flag and symmetrize on the kernel,
    # bitwise as the panel scan would, signed zeros included
    cases = []
    for name in sorted(NAMED_SYMBOLS):
        if NAMED_SYMBOLS[name]({})[3]:
            fiber = 2 if name.startswith("dirac") else 1
            p = named_symbol(GridSpec(dim, N, 1.5, fiber), name)
            cases.append((p.grid, p.samples, lambda p=p: quantize(p)))
    rng = np.random.default_rng([dim, N])
    for fiber in (1, 2):
        g = GridSpec(dim, N, 1.0, fiber)
        for vals in (rng.standard_normal(g.n_points),
                     rng.standard_normal(g.n_points) + 1j):
            cases.append((g, _multiplier_samples(g, np.repeat(vals, fiber)),
                          lambda g=g, vals=vals: fourier_multiplier(
                              g, lambda xi: vals, order=1)))
    want = [_panel_route(g, a) for g, a, _build in cases]
    assert {flag for flag, _mat in want} == {True, False}

    def no_panel_scan(*_args):
        raise AssertionError("panel scan on an x-independent operator")

    monkeypatch.setattr(operators, "_hermitian_part", no_panel_scan)
    for (_g, _a, build), (flag, mat) in zip(cases, want):
        P = build()
        assert P.self_adjoint == flag
        assert np.array_equal(P.matrix.view(np.int64), mat.view(np.int64))


def _random_operator(g, seed, kind):
    """A quantized symbol, a multiplication operator, a multiplier with a
    propagation speed, or a translation by 1 or 2 steps (a wave operator
    stamped with a propagation bound of that length), by kind."""
    rng = np.random.default_rng(seed)
    if kind == "symbol":
        name = ("laplace+1", "elliptic_x", "drift", "momentum")[seed % 4]
        return quantize(named_symbol(g, name, {"a": rng.uniform(1.5, 3.0)}))
    if kind == "multiplication":
        return multiplication_operator(g, rng.standard_normal(g.n_points))
    if kind == "translation":
        P = fourier_multiplier(g, lambda xi: xi[..., 0], order=1,
                               propagation_speed=1.0)
        return wave_operator(P, (1 + seed % 2) * g.spacing)
    vals = rng.standard_normal(g.n_points)
    return fourier_multiplier(g, lambda xi: vals, order=int(seed % 3) - 1,
                              propagation_speed=1.0)


@settings(max_examples=20, deadline=None)
@given(grid=st.sampled_from(((1, 16), (1, 32), (2, 4), (2, 8))),
       seeds=st.tuples(st.integers(0, 2 ** 32 - 1), st.integers(0, 2 ** 32 - 1)),
       kinds=st.tuples(*[st.sampled_from(("symbol", "multiplication",
                                          "multiplier", "translation"))] * 2))
def test_compose_and_commutator_keep_their_bookkeeping(grid, seeds, kinds):
    g = GridSpec(*grid, 1.0)
    A, B = (_random_operator(g, s, k) for s, k in zip(seeds, kinds))
    C, K = compose(A, B), commutator(A, B)
    assert C.order == A.order + B.order
    # a scalar bundle: the principal symbols commute
    assert K.order == A.order + B.order - 1
    assert np.array_equal(C.matrix, A.matrix @ B.matrix)
    assert np.array_equal(K.matrix, A.matrix @ B.matrix - B.matrix @ A.matrix)
