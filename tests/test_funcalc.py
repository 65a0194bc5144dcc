import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from torusop import funcalc, operators
from torusop.lattice import GridSpec, ball_region, from_frequency
from torusop.operators import (
    DiscreteOperator,
    fourier_multiplier,
    multiplication_operator,
    quantize,
    symmetrize,
)
from torusop.funcalc import (
    NAMED_FUNCTIONS,
    SPECTRAL_REL_TOL,
    ScalarFunctionSpec,
    SpectralData,
    _gate_passes,
    _propagation_bound,
    _trapezoid,
    chi_resolvent_integral,
    fourier_apply,
    named_function,
    psi_difference_bound,
    spectral_apply,
    spectral_data,
    wave_columns,
    wave_operator,
)
from torusop.symbols import named_symbol


def _p(N=64, L=1.0, name="laplace+1"):
    g = GridSpec(1, N, L)
    return quantize(named_symbol(g, name))


def test_spectral_data_reconstructs():
    P = _p()
    sd = spectral_data(P)
    rec = sd.apply(sd.eigenvalues.astype(complex))
    assert np.abs(rec - P.matrix).max() <= 1e-9 * np.abs(P.matrix).max()


def test_spectral_data_rejects_corrupted_decomposition():
    P = _p(N=32, name="elliptic_x")
    vals, vecs = scipy.linalg.eigh(P.matrix)
    SpectralData(vals, vecs, P)
    bad_vecs = vecs.copy()
    bad_vecs[:, 3] *= 1.0 + 1e-6
    with pytest.raises(ValueError, match="not unitary"):
        SpectralData(vals, bad_vecs, P)
    bad_vals = vals.copy()
    bad_vals[3] += 1e-6 * np.abs(vals).max()
    with pytest.raises(ValueError, match="reconstruction defect"):
        SpectralData(bad_vals, vecs, P)


@settings(max_examples=60, deadline=None)
@given(half_n=st.integers(2, 12), seed=st.integers(0, 2 ** 32 - 1),
       log_size=st.floats(-14.0, -6.0))
def test_spectral_gate_is_one_sided(half_n, seed, log_size):
    # a decomposition of A checked against A + E, |E| = 10^log_size |A|
    n = 2 * half_n
    g = GridSpec(1, n, 1.0)
    rng = np.random.default_rng(seed)

    def hermitian():
        h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return (h + h.conj().T) / 2.0

    a = hermitian()
    e = hermitian()
    e *= 10.0 ** log_size * np.linalg.norm(a, 2) / np.linalg.norm(e, 2)
    vals, vecs = scipy.linalg.eigh(a)
    src = DiscreteOperator(g, 0, a + e, provenance="composed",
                           self_adjoint=True)
    m = src.matrix
    d = (vecs * vals.astype(complex)[None, :]) @ vecs.conj().T - m
    exact_ok = (np.linalg.norm(d, 2)
                <= SPECTRAL_REL_TOL * (np.linalg.norm(m, 2) or 1.0))
    cheap_ok = _gate_passes(d, m, vecs[:, np.argmax(np.abs(vals))])
    assert exact_ok or not cheap_ok
    if log_size <= -11.0:
        assert cheap_ok
    if exact_ok:
        SpectralData(vals, vecs, src)
    else:
        with pytest.raises(ValueError, match="reconstruction defect"):
            SpectralData(vals, vecs, src)


@pytest.mark.parametrize("grid", [GridSpec(1, 64, 1.0), GridSpec(2, 8, 1.0, 2)],
                         ids=["1d-r1", "2d-r2"])
def test_spectral_data_fourier_path_rejects_corruption(grid):
    P = fourier_multiplier(grid, lambda xi: 1.0 + (xi ** 2).sum(axis=-1),
                           order=2)
    vals = spectral_data(P).eigenvalues
    SpectralData(vals, None, P)
    bad_vals = vals.copy()
    bad_vals[3] += 1e-6 * np.abs(vals).max()
    with pytest.raises(ValueError, match="reconstruction defect"):
        SpectralData(bad_vals, None, P)
    # eigenvalue i belongs to frequency state i: a swap moves two of them
    swapped = vals.copy()
    swapped[[0, -1]] = swapped[[-1, 0]]
    with pytest.raises(ValueError, match="reconstruction defect"):
        SpectralData(swapped, None, P)


def test_spectral_gate_passes_on_wave_scan_multiplier():
    # the cheap bounds decide at the wave-scan size, with no SVD
    g = GridSpec(1, 1024, 8.0)
    P = fourier_multiplier(g, lambda xi: 1.0 + xi[..., 0] ** 2, order=2)
    sd = spectral_data(P)
    # the eigenvector of the largest eigenvalue, a plane wave
    x = np.zeros(g.state_dim, dtype=complex)
    x[np.argmax(np.abs(sd.eigenvalues))] = 1.0
    x = from_frequency(g, x)
    assert _gate_passes(sd.apply(sd.eigenvalues) - P.matrix, P.matrix, x)


def test_spectral_data_multiplier_fast_path():
    g = GridSpec(1, 64, 1.0)
    P = fourier_multiplier(g, lambda xi: np.cos(xi[..., 0]), order=0)
    sd = spectral_data(P)
    # in frequency-state order, with no sort
    assert np.abs(sd.eigenvalues
                  - np.cos(g.frequencies[:, 0])).max() <= 1e-12


@pytest.mark.parametrize("grid", [GridSpec(1, 64, 1.0), GridSpec(2, 8, 1.0, 2)],
                         ids=["1d-r1", "2d-r2"])
def test_plain_operator_holding_a_multiplier_takes_the_fourier_path(
        grid, monkeypatch):
    # the path is chosen from the matrix, not from how the operator was built
    P = fourier_multiplier(grid, lambda xi: 1.0 + (xi ** 2).sum(axis=-1),
                           order=2)
    plain = DiscreteOperator(grid, 2, P.matrix, provenance="composed",
                             self_adjoint=True)

    def no_eigh(*args, **kwargs):
        raise AssertionError("dense eigensolve on a multiplier")

    monkeypatch.setattr(scipy.linalg, "eigh", no_eigh)
    sd = spectral_data(plain)
    assert sd.vectors is None and sd.source is plain
    want = spectral_data(P).eigenvalues
    assert sd.eigenvalues.tobytes() == want.tobytes()


# the class of each named function: the gaussian is the wave route's
# Schwartz function, the other two normalize chi(P)
FUNCTION_CLASSES = {"gaussian": "schwartz", "chi_rational": "normalizing",
                    "si_normalizing": "normalizing"}


def _in_class(spec, cls) -> bool:
    """Whether ``spec`` is in class ``cls`` on 8001 points of [-40, 40].

    For "schwartz" the constants C_n = sup |f^(n)| (1+|x|)^(n+8), n = 0..4,
    must be finite; a "normalizing" function must be odd, positive on the
    positives and tend to 1.
    """
    x = np.linspace(-40.0, 40.0, 8001)
    f = np.asarray(spec.fn(x), dtype=float)
    if cls == "schwartz":
        for n in range(5):
            weight = (1.0 + np.abs(x)) ** (n + 8)
            if not np.isfinite((np.abs(f) * weight).max()):
                return False
            f = np.gradient(f, x, edge_order=2)
        return True
    big = np.array([1e4, 1e5, 1e6])
    return (np.abs(f + spec.fn(-x)).max() <= 1e-10 and (f[x > 0] > 0).all()
            and np.abs(np.asarray(spec.fn(big)) - 1.0).max() <= 1e-3)


def test_named_function_specs_verify():
    assert FUNCTION_CLASSES.keys() == NAMED_FUNCTIONS.keys()
    for name, cls in FUNCTION_CLASSES.items():
        assert _in_class(named_function(name), cls), name


def test_wave_operator_unitary_group():
    P = _p()
    sd = spectral_data(P)
    U = wave_operator(P, 0.3, spectral=sd)
    V = wave_operator(P, 0.5, spectral=sd)
    UV = U.matrix @ V.matrix
    W = wave_operator(P, 0.8, spectral=sd)
    eye = np.eye(P.grid.state_dim)
    assert np.abs(U.matrix @ U.matrix.T.conj() - eye).max() <= 1e-12
    assert np.abs(UV - W.matrix).max() <= 1e-12


def test_fourier_route_matches_oracle():
    P = _p(N=64, L=2.0, name="sqrt_laplace")
    f = named_function("gaussian", {"sigma": 1.0})
    res = fourier_apply(P, f, n_quad=512)
    assert res.defect <= 1e-8


def test_fourier_route_needs_a_closed_form_transform():
    P = _p(N=32, L=2.0, name="sqrt_laplace")
    for name in ("chi_rational", "si_normalizing"):
        with pytest.raises(ValueError, match="closed-form transform"):
            fourier_apply(P, named_function(name))


def test_resolvent_route_matches_oracle():
    P = _p(N=64, L=2.0, name="sqrt_laplace")
    res = chi_resolvent_integral(P, n_quad=4096)
    assert res.defect <= 1e-5


def _direct_wave_values(fhat, x, t_max, n_quad):
    """The wave route's trapezoid values on x from the full n_quad x len(x)
    phase table, and the sum of |w fhat(t)| that bounds their rounding: the
    oracle of the two-level sum."""
    t, w = _trapezoid(t_max, n_quad)
    coef = w * np.asarray(fhat(t), dtype=complex)
    phases = np.outer(t, x) * 1j
    np.exp(phases, out=phases)
    return coef @ phases / np.sqrt(2 * np.pi), float(np.abs(coef).sum())


def _wave_route_operator(f, t_max, n_quad, sd):
    """f(P) by the wave route as a dense operator: the oracle that
    fourier_apply's defect is checked against."""
    return sd.apply(_direct_wave_values(f.fhat, sd.eigenvalues, t_max,
                                        n_quad)[0])


def _one_table_resolvent_values(x, n_quad):
    """The resolvent route's values on x from its whole n_quad x len(x)
    table, summed at once: the oracle of the row-blocked sum."""
    lam_min, lam_max = 1e-6, 1e3
    lam = np.geomspace(lam_min, lam_max, n_quad)
    w = np.zeros(n_quad)
    w[1:] += 0.5 * np.diff(lam)
    w[:-1] += 0.5 * np.diff(lam)
    q = 1.0 + lam[:, None] ** 2 + x[None, :] ** 2
    np.divide(x[None, :], q, out=q)
    q *= w[:, None]
    body = (2.0 / np.pi) * q.sum(axis=0)
    root = np.sqrt(1.0 + x ** 2)
    head = (2.0 / np.pi) * (x / root) * np.arctan(lam_min / root)
    tail = (2.0 / np.pi) * (x / root) * (np.pi / 2 - np.arctan(lam_max / root))
    return body + head + tail


def _resolvent_route_operator(n_quad, sd):
    """chi(P) by the resolvent route as a dense operator: the oracle that
    chi_resolvent_integral's defect is checked against."""
    return sd.apply(_one_table_resolvent_values(sd.eigenvalues,
                                                n_quad).astype(complex))


def _route_test_operator(path):
    """A self-adjoint P whose spectral data take the Fourier or the eigh
    path: a multiplier, or a symmetrized x-dependent operator with a
    spectrum of both signs."""
    g = GridSpec(1, 64, 2.0)
    if path == "fourier":
        P = quantize(named_symbol(g, "sqrt_laplace"))
    else:
        P = symmetrize(quantize(named_symbol(g, "drift")))
    sd = spectral_data(P)
    assert (sd.vectors is None) == (path == "fourier")
    return P, sd


def _assert_is_dense_norm(defect, route_matrix, oracle_matrix):
    dense = float(np.linalg.norm(route_matrix - oracle_matrix, 2))
    assert abs(defect - dense) <= 1e-12 * dense + 1e-13, (defect, dense)


@pytest.mark.parametrize("path", ["fourier", "eigh"])
@pytest.mark.parametrize("n_quad", [48, 128, 512, 2048])
def test_wave_route_defect_is_the_operator_norm(path, n_quad):
    # the route and the oracle share P's eigenbasis, so the spectral max of
    # their difference is the L^2 norm of the dense difference
    P, sd = _route_test_operator(path)
    f = named_function("gaussian", {"sigma": 1.0})
    res = fourier_apply(P, f, n_quad=n_quad, spectral=sd)
    _assert_is_dense_norm(res.defect,
                          _wave_route_operator(f, 12.0, n_quad, sd),
                          spectral_apply(P, f, spectral=sd).matrix)


@pytest.mark.parametrize("path", ["fourier", "eigh"])
@pytest.mark.parametrize("n_quad", [16, 128, 1024, 4096])
def test_resolvent_route_defect_is_the_operator_norm(path, n_quad):
    P, sd = _route_test_operator(path)
    chi = named_function("chi_rational")
    res = chi_resolvent_integral(P, n_quad=n_quad, spectral=sd)
    _assert_is_dense_norm(res.defect, _resolvent_route_operator(n_quad, sd),
                          spectral_apply(P, chi, spectral=sd).matrix)


@pytest.mark.parametrize("path", ["fourier", "eigh"])
def test_routes_build_no_operator(monkeypatch, path):
    P, sd = _route_test_operator(path)
    f = named_function("gaussian", {"sigma": 1.0})
    expected = (fourier_apply(P, f, n_quad=256, spectral=sd).defect,
                chi_resolvent_integral(P, n_quad=256, spectral=sd).defect)

    def refuse(*args, **kwargs):
        raise AssertionError("a quadrature route built an operator")

    monkeypatch.setattr(SpectralData, "apply", refuse)
    monkeypatch.setattr(operators, "multiplier_matrix", refuse)
    monkeypatch.setattr(funcalc, "multiplier_matrix", refuse)
    monkeypatch.setattr(DiscreteOperator, "__post_init__", refuse)
    assert (fourier_apply(P, f, n_quad=256, spectral=sd).defect,
            chi_resolvent_integral(P, n_quad=256, spectral=sd).defect
            ) == expected


def _odd_schwartz():
    """f(x) = x e^{-x^2/2}, whose unitary transform -i t e^{-t^2/2} is odd
    and imaginary: unlike the even named functions, it tells e^{itP} from
    e^{-itP}."""
    return ScalarFunctionSpec(
        "odd_gaussian", lambda x: x * np.exp(-x ** 2 / 2.0),
        fhat=lambda t: -1j * t * np.exp(-t ** 2 / 2.0))


@pytest.mark.parametrize("path", ["fourier", "eigh"])
@pytest.mark.parametrize("n_quad", [1024, 2048])
def test_wave_route_tells_the_sign_of_t(path, n_quad):
    # the Fourier path is criterion 07's operator; the symmetrized drift's
    # spectrum is symmetric (+-84), where an even f cannot tell the
    # eigenvalues from their reversal
    if path == "fourier":
        P = quantize(named_symbol(GridSpec(1, 128, 4.0), "sqrt_laplace"))
    else:
        P = symmetrize(quantize(named_symbol(GridSpec(1, 64, 1.0), "drift")))
    sd = spectral_data(P)
    assert (sd.vectors is None) == (path == "fourier")
    assert fourier_apply(P, _odd_schwartz(), n_quad=n_quad,
                         spectral=sd).defect <= 1e-12


def _assert_two_level_matches_direct(fhat, x, t_max, n_quad):
    # the tolerance was fixed before measuring: each value is a sum of
    # n_quad terms of modulus |w_j fhat(t_j)| / sqrt(2 pi)
    want, scale = _direct_wave_values(fhat, x, t_max, n_quad)
    got = funcalc._wave_route(fhat, x, t_max, n_quad)
    assert np.abs(got - want).max() <= 1e-13 * scale, n_quad


@pytest.mark.parametrize("path", ["fourier", "eigh"])
@pytest.mark.parametrize("n_quad", [2, 3, 5, 1000, 2047, 2048, 4097])
def test_two_level_wave_route_matches_direct_table(path, n_quad):
    _P, sd = _route_test_operator(path)
    for f in (named_function("gaussian", {"sigma": 1.0}), _odd_schwartz()):
        _assert_two_level_matches_direct(f.fhat, sd.eigenvalues, 12.0,
                                         n_quad)


_ROUTE_SPECTRA = {path: _route_test_operator(path)[1].eigenvalues
                  for path in ("fourier", "eigh")}


@settings(max_examples=40, deadline=None)
@given(path=st.sampled_from(["fourier", "eigh"]),
       n_quad=st.integers(2, 5000), t_max=st.floats(0.5, 30.0),
       sigma=st.floats(0.2, 3.0), odd=st.booleans())
def test_two_level_wave_route_matches_direct_table_on_draws(
        path, n_quad, t_max, sigma, odd):
    x = _ROUTE_SPECTRA[path]
    fhat = (_odd_schwartz() if odd
            else named_function("gaussian", {"sigma": sigma})).fhat
    _assert_two_level_matches_direct(fhat, x, t_max, n_quad)


@pytest.mark.parametrize("path", ["fourier", "eigh"])
@pytest.mark.parametrize("n_quad", [1000, 2048, 4097])
def test_wave_route_exponentiates_no_full_phase_table(monkeypatch, path,
                                                      n_quad):
    # a baby step per c < b and a giant step per node t[::b]: no argument
    # of np.exp may exceed (a + b) n entries, while the direct table has
    # n_quad n; fhat and the oracle exponentiate n_quad and n entries, both
    # below that bound for n = 64
    P, sd = _route_test_operator(path)
    n = sd.eigenvalues.size
    b = 1 << (n_quad.bit_length() // 2)
    a = -(-n_quad // b)
    assert n == 64 and n_quad <= (a + b) * n < n_quad * n
    sizes = []
    exp = np.exp

    def counted(arg, *args, **kwargs):
        sizes.append(np.size(arg))
        return exp(arg, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counted)
    fourier_apply(P, named_function("gaussian", {"sigma": 1.0}),
                  n_quad=n_quad, spectral=sd)
    assert sizes and max(sizes) <= (a + b) * n, (max(sizes), a, b)


@pytest.mark.parametrize("n", [1, 3, 64, 1024])
@pytest.mark.parametrize("n_quad", [2, 1000, 4096, 4097])
def test_blocked_resolvent_route_equals_one_table_sum(n, n_quad):
    # 128 rows per block at n = 1024 and 2048 at n = 64: 1000 and 4097 end
    # on a short block; the values, signed zeros included, are the whole
    # table's bit for bit
    rng = np.random.default_rng([n, n_quad])
    x = 30.0 * rng.standard_normal(n)
    x[0] = -0.0
    got = funcalc._resolvent_route(x, n_quad)
    want = _one_table_resolvent_values(x, n_quad)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _wave_scan_multiplier():
    """The wave-scan workload's operator, 1D N=1024, L=8, 1.2 + xi^2."""
    g = GridSpec(1, 1024, 8.0)
    P = fourier_multiplier(g, lambda xi: 1.2 + xi[..., 0] ** 2, order=2)
    return P, spectral_data(P)


def _traced_peak(fn):
    """Peak traced bytes allocated while fn() runs."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_resolvent_route_never_holds_its_whole_table():
    P, sd = _wave_scan_multiplier()
    n, n_quad = sd.eigenvalues.size, 4096
    peak = _traced_peak(
        lambda: chi_resolvent_integral(P, n_quad=n_quad, spectral=sd))
    assert peak < n_quad * n * 8, peak


def test_gaussian_wave_route_defect_is_at_rounding():
    # the wave-scan Gaussian at width 0.25 of the spectral radius: with
    # t[1] - t[0] as the weight the defect read 7.4e-14
    P, sd = _wave_scan_multiplier()
    sigma = 0.25 * sd.spectral_radius
    gauss = named_function("gaussian", {"sigma": sigma})
    res = fourier_apply(P, gauss, t_max=12.0 / sigma, n_quad=2048,
                        spectral=sd)
    assert res.defect <= 2e-15


def test_trapezoid_weight_is_the_linspace_step():
    for t_max, n in ((12.0, 2048), (16.0, 4096), (0.3, 2), (1e-3, 7)):
        t, w = _trapezoid(t_max, n)
        h = 2.0 * t_max / (n - 1)
        assert np.all(w[1:-1] == h) and w[0] == w[-1] == h / 2
        assert t[0] == -t_max and t[-1] == t_max


def _column_cases():
    """(P, t, region) on 1D and 2D grids with fiber 1 and 2: translations
    with a stamped propagation bound, and multipliers without one."""
    cases = []
    for g in (GridSpec(1, 64, 1.0), GridSpec(1, 32, 1.0, 2),
              GridSpec(2, 12, 1.0), GridSpec(2, 8, 1.0, 2)):
        region = ball_region(g, g.points[g.n_points // 3], 2.0 * g.spacing)
        shift = fourier_multiplier(g, lambda xi: xi[..., 0], order=1,
                                   propagation_speed=1.0)
        heat = fourier_multiplier(g, lambda xi: 1.0 + (xi ** 2).sum(-1),
                                  order=2)
        for t in (2 * g.spacing, 3 * g.spacing, 0.37):
            cases.append((shift, t, region))
        cases.append((heat, 0.3, region))
    return cases


def test_wave_columns_equal_wave_operator_columns():
    stamped = 0
    for P, t, region in _column_cases():
        sd = spectral_data(P)
        assert sd.vectors is None
        states = np.flatnonzero(np.repeat(region.mask, P.grid.fiber_dim))
        U = wave_operator(P, t, spectral=sd)
        cols, bound = wave_columns(P, t, states, spectral=sd)
        want = np.ascontiguousarray(U.matrix[:, states])
        assert bound == _propagation_bound(P, t)
        assert np.array_equal(cols.view(np.int64), want.view(np.int64))
        if bound is not None:
            stamped += 1
            # the stamp zeroed whole columns' worth of entries exactly
            assert np.count_nonzero(cols == 0) > cols.size // 2
    assert stamped == 8


def test_wave_columns_raise_what_wave_operator_raises():
    # a declared speed that the multiplier does not have
    for g in (GridSpec(1, 64, 1.0), GridSpec(2, 8, 1.0, 2)):
        P = fourier_multiplier(g, lambda xi: 1.0 + (xi ** 2).sum(-1),
                               order=2, propagation_speed=1.0)
        sd = spectral_data(P)
        states = np.arange(g.fiber_dim)
        with pytest.raises(ValueError, match="propagation bound") as full:
            wave_operator(P, 2 * g.spacing, spectral=sd)
        with pytest.raises(ValueError, match="propagation bound") as cols:
            wave_columns(P, 2 * g.spacing, states, spectral=sd)
        assert str(cols.value) == str(full.value)


def test_wave_columns_on_the_eigh_path_stamp_a_gauged_translation():
    # P = M F M* with M = e^{i cos x} and F the xi multiplier is no
    # multiplier, so it takes the eigh path; e^{itP} = M S M* for the
    # 3-step shift S, which moves a section by |t| = 3h and no further
    g = GridSpec(1, 64, 1.0)
    n, t = g.n_points, 3 * g.spacing
    m = np.exp(1j * np.cos(g.points[:, 0]))
    F = fourier_multiplier(g, lambda xi: xi[..., 0], order=1).matrix
    P = DiscreteOperator(g, 1, (m[:, None] * F) * m.conj()[None, :],
                         provenance="composed", self_adjoint=True,
                         propagation_speed=1.0)
    sd = spectral_data(P)
    assert sd.vectors is not None
    states = np.flatnonzero(ball_region(g, g.points[n // 3],
                                        2.0 * g.spacing).mask)
    cols, bound = wave_columns(P, t, states, spectral=sd)
    U = wave_operator(P, t, spectral=sd).matrix
    want = np.ascontiguousarray(U[:, states])
    assert np.array_equal(cols.view(np.int64), want.view(np.int64))
    assert bound == abs(t)
    beyond = g.pairwise_distance() > bound * (1.0 + 1e-9)
    assert beyond.any() and np.all(U[beyond] == 0)
    shifted = (m[:, None] * np.roll(np.eye(n), 3, axis=1)) * m.conj()[None, :]
    assert np.abs(U - shifted).max() <= 1e-12


def test_wave_columns_on_the_eigh_path_are_the_operator_columns():
    P, sd = _route_test_operator("eigh")
    states = np.arange(5, 17)
    cols, bound = wave_columns(P, 0.4, states, spectral=sd)
    want = np.ascontiguousarray(
        wave_operator(P, 0.4, spectral=sd).matrix[:, states])
    assert bound is None
    assert np.array_equal(cols.view(np.int64), want.view(np.int64))


def test_function_of_multiplier_is_multiplier():
    g = GridSpec(1, 64, 1.0)
    P = fourier_multiplier(g, lambda xi: xi[..., 0] ** 2, order=2)
    f = named_function("gaussian", {"sigma": 1.0})
    FP = spectral_apply(P, f)
    # diagonal in the frequency basis: check on a plane wave
    from torusop.lattice import Section
    from torusop.operators import apply_operator
    m = 5
    u = Section(g, np.exp(1j * m * g.points))
    v = apply_operator(FP, u)
    expect = np.exp(-(m ** 2) ** 2 / 2.0)
    assert np.abs(v.values - expect * u.values).max() <= 1e-10


def test_psi_difference_commuting_multipliers():
    g = GridSpec(1, 96, 1.0)
    psi = named_function("si_normalizing")
    P = fourier_multiplier(g, lambda xi: xi[..., 0], order=1)
    Q = fourier_multiplier(g, lambda xi: np.sqrt(1 + xi[..., 0] ** 2),
                           order=1)
    rep = psi_difference_bound(psi, P, Q)
    assert rep.lhs <= 1.05 * rep.rhs


def test_psi_difference_noncommuting():
    g = GridSpec(1, 96, 1.0)
    psi = named_function("si_normalizing")
    P = symmetrize(quantize(named_symbol(g, "drift")))
    M = multiplication_operator(g, 0.25 * np.cos(g.points[:, 0]))
    Pp = DiscreteOperator(g, 1, P.matrix + M.matrix,
                          provenance="composed", self_adjoint=True)
    rep = psi_difference_bound(psi, P, Pp)
    assert rep.lhs <= 1.05 * rep.rhs


def test_si_normalizing_constant_closed_form():
    psi = named_function("si_normalizing")
    assert psi.c_psi == pytest.approx(2.0 / np.pi)


def test_chi_rational_constant_matches_fft_oracle():
    # chi'(x) = (1+x^2)^{-3/2}, checked against a central difference of
    # chi; (1/2pi) int |s chihat(s)| ds = (1/2pi) int |FT(chi')(s)| ds is
    # then summed from an FFT of chi' on 2^18 points over [-200, 200)
    chi = named_function("chi_rational")
    n_s = 1 << 18
    x = np.linspace(-200.0, 200.0, n_s, endpoint=False)
    dx = x[1] - x[0]
    dchi = (1.0 + x ** 2) ** -1.5
    h = 1e-5
    assert np.abs((chi(x + h) - chi(x - h)) / (2 * h) - dchi).max() <= 1e-9
    hat = np.fft.fft(dchi) * dx
    ds = 2 * np.pi / (n_s * dx)
    oracle = np.abs(hat).sum() * ds / (2 * np.pi)
    assert chi.c_psi == 1.0
    assert oracle == pytest.approx(chi.c_psi, rel=1e-8)


@pytest.mark.parametrize("sigma", [0.5, 1.0, 3.0])
def test_gaussian_transform_matches_riemann_sum(sigma):
    # the unitary transform (1/sqrt(2pi)) int f(x) e^{-itx} dx, by a Riemann
    # sum that is spectrally accurate for this Schwartz f
    f = named_function("gaussian", {"sigma": sigma})
    x = np.linspace(-60.0, 60.0, 1 << 16, endpoint=False)
    fx = f(x) * (x[1] - x[0]) / np.sqrt(2.0 * np.pi)
    t = np.linspace(-8.0, 8.0, 33)
    riemann = np.array([np.dot(fx, np.exp(-1j * tv * x)) for tv in t])
    assert np.abs(riemann - f.fhat(t)).max() <= 1e-12


# Spectral data passed in must decompose P itself: Q's would report
# e^{itQ}, f(Q) or Q's defect as P's.

SOURCE_CALLS = {
    "spectral_apply": lambda P, sd: spectral_apply(P, np.cos, spectral=sd),
    "wave_operator": lambda P, sd: wave_operator(P, 0.3, spectral=sd),
    "wave_columns": lambda P, sd: wave_columns(
        P, 0.3, np.arange(4), spectral=sd),
    "fourier_apply": lambda P, sd: fourier_apply(
        P, named_function("gaussian"), n_quad=64, spectral=sd),
    "chi_resolvent_integral": lambda P, sd: chi_resolvent_integral(
        P, n_quad=64, spectral=sd),
}


@pytest.mark.parametrize("name", sorted(SOURCE_CALLS))
def test_spectral_data_of_another_operator_is_refused(name):
    call = SOURCE_CALLS[name]
    P, Q = _p(name="sqrt_laplace"), _p(name="laplace+1")
    call(P, spectral_data(P))
    with pytest.raises(ValueError, match="another operator"):
        call(P, spectral_data(Q))
    # an equal operator is still another one: its data is not P's
    twin = DiscreteOperator(P.grid, P.order, P.matrix.copy(),
                            provenance=P.provenance,
                            self_adjoint=P.self_adjoint)
    with pytest.raises(ValueError, match="another operator"):
        call(P, spectral_data(twin))


def _repeated_spectrum(path):
    """A P whose spectrum repeats values exactly: a multiplier (Fourier
    path, +-xi share a value) or a multiplication operator (eigh path,
    cos x_j = cos x_{N-j} at some j)."""
    g = GridSpec(1, 64, 2.0 if path == "fourier" else 1.0)
    P = symmetrize(quantize(named_symbol(
        g, "sqrt_laplace" if path == "fourier" else "mult_cos")))
    sd = spectral_data(P)
    assert (sd.vectors is None) == (path == "fourier")
    assert np.unique(sd.eigenvalues).size < sd.eigenvalues.size
    return P, sd


@pytest.mark.parametrize("path", ["fourier", "eigh"])
@pytest.mark.parametrize("n_quad", [64, 2048])
def test_routes_on_distinct_eigenvalues_keep_the_defect(path, n_quad,
                                                        monkeypatch):
    # each route runs once per distinct eigenvalue; on every eigenvalue
    # (the oracle) the maximum is the same number
    P, sd = _repeated_spectrum(path)
    x = sd.eigenvalues
    f = named_function("gaussian", {"sigma": 0.5 * sd.spectral_radius})
    t_max = 24.0 / sd.spectral_radius
    wave = float(np.abs(funcalc._wave_route(f.fhat, x, t_max, n_quad)
                        - np.asarray(f.fn(x), dtype=complex)).max())
    resolvent = float(np.abs(funcalc._resolvent_route(x, n_quad)
                             - x / np.sqrt(1.0 + x ** 2)).max())
    sizes = {}
    # (rule, position of its eigenvalue argument)
    for name, at in (("_wave_route", 1), ("_resolvent_route", 0)):
        route = getattr(funcalc, name)

        def counted(*args, route=route, name=name, at=at):
            sizes[name] = np.size(args[at])
            return route(*args)

        monkeypatch.setattr(funcalc, name, counted)
    assert fourier_apply(P, f, t_max=t_max, n_quad=n_quad,
                         spectral=sd).defect == wave
    assert chi_resolvent_integral(P, n_quad=n_quad,
                                  spectral=sd).defect == resolvent
    assert sizes == dict.fromkeys(("_wave_route", "_resolvent_route"),
                                  np.unique(x).size)
