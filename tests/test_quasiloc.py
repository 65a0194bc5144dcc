import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from torusop import lattice, quasiloc
from torusop.funcalc import _propagation_bound, spectral_data, wave_operator
from torusop.lattice import (
    BumpFunction,
    GridSpec,
    Region,
    Section,
    ball_region,
    cutoff_eta,
    lipschitz_bump,
    restricted_seminorm,
    sobolev_norm,
    to_frequency,
)
from torusop.operators import (
    DiscreteOperator,
    apply_operator,
    compose,
    fourier_multiplier,
    multiplication_operator,
    op_norm,
    quantize,
    symmetrize,
)
from torusop.quasiloc import (
    DominatingFunctionEstimate,
    _cutoff_matrix,
    _cutoff_sup,
    _embedding_r_factor,
    _loglog_slope,
    _prepare_regions,
    _region_states,
    dominating_function,
    eps_rank,
    uniform_approx_profile,
    wave_quasilocality_scan,
)
from torusop.symbols import named_symbol


def _op(grid, matrix):
    return DiscreteOperator(grid, 0, matrix, provenance="composed")


def _weights(g, s):
    """(1 + |xi|^2)^(s/2) per frequency state, from the frequencies."""
    mag = np.linalg.norm(g.frequencies, axis=-1)
    return np.repeat((1.0 + mag ** 2) ** (s / 2.0), g.fiber_dim)


def _cutoff_rows(z, eta, s):
    """X as the estimator reads it.  At s = 0, W_0 = 1 and F is unitary,
    so by Parseval the rows of eta z where eta != 0 have the FFT route's
    ||X||_2 and ||X v||: those rows, the oracle of the estimator's kept-row
    route.  At s != 0, ``_cutoff_matrix``'s FFT route."""
    if s != 0:
        return _cutoff_matrix(z, eta, s)
    cut = np.repeat(eta.values, eta.grid.fiber_dim)
    rows = np.flatnonzero(cut)
    x = z[rows]
    x *= cut[rows, None]
    return x


def test_eps_rank_projection():
    g = GridSpec(1, 32, 1.0)
    mat = np.zeros((32, 32))
    mat[:3, :3] = np.eye(3)
    assert eps_rank(_op(g, mat), 0.5) == 3
    assert eps_rank(_op(g, mat), 1.5) == 0


def test_eps_rank_geometric_diagonal():
    g = GridSpec(1, 32, 1.0)
    mat = np.diag(0.5 ** np.arange(32))
    # singular values 1, 0.5, 0.25, ... ; two of them reach 0.3
    assert eps_rank(_op(g, mat), 0.3) == 2
    with pytest.raises(ValueError):
        eps_rank(_op(g, mat), 0.0)


def test_profile_counts_prescribed_singular_values():
    # T = U diag(sigma) V*; with f = 1 both fT and Tf are T itself
    g = GridSpec(1, 16, 1.0)
    rng = np.random.default_rng(3)
    sigma = np.array([2.0, 0.7, 0.3, 0.15, 0.07, 0.03, 0.015]
                     + [1e-3] * 9)
    u, _ = np.linalg.qr(rng.standard_normal((16, 16))
                        + 1j * rng.standard_normal((16, 16)))
    v, _ = np.linalg.qr(rng.standard_normal((16, 16))
                        + 1j * rng.standard_normal((16, 16)))
    T = _op(g, (u * sigma) @ v.conj().T)
    one = BumpFunction(g, np.ones(16), lipschitz_bound=0.0,
                       support_diam=np.inf)
    eps_list = (0.5, 0.1, 0.02)
    expect = tuple(int((sigma >= eps).sum()) for eps in eps_list)
    assert expect == (2, 4, 6)
    prof = uniform_approx_profile(T, [one], forms=("fT", "Tf"),
                                  eps_list=eps_list)
    assert prof.ranks == {"fT": expect, "Tf": expect}
    assert tuple(eps_rank(T, eps) for eps in eps_list) == expect


def test_uniform_approx_profile_translates_share_ranks():
    g = GridSpec(1, 64, 1.0)
    T = quantize(named_symbol(g, "order_minus1"))
    f = lipschitz_bump(g, np.zeros(1), 1.0, 2.0)
    family = [f.translated((k * 16,)) for k in range(4)]
    prof = uniform_approx_profile(T, family, eps_list=(0.5, 0.1, 0.05))
    singles = [
        uniform_approx_profile(T, [m], eps_list=(0.5, 0.1, 0.05))
        for m in family
    ]
    # translation-invariant T: every translate produces the same ranks, so
    # the family max equals each individual profile
    for form in ("fT", "Tf", "[T,f]"):
        for single in singles:
            assert single.ranks[form] == prof.ranks[form]
        r = prof.ranks[form]
        assert r[0] <= r[1] <= r[2]


def test_dominating_function_multiplication_operator_vanishes():
    g = GridSpec(1, 128, 1.0)
    A = multiplication_operator(g, 2.0 + np.cos(g.points[:, 0]))
    region = ball_region(g, np.zeros(1), 0.5)
    est = dominating_function(A, 0.0, 0.0, (1.0, 2.0), [region], probes=2)
    assert est.mu_hat == (0.0, 0.0)
    assert est.isotonic_defect() == 0.0


def test_dominating_function_skips_empty_exterior():
    g = GridSpec(1, 64, 1.0)
    A = multiplication_operator(g, np.ones(64))
    region = ball_region(g, np.zeros(1), 0.5)
    est = dominating_function(A, 0.0, 0.0, (1.0, 100.0), [region], probes=1)
    # the NaN is the whole record of the skip
    assert est.mu_hat[0] == 0.0 and np.isnan(est.mu_hat[1])


def test_dominating_function_decays_for_smoothing_operator():
    g = GridSpec(1, 128, 1.0)
    A = quantize(named_symbol(g, "schwartz_xi"))
    region = ball_region(g, np.zeros(1), 0.5)
    est = dominating_function(A, 0.0, 0.0, (0.5, 1.0, 2.0), [region],
                              probes=2)
    assert est.isotonic_defect() <= 0.05
    assert est.mu_hat[-1] < est.mu_hat[0]


def test_loglog_slope_needs_two_distinct_abscissae():
    assert np.isnan(_loglog_slope([2, 2], [1, 3]))
    # only the positive entries count
    assert np.isnan(_loglog_slope([1, 2, 4], [0.0, 5.0, 0.0]))
    assert _loglog_slope([1, 2, 2], [1, 4, 4]) == pytest.approx(2.0)


def test_wave_scan_translation_has_exact_propagation():
    g = GridSpec(1, 128, 1.0)
    P = fourier_multiplier(g, lambda xi: xi[..., 0], order=1,
                           propagation_speed=1.0)
    t = 8 * g.spacing
    rep = wave_quasilocality_scan(
        P, 1, (t,), (1.0, 2.0), 0.0,
        region=ball_region(g, np.zeros(1), 2 * g.spacing), probes=2,
    )
    assert rep.propagation_exact
    for _t, _R, exact in rep.propagation_exact:
        assert exact
    assert len(rep.entries) == 2


def test_wave_scan_range_limited_flag():
    g = GridSpec(1, 64, 1.0)
    P = fourier_multiplier(g, lambda xi: np.sqrt(1 + xi[..., 0] ** 2),
                           order=1)
    rep = wave_quasilocality_scan(P, 1, (0.25,), (1.0, 2.0), 0.0, probes=1)
    # a 2x span of R cannot support a trustworthy log-log fit
    assert rep.range_limited


def test_composition_dominating_function_subadditive():
    # mu_{AB}(2R) is controlled by mu_A(R) ||B|| + ||A|| mu_B(R)
    g = GridSpec(1, 128, 1.0)
    A = quantize(named_symbol(g, "schwartz_xi"))
    B = quantize(named_symbol(g, "order_minus1"))
    AB = compose(A, B)
    region = ball_region(g, np.zeros(1), 0.5)
    R = 1.0
    mu_a = dominating_function(A, 0.0, 0.0, (R,), [region], probes=2)
    mu_b = dominating_function(B, 0.0, 0.0, (R,), [region], probes=2)
    mu_ab = dominating_function(AB, 0.0, 0.0, (2 * R,), [region], probes=2)
    na = op_norm(A, 0.0, 0.0)
    nb = op_norm(B, 0.0, 0.0)
    rhs = mu_a.mu_hat[0] * nb + na * mu_b.mu_hat[0]
    assert mu_ab.mu_hat[0] <= 4.0 * rhs + 1e-12


def _solve(cols, rr):
    """cols rr^{-1}, the solve the estimator takes once per region."""
    return scipy.linalg.solve_triangular(rr, cols.T, trans="T").T


def _full_grid_probe(A, vals, r, s, outside, cutoff_width):
    """The probe's ratio on the whole grid: build the section, apply A and
    take both Sobolev norms, the cut-off one by ``restricted_seminorm``."""
    u = Section(A.grid, vals)
    return restricted_seminorm(apply_operator(A, u), s, outside,
                               cutoff_width) / sobolev_norm(u, r)


def _region_probes(x, rr, draws, region):
    """The probes' ratios the estimator's way: the columns of w = R u_s, u_s
    each draw's values on the region's states, read ||X w|| / ||w||."""
    w = rr @ np.stack([vals[region.mask].ravel() for vals in draws], axis=1)
    return (np.linalg.norm(x @ w, axis=0)
            / np.linalg.norm(w, axis=0)).tolist()


def _per_r_reference(A, r, s, R_list, region_list, probes, seed,
                     cutoff_width, probe_route):
    """The dominating-function loop that rebuilds every exterior, cutoff
    and QR factor per radius, and solves the region's columns against that
    factor per radius: the reference the shared-work loop must reproduce
    bit for bit.  It shares the last steps, ``_cutoff_rows`` and
    ``_cutoff_sup``, whose own oracles are ``_restricted_sup`` and
    ``_qr_svd_sup``.  With ``probe_route="full-grid"`` each probe takes
    ``_full_grid_probe``; with ``"region"`` they take ``_region_probes``,
    as the estimator does."""
    g = A.grid
    fdim = g.fiber_dim

    def restricted_matrix(region, outside):
        eta = cutoff_eta(outside, cutoff_width)
        mask = np.repeat(region.mask, fdim)
        emb = np.zeros((g.state_dim, int(mask.sum())))
        emb[np.where(mask)[0], np.arange(int(mask.sum()))] = 1.0
        den = to_frequency(g, emb)
        den *= _weights(g, r)[:, None]
        _q, rr = np.linalg.qr(den)
        return _cutoff_rows(_solve(A.matrix[:, mask], rr), eta, s), rr

    rng = np.random.default_rng(seed)
    mu = []
    for R in R_list:
        best, usable = 0.0, False
        for region in region_list:
            outside = Region(g, region.distance_field() > R)
            if outside.is_empty():
                continue
            usable = True
            x, rr = restricted_matrix(region, outside)
            best = max(best, _cutoff_sup(x))
            draws = []
            for _ in range(probes):
                vals = (rng.standard_normal((g.n_points, fdim))
                        + 1j * rng.standard_normal((g.n_points, fdim)))
                vals[~region.mask] = 0.0
                draws.append(vals)
            if probe_route == "full-grid":
                ratios = [_full_grid_probe(A, vals, r, s, outside,
                                           cutoff_width) for vals in draws]
            else:
                ratios = _region_probes(x, rr, draws, region)
            best = max([best, *ratios])
        mu.append(best if usable else np.nan)
    return tuple(mu)


DOMINATING_CASES = [
    # (grid, symbol, radii, probe route); the last radius of each leaves no
    # exterior.  In the 2d case the first region is one point with two
    # states whose top singular values tie, so at R = 2.0 every probe
    # reaches the sup and the result is rounding: the reference must take
    # its probes the estimator's way to reproduce it bit for bit
    (GridSpec(1, 64, 1.0), "elliptic_x", (0.0, 0.5, 1.0, 2.0, 7.0),
     "full-grid"),
    (GridSpec(2, 12, 1.0, 2), "dirac", (0.0, 0.6, 1.2, 2.0, 10.0),
     "region"),
]


@pytest.mark.parametrize("grid, name, radii, route", DOMINATING_CASES,
                         ids=["1d", "2d"])
def test_dominating_function_matches_per_radius_loop(grid, name, radii,
                                                     route, monkeypatch):
    A = quantize(named_symbol(grid, name))
    regions = [ball_region(grid, grid.points[0], 0.3),
               ball_region(grid, grid.points[grid.n_points // 3], 0.6)]
    width = 4.0 * grid.spacing
    mu = _per_r_reference(A, 1.0, 0.0, radii, regions, 3, 7, width, route)
    assert np.isnan(mu[-1]) and not np.isnan(mu[:-1]).any()

    calls = []
    original = lattice.Region.distance_field

    def counted(self):
        calls.append(1)
        return original(self)

    monkeypatch.setattr(lattice.Region, "distance_field", counted)
    res = dominating_function(A, 1.0, 0.0, radii, regions, probes=3, seed=7)
    # at s = 0 the estimator sums each sup's Gram in nested increments, the
    # reference in one zherk over X: the same sum in another order
    assert np.isnan(res.mu_hat[-1])
    assert np.allclose(res.mu_hat[:-1], mu[:-1], rtol=1e-13, atol=0.0)

    # without the exterior-free radius: one field per region, plus the
    # cutoff's field of each exterior
    calls.clear()
    res = dominating_function(A, 1.0, 0.0, radii[:-1], regions, probes=3,
                              seed=7)
    assert len(calls) == len(regions) * (1 + len(radii) - 1)
    assert np.allclose(res.mu_hat, mu[:-1], rtol=1e-13, atol=0.0)


def test_isotonic_defect_leaves_out_skipped_radii():
    g = GridSpec(1, 64, 1.0)
    A = quantize(named_symbol(g, "schwartz_xi"))
    region = ball_region(g, np.zeros(1), 0.5)
    est = dominating_function(A, 0.0, 0.0, (0.5, 1.0, 100.0), [region],
                              probes=1)
    assert np.isnan(est.mu_hat[-1])
    measured = replace(est, R_list=est.R_list[:-1], mu_hat=est.mu_hat[:-1])
    assert est.isotonic_defect() == measured.isotonic_defect()
    # a rise from 0.5 to 1.0 across a skipped radius is half the max
    assert replace(est, mu_hat=(0.5, np.nan, 1.0)).isotonic_defect() == 0.5
    # with no radius measured there is no defect to report: NaN passes no
    # budget
    assert np.isnan(replace(est, mu_hat=(np.nan,) * 3).isotonic_defect())


def test_isotonic_defect_reads_mu_hat_in_radius_order():
    # a rise from 0.25 at R = 1 to 0.375 at R = 2 is a quarter of the max,
    # whatever order R_list lists the radii in
    est = DominatingFunctionEstimate((0.5, 1.0, 2.0, 3.0),
                                     (0.5, 0.25, 0.375, 0.125))
    assert est.isotonic_defect() == 0.25
    for order in ((3, 2, 1, 0), (2, 0, 3, 1), (1, 3, 0, 2)):
        shuffled = DominatingFunctionEstimate(
            tuple(est.R_list[i] for i in order),
            tuple(est.mu_hat[i] for i in order))
        assert shuffled.isotonic_defect() == est.isotonic_defect(), order
    # a decreasing estimate listed from the largest radius has no defect
    assert DominatingFunctionEstimate(
        (3.0, 2.0, 1.0, 0.5), (0.1, 0.2, 0.3, 0.4)).isotonic_defect() == 0.0


@settings(max_examples=25, deadline=None)
@given(n=st.sampled_from((8, 16, 32)), seed=st.integers(0, 2 ** 32 - 1),
       eps=st.lists(st.floats(1e-3, 10.0), min_size=2, max_size=6))
def test_eps_rank_does_not_increase_with_eps(n, seed, eps):
    rng = np.random.default_rng(seed)
    g = GridSpec(1, n, 1.0)
    T = _op(g, rng.standard_normal((n, n))
            + 1j * rng.standard_normal((n, n)))
    ranks = [eps_rank(T, e) for e in sorted(eps)]
    assert all(a >= b for a, b in zip(ranks, ranks[1:]))


def _qr_svd_sup(A, region, eta, r, s):
    """The exact restricted sup by QR, general solve and SVD: the oracle."""
    g = A.grid
    fdim = g.fiber_dim
    mask = np.repeat(region.mask, fdim)
    m = int(mask.sum())
    num = to_frequency(g, A.matrix[:, mask]
                       * np.repeat(eta.values, fdim)[:, None])
    num *= _weights(g, s)[:, None]
    emb = np.zeros((g.state_dim, m))
    emb[np.where(mask)[0], np.arange(m)] = 1.0
    den = to_frequency(g, emb)
    den *= _weights(g, r)[:, None]
    rr = np.linalg.qr(den)[1]
    mat = np.linalg.solve(rr.T.conj(), num.T.conj()).T.conj()
    return float(np.linalg.svd(mat, compute_uv=False)[0])


SUP_CASES = [
    # (grid, symbol, region radius, exterior radius)
    (GridSpec(1, 128, 1.0), "elliptic_x", 0.5, 0.5),
    (GridSpec(1, 128, 1.0), "schwartz_xi", 0.5, 0.5),
    (GridSpec(2, 12, 1.0, 2), "dirac", 1.2, 0.6),
]


@pytest.mark.parametrize("grid, name, radius, R", SUP_CASES,
                         ids=["elliptic_x", "schwartz_xi", "dirac-2d"])
def test_restricted_sup_matches_qr_svd_oracle(grid, name, radius, R):
    A = quantize(named_symbol(grid, name))
    region = ball_region(grid, grid.points[grid.n_points // 3], radius)
    outside = lattice.Region(grid, region.distance_field() > R)
    eta = cutoff_eta(outside, 4.0 * grid.spacing)
    for r in (0, 1, 2, 3, 4):
        rr = _embedding_r_factor(region, r)
        for s in (-1, 0, 1):
            want = _qr_svd_sup(A, region, eta, r, s)
            got = _cutoff_sup(_cutoff_rows(
                _solve(A.matrix[:, _region_states(region)], rr), eta, s))
            assert want > 0
            assert abs(got - want) <= 1e-12 * want, (r, s, got, want)


def test_sup_ratio_of_zero_columns_is_exactly_zero():
    g = GridSpec(2, 12, 1.0, 2)
    region = ball_region(g, g.points[0], 0.6)
    rr = _embedding_r_factor(region, 1.0)
    eta = cutoff_eta(Region(g, region.distance_field() > 0.6),
                     4.0 * g.spacing)
    got = _cutoff_sup(_cutoff_rows(
        _solve(np.zeros((g.state_dim, rr.shape[0]), dtype=complex), rr), eta,
        0.0))
    assert got == 0.0 and np.copysign(1.0, got) == 1.0


PROBE_CASES = [
    (GridSpec(1, 64, 1.0), "elliptic_x"),
    (GridSpec(1, 64, 1.0, 2), "dirac_mass"),
    (GridSpec(2, 12, 1.0), "laplace+1"),
    (GridSpec(2, 10, 1.0, 2), "dirac"),
]


@pytest.mark.parametrize("grid, name", PROBE_CASES,
                         ids=["1d", "1d-fiber2", "2d", "2d-fiber2"])
def test_region_probes_match_full_grid_probes(grid, name):
    # the estimator reads each probe off X and R; the full-grid route
    # (section, A u, both Sobolev norms) is the oracle it replaced
    A = quantize(named_symbol(grid, name))
    width = 4.0 * grid.spacing
    rng = np.random.default_rng(5)
    shape = (grid.n_points, grid.fiber_dim)
    for radius in (0.0, 0.3, 0.7):
        region = ball_region(grid, grid.points[grid.n_points // 3], radius)
        cols = A.matrix[:, _region_states(region)]
        for r in (0, 1, 2):
            rr = _embedding_r_factor(region, r)
            z = _solve(cols, rr)
            for R in (0.3, 1.0):
                outside = lattice.Region(grid, region.distance_field() > R)
                eta = cutoff_eta(outside, width)
                for s in (-1, 0, 1):
                    draws = [rng.standard_normal(shape)
                             + 1j * rng.standard_normal(shape)
                             for _ in range(4)]
                    for vals in draws:
                        vals[~region.mask] = 0.0
                    got = _region_probes(_cutoff_rows(z, eta, s), rr,
                                         draws, region)
                    for ratio, vals in zip(got, draws):
                        want = _full_grid_probe(A, vals, r, s, outside, width)
                        assert want > 0
                        assert abs(ratio - want) <= 1e-12 * want, \
                            (radius, r, R, s, ratio, want)


def _fft_cutoff_matrix(z, eta, s):
    """X = W_s F(eta z) on every frequency state, with the weights taken
    from the frequencies: the oracle of ``_cutoff_matrix``'s FFT route."""
    g = eta.grid
    x = to_frequency(g, z * np.repeat(eta.values, g.fiber_dim)[:, None])
    x *= _weights(g, s)[:, None]
    return x


@pytest.mark.parametrize("grid, name", PROBE_CASES,
                         ids=["1d", "1d-fiber2", "2d", "2d-fiber2"])
def test_exterior_rows_match_fft_route_at_s_zero(grid, name):
    # W_0 = 1 and F is unitary: the rows of eta z where eta != 0 have the
    # FFT route's ||X||_2 and ||X w|| (Parseval), with no FFT taken
    A = quantize(named_symbol(grid, name))
    width = 4.0 * grid.spacing
    rng = np.random.default_rng(9)
    region = ball_region(grid, grid.points[grid.n_points // 3], 0.3)
    cols = A.matrix[:, _region_states(region)]
    dist = region.distance_field()
    # at the larger radius the cutoff leaves out every state near the region
    etas = [cutoff_eta(lattice.Region(grid, dist > R), width)
            for R in (0.3, 0.6 * dist.max())]
    assert np.count_nonzero(etas[-1].values) < grid.n_points
    for r in (0, 1):
        rr = _embedding_r_factor(region, r)
        z = _solve(cols, rr)
        w = rr @ (rng.standard_normal((rr.shape[0], 4))
                  + 1j * rng.standard_normal((rr.shape[0], 4)))
        for R, eta in zip((0.3, 0.6 * dist.max()), etas):
            cut = np.repeat(eta.values, grid.fiber_dim)
            x = _cutoff_rows(z, eta, 0.0)
            # only the exterior's rows: eta != 0 there, and only there
            assert x.shape[0] == np.count_nonzero(cut) > 0
            assert np.array_equal(x, z[cut != 0] * cut[cut != 0, None])
            oracle = _cutoff_matrix(z, eta, 0.0)
            want = _cutoff_sup(oracle)
            assert want > 0
            assert abs(_cutoff_sup(x) - want) <= 1e-13 * want, (r, R)
            got = np.linalg.norm(x @ w, axis=0)
            ref = np.linalg.norm(oracle @ w, axis=0)
            assert np.all(np.abs(got - ref) <= 1e-13 * ref), (r, R)
            # the FFT route is the FFT of eta z times the weights, bit for
            # bit, at s = 0 as elsewhere
            for s_out in (-1.0, 0.0, 1.0):
                assert np.array_equal(_cutoff_matrix(z, eta, s_out),
                                      _fft_cutoff_matrix(z, eta, s_out))
        # an operator that vanishes on the region's columns reads +0.0
        zero = _cutoff_rows(np.zeros_like(z), eta, 0.0)
        for value in (_cutoff_sup(zero),
                      *(np.linalg.norm(zero @ w, axis=0)
                        / np.linalg.norm(w, axis=0))):
            assert value == 0.0 and np.copysign(1.0, value) == 1.0


@settings(max_examples=25, deadline=None)
@given(shape=st.sampled_from(((1, 16, 1), (1, 12, 2), (2, 6, 1),
                              (2, 4, 2))),  # (dim, N, fiber)
       seed=st.integers(0, 2 ** 32 - 1), radius=st.floats(0.0, 1.2),
       radii=st.lists(st.floats(0.0, 1.5), min_size=1, max_size=3),
       r=st.floats(0.0, 2.0), s=st.floats(-1.0, 1.0),
       probes=st.integers(1, 8))
def test_probes_move_mu_hat_only_by_rounding(shape, seed, radius, radii, r,
                                             s, probes):
    # a probe is a feasible point of the exact sup: it may lift mu_hat only
    # where X's top singular values tie, and then only by rounding
    dim, N, fiber = shape
    g = GridSpec(dim, N, 1.0, fiber)
    rng = np.random.default_rng(seed)
    n = g.state_dim
    A = _op(g, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    region = ball_region(g, g.points[rng.integers(g.n_points)], radius)
    if region.is_empty():
        return
    est = dominating_function(A, r, s, radii, [region], probes=probes,
                              seed=seed)
    rr = _embedding_r_factor(region, r)
    z = _solve(A.matrix[:, _region_states(region)], rr)
    for R, mu in zip(radii, est.mu_hat):
        assert type(mu) is float
        outside = lattice.Region(g, region.distance_field() > R)
        if outside.is_empty():
            assert np.isnan(mu)
            continue
        exact = _cutoff_sup(_cutoff_rows(
            z, cutoff_eta(outside, 4.0 * g.spacing), s))
        # at s = 0 the estimator's sup sums the same Gram in nested
        # increments, so it may sit below the one-zherk sup by rounding
        assert exact * (1.0 - 1e-13) <= mu <= exact * (1.0 + 1e-13), \
            (R, exact, mu)


# The per-radius route that cuts off and transforms the region's columns,
# then solves against R at every radius: the slow path that the solve
# once per region and ``_cutoff_sup`` replace, kept as their oracle.


def _sup_ratio(num: np.ndarray, rr: np.ndarray) -> float:
    """sup over v of ||num v|| / ||rr v|| for an upper-triangular ``rr``.

    That is ||X||_2 for X = num rr^{-1}, which takes one triangular solve;
    ||X||_2^2 is the top eigenvalue of the m x m Gram matrix X^H X.  The
    clamp at 0 keeps an all-zero ``num`` exactly 0.
    """
    x = scipy.linalg.solve_triangular(rr, num.T, trans="T").T
    top = scipy.linalg.eigh(x.conj().T @ x, eigvals_only=True)[-1]
    return float(np.sqrt(top)) if top > 0 else 0.0


def _restricted_sup(cols: np.ndarray, eta, rr: np.ndarray, s: float) -> float:
    """Exact sup over u supported in a region of the cutoff seminorm ratio.

    ``cols`` are the region's columns of A (``_region_states``), ``eta`` the
    cutoff of the exterior and ``rr`` the region's ``_embedding_r_factor``.
    With num the H^s image of the cut-off columns, the sup is
    ``_sup_ratio(num, rr)``.
    """
    g = eta.grid
    cols = cols * np.repeat(eta.values, g.fiber_dim)[:, None]
    num = to_frequency(g, cols)
    num *= g.sobolev_weights(s)[:, None]
    return _sup_ratio(num, rr)


def _assert_routes_agree(A, region, radii, r_list, s_list):
    """The solve-once route against the per-radius oracle, within 1e-12
    relative, at every exterior radius, r and s."""
    g = A.grid
    cols = A.matrix[:, _region_states(region)]
    etas = [cutoff_eta(lattice.Region(g, region.distance_field() > R),
                       4.0 * g.spacing) for R in radii]
    for r in r_list:
        rr = _embedding_r_factor(region, r)
        z = _solve(cols, rr)
        for eta in etas:
            for s in s_list:
                want = _restricted_sup(cols, eta, rr, s)
                got = _cutoff_sup(_cutoff_rows(z, eta, s))
                assert want > 0
                assert abs(got - want) <= 1e-12 * want, (r, s, got, want)


@pytest.mark.parametrize("grid, name", [
    (GridSpec(1, 64, 1.0), "elliptic_x"),
    (GridSpec(1, 64, 1.0, 2), "dirac_mass"),
    (GridSpec(2, 12, 1.0), "elliptic_x"),
    (GridSpec(2, 10, 1.0, 2), "dirac"),
], ids=["1d", "1d-fiber2", "2d", "2d-fiber2"])
def test_cutoff_sup_matches_per_radius_solve(grid, name):
    A = quantize(named_symbol(grid, name))
    region = ball_region(grid, grid.points[grid.n_points // 3], 0.7)
    _assert_routes_agree(A, region, (0.3, 1.0), range(5), (-1, 0, 1))


@settings(max_examples=25, deadline=None)
@given(shape=st.sampled_from(((1, 16, 1), (1, 12, 2), (2, 6, 1),
                              (2, 4, 2))),  # (dim, N, fiber)
       seed=st.integers(0, 2 ** 32 - 1),
       radius=st.floats(0.0, 1.2), R=st.floats(0.0, 1.5),
       r=st.floats(0.0, 4.0), s=st.floats(-1.0, 1.0))
def test_cutoff_sup_matches_per_radius_solve_on_random_operators(
        shape, seed, radius, R, r, s):
    dim, N, fiber = shape
    g = GridSpec(dim, N, 1.0, fiber)
    rng = np.random.default_rng(seed)
    n = g.state_dim
    A = _op(g, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    region = ball_region(g, g.points[rng.integers(g.n_points)], radius)
    if region.is_empty() or (region.distance_field() <= R).all():
        return  # no region, or no exterior to measure
    _assert_routes_agree(A, region, (R,), (r,), (s,))


@pytest.mark.parametrize("dim, n, fiber", [(1, 32, 1), (1, 16, 2),
                                           (2, 8, 1), (2, 6, 2)])
def test_embedding_r_factor_matches_full_qr(dim, n, fiber):
    # the complex QR of the embedding diag(w_r) W* E is the oracle: the
    # real factor is its R up to a unit-modulus diagonal, so it has the
    # same |diag R| and the same Gram R^H R (bounds fixed before measuring)
    g = GridSpec(dim, n, 1.0, fiber)
    region = ball_region(g, g.points[g.n_points // 3], 0.8)
    mask = np.repeat(region.mask, fiber)
    m = int(mask.sum())
    emb = np.zeros((g.state_dim, m))
    emb[np.where(mask)[0], np.arange(m)] = 1.0
    for r in (0, 1, 2):
        den = to_frequency(g, emb) * _weights(g, r)[:, None]
        want = np.linalg.qr(den)[1]
        got = _embedding_r_factor(region, r)
        assert got.shape == want.shape == (m, m)
        assert got.dtype == np.float64 and np.array_equal(got, np.triu(got))
        assert np.allclose(np.abs(np.diag(got)), np.abs(np.diag(want)),
                           rtol=1e-13, atol=0.0), r
        gram = want.conj().T @ want
        assert (np.abs(got.T @ got - gram).max()
                <= 1e-13 * np.abs(gram).max()), r


def _per_t_reference(P, k, t_list, R_list, l, region, probes, seed, sd):
    """The wave scan that calls dominating_function once per t, so every
    distance field, cutoff and R factor is rebuilt per t: the oracle the
    once-per-scan preparation must reproduce bit for bit."""
    width = 4.0 * P.grid.spacing
    entries, table, prop_rows = [], {}, []
    for t in t_list:
        U = wave_operator(P, t, spectral=sd)
        est = dominating_function(U, l, l - (k - 1), R_list, [region],
                                  probes, seed)
        for R, m in zip(est.R_list, est.mu_hat):
            entries.append((float(t), float(R), float(l), float(m)))
            table[(t, R)] = m
        bound = _propagation_bound(P, t)
        if bound is not None:
            for R, m in zip(est.R_list, est.mu_hat):
                if R > bound + width and np.isfinite(m):
                    prop_rows.append((float(t), float(R), m == 0.0))
    moving = [t for t in t_list if t != 0]
    slopes = [_loglog_slope(list(R_list), [table[(t, R)] for R in R_list])
              for t in moving]
    growths = [_loglog_slope([abs(t) for t in moving],
                             [table[(t, R)] for t in moving])
               for R in R_list]
    slopes = [x for x in slopes if np.isfinite(x)]
    growths = [x for x in growths if np.isfinite(x)]
    return (tuple(entries),
            float(np.median(slopes)) if slopes else np.nan,
            float(np.median(growths)) if growths else np.nan,
            tuple(prop_rows))


def _wave_scan_case():
    # the wave-scan workload's multiplier and scan, at N=256
    g = GridSpec(1, 256, 8.0)
    P = fourier_multiplier(g, lambda xi: 1.3 + xi[..., 0] ** 2, order=2)
    return P, 2, (0.0625, 0.125, 0.25), (2.0, 4.0, 8.0, 16.0), 1.0, \
        ball_region(g, np.array([17.0]), 4.0)


def _waveprop_case():
    # the waveprop scenario's finite-speed multiplier and default region
    g = GridSpec(1, 256, 4.0)
    P = fourier_multiplier(g, lambda xi: xi[..., 0], order=1,
                           propagation_speed=1.0)
    region = ball_region(g, g.points[g.n_points // 2], 2.0 * g.spacing)
    return P, 1, (16 * g.spacing, 32 * g.spacing), (1.0, 2.0, 3.0), 0.0, \
        region


def _eigh_case():
    # not a multiplier, so spectral_data takes the dense eigensolve
    g = GridSpec(1, 64, 1.0)
    P = symmetrize(quantize(named_symbol(g, "drift")))
    return P, 1, (0.1, 0.2, 0.4), (0.5, 1.0, 2.0), 0.0, \
        ball_region(g, g.points[g.n_points // 2], 0.5)


def _no_exterior_case():
    # the last radius leaves no exterior, so its rows are skipped
    P, k, t_list, _radii, l, region = _wave_scan_case()
    return P, k, t_list, (2.0, 8.0, 100.0), l, region


@pytest.mark.parametrize("case", [_wave_scan_case, _waveprop_case,
                                  _eigh_case, _no_exterior_case],
                         ids=["wave-scan", "waveprop", "eigh",
                              "no-exterior"])
def test_wave_scan_matches_per_t_dominating_function(case):
    P, k, t_list, R_list, l, region = case()
    sd = spectral_data(P)
    assert (sd.vectors is not None) == (case is _eigh_case)
    entries, slope, growth, prop = _per_t_reference(
        P, k, t_list, R_list, l, region, 2, 11, sd)
    rep = wave_quasilocality_scan(P, k, t_list, R_list, l, region=region,
                                  probes=2, seed=11, spectral=sd)
    # repr round-trips every float, so equal reprs are equal bits (NaN too)
    assert repr(rep.entries) == repr(entries)
    assert repr((rep.slope_R, rep.growth_t)) == repr((slope, growth))
    assert rep.propagation_exact == prop
    if case is _waveprop_case:
        assert prop and all(exact for _t, _R, exact in prop)
    if case is _no_exterior_case:
        assert sum(np.isnan(e[3]) for e in entries) == len(t_list)


def test_wave_scan_prepares_each_region_once(monkeypatch):
    P, k, t_list, R_list, l, region = _no_exterior_case()
    counts = {"qr": 0, "distance_field": 0}
    qr, distance_field = np.linalg.qr, lattice.Region.distance_field

    def counted_qr(*args, **kwargs):
        counts["qr"] += 1
        return qr(*args, **kwargs)

    def counted_distance_field(self):
        counts["distance_field"] += 1
        return distance_field(self)

    monkeypatch.setattr(np.linalg, "qr", counted_qr)
    monkeypatch.setattr(lattice.Region, "distance_field",
                        counted_distance_field)
    rep = wave_quasilocality_scan(P, k, t_list, R_list, l, region=region,
                                  probes=1, spectral=spectral_data(P))
    assert len(rep.entries) == len(t_list) * len(R_list)
    # one factor for the region; one field for it and one per non-empty
    # exterior (the last radius has none), whatever the number of t
    assert counts == {"qr": 1, "distance_field": 1 + len(R_list) - 1}


# The nested exterior Grams of the s = 0 sups, against the one-zherk sup
# per radius, ``_cutoff_sup(_cutoff_rows(z, eta, 0))``, kept as their
# oracle: the same Gram, summed in another order, so within 1e-13 relative.


NESTED_CASES = [
    (GridSpec(1, 64, 1.0), "elliptic_x", (0.2, 0.5, 1.0, 2.0, 7.0)),
    (GridSpec(1, 32, 1.0, 2), "dirac_mass", (0.3, 0.3, 0.9, 1.5)),
    (GridSpec(2, 12, 1.0), "laplace+1", (0.0, 0.6, 1.2, 2.0)),
    (GridSpec(2, 8, 1.0, 2), "dirac", (0.4, 0.8, 1.6, 10.0)),
]


@pytest.mark.parametrize("grid, name, radii", NESTED_CASES,
                         ids=["1d", "1d-fiber2", "2d", "2d-fiber2"])
def test_nested_exterior_sups_match_per_radius_sups(grid, name, radii):
    A = quantize(named_symbol(grid, name))
    regions = [ball_region(grid, grid.points[grid.n_points // 3], 0.3),
               ball_region(grid, grid.points[1], 0.5)]
    width = 4.0 * grid.spacing
    want = {}
    for R in radii:
        sups = []
        for region in regions:
            outside = Region(grid, region.distance_field() > R)
            if outside.is_empty():
                continue
            rr = _embedding_r_factor(region, 1.0)
            z = _solve(A.matrix[:, _region_states(region)], rr)
            sups.append(_cutoff_sup(_cutoff_rows(
                z, cutoff_eta(outside, width), 0.0)))
        want[R] = max(sups) if sups else np.nan
    # the probes (one, seeded) stay below every sup here
    for order in itertools.islice(itertools.permutations(radii), 0, None, 5):
        est = dominating_function(A, 1.0, 0.0, order, regions, probes=1,
                                  seed=2)
        for R, mu in zip(order, est.mu_hat):
            if np.isnan(want[R]):
                assert np.isnan(mu)
            else:
                assert abs(mu - want[R]) <= 1e-13 * want[R], (order, R)


def test_nested_sups_read_each_exterior_row_once(monkeypatch):
    # the rows where eta = 1 enter one running Gram from the largest R
    # down; each radius adds only its 0 < eta < 1 rows.  One zherk over X
    # per radius would read every radius's exterior again
    g = GridSpec(1, 256, 4.0)
    A = quantize(named_symbol(g, "elliptic_x"))
    region = ball_region(g, g.points[40], 0.5)
    radii = (1.0, 4.0, 2.0, 0.5)
    prep, = _prepare_regions([region], 1.0, radii)
    exterior = max(int(np.count_nonzero(prep.dist > R)) for R in radii)
    edges = sum(int(np.count_nonzero((eta.values != 0)
                                     & ~(prep.dist > R)))
                for R, eta in zip(radii, prep.etas))
    rows = []
    zherk = scipy.linalg.blas.zherk

    def counted(alpha, a, *args, **kwargs):
        rows.append(a.shape[0])
        return zherk(alpha, a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg.blas, "zherk", counted)
    dominating_function(A, 1.0, 0.0, radii, [region], probes=1)
    assert sum(rows) == exterior + edges
    assert sum(rows) < sum(int(np.count_nonzero(eta.values))
                           for eta in prep.etas)


def test_nested_sups_are_exactly_zero_beyond_the_cone():
    # a translation by 16 spacings vanishes beyond its cone exactly: every
    # radius past the cone and the cutoff width reads +0.0 in any order
    P, _k, t_list, _radii, _l, region = _waveprop_case()
    g = P.grid
    sd = spectral_data(P)
    U = wave_operator(P, t_list[0], spectral=sd)
    bound = _propagation_bound(P, t_list[0])
    radii = (0.5, bound + 5 * g.spacing, 3.0, 1.0, bound + 8 * g.spacing)
    cone = bound + 4.0 * g.spacing
    for order in itertools.permutations(radii):
        est = dominating_function(U, 0.0, 0.0, order, [region], probes=2)
        for R, mu in zip(order, est.mu_hat):
            if R > cone:
                assert mu == 0.0 and np.copysign(1.0, mu) == 1.0, (order, R)
            else:
                assert mu > 0.0


def test_wave_scan_holds_no_dense_wave_operator():
    # the wave-scan workload's scan on the Fourier path: its traced peak
    # stays below one n x n complex matrix
    g = GridSpec(1, 1024, 8.0)
    P = fourier_multiplier(g, lambda xi: 1.2 + xi[..., 0] ** 2, order=2)
    sd = spectral_data(P)
    region = ball_region(g, np.array([17.0]), 4.0)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        wave_quasilocality_scan(P, 2, (0.0625, 0.125, 0.25),
                                (2.0, 4.0, 8.0, 16.0), 1.0, region=region,
                                probes=2, seed=3, spectral=sd)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < g.state_dim ** 2 * 16, peak


# At s = 0 the estimator solves Z = C R^{-1} only on the rows some cutoff
# leaves and reads each probe as ||eta (Z w)||; the full solve, X =
# ``_cutoff_rows(z, eta, 0)`` and the complex QR of the embedding are kept
# here as its oracles.  The bounds were fixed before measuring.


KEPT_ROW_CASES = [
    # (grid, symbol, radii): the smallest radius's cutoff leaves out some
    # rows near the region; the last 2d radius leaves no exterior
    (GridSpec(1, 64, 1.0), "elliptic_x", (0.2, 0.5, 1.0, 2.0)),
    (GridSpec(1, 32, 1.0, 2), "dirac_mass", (1.5, 0.9, 2.5)),
    (GridSpec(2, 16, 1.0), "laplace+1", (2.0, 2.6, 3.5)),
    (GridSpec(2, 12, 1.0, 2), "dirac", (3.0, 2.4, 3.6, 10.0)),
]
KEPT_ROW_IDS = ["1d", "1d-fiber2", "2d", "2d-fiber2"]


def _complex_embedding_r_factor(region, r):
    """R of the complex QR of the H^r embedding diag(w_r) W* E: the factor
    the real one replaced, up to a unit-modulus diagonal."""
    g = region.grid
    states = _region_states(region)
    emb = np.zeros((g.state_dim, states.size))
    emb[states, np.arange(states.size)] = 1.0
    return np.linalg.qr(to_frequency(g, emb) * _weights(g, r)[:, None],
                        mode="r")


@pytest.mark.parametrize("grid, name, radii", KEPT_ROW_CASES,
                         ids=KEPT_ROW_IDS)
def test_kept_row_z_equals_the_full_solve_rows(grid, name, radii,
                                               monkeypatch):
    A = quantize(named_symbol(grid, name))
    region = ball_region(grid, grid.points[grid.n_points // 3], 0.3)
    prep, = _prepare_regions([region], 1.0, radii)
    cuts = [np.repeat(eta.values, grid.fiber_dim)
            for eta in prep.etas if eta is not None]
    # the kept rows are every row some cutoff leaves, and the cutoffs nest:
    # they are the smallest radius's support
    support = np.flatnonzero(cuts[int(np.argmin(
        [R for R, eta in zip(radii, prep.etas) if eta is not None]))])
    assert np.array_equal(prep.kept, support)
    assert np.array_equal(prep.kept, np.flatnonzero(np.any(cuts, axis=0)))
    assert 0 < prep.kept.size < grid.state_dim
    seen = []
    exterior_sups = quasiloc._exterior_sups

    def recorded(z, *args):
        seen.append(z)
        return exterior_sups(z, *args)

    monkeypatch.setattr(quasiloc, "_exterior_sups", recorded)
    dominating_function(A, 1.0, 0.0, radii, [region], probes=1)
    full = _solve(A.matrix[:, prep.states], prep.factor)
    z, = seen
    # trsm solves each row of Z on its own
    assert np.array_equal(z, full[prep.kept])


@pytest.mark.parametrize("grid, name, radii", KEPT_ROW_CASES,
                         ids=KEPT_ROW_IDS)
def test_s_zero_probes_read_x_without_forming_it(grid, name, radii,
                                                 monkeypatch):
    # with every sup set to 0, mu_hat is the best probe ratio
    # ||eta (Z w)|| / ||w||; the oracle reads the same draws off X.  Where
    # the operator vanishes beyond R (the 2d stencils at the largest
    # radii), both read exactly 0
    A = quantize(named_symbol(grid, name))
    region = ball_region(grid, grid.points[grid.n_points // 3], 0.3)
    monkeypatch.setattr(quasiloc, "_exterior_sups",
                        lambda z, prep, R_list: [0.0] * len(R_list))
    positive = 0
    for r in (0.0, 1.0):
        est = dominating_function(A, r, 0.0, radii, [region], probes=3,
                                  seed=4)
        prep, = _prepare_regions([region], r, radii)
        z = _solve(A.matrix[:, prep.states], prep.factor)
        rng = np.random.default_rng(4)
        for mu, eta in zip(est.mu_hat, prep.etas):
            if eta is None:
                assert np.isnan(mu)
                continue
            draws = rng.standard_normal((3, 2, grid.n_points,
                                         grid.fiber_dim))
            u = (draws[:, 0] + 1j * draws[:, 1]).reshape(3, -1)
            w = prep.factor @ u[:, prep.states].T
            want = float((np.linalg.norm(_cutoff_rows(z, eta, 0.0) @ w,
                                         axis=0)
                          / np.linalg.norm(w, axis=0)).max())
            positive += want > 0
            assert abs(mu - want) <= 1e-13 * want, (r, mu, want)
    assert positive >= 2 * 2


@pytest.mark.parametrize("grid, name, radii", KEPT_ROW_CASES,
                         ids=KEPT_ROW_IDS)
def test_real_factor_mu_hat_matches_the_complex_factor(grid, name, radii,
                                                       monkeypatch):
    A = quantize(named_symbol(grid, name))
    regions = [ball_region(grid, grid.points[grid.n_points // 3], 0.3),
               ball_region(grid, grid.points[1], 0.5)]
    cases = [(r, s) for r in (0.0, 1.0, 2.0) for s in (0.0, 1.0)]
    got = [dominating_function(A, r, s, radii, regions, probes=2).mu_hat
           for r, s in cases]
    monkeypatch.setattr(quasiloc, "_embedding_r_factor",
                        _complex_embedding_r_factor)
    for (r, s), mu in zip(cases, got):
        want = dominating_function(A, r, s, radii, regions, probes=2).mu_hat
        assert np.allclose(mu, want, rtol=1e-12, atol=0.0, equal_nan=True), \
            (r, s, mu, want)


def test_s_zero_solve_receives_only_the_kept_rows(monkeypatch):
    # the wave-scan workload's shape at N=256: each t's solve reads the
    # rows the smallest radius's cutoff leaves; off s = 0 it reads them all
    P, k, t_list, R_list, l, region = _wave_scan_case()
    prep, = _prepare_regions([region], l, R_list)
    kept = np.count_nonzero(np.any(
        [eta.values != 0 for eta in prep.etas if eta is not None], axis=0))
    shapes = []
    solve = scipy.linalg.solve_triangular

    def counted(a, b, *args, **kwargs):
        shapes.append(b.shape)
        return solve(a, b, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "solve_triangular", counted)
    wave_quasilocality_scan(P, k, t_list, R_list, l, region=region,
                            probes=1, spectral=spectral_data(P))
    m = prep.states.size
    assert shapes == [(m, kept)] * len(t_list)
    assert kept < P.grid.state_dim
    shapes.clear()
    wave_quasilocality_scan(P, k + 1, t_list, R_list, l, region=region,
                            probes=1, spectral=spectral_data(P))
    assert shapes == [(m, P.grid.state_dim)] * len(t_list)


# ---------------------------------------------------------------------------
# translation covariance at the wave-scan workload's shape

# the wave-scan workload's grid, region radius and criterion 06's t and R
WORKLOAD_GRID = GridSpec(1, 1024, 8.0)
WORKLOAD_T = (0.0625, 0.125, 0.25)
WORKLOAD_R = (2.0, 4.0, 8.0, 16.0)
# whole grid steps: a short one and one that wraps past the period
SHIFTS = (37, 1000)
# relative: the distance fields of a translate round differently
TRANSLATION_REL = 1e-13


def _translated(region, k):
    return Region(region.grid, np.roll(region.mask, k))


def test_wave_scan_is_translation_invariant_at_the_workload_shape():
    # a multiplier commutes with translations, so moving the region by
    # whole grid steps moves no mu_hat; the probes, drawn on the whole
    # grid, meet other values but move a row only by rounding
    g = WORKLOAD_GRID
    P = fourier_multiplier(g, lambda xi: 1.3 + xi[..., 0] ** 2, order=2)
    sd = spectral_data(P)
    region = ball_region(g, np.zeros(1), 4.0)

    def mu_hat(reg):
        rep = wave_quasilocality_scan(P, 2, WORKLOAD_T, WORKLOAD_R, 1.0,
                                      region=reg, probes=2, spectral=sd)
        return np.array([row[3] for row in rep.entries])

    want = mu_hat(region)
    assert np.all(want > 0)
    for k in SHIFTS:
        got = mu_hat(_translated(region, k))
        assert np.all(np.abs(got - want) <= TRANSLATION_REL * want), k


def test_dominating_function_is_translation_covariant_at_the_workload_shape():
    # mu_hat(S A S^T, S L) = mu_hat(A, L) for the shift S by whole grid
    # steps, here on the x-dependent drift at s = 1, the FFT route
    g = WORKLOAD_GRID
    A = quantize(named_symbol(g, "drift"))
    region = ball_region(g, np.zeros(1), 4.0)
    want = np.array(dominating_function(A, 0.0, 1.0, WORKLOAD_R,
                                        [region]).mu_hat)
    assert np.all(want > 0)
    for k in SHIFTS:
        shifted = np.roll(np.roll(A.matrix, k, axis=0), k, axis=1)
        SA = DiscreteOperator(g, A.order, shifted, provenance="composed")
        got = np.array(dominating_function(SA, 0.0, 1.0, WORKLOAD_R,
                                           [_translated(region, k)]).mu_hat)
        assert np.all(np.abs(got - want) <= TRANSLATION_REL * want), k
