from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusop import lattice
from torusop.lattice import (
    BumpFunction,
    GridSpec,
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
)
from torusop.quasiloc import (
    _embedding_r_factor,
    _restricted_sup,
    _sup_ratio,
    dominating_function,
    eps_rank,
    pseudolocality_equivalence_spotcheck,
    uniform_approx_profile,
    wave_quasilocality_scan,
)
from torusop.symbols import named_symbol


def _op(grid, matrix):
    return DiscreteOperator(grid, 0, matrix, provenance="composed")


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
    assert prof.rank("fT", 0.1) == prof.ranks["fT"][1]


def test_dominating_function_multiplication_operator_vanishes():
    g = GridSpec(1, 128, 1.0)
    A = multiplication_operator(g, 2.0 + np.cos(g.points[:, 0]))
    region = ball_region(g, np.zeros(1), 0.5)
    est = dominating_function(A, 0.0, 0.0, (1.0, 2.0), [region], probes=2)
    assert est.mu_hat == (0.0, 0.0)
    assert est.isotonic_defect() == 0.0
    assert est.estimator == ("svd", "svd")


def test_dominating_function_skips_empty_exterior():
    g = GridSpec(1, 64, 1.0)
    A = multiplication_operator(g, np.ones(64))
    region = ball_region(g, np.zeros(1), 0.5)
    est = dominating_function(A, 0.0, 0.0, (1.0, 100.0), [region], probes=1)
    assert est.estimator[1] == "skipped"
    assert np.isnan(est.mu_hat[1])
    assert est.skipped


def test_dominating_function_decays_for_smoothing_operator():
    g = GridSpec(1, 128, 1.0)
    A = quantize(named_symbol(g, "schwartz_xi"))
    region = ball_region(g, np.zeros(1), 0.5)
    est = dominating_function(A, 0.0, 0.0, (0.5, 1.0, 2.0), [region],
                              probes=2)
    assert est.isotonic_defect() <= 0.05
    assert est.mu_hat[-1] < est.mu_hat[0]


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


def test_spotcheck_verdicts_agree_for_smoothing_operator():
    g = GridSpec(1, 64, 1.0)
    T = quantize(named_symbol(g, "schwartz_xi"))
    rep = pseudolocality_equivalence_spotcheck(T, R=1.0, L=2.0, samples=2)
    for defect, bound in zip(rep.step_defects, rep.direct_bounds):
        assert defect <= bound * (1 + 1e-9)
    assert rep.verdict_lipschitz
    assert rep.verdict_lipschitz == rep.verdict_borel


def _per_r_reference(A, r, s, R_list, region_list, probes, seed,
                     cutoff_width):
    """The dominating-function loop that rebuilds every exterior, cutoff
    and QR factor per radius: the reference the shared-work loop must
    reproduce bit for bit.  It shares the last step, ``_sup_ratio``, whose
    own oracle is ``_qr_svd_sup``."""
    g = A.grid
    fdim = g.fiber_dim

    def restricted_sup(region, R):
        outside = region.ball(R).complement()
        if outside.is_empty():
            return 0.0
        eta = cutoff_eta(outside, cutoff_width)
        mask = np.repeat(region.mask, fdim)
        cols = A.matrix[:, mask] * np.repeat(eta.values, fdim)[:, None]
        num = to_frequency(g, cols)
        num *= np.repeat(g.sobolev_weights(s), fdim)[:, None]
        emb = np.zeros((g.state_dim, int(mask.sum())))
        emb[np.where(mask)[0], np.arange(int(mask.sum()))] = 1.0
        den = to_frequency(g, emb)
        den *= np.repeat(g.sobolev_weights(r), fdim)[:, None]
        _q, rr = np.linalg.qr(den)
        return _sup_ratio(num, rr)

    rng = np.random.default_rng(seed)
    mu, estimators, skipped = [], [], []
    for R in R_list:
        best, estimator, usable = 0.0, "probe", False
        for region in region_list:
            outside = region.ball(R).complement()
            if outside.is_empty():
                skipped.append((float(R), "no exterior at this radius"))
                continue
            usable = True
            best = max(best, restricted_sup(region, R))
            estimator = "svd"
            for _ in range(probes):
                vals = (rng.standard_normal((g.n_points, fdim))
                        + 1j * rng.standard_normal((g.n_points, fdim)))
                vals[~region.mask] = 0.0
                u = Section(g, vals)
                denom = sobolev_norm(u, r)
                if denom == 0.0:
                    continue
                au = apply_operator(A, u)
                num = restricted_seminorm(au, s, outside, cutoff_width)
                best = max(best, num / denom)
        mu.append(best if usable else np.nan)
        estimators.append(estimator if usable else "skipped")
    return tuple(mu), tuple(estimators), tuple(skipped)


DOMINATING_CASES = [
    # (grid, symbol, radii); the last radius of each leaves no exterior
    (GridSpec(1, 64, 1.0), "elliptic_x", (0.0, 0.5, 1.0, 2.0, 7.0)),
    (GridSpec(2, 12, 1.0, 2), "dirac", (0.0, 0.6, 1.2, 2.0, 10.0)),
]


@pytest.mark.parametrize("grid, name, radii", DOMINATING_CASES,
                         ids=["1d", "2d"])
def test_dominating_function_matches_per_radius_loop(grid, name, radii,
                                                     monkeypatch):
    A = quantize(named_symbol(grid, name))
    regions = [ball_region(grid, grid.points[0], 0.3),
               ball_region(grid, grid.points[grid.n_points // 3], 0.6)]
    width = 4.0 * grid.spacing
    mu, est, skipped = _per_r_reference(A, 1.0, 0.0, radii, regions, 3, 7,
                                        width)
    assert skipped and np.isnan(mu[-1])

    calls = []
    original = lattice.Region.distance_field

    def counted(self):
        calls.append(1)
        return original(self)

    monkeypatch.setattr(lattice.Region, "distance_field", counted)
    res = dominating_function(A, 1.0, 0.0, radii, regions, probes=3, seed=7)
    assert np.array_equal(res.mu_hat, mu, equal_nan=True)
    assert res.estimator == est
    assert res.skipped == skipped

    # without the exterior-free radius: one field per region, plus the
    # cutoff's field of each exterior
    calls.clear()
    res = dominating_function(A, 1.0, 0.0, radii[:-1], regions, probes=3,
                              seed=7)
    assert len(calls) == len(regions) * (1 + len(radii) - 1)
    assert res.mu_hat == mu[:-1]


def test_isotonic_defect_leaves_out_skipped_radii():
    g = GridSpec(1, 64, 1.0)
    A = quantize(named_symbol(g, "schwartz_xi"))
    region = ball_region(g, np.zeros(1), 0.5)
    est = dominating_function(A, 0.0, 0.0, (0.5, 1.0, 100.0), [region],
                              probes=1)
    assert est.estimator[-1] == "skipped"
    measured = replace(est, R_list=est.R_list[:-1], mu_hat=est.mu_hat[:-1])
    assert est.isotonic_defect() == measured.isotonic_defect()
    # a rise from 0.5 to 1.0 across a skipped radius is half the max
    assert replace(est, mu_hat=(0.5, np.nan, 1.0)).isotonic_defect() == 0.5
    assert replace(est, mu_hat=(np.nan,) * 3).isotonic_defect() == 0.0


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
    num *= np.repeat(g.sobolev_weights(s), fdim)[:, None]
    emb = np.zeros((g.state_dim, m))
    emb[np.where(mask)[0], np.arange(m)] = 1.0
    den = to_frequency(g, emb)
    den *= np.repeat(g.sobolev_weights(r), fdim)[:, None]
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
            got = _restricted_sup(A, region, eta, rr, s)
            assert want > 0
            assert abs(got - want) <= 1e-12 * want, (r, s, got, want)


def test_sup_ratio_of_zero_columns_is_exactly_zero():
    g = GridSpec(2, 12, 1.0, 2)
    region = ball_region(g, g.points[0], 0.6)
    rr = _embedding_r_factor(region, 1.0)
    got = _sup_ratio(np.zeros((g.state_dim, rr.shape[0]), dtype=complex), rr)
    assert got == 0.0 and np.copysign(1.0, got) == 1.0
