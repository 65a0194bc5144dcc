import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from torusop.lattice import (
    GridSpec,
    Region,
    Section,
    ball_region,
    cutoff_eta,
    from_frequency,
    lipschitz_bump,
    restricted_seminorm,
    smoothstep,
    sobolev_norm,
    to_frequency,
)


def _measured_lipschitz(f):
    """Largest slope of a bump over nearest-neighbour grid pairs."""
    g = f.grid
    v = f.values.reshape(g.grid_shape())
    return max(float(np.abs(np.roll(v, -1, axis) - v).max())
               for axis in range(g.dim)) / g.spacing


def test_grid_geometry():
    g = GridSpec(1, 64, 2.0)
    assert g.n_points == 64
    assert g.period == pytest.approx(4 * np.pi)
    assert g.spacing == pytest.approx(g.period / 64)
    d = g.pairwise_distance()
    assert d.max() <= g.period / 2 * (1 + 1e-12)
    assert np.allclose(d, d.T)


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(3, 64, 1.0)
    with pytest.raises(ValueError):
        GridSpec(1, 63, 1.0)
    with pytest.raises(ValueError):
        GridSpec(1, 64, -1.0)


def test_fourier_round_trip():
    g = GridSpec(2, 16, 1.0, fiber_dim=2)
    rng = np.random.default_rng(3)
    u = Section(g, rng.standard_normal((g.n_points, 2))
                + 1j * rng.standard_normal((g.n_points, 2)))
    v = from_frequency(g, to_frequency(g, u.flat()))
    assert np.abs(v - u.flat()).max() <= 1e-12 * u.l2_norm()


def test_plane_wave_single_spike():
    g = GridSpec(1, 32, 2.0)
    m = 3
    u = Section(g, np.exp(1j * (m / g.period_scale) * g.points))
    hat = np.abs(to_frequency(g, u.flat()))
    assert hat.argmax() == m
    assert (hat > 1e-10 * hat.max()).sum() == 1


def test_sobolev_norm_plane_wave():
    g = GridSpec(1, 64, 2.0)
    m = 5
    vals = np.exp(1j * (m / g.period_scale) * g.points)
    vals /= np.linalg.norm(vals) * g.quadrature_weight
    u = Section(g, vals)
    expect = (1 + (m / g.period_scale) ** 2) ** 0.5
    assert sobolev_norm(u, 1.0) == pytest.approx(expect, rel=1e-12)


def test_lipschitz_bump_certificates():
    g = GridSpec(1, 128, 1.0)
    f = lipschitz_bump(g, np.zeros(1), 1.0, 2.0)
    assert _measured_lipschitz(f) <= f.lipschitz_bound * (1 + 1e-9)
    shifted = f.translated((7,))
    assert np.allclose(np.roll(f.values, 7), shifted.values)


def test_cutoff_eta_is_one_on_region():
    g = GridSpec(1, 128, 1.0)
    reg = ball_region(g, np.zeros(1), 1.0)
    eta = cutoff_eta(reg, 8 * g.spacing)
    assert np.allclose(eta.values[reg.mask], 1.0)
    far = reg.distance_field() > 8 * g.spacing
    assert np.abs(eta.values[far]).max() == 0.0


def test_smoothstep_stays_in_the_unit_interval():
    # the quintic rounds below 0 just under u = 1 (to -1.3e-15)
    for lo, hi in ((-0.001, 0.001), (0.999, 1.001)):
        vals = smoothstep(np.linspace(lo, hi, 200001))
        assert vals.min() >= 0.0 and vals.max() <= 1.0
        assert not np.signbit(vals).any()
    assert smoothstep(0.0) == 1.0 and smoothstep(1.0) == 0.0
    # so no cutoff holds a negative value: here the unclamped quintic gave
    # two points -2.2e-16, which counted as eta != 0 rows
    g = GridSpec(2, 12, 1.0)
    region = ball_region(g, g.points[g.n_points // 3], 0.3)
    dist = region.distance_field()
    eta = cutoff_eta(Region(g, dist > 0.6 * dist.max()), 4.0 * g.spacing)
    assert not np.signbit(eta.values).any()


def test_cutoff_eta_of_empty_and_full_regions_is_exact():
    rng = np.random.default_rng(1)
    for g in (GridSpec(1, 16, 1.0), GridSpec(2, 8, 1.0)):
        n = g.n_points
        u = Section(g, rng.standard_normal((n, 1)))
        for fill, expect in ((False, np.zeros(n)), (True, np.ones(n))):
            region = Region(g, np.full(n, fill))
            eta = cutoff_eta(region, 4 * g.spacing)
            assert np.array_equal(eta.values.view(np.uint64),
                                  expect.view(np.uint64))
            # so the restricted seminorm is 0 or the full norm, exactly
            for s in (0.0, 1.0):
                got = restricted_seminorm(u, s, region, 4 * g.spacing)
                assert got == (sobolev_norm(u, s) if fill else 0.0)
            with pytest.raises(ValueError, match="under-resolved"):
                restricted_seminorm(u, 0.0, region, 2 * g.spacing)


@settings(max_examples=40, deadline=None)
@given(dim=st.sampled_from([1, 2]), half_n=st.integers(4, 16),
       L=st.floats(0.5, 2.0), steps=st.floats(4.0, 12.0),
       ball=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
@example(dim=1, half_n=16, L=1.0, steps=8.0, ball=True, seed=0)
def test_cutoff_eta_meets_its_lipschitz_bound(dim, half_n, L, steps, ball,
                                              seed):
    g = GridSpec(dim, 2 * half_n, L)
    rng = np.random.default_rng(seed)
    if ball:
        region = ball_region(g, rng.uniform(0.0, g.period, dim),
                             rng.uniform(0.0, g.period / 4))
    else:
        region = Region(g, rng.random(g.n_points) < rng.uniform())
    eta = cutoff_eta(region, steps * g.spacing)
    assert _measured_lipschitz(eta) <= eta.lipschitz_bound


@settings(max_examples=40, deadline=None)
@given(dim=st.sampled_from([1, 2]), half_n=st.integers(4, 16),
       steps=st.floats(4.0, 32.0), lip=st.sampled_from([0.5, 1.0, 2.0, 8.0]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(dim=1, half_n=16, steps=8.0, lip=2.0, seed=0)
def test_lipschitz_bump_support_within_declared_diameter(dim, half_n, steps,
                                                         lip, seed):
    g = GridSpec(dim, 2 * half_n, 1.0)
    center = np.random.default_rng(seed).uniform(0.0, g.period, dim)
    f = lipschitz_bump(g, center, steps * g.spacing, lip)
    mask = f.values != 0.0
    assert mask.any()
    diam = g.pairwise_distance()[np.ix_(mask, mask)].max()
    assert diam <= f.support_diam * (1 + 1e-12)


def test_restricted_seminorm_localizes():
    g = GridSpec(1, 128, 1.0)
    reg = ball_region(g, np.zeros(1), 1.0)
    vals = np.zeros((g.n_points, 1), dtype=complex)
    vals[reg.mask] = 1.0
    u = Section(g, vals)
    grown = Region(g, reg.distance_field() <= 1.0)
    full = restricted_seminorm(u, 0.0, grown, 8 * g.spacing)
    assert full >= u.l2_norm() * 0.99
    far = ball_region(g, np.array([g.period / 2]), 0.3)
    assert restricted_seminorm(u, 0.0, far, 8 * g.spacing) == 0.0


def _all_points_distance(region):
    """Distance field as the minimum over every region point (the oracle)."""
    if region.is_empty():
        return np.full(region.grid.n_points, np.inf)
    pts = region.grid.points
    inside = pts[region.mask]
    d = region.grid.wrap_delta(pts[:, None, :] - inside[None, :, :])
    return np.sqrt((d ** 2).sum(axis=-1)).min(axis=1)


def _test_regions(g, rng):
    n = g.n_points
    yield Region(g, np.zeros(n, bool))
    yield Region(g, np.ones(n, bool))
    for i in (0, n // 2 + 1, n - 1):
        single = np.zeros(n, bool)
        single[i] = True
        yield Region(g, single)
    for density in (0.1, 0.5, 0.9):
        yield Region(g, rng.random(n) < density)
    for radius in (0.3, 1.0, 2.5):
        ball = ball_region(g, rng.uniform(0.0, g.period, g.dim), radius)
        yield ball
        dist = _all_points_distance(ball)
        for R in (0.5, 1.5):
            yield Region(g, dist > R)


@pytest.mark.parametrize("dim,N,L", [
    (1, 4, 1.0), (1, 6, 0.7), (1, 64, 1.5), (2, 4, 1.0), (2, 6, 1.3),
    (2, 16, 1.0)])
def test_distance_field_matches_all_points_minimum(dim, N, L):
    g = GridSpec(dim, N, L)
    rng = np.random.default_rng([dim, N])
    for region in _test_regions(g, rng):
        got = region.distance_field()
        expect = _all_points_distance(region)
        assert got.dtype == expect.dtype and got.shape == expect.shape
        assert np.array_equal(got.view(np.uint64), expect.view(np.uint64))


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


@pytest.mark.parametrize("grid", [GridSpec(1, 64, 1.0), GridSpec(2, 8, 1.0),
                                  GridSpec(1, 16, 1.0, 2),
                                  GridSpec(2, 6, 1.0, 2)],
                         ids=["1d", "2d", "1d-fiber2", "2d-fiber2"])
def test_frequency_transforms_equal_the_plain_numpy_call(grid):
    # one output array written axis after axis: bitwise the values, and
    # the memory layout, of numpy's per-axis arrays, for a vector, a stack
    # of columns, its transpose (as _to_fourier_rep passes it) and a real
    # input
    n = grid.state_dim
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    axes = tuple(range(grid.dim))
    for cols in (a[:, 0], a, a.T, a.real):
        shaped = cols.reshape(grid.grid_shape() + (grid.fiber_dim,)
                              + cols.shape[1:])
        for ours, plain in ((to_frequency, np.fft.fftn),
                            (from_frequency, np.fft.ifftn)):
            want = plain(shaped, axes=axes, norm="ortho").reshape(cols.shape)
            got = ours(grid, cols)
            assert got.strides == want.strides
            assert np.array_equal(_bits(got), _bits(want))
