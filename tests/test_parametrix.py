import numpy as np
import pytest

try:
    import numpy.linalg._linalg as _np_linalg_impl
except ImportError:  # numpy < 2
    import numpy.linalg.linalg as _np_linalg_impl

from torusop import operators
from torusop.lattice import GridSpec
from torusop.operators import (
    _to_fourier_rep,
    fourier_multiplier,
    quantize,
)
from torusop.parametrix import (
    _identity_defect,
    band_projector,
    build_parametrix,
    elliptic_estimate_constant,
    fourier_diagonal_constant,
)
from torusop.symbols import (
    NAMED_SYMBOLS,
    check_elliptic,
    named_symbol,
    symbol_from_callable,
)


def test_band_projector_partition():
    g = GridSpec(1, 64, 1.0)
    lo = band_projector(g, 5.0)
    hi = band_projector(g, 5.0, off_band=True)
    assert np.abs(lo.matrix + hi.matrix - np.eye(g.state_dim)).max() <= 1e-12


def test_parametrix_residuals_shrink_with_sweeps():
    g = GridSpec(1, 128, 2.0)
    p = named_symbol(g, "elliptic_x")
    P = quantize(p)
    prev = None
    for J in (0, 1, 2):
        res = build_parametrix(P, p, J, excision_width=4.0)
        assert not res.diverged
        cur = res.off_band_norms[(0.0, 0.0)]
        if prev is not None:
            assert cur <= prev * 1.05
        prev = cur


def test_parametrix_reports_divergence():
    # a = 1.05 leaves a + cos(x) barely positive, and the sweeps blow up
    g = GridSpec(1, 32, 0.5)
    p = named_symbol(g, "elliptic_x", {"a": 1.05})
    res = build_parametrix(quantize(p), p, 3, excision_width=4.0)
    history = res.defect_history
    assert len(history) == 3 and history[-1] > 2.0 * history[-2]
    assert res.diverged
    assert res.worst_cell and res.worst_cell[3] == history[-1]


def test_parametrix_refusal_off_nyquist_names_no_nyquist_cause():
    # zero where |xi| > 40 and no axis index is -N/2 = -32: the worst
    # cell, the largest such |xi| at (31, 31), is no Nyquist mode
    g = GridSpec(2, 64, 1.0)

    def fn(x, xi):
        ring = (np.linalg.norm(xi, axis=-1) > 40) & (xi > -32).all(axis=-1)
        return np.where(ring, 0.0, 1.0 + (xi ** 2).sum(axis=-1))

    p = symbol_from_callable(g, 2, fn, hermitian_valued=True,
                             x_independent=True)
    with pytest.raises(ValueError) as err:
        build_parametrix(None, p, 1)  # refused before the operator is read
    assert str(err.value) == ("symbol is not elliptic; worst cell "
                              f"(0, {31 * 64 + 31}, {np.hypot(31, 31)}, 0.0)")


@pytest.mark.parametrize("N", [8, 16, 32])
@pytest.mark.parametrize("family", ["xi1_squared", "momentum", "drift"])
def test_2d_symbol_failing_on_a_line_is_refused_without_nyquist_cause(
        family, N):
    # each vanishes on the whole line xi_1 = 0, out to the lattice edge, so
    # excusing the Nyquist cells would certify nothing
    p = named_symbol(GridSpec(2, N, 1.0), family)
    assert not check_elliptic(p).ok
    with pytest.raises(ValueError) as err:
        build_parametrix(None, p, 1)  # refused before the operator is read
    assert str(err.value).startswith("symbol is not elliptic; worst cell")
    assert "Nyquist" not in str(err.value)


@pytest.mark.parametrize("N", [8, 16, 32])
@pytest.mark.parametrize("family", ["elliptic_x", "laplace+1"])
def test_2d_elliptic_families_are_certified_at_radius_zero(family, N):
    cert = check_elliptic(named_symbol(GridSpec(2, N, 1.0), family))
    assert cert.ok and cert.radius == 0.0


def test_parametrix_two_sided():
    g = GridSpec(1, 128, 2.0)
    p = named_symbol(g, "elliptic_x")
    res = build_parametrix(quantize(p), p, 1, excision_width=4.0)
    n1 = res.residual_norms[("S1", 0, 0)]
    n2 = res.residual_norms[("S2", 0, 0)]
    assert n1 <= 10 * n2 and n2 <= 10 * n1


def test_exact_inverse_multiplier_case():
    g = GridSpec(1, 128, 2.0)
    p = named_symbol(g, "laplace+1")
    res = build_parametrix(quantize(p), p, 1, excision_width=4.0)
    assert res.off_band_norms[(0.0, 0.0)] <= 1e-10
    # the excised band carries the full identity there
    assert res.band_norms[(0.0, 0.0)] == pytest.approx(1.0, rel=1e-6)


def test_fourier_diagonal_constant_identity():
    assert fourier_diagonal_constant(lambda xi: 0.0 * xi[..., 0], 0) \
        == pytest.approx(1.0, rel=1e-9)
    c = fourier_diagonal_constant(lambda xi: 1 + xi[..., 0] ** 2, 2)
    assert c == pytest.approx(1.0, abs=1e-9)


def test_elliptic_estimate_finite_for_elliptic():
    g = GridSpec(1, 128, 1.0)
    P = quantize(named_symbol(g, "elliptic_x"))
    c = elliptic_estimate_constant(P, 2.0)
    assert np.isfinite(c)
    assert c <= 2.0


SCALAR_FAMILIES = sorted(n for n in NAMED_SYMBOLS if not n.startswith("dirac"))


@pytest.mark.parametrize("dim,N", [(1, 64), (2, 16)])
@pytest.mark.parametrize("name", SCALAR_FAMILIES)
def test_elliptic_estimate_finite_for_every_scalar_family(name, dim, N):
    # the Schwartz families tie most surrogate eigenvalues at 1.0, where a
    # one-vector subset solve of the generalized problem returns no vector;
    # the probes are off, since only the surrogate and the plane waves are
    # under test
    P = quantize(named_symbol(GridSpec(dim, N, 1.0), name))
    for s in (0.0, 1.0, 2.0):
        assert np.isfinite(elliptic_estimate_constant(P, s, probes=0))


def _coupled_symbol(g):
    """elliptic_x on C^r plus an x-dependent coupling of the fiber slots."""
    eye = np.eye(g.fiber_dim)
    swap = eye[::-1]

    def fn(x, xi):
        a = 2.0 + np.cos(x[..., 0]) + (xi ** 2).sum(axis=-1)
        b = 0.3 * np.sin(x[..., 0])
        return a[..., None, None] * eye + b[..., None, None] * swap

    return symbol_from_callable(g, 2, fn, hermitian_valued=True)


def _weights(g, s):
    """(1 + |xi|^2)^(s/2) per frequency state, from the frequencies."""
    mag = np.linalg.norm(g.frequencies, axis=-1)
    return np.repeat((1.0 + mag ** 2) ** (s / 2.0), g.fiber_dim)


def _eager_tables(P, res, norm_range):
    """The norm tables as every entry was computed before they became lazy,
    with S2 = I - QP formed here."""
    g = res.S1.grid
    offband = g.frequency_magnitude > res.excision_radius + res.excision_width
    S2 = _identity_defect(g, res.Q.matrix, P.matrix)
    rep1, rep2 = _to_fourier_rep(res.S1), _to_fourier_rep(S2)
    off_cols = np.repeat(offband, g.fiber_dim)
    norm = lambda m: float(np.linalg.norm(m, 2))
    residual, off_tab, band_tab = {}, {}, {}
    for k in range(norm_range):
        for l in range(norm_range):
            weights = (_weights(g, float(l))[:, None]
                       / _weights(g, -float(k))[None, :])
            b1 = rep1 * weights
            residual[("S1", k, l)] = norm(b1)
            residual[("S2", k, l)] = norm(rep2 * weights)
            off_tab[(k, l)] = norm(b1[:, off_cols])
            band_tab[(k, l)] = norm(b1[:, ~off_cols])
    return residual, off_tab, band_tab


LAZY_GRIDS = [GridSpec(1, 32, 1.0, r) for r in (1, 2)] + [
    GridSpec(2, 8, 1.0, r) for r in (1, 2)]


@pytest.mark.parametrize("norm_range", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "grid", LAZY_GRIDS,
    ids=[f"{g.dim}d-r{g.fiber_dim}" for g in LAZY_GRIDS])
def test_lazy_norm_tables_equal_eager_loop(grid, norm_range):
    p = _coupled_symbol(grid)
    P = quantize(p)
    res = build_parametrix(P, p, 1, excision_width=1.0,
                           norm_range=norm_range)
    tables = (res.residual_norms, res.off_band_norms, res.band_norms)
    for lazy, eager in zip(tables, _eager_tables(P, res, norm_range)):
        assert list(lazy) == list(eager)
        assert len(lazy) == len(eager)
        # read in reverse so the first read of S1 is not always (S1, 0, 0)
        for key in reversed(list(eager)):
            assert lazy[key] == eager[key]
        assert dict(lazy) == eager
        assert list(lazy.items()) == list(eager.items())


def test_lazy_norm_tables_compute_only_what_is_read(monkeypatch):
    g = GridSpec(1, 32, 1.0)
    p = named_symbol(g, "elliptic_x")
    P = quantize(p)
    counts = {"svd": 0, "rep": 0}
    svd, to_rep = _np_linalg_impl.svd, operators._to_fourier_rep

    def counting_svd(*args, **kwargs):
        counts["svd"] += 1
        return svd(*args, **kwargs)

    def counting_rep(A):
        counts["rep"] += 1
        return to_rep(A)

    monkeypatch.setattr(_np_linalg_impl, "svd", counting_svd)
    monkeypatch.setattr(operators, "_to_fourier_rep", counting_rep)
    res = build_parametrix(P, p, 1, excision_width=1.0, norm_range=3)
    assert counts == {"svd": 0, "rep": 0}
    tables = (res.residual_norms, res.off_band_norms, res.band_norms)
    assert [len(t) for t in tables] == [18, 9, 9]
    assert ("S2", 2, 2) in res.residual_norms and (2, 2) in res.band_norms
    assert ("S2", 3, 0) not in res.residual_norms
    assert (0, 3) not in res.off_band_norms
    for table in tables:
        assert len(list(table)) == len(table)
    assert counts == {"svd": 0, "rep": 0}

    value = res.off_band_norms[(0, 0)]
    assert counts == {"svd": 1, "rep": 1}
    # float keys find the integer entries, and a second read is kept
    assert res.off_band_norms[(0.0, 0.0)] == value
    assert counts == {"svd": 1, "rep": 1}
    # another S1 entry reuses the S1 representation; S2 takes its own
    res.band_norms[(0.0, 1.0)]
    assert counts == {"svd": 2, "rep": 1}
    res.residual_norms[("S2", 1, 0)]
    assert counts == {"svd": 3, "rep": 2}
    res.residual_norms[("S1", 1.0, 2.0)]
    assert counts == {"svd": 4, "rep": 2}
    assert list(res.band_norms) == [(k, l) for k in range(3)
                                    for l in range(3)]


def test_lazy_norm_tables_reject_unknown_keys():
    g = GridSpec(1, 32, 1.0)
    p = named_symbol(g, "laplace+1")
    res = build_parametrix(quantize(p), p, 1, excision_width=1.0,
                           norm_range=2)
    for table, key in ((res.off_band_norms, (2, 0)),
                       (res.band_norms, (0, -1)),
                       (res.residual_norms, ("S3", 0, 0)),
                       (res.residual_norms, (0, 0))):
        assert key not in table
        with pytest.raises(KeyError):
            table[key]
        assert table.get(key) is None
    assert res.off_band_norms[(0.0, 1.0)] == res.off_band_norms[(0, 1)]
    assert list(dict(res.off_band_norms)) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    with pytest.raises(TypeError):
        res.band_norms[(0, 0)] = 1.0


@pytest.mark.parametrize("J, ratio", [(2, 0.25), (1, 0.75)])
def test_parametrix_off_band_residual_falls_on_refinement(J, ratio):
    # each full sweep gains an order, so the off-band residual of S1 drops
    # when the lattice is refined at fixed period (measured: x0.13 for J=2,
    # x0.56 for J=1); a half-step correction leaves it flat
    norms = []
    for N in (128, 256):
        g = GridSpec(1, N, 4.0)
        p = named_symbol(g, "elliptic_x")
        res = build_parametrix(quantize(p), p, J, excision_width=8.0,
                               norm_range=1)
        norms.append(res.off_band_norms[(0, 0)])
    assert norms[1] <= ratio * norms[0]
