import itertools

import numpy as np
import pytest

from torusop.lattice import GridSpec
from torusop.symbols import (
    NAMED_SYMBOLS,
    Symbol,
    check_elliptic,
    compose_symbols,
    estimate_constants,
    invert_principal,
    named_symbol,
    symbol_from_callable,
)


def _grid(name, N=64, L=1.0):
    fiber = 2 if name.startswith("dirac") else 1
    return GridSpec(1, N, L, fiber)


def test_named_families_build():
    for name in NAMED_SYMBOLS:
        if name == "xi1_squared":
            continue
        p = named_symbol(_grid(name), name)
        assert np.isfinite(p.samples).all()


def test_unknown_family_rejected():
    with pytest.raises(KeyError):
        named_symbol(GridSpec(1, 64, 1.0), "no_such_family")


def test_constant_estimates_match_hand_values():
    # p = 1 + xi^2 at order 2: C^{00} = sup (1+xi^2)/(1+|xi|)^2 = 1 at xi = 0
    g = GridSpec(1, 128, 1.0)
    p = named_symbol(g, "laplace+1")
    consts = estimate_constants(p, 1, 1)
    assert consts[((0,), (0,))] == pytest.approx(1.0, rel=1e-9)
    # x-derivative of an x-independent symbol vanishes
    assert consts[((1,), (0,))] <= 1e-10


def test_estimate_constants_scale_with_order():
    g = GridSpec(1, 128, 1.0)
    p = named_symbol(g, "schwartz_xi")
    consts = estimate_constants(p, 2, 2)
    assert max(consts.values()) <= 4.0


def test_ellipticity_certificates():
    g = GridSpec(1, 128, 1.0)
    assert check_elliptic(named_symbol(g, "laplace+1")).ok
    assert check_elliptic(named_symbol(g, "elliptic_x")).ok
    cert = check_elliptic(named_symbol(g, "drift"))
    # odd symbols sample to zero at the symmetrized Nyquist slot, so the
    # lattice certificate honestly fails even though (a + cos x) xi is
    # invertible away from xi = 0 in the continuum
    assert not cert.ok
    assert cert.worst_point is not None
    assert not check_elliptic(named_symbol(g, "schwartz_xi")).ok


# the named families with a 1D certificate; each has radius 0
CERTIFIED_1D = ("laplace+1", "sqrt_laplace", "elliptic_x", "magnetic",
                "mult_cos", "order_minus1", "xi1_squared", "dirac_mass")


@pytest.mark.parametrize("N", [64, 128])
@pytest.mark.parametrize("family", sorted(NAMED_SYMBOLS))
def test_named_families_keep_their_1d_certificates(family, N):
    cert = check_elliptic(named_symbol(_grid(family, N), family))
    expected = (True, 0.0) if family in CERTIFIED_1D else (False, np.inf)
    assert (cert.ok, cert.radius) == expected


@pytest.mark.parametrize("zero_radius, ok", [(3.0, True), (20.0, False)])
def test_certificate_radius_stops_at_half_nyquist(zero_radius, ok):
    # N/(4L) = 16 here: a symbol that fails out to |xi| = 20 is invertible
    # only on the shell 20 < |xi| <= 32 at the lattice edge, and is refused
    g = GridSpec(1, 64, 1.0)

    def fn(x, xi):
        return np.where(np.abs(xi[..., 0]) <= zero_radius, 0.0,
                        1.0 + xi[..., 0] ** 2)

    cert = check_elliptic(symbol_from_callable(
        g, 2, fn, hermitian_valued=True, x_independent=True))
    assert cert.ok == ok
    if ok:
        assert zero_radius <= cert.radius <= 16.0


def test_compose_zeroth_order_is_pointwise_product():
    g = GridSpec(1, 64, 1.0)
    p = named_symbol(g, "laplace+1")
    q = named_symbol(g, "mult_cos")
    r = compose_symbols(p, q, 0)
    direct = p.samples * q.samples
    assert np.abs(r.samples - direct).max() <= 1e-12


def test_compose_with_identity():
    g = GridSpec(1, 64, 1.0)
    one = symbol_from_callable(g, 0, lambda x, xi: 1.0 + 0.0 * xi[..., 0],
                               hermitian_valued=True, x_independent=True)
    p = named_symbol(g, "elliptic_x")
    for J in (0, 1, 2):
        r = compose_symbols(p, one, J)
        assert np.abs(r.samples - p.samples).max() <= 1e-12


def test_invert_principal_off_excision():
    g = GridSpec(1, 128, 2.0)
    p = named_symbol(g, "laplace+1")
    cert = check_elliptic(p)
    q = invert_principal(p, cert, excision_width=2.0)
    prod = p.samples * q.samples
    absxi = g.frequency_magnitude
    far = absxi > cert.radius + 2.5
    assert np.abs(prod[:, far] - 1.0).max() <= 1e-10


def test_matrix_valued_symbol_hermitian():
    g = GridSpec(1, 64, 1.0, fiber_dim=2)
    p = named_symbol(g, "dirac_mass", {"m": 0.5})
    s = p.samples
    assert np.abs(s - s.swapaxes(-1, -2).conj()).max() <= 1e-14


def _looped_samples(grid, fn, x_independent):
    """The Nyquist average by one evaluation of ``fn`` per sign choice on
    the whole lattice, with Nyquist entries found by a float test: the
    oracle for the one-pass sampling of symbol_from_callable."""
    g = grid
    r = g.fiber_dim
    xs = (np.zeros((1, g.dim)) if x_independent else g.points)[:, None, :]
    xi_base = g.frequencies
    nyq_val = (g.points_per_axis // 2) / g.period_scale
    nyq_axes = [ax for ax in range(g.dim)
                if np.any(np.isclose(np.abs(xi_base[:, ax]), nyq_val))]
    target = (xs.shape[0], g.n_points, r, r)
    acc = np.zeros(target, dtype=complex)
    combos = list(itertools.product((1.0, -1.0), repeat=len(nyq_axes)))
    for signs in combos:
        xi = xi_base.copy()
        for sgn, ax in zip(signs, nyq_axes):
            at_nyq = np.isclose(np.abs(xi[:, ax]), nyq_val)
            xi[at_nyq, ax] = sgn * nyq_val
        out = np.asarray(fn(xs, xi[None, :, :]), dtype=complex)
        if r == 1 and out.ndim == 2:
            out = out[:, :, None, None]
        acc = acc + np.broadcast_to(out, target)
    return acc / len(combos)


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("dim,N", [(1, 8), (1, 64), (2, 8), (2, 20)])
@pytest.mark.parametrize("L", [0.7, 2.0])
def test_sampling_equals_per_sign_loop(dim, N, L):
    # bit for bit, signed zeros included
    for name, build in sorted(NAMED_SYMBOLS.items()):
        fn, order, herm, x_indep = build({})
        g = GridSpec(dim, N, L, 2 if name.startswith("dirac") else 1)
        p = symbol_from_callable(g, order, fn, hermitian_valued=herm,
                                 x_independent=x_indep)
        assert np.array_equal(_bits(p.samples),
                              _bits(_looped_samples(g, fn, x_indep))), name


def test_sampling_at_a_huge_period_scale_keeps_the_modes():
    # mode spacing 1/L = 1e-9 is inside the float test's atol of 1e-8;
    # only the half-mode slot is a Nyquist mode
    g = GridSpec(1, 8, 1e9)
    p = named_symbol(g, "momentum")
    got = p.samples[0, :, 0, 0]
    nyq = g.axis_modes == -4
    assert np.array_equal(got[~nyq], g.axis_modes[~nyq] / 1e9 + 0j)
    assert got[nyq] == 0.0
    assert np.count_nonzero(got) == 6


def test_scalar_hermitian_defect_is_twice_the_imaginary_sup():
    g = GridSpec(1, 32, 1.0)
    rng = np.random.default_rng(3)
    a = rng.standard_normal((g.n_points, g.n_points)).astype(complex)
    a.imag = 1e-13 * rng.standard_normal(a.shape)
    defect = np.abs(a - np.conj(a)).max()
    assert defect == 2.0 * np.abs(a.imag).max()
    Symbol(g, 0, a, hermitian_valued=True)
    a.imag *= 1e3
    with pytest.raises(ValueError, match="hermitian_valued but defect "
                       f"{np.abs(a - np.conj(a)).max():.3e}"):
        Symbol(g, 0, a, hermitian_valued=True)
