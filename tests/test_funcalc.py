import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from torusop import funcalc
from torusop.lattice import GridSpec
from torusop.operators import (
    DiscreteOperator,
    fourier_matrix,
    fourier_multiplier,
    multiplication_operator,
    quantize,
    symmetrize,
)
from torusop.funcalc import (
    NAMED_FUNCTIONS,
    SPECTRAL_REL_TOL,
    SpectralData,
    _c_psi,
    _gate_passes,
    chi_resolvent_integral,
    fourier_apply,
    named_function,
    psi_difference_bound,
    q_integral,
    spectral_apply,
    spectral_data,
    wave_operator,
)
from torusop.parametrix import build_parametrix
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
    sd = spectral_data(P)
    vals, vecs, modes = sd.eigenvalues, sd.eigenvectors, sd.modes
    SpectralData(vals, None, P, modes=modes)
    bad_vals = vals.copy()
    bad_vals[3] += 1e-6 * np.abs(vals).max()
    with pytest.raises(ValueError, match="reconstruction defect"):
        SpectralData(bad_vals, None, P, modes=modes)
    swapped = modes.copy()
    swapped[[0, -1]] = swapped[[-1, 0]]
    with pytest.raises(ValueError, match="reconstruction defect"):
        SpectralData(vals, None, P, modes=swapped)
    with pytest.raises(ValueError, match="not a permutation"):
        SpectralData(vals, None, P, modes=np.zeros_like(modes))
    # modes alone declares the basis: eigenvectors alongside them is an error
    with pytest.raises(ValueError, match="exactly one"):
        SpectralData(vals, vecs, P, modes=modes)


def test_spectral_gate_passes_on_wave_scan_multiplier():
    # the cheap bounds decide at the wave-scan size, with no SVD
    g = GridSpec(1, 1024, 8.0)
    P = fourier_multiplier(g, lambda xi: 1.0 + xi[..., 0] ** 2, order=2)
    sd = spectral_data(P)
    x = sd.eigenvectors[:, np.argmax(np.abs(sd.eigenvalues))]
    assert _gate_passes(sd.apply(sd.eigenvalues) - P.matrix, P.matrix, x)


@pytest.mark.parametrize("grid", [GridSpec(1, 64, 1.0), GridSpec(2, 8, 1.0, 2)],
                         ids=["1d-r1", "2d-r2"])
def test_multiplier_basis_is_built_on_first_read(grid, monkeypatch):
    P = fourier_multiplier(grid, lambda xi: 1.0 + (xi ** 2).sum(axis=-1),
                           order=2)

    def no_basis(g):
        raise AssertionError("dense Fourier basis built")

    monkeypatch.setattr(funcalc, "fourier_matrix", no_basis)
    sd = spectral_data(P)
    spectral_apply(P, np.cos, spectral=sd)
    assert "eigenvectors" not in sd.__dict__
    monkeypatch.undo()
    # the dense basis as spectral_data built it before it became lazy
    r, order = grid.fiber_dim, sd.modes
    w = (fourier_matrix(grid)[:, None, order // r]
         * (np.arange(r)[:, None] == order % r))
    v = sd.eigenvectors
    assert np.array_equal(v, w.reshape(grid.state_dim, -1))
    assert sd.__dict__["eigenvectors"] is v
    with pytest.raises(ValueError, match="exactly one"):
        SpectralData(sd.eigenvalues, None, P)
    # on the eigh path the constructor's basis fills the same cache
    vals, vecs = scipy.linalg.eigh(P.matrix)
    assert SpectralData(vals, vecs, P).__dict__["eigenvectors"] is vecs


def test_spectral_data_multiplier_fast_path():
    g = GridSpec(1, 64, 1.0)
    P = fourier_multiplier(g, lambda xi: np.cos(xi[..., 0]), order=0)
    sd = spectral_data(P)
    assert np.abs(np.sort(sd.eigenvalues)
                  - np.sort(np.cos(g.frequencies[:, 0]))).max() <= 1e-12


def test_named_function_specs_verify():
    for name in NAMED_FUNCTIONS:
        report = named_function(name).verify()
        assert report["ok"], (name, report)


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
    for name in ("chi_rational", "si_normalizing", "identity", "one"):
        with pytest.raises(ValueError, match="closed-form transform"):
            fourier_apply(P, named_function(name))


def test_resolvent_route_matches_oracle():
    P = _p(N=64, L=2.0, name="sqrt_laplace")
    res = chi_resolvent_integral(P, n_quad=4096)
    assert res.defect <= 1e-5


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


def test_q_integral_identity():
    g = GridSpec(1, 96, 2.0)
    p = named_symbol(g, "laplace+1")
    P = quantize(p)
    par = build_parametrix(P, p, 1, excision_width=4.0)
    f = named_function("gaussian", {"sigma": 1.0})
    res = q_integral(f, 2, P, par)
    assert res.identity_residual <= res.residual_bound
    assert all(np.isfinite(v) for v in res.norms.values())


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


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
def test_c_psi_from_closed_form_derivative(sigma):
    # gaussian has no closed-form C_psi, so its derivative is transformed;
    # (1/2pi) int |s| sigma sqrt(2pi) e^{-sigma^2 s^2/2} ds = sqrt(2/pi)/sigma
    psi = named_function("gaussian", {"sigma": sigma})
    assert psi.c_psi is None and psi.derivative is not None
    assert _c_psi(psi) == pytest.approx(np.sqrt(2.0 / np.pi) / sigma,
                                        rel=2e-4)


@pytest.mark.parametrize("a, b", [(1.0, 1.0), (2.0, 0.5), (0.5, 3.0)])
def test_schwartz_bump_transform_matches_riemann_sum(a, b):
    # the unitary transform (1/sqrt(2pi)) int f(x) e^{-itx} dx, by a Riemann
    # sum that is spectrally accurate for this Schwartz f
    f = named_function("schwartz_bump", {"a": a, "b": b})
    x = np.linspace(-60.0, 60.0, 1 << 16, endpoint=False)
    fx = f(x) * (x[1] - x[0]) / np.sqrt(2.0 * np.pi)
    t = np.linspace(-8.0, 8.0, 33)
    riemann = np.array([np.dot(fx, np.exp(-1j * tv * x)) for tv in t])
    assert np.abs(riemann - f.fhat(t)).max() <= 1e-12
