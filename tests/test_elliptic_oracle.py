"""Differential tests: the elliptic-estimate surrogate against its old solve.

parametrix.elliptic_estimate_constant takes its quadratic surrogate from one
standard Hermitian eigensolve of H = D^{-1} G D^{-1}, where D = diag(ws) and
G is the denominator Gram matrix.  The oracle is the generalized solve it
replaces: both Gram matrices formed densely, the one-vector subset solve of
the pencil (diag(ws^2), G), and the full solve when that subset solve
returns no vector (a tied top eigenvalue).  H's spectrum is checked against
the pencil's reciprocal eigenvalues, taken from singular values rather than
from the generalized solve, which loses too much in the small eigenvalues.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from torusop.lattice import GridSpec, Section, from_frequency
from torusop.operators import DiscreteOperator, quantize
from torusop.parametrix import (
    EIGH_DIM_CAP,
    _estimate_ratio,
    elliptic_estimate_constant,
)
from torusop.symbols import NAMED_SYMBOLS, named_symbol

REL = 1e-12

SCALAR_FAMILIES = sorted(n for n in NAMED_SYMBOLS if not n.startswith("dirac"))


def _gram_pencil(P, s):
    """The surrogate's numerator and denominator Gram matrices."""
    g = P.grid
    ws = g.sobolev_weights(s)
    wsk = g.sobolev_weights(s - P.order)
    lp = wsk[:, None] * P.frequency_rep
    gram_den = np.diag(wsk ** 2) + lp.conj().T @ lp
    gram_den = (gram_den + gram_den.conj().T) / 2
    return np.diag(ws ** 2), gram_den


def _pencil_reciprocals(P, s):
    """1/lam over the eigenvalues lam of the pencil (diag(ws^2), G), ascending.

    G = A^H A with A = [diag(wsk); L], so the 1/lam are the squared singular
    values of A diag(ws)^{-1}.  Those carry relative error ~eps sqrt(cond);
    the generalized solve's Cholesky of G loses ~eps cond(G) in the small lam
    (2.4e-10 in 1/lam at dim=1, fiber=1, order=2, s=-2, seed=0).
    """
    g = P.grid
    ws = g.sobolev_weights(s)
    wsk = g.sobolev_weights(s - P.order)
    A = np.vstack([np.diag(wsk), wsk[:, None] * P.frequency_rep])
    return np.sort(scipy.linalg.svdvals(A / ws[None, :]) ** 2)


def _plane_wave_ratio(P, s):
    """The largest ratio over the Nyquist plane waves, one per axis and
    fiber slot."""
    g = P.grid
    n, r = g.n_points, g.fiber_dim
    best = 0.0
    half = g.points_per_axis // 2
    for axis in range(g.dim):
        idx = [0] * g.dim
        idx[axis] = half
        flat_idx = np.ravel_multi_index(idx, g.grid_shape())
        for slot in range(r):
            vals = np.zeros((n, r), dtype=complex)
            vals[:, slot] = np.exp(1j * g.points @ g.frequencies[flat_idx])
            best = max(best, _estimate_ratio(P, Section(g, vals), s))
    return best


def _surrogate_ratio(P, s):
    """The ratio at the surrogate's maximiser, by the generalized solve."""
    g = P.grid
    num, gram_den = _gram_pencil(P, s)
    vecs = scipy.linalg.eigh(num, gram_den,
                             subset_by_index=[g.state_dim - 1] * 2)[1]
    if vecs.shape[1] == 0:
        vecs = scipy.linalg.eigh(num, gram_den)[1]
    u = Section(g, from_frequency(g, vecs[:, -1]).reshape(g.n_points,
                                                          g.fiber_dim))
    return _estimate_ratio(P, u, s)


def _oracle_constant(P, s):
    """elliptic_estimate_constant(P, s, probes=0) by the generalized solve."""
    return max(_plane_wave_ratio(P, s), _surrogate_ratio(P, s))


def _assert_matches_oracle(P):
    for s in (0.0, 1.0, 2.0):
        want = _oracle_constant(P, s)
        got = elliptic_estimate_constant(P, s, probes=0)
        assert abs(got - want) <= REL * want, (s, got, want)


@pytest.mark.parametrize("dim,N", [(1, 64), (1, 128), (1, 256), (2, 16),
                                   (2, 20)])
@pytest.mark.parametrize("name", SCALAR_FAMILIES)
def test_constant_matches_generalized_solve(name, dim, N):
    _assert_matches_oracle(quantize(named_symbol(GridSpec(dim, N, 1.0), name)))


@pytest.mark.parametrize("dim,N", [(1, 64), (1, 128), (2, 8), (2, 12)])
@pytest.mark.parametrize("name", ["dirac", "dirac_mass"])
def test_constant_matches_generalized_solve_on_fiber_2(name, dim, N):
    g = GridSpec(dim, N, 1.0, 2)
    _assert_matches_oracle(quantize(named_symbol(g, name)))


def _eigh_calls(monkeypatch):
    """Record the arguments of every scipy.linalg.eigh call."""
    calls = []
    eigh = scipy.linalg.eigh

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return eigh(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", recording)
    return calls


def test_one_standard_eigensolve(monkeypatch):
    calls = _eigh_calls(monkeypatch)
    P = quantize(named_symbol(GridSpec(1, 64, 1.0), "schwartz_xi"))
    elliptic_estimate_constant(P, 1.0, probes=0)
    assert len(calls) == 1
    args, kwargs = calls[0]
    assert len(args) == 1 and kwargs.get("b") is None


@settings(max_examples=40, deadline=None)
@given(dim=st.sampled_from([1, 2]), fiber=st.sampled_from([1, 2]),
       order=st.integers(-2, 2), s=st.floats(-2.0, 2.0),
       seed=st.integers(0, 2 ** 32 - 1))
@example(dim=1, fiber=1, order=2, s=-2.0, seed=0)
def test_spectrum_is_reciprocal_of_the_pencil(dim, fiber, order, s, seed):
    g = GridSpec(dim, 16 if dim == 1 else 4, 1.0, fiber)
    rng = np.random.default_rng(seed)
    shape = (g.state_dim, g.state_dim)
    P = DiscreteOperator(g, order, rng.standard_normal(shape)
                         + 1j * rng.standard_normal(shape))
    with pytest.MonkeyPatch.context() as mp:
        calls = _eigh_calls(mp)
        elliptic_estimate_constant(P, s, probes=0)
    (H,), kwargs = calls[0]
    mu = scipy.linalg.eigvalsh(H, lower=kwargs["lower"])
    want = _pencil_reciprocals(P, s)
    assert np.all(np.abs(mu - want) <= 1e-10 * np.abs(want)), (mu, want)


# Each leg of the estimator can set the constant below EIGH_DIM_CAP, so
# none of them can be dropped there without lowering measured constants.


def test_plane_waves_set_the_constant_above_the_surrogate():
    # the Nyquist plane wave's ratio is 13% above the surrogate maximiser's
    P = quantize(named_symbol(GridSpec(1, 16, 0.5), "elliptic_x"))
    plane = _plane_wave_ratio(P, 0.0)
    assert plane == pytest.approx(0.98994, abs=1e-5)
    assert _surrogate_ratio(P, 0.0) == pytest.approx(0.87382, abs=1e-5)
    assert elliptic_estimate_constant(P, 0.0, probes=0) == plane
    assert elliptic_estimate_constant(P, 0.0) == plane


@pytest.mark.parametrize("seed, want", [(0, 0.96918), (1, 0.96948),
                                        (2, 0.97023)])
def test_random_probes_set_the_constant_below_the_cap(seed, want):
    P = quantize(named_symbol(GridSpec(2, 8, 0.5), "elliptic_x"))
    assert P.grid.state_dim <= EIGH_DIM_CAP
    without = elliptic_estimate_constant(P, 2.0, probes=0)
    assert without == pytest.approx(0.96829, abs=1e-5)
    got = elliptic_estimate_constant(P, 2.0, probes=16, seed=seed)
    assert got == pytest.approx(want, abs=1e-5)
    assert got > without
