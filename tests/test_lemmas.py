"""The paper's four lemmas, each an oracle routine beside its tests.

No scenario, acceptance criterion or benchmark workload runs them, so they
live here rather than in the package, built on its public and private rules:

- ``q_integral``: the order-raising identity of A_0 = int q(t) e^{itP} dt
  against a parametrix, by funcalc's wave rule;
- ``commutator_integral``: [rho(f), chi(P)] by funcalc's resolvent rule,
  against the node-by-node sum it replaced;
- ``elliptic_regularity_check``: Pu smooth makes u smooth, read off the
  high-frequency tails of u and Pu;
- ``pseudolocality_equivalence_spotcheck``: the Lipschitz-commutator and
  Borel-indicator approximability views of a commutator family.

The parametrix residual S2 = I - QP is formed here by
``parametrix._identity_defect``, the subtraction that forms the
("S2", k, l) norm entries, and the eigenbasis V of spectral data by
``_eigenvectors``.
"""

import decimal
import itertools
import types
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusop.funcalc import (
    SpectralData,
    _resolvent_route,
    _trapezoid,
    _wave_route,
    chi_resolvent_integral,
    named_function,
    spectral_apply,
    spectral_data,
)
from torusop.lattice import (
    GridSpec,
    Section,
    from_frequency,
    lipschitz_bump,
    sobolev_norm,
    to_frequency,
)
from torusop.operators import (
    DiscreteOperator,
    apply_operator,
    fourier_multiplier,
    op_norm,
    quantize,
    symmetrize,
)
from torusop.parametrix import _identity_defect, build_parametrix
from torusop.quasiloc import _count_at_least
from torusop.symbols import NAMED_SYMBOLS, named_symbol


def _eigenvectors(sd: SpectralData) -> np.ndarray:
    """V as a dense state_dim x state_dim matrix: the eigh basis, or the
    Fourier basis of lattice.to_frequency."""
    if sd.vectors is not None:
        return sd.vectors
    g = sd.source.grid
    return from_frequency(g, np.eye(g.state_dim))


# ---------------------------------------------------------------------------
# integration-by-parts identity for wave integrals


@dataclass(frozen=True)
class QIntegralResult:
    """Integration-by-parts check of A_0 = int q(t) e^{itP} dt: the
    identity's residual, its bound, and the norms of A_0."""

    identity_residual: float
    residual_bound: float
    norms: dict


def _gaussian_derivatives(sigma: float):
    """j -> the j-th derivative of funcalc's gaussian exp(-x^2 / (2 sigma^2)),
    (-1/sigma)^j He_j(x / sigma) exp(-x^2 / (2 sigma^2)) with He_j the
    probabilists' Hermite polynomial (He_0 = 1)."""
    def derivative(j):
        def dj(x):
            u = np.asarray(x) / sigma
            he = np.polynomial.hermite_e.hermeval(u, [0.0] * j + [1.0])
            return (-1.0 / sigma) ** j * he * np.exp(-u ** 2 / 2.0)

        return dj

    return derivative


def q_integral(derivative, n: int, P: DiscreteOperator,
               parametrix) -> QIntegralResult:
    """Quadrature of A_0 = int q(t) e^{itP} dt with the order-raising identity.

    ``derivative(j)`` is q^(j) as a callable.  The trapezoid rule takes
    4096 nodes on [-16, 16], summed by the wave rule ``_wave_route`` on P's
    eigenvalues.  Each integration by parts against the parametrix Q of P
    gives A_j = iQ A_{j+1} + S2 A_j, hence
    A_0 = (iQ)^n A_n + sum_{j<n} (iQ)^j S2 A_j.  The residual of that
    matrix identity is reported against a bound driven by the quadrature
    defects and the parametrix residual S2.  The norms of A_0 are recorded
    as maps H^{l-nk+k-1} -> H^l for l = 0 and 1.
    """
    t_max, n_quad = 16.0, 4096
    t = _trapezoid(t_max, n_quad)[0]
    # every q^(j) is checked on the nodes before P's spectral data is taken
    for j in range(n + 1):
        qj = np.asarray(derivative(j)(t), dtype=complex)
        tail = float(np.abs(qj[0] * t[0]) + np.abs(qj[-1] * t[-1]))
        assert tail <= 1e-8, (
            f"q^({j})(t) |t| not integrable on the grid: tail {tail:.3e}")
    sd = spectral_data(P)
    # int q^(j)(t) e^{itx} dt is sqrt(2 pi) times the wave rule of q^(j)
    mats = [sd.apply(np.sqrt(2 * np.pi) * _wave_route(
                derivative(j), sd.eigenvalues, t_max, n_quad))
            for j in range(n + 1)]

    g = P.grid
    iq = 1j * parametrix.Q.matrix
    s2 = _identity_defect(g, parametrix.Q.matrix, P.matrix).matrix
    # the right side by Horner: S2 A_0 + iQ (S2 A_1 + iQ (... + iQ A_n))
    rhs = mats[n]
    for j in reversed(range(n)):
        rhs = iq @ rhs + s2 @ mats[j]
    q_norm = np.linalg.norm(parametrix.Q.matrix, 2)
    s2_norm = np.linalg.norm(s2, 2)
    bound = sum(q_norm ** j * s2_norm * np.linalg.norm(mats[j], 2)
                for j in range(n))
    residual = float(np.linalg.norm(mats[0] - rhs, 2))

    k = P.order
    A = DiscreteOperator(g, -(n * k - k + 1), mats[0],
                         provenance="function_of")
    norms = {}
    for l in (0, 1):
        norms[l] = op_norm(A, float(l - n * k + k - 1), float(l))
    return QIntegralResult(identity_residual=residual,
                           residual_bound=float(bound) + 1e-12, norms=norms)


def test_q_integral_identity():
    g = GridSpec(1, 96, 2.0)
    p = named_symbol(g, "laplace+1")
    P = quantize(p)
    par = build_parametrix(P, p, 1, excision_width=4.0)
    res = q_integral(_gaussian_derivatives(1.0), 2, P, par)
    assert res.identity_residual <= res.residual_bound
    assert all(np.isfinite(v) for v in res.norms.values())


# ---------------------------------------------------------------------------
# commutator via the resolvent integral


@dataclass(frozen=True)
class CommutatorIntegralResult:
    defect: float
    first_term_norm: float
    second_term_norm: float
    under_resolved: bool


def _summand_weights(mu: np.ndarray) -> tuple:
    """(2/pi) int_0^inf of (1 + lam^2) and of -mu_i mu_j over
    (1 + lam^2 + mu_i^2)(1 + lam^2 + mu_j^2), in closed form with
    a = sqrt(1 + mu^2); they sum to the divided difference of chi."""
    a = np.sqrt(1.0 + mu * mu)
    aa = np.multiply.outer(a, a)
    denom = aa * np.add.outer(a, a)
    return (aa + 1.0) / denom, -np.multiply.outer(mu, mu) / denom


def commutator_integral(P: DiscreteOperator, f,
                        n_quad: int = 4096) -> CommutatorIntegralResult:
    """[rho(f), chi(P)] for chi(x) = x / sqrt(1+x^2), by the resolvent route.

    ``f`` is a bump function, or anything with its ``values``.  The route
    is linear in the scalar integrand x / (1 + lam^2 + x^2), so in P's
    eigenbasis, with r = V* rho(f) V, its commutator's entry (i, j) is
    (R(mu_j) - R(mu_i)) r_ij for R = funcalc._resolvent_route, against
    (chi(mu_j) - chi(mu_i)) r_ij directly.  V is unitary, so the spectral
    norm of the difference is the defect in either basis; the result is
    under-resolved when it exceeds 1e-4 max(1, ||direct||).  The integrand
    splits into two summands against C_ij = (mu_j - mu_i) r_ij, and their
    norms come from their closed-form integrals (_summand_weights).
    """
    assert P.self_adjoint, "P must be self-adjoint"
    sd = spectral_data(P)
    v = _eigenvectors(sd)
    rho = np.repeat(f.values, P.grid.fiber_dim)
    r = v.T.conj() @ (rho[:, None] * v)
    mu = sd.eigenvalues

    def across(vals):
        # (vals_j - vals_i) r_ij: the commutator with diag(vals) in this basis
        return (vals[None, :] - vals[:, None]) * r

    route = across(_resolvent_route(mu, n_quad))
    direct = across(mu / np.sqrt(1.0 + mu * mu))
    defect = float(np.linalg.norm(route - direct, 2))
    first, second = _summand_weights(mu)
    c = across(mu)
    scale = max(1.0, float(np.linalg.norm(direct, 2)))
    return CommutatorIntegralResult(
        defect=defect,
        first_term_norm=float(np.linalg.norm(first * c, 2)),
        second_term_norm=float(np.linalg.norm(second * c, 2)),
        under_resolved=bool(defect > 1e-4 * scale),
    )


def test_commutator_integral_converges():
    g = GridSpec(1, 48, 1.0)
    P = fourier_multiplier(g, lambda xi: xi[..., 0], order=1)
    f = lipschitz_bump(g, np.zeros(1), 1.0, 2.0)
    coarse = commutator_integral(P, f, n_quad=256)
    fine = commutator_integral(P, f, n_quad=4096)
    assert fine.defect <= 1e-4
    assert not fine.under_resolved
    assert fine.defect <= coarse.defect
    assert np.isfinite(fine.first_term_norm)
    assert np.isfinite(fine.second_term_norm)


def test_commutator_integral_constant_function_vanishes():
    g = GridSpec(1, 32, 1.0)
    P = fourier_multiplier(g, lambda xi: xi[..., 0], order=1)
    const = types.SimpleNamespace(values=np.ones(g.n_points))
    res = commutator_integral(P, const, n_quad=256)
    assert res.defect <= 1e-12
    assert res.first_term_norm <= 1e-12
    assert res.second_term_norm <= 1e-12


def _nodewise_route(P, f, sd, lam, w):
    """The resolvent route to [rho(f), chi(P)] summed node by node over the
    nodes lam with weights w: the loop commutator_integral replaced, kept
    as the oracle.

    Returns C = V* [rho(f), P] V and the two summands' weights, so that the
    route is V ((first + second) * C) V*.
    """
    rho = np.repeat(f.values, P.grid.fiber_dim)
    v = _eigenvectors(sd)
    C = v.T.conj() @ (rho[:, None] * P.matrix - P.matrix * rho[None, :]) @ v
    mu = sd.eigenvalues
    outer = np.multiply.outer(mu, mu)
    sq_i = (mu ** 2)[:, None]
    sq_j = (mu ** 2)[None, :]
    k_first = np.zeros_like(outer)
    k_second = np.zeros_like(outer)
    for lv, wv in zip(lam, w):
        u = 1.0 + lv * lv
        scaled = wv / ((u + sq_i) * (u + sq_j))
        k_first += u * scaled
        k_second += outer * scaled
    k_first *= 2.0 / np.pi
    k_second *= -2.0 / np.pi
    return C, k_first, k_second


def _trapezoid_nodes(lam):
    w = np.zeros(lam.size)
    w[1:] += 0.5 * np.diff(lam)
    w[:-1] += 0.5 * np.diff(lam)
    return lam, w


def _retired_nodes(n_quad):
    """The rule commutator_integral had of its own: a node at 0, then
    n_quad log-spaced nodes on [1e-4, 1e8]."""
    return _trapezoid_nodes(
        np.concatenate([[0.0], np.geomspace(1e-4, 1e8, n_quad)]))


def _shared_window(n_quad):
    """The middle nodes of funcalc._resolvent_route."""
    return _trapezoid_nodes(np.geomspace(1e-6, 1e3, n_quad))


def _shared_head_and_tail(x):
    """funcalc._resolvent_route's closed-form head [0, 1e-6] plus tail
    [1e3, inf)."""
    root = np.sqrt(1.0 + x ** 2)
    return ((2.0 / np.pi) * (x / root)
            * (np.arctan(1e-6 / root) + np.pi / 2 - np.arctan(1e3 / root)))


def _divided_difference(vals, mu):
    """(vals_j - vals_i) / (mu_j - mu_i), and 0 where mu_i == mu_j: there
    the C_ij it multiplies is 0."""
    num = vals[None, :] - vals[:, None]
    den = mu[None, :] - mu[:, None]
    return np.divide(num, den, out=np.zeros_like(num), where=den != 0)


def _commutator_test_case(path):
    """(P, f, spectral data) on the Fourier path (the momentum multiplier)
    or the eigh path (the symmetrized drift, a spectrum of both signs)."""
    if path == "fourier":
        g = GridSpec(1, 48, 1.0)
        P = fourier_multiplier(g, lambda xi: xi[..., 0], order=1)
    else:
        g = GridSpec(1, 64, 1.0)
        P = symmetrize(quantize(named_symbol(g, "drift")))
    sd = spectral_data(P)
    assert (sd.vectors is None) == (path == "fourier")
    return P, lipschitz_bump(g, np.zeros(1), 1.0, 2.0), sd


@pytest.mark.parametrize("path", ["fourier", "eigh"])
@pytest.mark.parametrize("n_quad", [16, 256, 4096])
def test_nodewise_route_is_the_commutator_with_the_scalar_route(path, n_quad):
    # the route is linear in its scalar integrand: node by node on the
    # shared window, plus the head and tail, it is [rho(f), R(P)] for the
    # scalar route R, entry (R_j - R_i) r_ij in P's eigenbasis
    P, f, sd = _commutator_test_case(path)
    v, mu = _eigenvectors(sd), sd.eigenvalues
    C, k_first, k_second = _nodewise_route(P, f, sd, *_shared_window(n_quad))
    ends = _divided_difference(_shared_head_and_tail(mu), mu)
    nodewise = v @ ((k_first + k_second + ends) * C) @ v.T.conj()
    rho = np.repeat(f.values, P.grid.fiber_dim)
    r = v.T.conj() @ (rho[:, None] * v)
    R = _resolvent_route(mu, n_quad)
    route = v @ ((R[None, :] - R[:, None]) * r) @ v.T.conj()
    scale = np.abs(route).max()
    assert np.abs(nodewise - route).max() <= 1e-12 * scale


@pytest.mark.parametrize("path", ["fourier", "eigh"])
@pytest.mark.parametrize("n_quad", [16, 256, 4096])
def test_commutator_defect_is_the_dense_operator_norm(path, n_quad):
    P, f, sd = _commutator_test_case(path)
    rho = np.repeat(f.values, P.grid.fiber_dim)
    route = sd.apply(_resolvent_route(sd.eigenvalues, n_quad))
    chi = spectral_apply(P, named_function("chi_rational"), spectral=sd)
    comm = lambda a: rho[:, None] * a - a * rho[None, :]
    dense = float(np.linalg.norm(comm(route) - comm(chi.matrix), 2))
    res = commutator_integral(P, f, n_quad=n_quad)
    assert abs(res.defect - dense) <= 1e-12 * dense + 1e-13, (res.defect,
                                                             dense)
    assert res.under_resolved == (n_quad < 4096)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(NAMED_SYMBOLS)),
       N=st.sampled_from([16, 24, 32]), L=st.sampled_from([0.5, 1.0, 2.0]),
       center=st.floats(0.0, 1.0), width=st.floats(0.0, 1.0),
       slope=st.floats(0.25, 8.0), amplitude=st.floats(-3.0, 3.0),
       n_quad=st.sampled_from([2, 16, 256, 4096]))
def test_commutator_defect_is_bounded_by_the_scalar_route(
        name, N, L, center, width, slope, amplitude, n_quad):
    # [rho, R(P)] - [rho, chi(P)] = [rho, (R - chi)(P)], whose norm is at
    # most 2 ||rho|| ||(R - chi)(P)|| = 2 max|f| times the scalar defect
    g = GridSpec(1, N, L, 2 if name.startswith("dirac") else 1)
    P = symmetrize(quantize(named_symbol(g, name)))
    R = 4 * g.spacing + width * (g.period - 4 * g.spacing)
    bump = lipschitz_bump(g, np.array([center * g.period]), R, slope)
    f = types.SimpleNamespace(values=amplitude * bump.values)
    sd = spectral_data(P)
    scalar = chi_resolvent_integral(P, n_quad=n_quad, spectral=sd).defect
    bound = 2.0 * np.abs(f.values).max() * scalar * (1.0 + 1e-12)
    assert commutator_integral(P, f, n_quad=n_quad).defect <= bound


@pytest.mark.parametrize("path", ["fourier", "eigh"])
def test_summand_weights_sum_to_the_divided_difference(path):
    # the sum cancels when mu_i and mu_j are large and of one sign, so it
    # is compared, against the divided difference at 50 digits, on the
    # scale its rounding has: |first| + |second|
    mu = _commutator_test_case(path)[2].eigenvalues
    first, second = _summand_weights(mu)
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        exact = [decimal.Decimal(float(m)) for m in mu]
        chi = [m / (1 + m * m).sqrt() for m in exact]
        for i, j in itertools.permutations(range(mu.size), 2):
            if mu[i] == mu[j]:
                continue
            dd = (chi[j] - chi[i]) / (exact[j] - exact[i])
            total = decimal.Decimal(first[i, j] + second[i, j])
            err = abs(float(total - dd))
            assert err <= 1e-14 * (abs(first[i, j]) + abs(second[i, j])), \
                (i, j)


@pytest.mark.parametrize("path", ["fourier", "eigh"])
def test_summand_norms_match_the_retired_quadrature(path):
    P, f, sd = _commutator_test_case(path)
    v = _eigenvectors(sd)
    C, k_first, k_second = _nodewise_route(P, f, sd, *_retired_nodes(4096))
    res = commutator_integral(P, f)
    for got, k in ((res.first_term_norm, k_first),
                   (res.second_term_norm, k_second)):
        want = float(np.linalg.norm(v @ (k * C) @ v.T.conj(), 2))
        assert abs(got - want) <= 1e-4 * want, (got, want)


@pytest.mark.parametrize("path", ["fourier", "eigh"])
def test_commutator_integral_builds_no_operator(monkeypatch, path):
    # one conjugation V* rho(f) V and arithmetic on the spectrum: no
    # DiscreteOperator and no V diag(values) V*
    P, f, sd = _commutator_test_case(path)
    expected = commutator_integral(P, f, n_quad=256)

    def refuse(*args, **kwargs):
        raise AssertionError("commutator_integral built an operator")

    # SpectralData checks its reconstruction with apply, so the spectral
    # data are handed over built
    monkeypatch.setitem(globals(), "spectral_data", lambda _P: sd)
    monkeypatch.setattr(SpectralData, "apply", refuse)
    monkeypatch.setattr(DiscreteOperator, "__post_init__", refuse)
    assert commutator_integral(P, f, n_quad=256) == expected


# ---------------------------------------------------------------------------
# elliptic regularity


@dataclass(frozen=True)
class RegularityReport:
    """Tail bound on u implied by u = Q(Pu) + S2 u and the tails of Pu."""

    identity_defect: float
    rows: tuple  # (level, tail_u, tail_Pu, ratio)


def _tail_mass(u: Section, level: float) -> float:
    g = u.grid
    hat = to_frequency(g, u.flat()).reshape(g.n_points, g.fiber_dim)
    outside = g.frequency_magnitude > level
    return float(
        g.quadrature_weight * np.linalg.norm(hat[outside])
    )


def elliptic_regularity_check(P: DiscreteOperator, p, u: Section, J: int,
                              excision_width: float) -> RegularityReport:
    """Verify the parametrix identity on u and tabulate frequency tails.

    The levels F are six equal steps up to 0.75 times the largest lattice
    frequency.  At each level F the report compares the Sobolev mass of u
    above F with the mass of Pu above F; for an elliptic P of order k the
    former is controlled by the latter at relative order -k, except on the
    excised band, where Pu can vanish while u does not.
    """
    g = P.grid
    par = build_parametrix(P, p, J, excision_width, norm_range=1)
    S2 = _identity_defect(g, par.Q.matrix, P.matrix)
    pu = apply_operator(P, u)
    recon = apply_operator(par.Q, pu).values + apply_operator(S2, u).values
    scale = sobolev_norm(u, 0.0) or 1.0
    defect = float(
        g.quadrature_weight
        * np.linalg.norm((u.values - recon).ravel())
    ) / scale

    top = float(g.frequency_magnitude.max())
    levels = np.linspace(0.0, 0.75 * top, 7)[1:]
    rows = []
    for level in levels:
        tu = _tail_mass(u, level)
        tpu = _tail_mass(pu, level)
        ratio = tu / tpu if tpu > 0 else np.inf
        rows.append((float(level), tu, tpu, ratio))
    return RegularityReport(identity_defect=defect, rows=tuple(rows))


def test_regularity_tails_controlled():
    g = GridSpec(1, 128, 2.0)
    p = named_symbol(g, "elliptic_x")
    P = quantize(p)
    rng = np.random.default_rng(5)
    hat = (rng.standard_normal(g.n_points)
           / (1.0 + g.frequency_magnitude) ** 3)
    u = Section(g, np.fft.ifft(hat * g.n_points ** 0.5)[:, None])
    rep = elliptic_regularity_check(P, p, u, J=2, excision_width=4.0)
    assert rep.identity_defect <= 1e-6
    for _level, tail_u, tail_pu, _ratio in rep.rows:
        assert tail_u <= 10 * (tail_pu + 1e-12)


# ---------------------------------------------------------------------------
# pseudolocality equivalence spot check


@dataclass(frozen=True)
class SpotcheckReport:
    """Step-function approximation bookkeeping for commutators [T, f]."""

    step_defects: tuple       # ||[T,f] - [T,f']|| per sampled f
    direct_bounds: tuple      # 2 mesh ||T|| per sampled f
    verdict_lipschitz: bool
    verdict_borel: bool


def pseudolocality_equivalence_spotcheck(T: DiscreteOperator, R: float,
                                         L: float,
                                         samples: int) -> SpotcheckReport:
    """Compare the Lipschitz-commutator and Borel-indicator approximability views.

    For sampled f in L-Lip_R (centres drawn from the generator seeded with
    0), the range of f is partitioned into intervals of mesh 0.25;
    f' = sum_i c_i chi_i is the induced step function.  Since
    ||f - f'|| <= mesh, the commutator difference obeys
    ||[T,f] - [T,f']|| <= 2 mesh ||T||, and [T, f'] assembles from the
    off-diagonal blocks chi_i T chi_j, which is the bridge between the two
    families.  Each family verdict holds when every sampled operator has
    eps-rank at most state_dim // 4 at eps = 0.25.
    """
    g = T.grid
    rng = np.random.default_rng(0)
    tnorm = float(np.linalg.norm(T.matrix, 2))
    mesh = eps = 0.25
    rank_cap = g.state_dim // 4

    defects, bounds = [], []
    lip_ok = True
    borel_ok = True
    for _ in range(samples):
        center = g.points[rng.integers(0, g.n_points)]
        f = lipschitz_bump(g, center, R, L)
        vals = f.values
        edges = np.arange(vals.min(), vals.max() + mesh, mesh)
        idx = np.clip(np.digitize(vals, edges) - 1, 0, len(edges) - 1)
        levels = edges[idx] + mesh / 2.0
        fv = np.repeat(vals, g.fiber_dim)
        sv = np.repeat(levels, g.fiber_dim)
        comm_f = T.matrix * fv[None, :] - fv[:, None] * T.matrix
        comm_s = T.matrix * sv[None, :] - sv[:, None] * T.matrix
        defect = float(np.linalg.norm(comm_f - comm_s, 2))
        defects.append(defect)
        bounds.append(2.0 * mesh * tnorm)
        # family verdicts: commutator vs indicator compressions
        sv_c = np.linalg.svd(comm_f, compute_uv=False)
        lip_ok = lip_ok and _count_at_least(sv_c, eps) <= rank_cap
        for i in np.unique(idx):
            chi_i = np.repeat(idx == i, g.fiber_dim).astype(float)
            mat = chi_i[:, None] * T.matrix - T.matrix * chi_i[None, :]
            sv_b = np.linalg.svd(mat, compute_uv=False)
            borel_ok = borel_ok and _count_at_least(sv_b, eps) <= rank_cap
    return SpotcheckReport(
        step_defects=tuple(defects), direct_bounds=tuple(bounds),
        verdict_lipschitz=bool(lip_ok), verdict_borel=bool(borel_ok),
    )


def test_spotcheck_verdicts_agree_for_smoothing_operator():
    g = GridSpec(1, 64, 1.0)
    T = quantize(named_symbol(g, "schwartz_xi"))
    rep = pseudolocality_equivalence_spotcheck(T, R=1.0, L=2.0, samples=2)
    for defect, bound in zip(rep.step_defects, rep.direct_bounds):
        assert defect <= bound * (1 + 1e-9)
    assert rep.verdict_lipschitz
    assert rep.verdict_lipschitz == rep.verdict_borel
