import decimal
import itertools
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusop import khomology
from torusop.lattice import GridSpec, lipschitz_bump
from torusop.operators import (
    DiscreteOperator,
    fourier_multiplier,
    multiplication_operator,
    quantize,
    symmetrize,
)
from torusop.funcalc import (
    SpectralData,
    _resolvent_route,
    chi_resolvent_integral,
    named_function,
    spectral_apply,
    spectral_data,
)
from torusop.khomology import (
    FAMILIES,
    Multigrading,
    _summand_weights,
    assemble_module,
    commutator_integral,
    homotopy_scan,
    make_multigrading,
)
from torusop.symbols import NAMED_SYMBOLS, named_symbol


def _bumps(g, centers, R=1.0, L=2.0):
    return [lipschitz_bump(g, np.array([c]), R, L) for c in centers]


def test_multigrading_identities_all_degrees():
    for p in range(-1, 5):
        mg = make_multigrading(p)
        assert mg.identity_defect() <= 1e-12
        assert mg.degree == p
        if p >= 0:
            assert len(mg.generators) == p
            assert mg.fiber_dim == 2 ** max(1, -(-p // 2))


def test_multigrading_ungraded_case_carries_no_data():
    mg = make_multigrading(-1)
    assert mg.grading is None
    assert mg.generators == ()
    assert mg.fiber_dim == 1
    with pytest.raises(ValueError):
        Multigrading(-1, np.eye(2, dtype=complex), ())


def test_multigrading_user_matrices():
    eps = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    gen = 1j * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    mg = Multigrading(1, eps, (gen,))
    assert mg.identity_defect() <= 1e-12
    bad = 1j * np.array([[0.0, 2.0], [2.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        Multigrading(1, eps, (bad,))
    with pytest.raises(ValueError):
        Multigrading(1, eps, ())


def test_assemble_dirac_module():
    g = GridSpec(1, 32, 1.0, fiber_dim=2)
    P = quantize(named_symbol(g, "dirac"))
    chi = named_function("chi_rational")
    fam = _bumps(g, (0.0, np.pi))
    mod = assemble_module(P, chi, make_multigrading(1), {"bumps": fam},
                          eps_list=(0.5, 0.1, 0.05))
    rep = mod.verification
    assert rep.adjoint_defect <= 1e-10
    assert rep.odd_defect <= 1e-10
    assert rep.multigraded_defect <= 1e-10
    assert rep.grading_identity_defect <= 1e-12
    assert rep.passed
    for key in (("bumps", "fT2m1"), ("bumps", "T2m1f"), ("bumps", "comm")):
        prof = rep.profiles[key]
        ranks = next(iter(prof.ranks.values()))
        # finer epsilon can only need more of the spectrum
        assert ranks[0] <= ranks[1] <= ranks[2]


def test_gapped_module_square_exact():
    g = GridSpec(1, 32, 1.0, fiber_dim=2)
    P = quantize(named_symbol(g, "dirac_mass", {"m": 0.5}))
    fam = _bumps(g, (0.0,))
    mod = assemble_module(P, np.sign, make_multigrading(0), {"bumps": fam},
                          check_square_exact=True)
    assert mod.verification.square_defect == 0.0
    assert mod.verification.passed


def test_assemble_rejects_even_operator():
    g = GridSpec(1, 32, 1.0, fiber_dim=2)
    P = DiscreteOperator(g, 0, np.eye(g.state_dim), provenance="composed",
                         self_adjoint=True)
    with pytest.raises(ValueError, match="not odd"):
        assemble_module(P, np.sign, make_multigrading(1),
                        {"bumps": _bumps(g, (0.0,))})


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


def test_homotopy_identical_endpoints():
    g = GridSpec(1, 32, 1.0)
    P = fourier_multiplier(g, lambda xi: xi[..., 0], order=1)
    f = lipschitz_bump(g, np.zeros(1), 1.0, 2.0)
    chi = named_function("chi_rational")
    tr = homotopy_scan(P, P, chi, [4, 8], [f])
    for fam in FAMILIES:
        assert tr.max_jump(fam) == 0.0
        assert tr.gamma[fam] == float("inf")


def test_homotopy_principal_mismatch_rejected():
    g = GridSpec(1, 32, 1.0)
    P = fourier_multiplier(g, lambda xi: xi[..., 0], order=1)
    Q = fourier_multiplier(g, lambda xi: 2.0 * xi[..., 0], order=1)
    f = lipschitz_bump(g, np.zeros(1), 1.0, 2.0)
    with pytest.raises(ValueError, match="principal"):
        homotopy_scan(P, Q, named_function("chi_rational"), [4], [f])


def test_homotopy_order1_continuity_and_lipschitz():
    g = GridSpec(1, 32, 1.0)
    P = fourier_multiplier(g, lambda xi: xi[..., 0], order=1)
    pert = multiplication_operator(g, 0.3 * np.cos(g.points[:, 0]))
    Pp = DiscreteOperator(g, 1, P.matrix + pert.matrix,
                          provenance="composed", self_adjoint=True)
    chi = named_function("chi_rational")
    f = lipschitz_bump(g, np.zeros(1), 1.0, 2.0)
    tr = homotopy_scan(P, Pp, chi, [4, 8, 16], [f])
    assert tr.gamma["commutator"] > 0
    assert tr.gamma["locally_compact"] > 0
    assert tr.gamma["adjoint"] == float("inf")
    assert tr.c_chi is not None
    assert tr.lipschitz
    for _a, _b, lhs, rhs in tr.lipschitz:
        assert lhs <= 1.05 * rhs


def test_homotopy_order2_continuity():
    g = GridSpec(1, 32, 1.0)
    P = fourier_multiplier(g, lambda xi: 1.0 + xi[..., 0] ** 2, order=2)
    pert = multiplication_operator(g, 0.25 * np.cos(g.points[:, 0]))
    Pp = DiscreteOperator(g, 2, P.matrix + pert.matrix,
                          provenance="composed", self_adjoint=True)
    tr = homotopy_scan(P, Pp, named_function("chi_rational"), [4, 8],
                       [lipschitz_bump(g, np.zeros(1), 1.0, 2.0)])
    assert tr.gamma["commutator"] > 0
    # no closed-form Lipschitz constant is claimed away from order one
    assert tr.lipschitz == ()


def test_homotopy_scan_diagonalizes_each_t_once(monkeypatch):
    # t_steps [4, 8, 16] visit 5 + 9 + 17 t-points, 17 of them distinct
    g = GridSpec(1, 32, 1.0)
    P = fourier_multiplier(g, lambda xi: xi[..., 0], order=1)
    pert = multiplication_operator(g, 0.3 * np.cos(g.points[:, 0]))
    Pp = DiscreteOperator(g, 1, P.matrix + pert.matrix,
                          provenance="composed", self_adjoint=True)
    chi = named_function("chi_rational")
    fs = [lipschitz_bump(g, np.zeros(1), 1.0, 2.0),
          lipschitz_bump(g, np.ones(1), 1.5, 2.0)]
    calls = []
    spectral_data = khomology.spectral_data

    def counting(*args, **kwargs):
        calls.append(1)
        return spectral_data(*args, **kwargs)

    monkeypatch.setattr(khomology, "spectral_data", counting)
    tr = homotopy_scan(P, Pp, chi, [4, 8, 16], fs)
    assert len(calls) == 17
    for steps in (4, 8, 16):
        single = homotopy_scan(P, Pp, chi, [steps], fs)
        for fam in FAMILIES:
            assert single.jumps[(fam, steps)] == tr.jumps[(fam, steps)]
            assert single.max_jumps[(fam, steps)] \
                == tr.max_jumps[(fam, steps)]
    assert single.lipschitz == tr.lipschitz
    assert len(calls) == 17 + 5 + 9 + 17


# ---------------------------------------------------------------------------
# commutator_integral against the node-by-node resolvent route


def _nodewise_route(P, f, sd, lam, w):
    """The resolvent route to [rho(f), chi(P)] summed node by node over the
    nodes lam with weights w: the loop commutator_integral replaced, kept
    as the oracle.

    Returns C = V* [rho(f), P] V and the two summands' weights, so that the
    route is V ((first + second) * C) V*.
    """
    rho = np.repeat(f.values, P.grid.fiber_dim)
    C = sd.eigenvectors.T.conj() @ (
        rho[:, None] * P.matrix - P.matrix * rho[None, :]
    ) @ sd.eigenvectors
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
    v, mu = sd.eigenvectors, sd.eigenvalues
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
    v = sd.eigenvectors
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
    monkeypatch.setattr(khomology, "spectral_data", lambda _P: sd)
    monkeypatch.setattr(SpectralData, "apply", refuse)
    monkeypatch.setattr(DiscreteOperator, "__post_init__", refuse)
    assert commutator_integral(P, f, n_quad=256) == expected
