import numpy as np
import pytest

from torusop import khomology
from torusop.lattice import GridSpec, lipschitz_bump
from torusop.operators import (
    DiscreteOperator,
    fourier_multiplier,
    multiplication_operator,
    quantize,
)
from torusop.funcalc import named_function
from torusop.khomology import (
    FAMILIES,
    Multigrading,
    assemble_module,
    homotopy_scan,
    make_multigrading,
)
from torusop.symbols import named_symbol


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
