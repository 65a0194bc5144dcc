"""Every input guard of the package rejects its bad input.

One row per guard: the call that trips it, the exception it raises and a
fragment of its message.  Each message must fit on one line, so that a
command-line run can print it as its single line of error output.
"""

import warnings

import numpy as np
import pytest

from torusop import cli, funcalc
from torusop.funcalc import (
    ScalarFunctionSpec,
    SpectralData,
    chi_resolvent_integral,
    fourier_apply,
    named_function,
    psi_difference_bound,
    q_integral,
    spectral_data,
)
from torusop.khomology import (
    Multigrading,
    assemble_module,
    commutator_integral,
    homotopy_scan,
    make_multigrading,
)
from torusop.lattice import (
    BumpFunction,
    GridSpec,
    Region,
    Section,
    ball_region,
    lipschitz_bump,
)
from torusop.operators import (
    DiscreteOperator,
    commutator,
    compose,
    fourier_multiplier,
    multiplication_operator,
    quantize,
)
from torusop.parametrix import (
    build_parametrix,
    elliptic_estimate_constant,
)
from torusop.quasiloc import dominating_function, uniform_approx_profile
from torusop.symbols import (
    EllipticityCertificate,
    Symbol,
    compose_symbols,
    estimate_constants,
    invert_principal,
    named_symbol,
)

G = GridSpec(1, 16, 1.0)
G2 = GridSpec(1, 16, 1.0, fiber_dim=2)
N = G.n_points
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])


def _p(name="laplace+1"):
    return named_symbol(G, name)


def _P(name="laplace+1"):
    return quantize(_p(name))


def _drift():
    # a quantization that is not self-adjoint
    return _P("drift")


def _momentum():
    return fourier_multiplier(G, lambda xi: xi[..., 0], order=1)


def _bump():
    return lipschitz_bump(G, np.zeros(1), 2.0, 2.0)


def _zero(order=0, grid=G):
    return DiscreteOperator(grid, order, np.zeros((grid.state_dim,) * 2),
                            self_adjoint=True)


GUARDS = [
    # lattice
    ("grid-fiber", lambda: GridSpec(1, 16, 1.0, fiber_dim=0),
     ValueError, "fiber_dim must be positive"),
    ("section-nonfinite", lambda: Section(G, np.full(N, np.nan)),
     ValueError, "non-finite entries in section values"),
    ("section-shape", lambda: Section(G, np.ones(N + 1)),
     ValueError, "section shape"),
    ("region-mask", lambda: Region(G, np.ones(N + 1, dtype=bool)),
     ValueError, "mask size does not match grid"),
    ("bump-size", lambda: BumpFunction(G, np.ones(N + 1), 1.0, 1.0),
     ValueError, "bump values size does not match grid"),
    ("bump-resolution", lambda: lipschitz_bump(G, np.zeros(1), 0.1, 1.0),
     ValueError, "under-resolved bump"),
    ("bump-slope", lambda: lipschitz_bump(G, np.zeros(1), 2.0, 0.0),
     ValueError, "bump slope L must be positive and finite"),
    ("sobolev-overflow", lambda: G.sobolev_weights(400),
     ValueError, "Sobolev index s = 400 gives weights that are not finite"),
    # symbols
    ("symbol-shape", lambda: Symbol(G, 0, np.ones((3, 3))),
     ValueError, "symbol samples shape"),
    ("symbol-fiber", lambda: named_symbol(G, "dirac"),
     ValueError, "symbol blocks are 2x2 but the grid's fiber needs 1x1"),
    ("symbol-nonfinite",
     lambda: Symbol(G, 0, np.full((1, N), np.inf)),
     ValueError, "non-finite symbol samples"),
    ("constants-negative-alpha", lambda: estimate_constants(_p(), -1, 0),
     ValueError, "alpha_max must be >= 0"),
    ("constants-negative-beta", lambda: estimate_constants(_p(), 0, -1),
     ValueError, "beta_max must be >= 0"),
    ("constants-beta", lambda: estimate_constants(_p(), 0, 8),
     ValueError, "beta_max exceeds"),
    ("constants-alpha", lambda: estimate_constants(_p(), 8, 0),
     ValueError, "alpha_max exceeds"),
    ("compose-grids",
     lambda: compose_symbols(_p(), named_symbol(G2, "dirac"), 0),
     ValueError, "incompatible grids"),
    ("compose-negative-J", lambda: compose_symbols(_p(), _p(), -1),
     ValueError, "J must be >= 0"),
    ("compose-large-J", lambda: compose_symbols(_p(), _p(), 8),
     ValueError, "J exceeds resolvable"),
    ("invert-uncertified",
     lambda: invert_principal(_p(), EllipticityCertificate(ok=False), 1.0),
     ValueError, "without an ellipticity certificate"),
    ("invert-width",
     lambda: invert_principal(_p(), EllipticityCertificate(ok=True), 0.0),
     ValueError, "excision_width must be positive"),
    # operators
    ("operator-shape", lambda: DiscreteOperator(G, 0, np.eye(N + 1)),
     ValueError, "matrix shape"),
    ("operator-nonfinite",
     lambda: DiscreteOperator(G, 0, np.full((N, N), np.nan)),
     ValueError, "non-finite operator entries"),
    ("operator-propagation",
     lambda: DiscreteOperator(G, 0, np.ones((N, N)), propagation_bound=0.0),
     ValueError, "declared propagation bound violated"),
    ("quantize-cap",
     lambda: quantize(Symbol(GridSpec(2, 68, 1.0), 0, np.ones((1, 68 ** 2)))),
     ValueError, "exceeds the dense cap"),
    ("multiplier-size", lambda: multiplication_operator(G, np.ones(N + 1)),
     ValueError, "multiplier size does not match grid"),
    ("fourier-multiplier-size", lambda: fourier_multiplier(G, lambda xi: 1.0),
     ValueError, f"multiplier needs {N} values, one per frequency state"),
    ("compose-grid-mismatch", lambda: compose(_zero(), _zero(grid=G2)),
     ValueError, "grid mismatch"),
    ("commutator-grid-mismatch", lambda: commutator(_zero(), _zero(grid=G2)),
     ValueError, "grid mismatch"),
    # parametrix
    ("parametrix-nonelliptic",
     lambda: build_parametrix(_zero(), Symbol(G, 0, np.zeros((1, N))), 1),
     ValueError, "symbol is not elliptic"),
    ("parametrix-negative-J", lambda: build_parametrix(_P(), _p(), -1),
     ValueError, "J must be >= 0"),
    ("estimate-negative-probes",
     lambda: elliptic_estimate_constant(_P(), 2.0, probes=-1),
     ValueError, "probes must be >= 0"),
    # funcalc
    ("spectral-adjoint", lambda: spectral_data(_drift()),
     ValueError, "requires a self-adjoint operator"),
    ("spectral-fourier-size",
     lambda: SpectralData(np.ones(N - 1), None, _momentum()),
     ValueError, f"multiplier needs {N} values, one per frequency state"),
    ("function-name", lambda: named_function("no-such-function"),
     KeyError, "unknown function spec"),
    ("gaussian-zero-sigma",
     lambda: named_function("gaussian", {"sigma": 0.0}),
     ValueError, "sigma must be finite and > 0"),
    ("gaussian-negative-sigma",
     lambda: named_function("gaussian", {"sigma": -1.0}),
     ValueError, "sigma must be finite and > 0"),
    ("gaussian-nan-sigma",
     lambda: named_function("gaussian", {"sigma": np.nan}),
     ValueError, "sigma must be finite and > 0"),
    ("bump-zero-b", lambda: named_function("schwartz_bump", {"b": 0.0}),
     ValueError, "b must be finite and > 0"),
    ("bump-infinite-b",
     lambda: named_function("schwartz_bump", {"b": np.inf}),
     ValueError, "b must be finite and > 0"),
    ("function-class",
     lambda: ScalarFunctionSpec("f", np.exp, "schwarz"),
     ValueError, "unknown function class 'schwarz'"),
    ("fourier-quadrature",
     lambda: fourier_apply(_P(), named_function("gaussian"), n_quad=1),
     ValueError, "needs n_quad >= 2"),
    ("fourier-zero-window",
     lambda: fourier_apply(_P(), named_function("gaussian"), t_max=0.0),
     ValueError, "needs a finite t_max > 0"),
    ("fourier-reversed-window",
     lambda: fourier_apply(_P(), named_function("gaussian"), t_max=-12.0),
     ValueError, "needs a finite t_max > 0"),
    ("fourier-infinite-window",
     lambda: fourier_apply(_P(), named_function("gaussian"), t_max=np.inf),
     ValueError, "needs a finite t_max > 0"),
    ("resolvent-quadrature",
     lambda: chi_resolvent_integral(_P(), n_quad=1),
     ValueError, "needs n_quad >= 2"),
    ("q-derivatives",
     lambda: q_integral(named_function("chi_rational"), 1, _P(), None),
     ValueError, "needs closed-form derivatives"),
    ("q-tail",
     lambda: q_integral(named_function("gaussian", {"sigma": 10.0}), 1,
                        _P(), None),
     ValueError, "not integrable on the grid"),
    ("psi-constant",
     lambda: psi_difference_bound(named_function("gaussian"), _momentum(),
                                  _momentum()),
     ValueError, "gaussian declares no closed-form C_psi"),
    # quasiloc
    ("profile-family", lambda: uniform_approx_profile(_P(), []),
     ValueError, "family must be nonempty"),
    ("profile-form",
     lambda: uniform_approx_profile(_P(), [_bump()], forms=("fTf",)),
     ValueError, "unknown form"),
    ("profile-no-forms",
     lambda: uniform_approx_profile(_P(), [_bump()], forms=()),
     ValueError, "forms must be nonempty"),
    ("profile-late-form",
     lambda: uniform_approx_profile(_P(), [_bump()], forms=("fT", "bogus")),
     ValueError, "unknown form 'bogus'"),
    ("profile-eps",
     lambda: uniform_approx_profile(_P(), [_bump()], eps_list=(0.5, 0.0)),
     ValueError, "eps must be positive"),
    ("dominating-probes",
     lambda: dominating_function(_P(), 0.0, 0.0, [0.5], [], probes=0),
     ValueError, "at least one probe required"),
    ("dominating-radius",
     lambda: dominating_function(_P(), 0.0, 0.0, [-0.5], []),
     ValueError, "radius must be nonnegative"),
    ("dominating-region",
     lambda: dominating_function(_P(), 0.0, 0.0, [0.5],
                                 [ball_region(G, np.zeros(1), -1.0)]),
     ValueError, "region must be nonempty"),
    # khomology
    ("grading-degree", lambda: Multigrading(-2, None, ()),
     ValueError, "degree must be >= -1"),
    ("grading-involution", lambda: Multigrading(1, None, (np.eye(2),)),
     ValueError, "requires a grading involution"),
    ("make-grading-degree", lambda: make_multigrading(-2),
     ValueError, "p must be >= -1"),
    ("module-adjoint",
     lambda: assemble_module(_drift(), np.sign, make_multigrading(-1), {}),
     ValueError, "P must be self-adjoint"),
    ("module-fiber",
     lambda: assemble_module(_P(), np.sign, make_multigrading(1), {}),
     ValueError, "multigrading fiber does not match"),
    ("module-multigraded",
     # pointwise sigma_y is odd for the grading sigma_z but anticommutes
     # with the generator i sigma_x
     lambda: assemble_module(
         DiscreteOperator(G2, 0, np.kron(np.eye(N), SIGMA_Y),
                          self_adjoint=True),
         np.sign, make_multigrading(1), {}),
     ValueError, "P is not multigraded"),
    ("module-gap",
     lambda: assemble_module(_zero(), np.sign, make_multigrading(-1), {},
                             check_square_exact=True),
     ValueError, "needs a spectral gap at 0"),
    ("module-gapless",
     # eigenvalues of order 1e-15 at xi = 0 are a roundoff zero, no gap
     lambda: assemble_module(quantize(named_symbol(G2, "dirac_mass",
                                                   {"m": 0.0})),
                             np.sign, make_multigrading(0), {},
                             check_square_exact=True),
     ValueError, "needs a spectral gap at 0"),
    ("commutator-integral-adjoint",
     lambda: commutator_integral(_drift(), _bump()),
     ValueError, "P must be self-adjoint"),
    ("commutator-integral-quadrature",
     lambda: commutator_integral(_momentum(), _bump(), n_quad=1),
     ValueError, "needs n_quad >= 2"),
    ("homotopy-adjoint",
     lambda: homotopy_scan(_P(), _drift(), np.sign, [4], []),
     ValueError, "both endpoints must be self-adjoint"),
    ("homotopy-order",
     lambda: homotopy_scan(_zero(0), _zero(1), np.sign, [4], []),
     ValueError, "must share the declared order"),
    ("homotopy-steps",
     lambda: homotopy_scan(_zero(), _zero(), np.sign, [4, 0], []),
     ValueError, "t_steps must all be at least 1"),
    ("homotopy-constant",
     lambda: homotopy_scan(_momentum(), _momentum(),
                           named_function("gaussian"), [4], []),
     ValueError, "gaussian declares no closed-form C_psi"),
]


@pytest.mark.parametrize("call, exc, fragment",
                         [row[1:] for row in GUARDS],
                         ids=[row[0] for row in GUARDS])
def test_input_guard_rejects_bad_input(call, exc, fragment):
    with pytest.raises(exc, match=fragment) as err:
        call()
    assert "\n" not in str(err.value)


# configs whose Sobolev index overflows a weight: each run must fail in one
# line, naming the index, and write nothing
OVERFLOW_CONFIGS = [
    ("quasiloc-scan", {"s": 400}),
    ("compose-check", {"s_list": [400]}),
    ("elliptic-estimate", {"s": 1e308}),
    ("waveprop", {"l": 400}),
]


@pytest.mark.parametrize("scenario, config", OVERFLOW_CONFIGS,
                         ids=[row[0] for row in OVERFLOW_CONFIGS])
def test_overflowing_sobolev_index_fails_in_one_line(scenario, config,
                                                     tmp_path):
    out = tmp_path / "out"
    # an overflow warning on the way is an error of its own
    with warnings.catch_warnings(), \
            pytest.raises(ValueError, match="Sobolev index s = ") as err:
        warnings.simplefilter("error", RuntimeWarning)
        cli.run(scenario, config, out=str(out))
    assert "\n" not in str(err.value)
    assert not out.exists() or not any(out.iterdir())


def test_q_integral_checks_q_before_spectral_data(monkeypatch):
    def never(P):
        raise AssertionError("spectral data taken before q was checked")

    monkeypatch.setattr(funcalc, "spectral_data", never)
    with pytest.raises(ValueError, match="not integrable on the grid"):
        q_integral(named_function("gaussian", {"sigma": 10.0}), 1, _P(), None)


@pytest.mark.parametrize("forms", [(), ("fT", "bogus")], ids=["empty", "late"])
def test_profile_checks_forms_before_any_svd(monkeypatch, forms):
    def never(*args, **kwargs):
        raise AssertionError("an SVD taken before the forms were checked")

    monkeypatch.setattr(np.linalg, "svd", never)
    with pytest.raises(ValueError, match="form"):
        uniform_approx_profile(_P(), [_bump()], forms=forms)


def test_cli_needs_a_scenario_or_summary(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main([])
    assert err.value.code == 2
    assert "--scenario is required" in capsys.readouterr().err
