"""Every input guard of the package rejects its bad input.

One row per guard: the call that trips it, the exception it raises and a
fragment of its message.  Each message must fit on one line, so that a
command-line run can print it as its single line of error output.
"""

import numpy as np
import pytest

from torusop import cli, serial
from torusop.funcalc import named_function, q_integral, spectral_data
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
    multiplication_operator,
    quantize,
)
from torusop.parametrix import build_parametrix, modified_inner_product
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


def _bump():
    return lipschitz_bump(G, np.zeros(1), 2.0, 2.0)


def _zero(order=0, grid=G):
    return DiscreteOperator(grid, order, np.zeros((grid.state_dim,) * 2),
                            self_adjoint=True)


def _unknown_container_kind():
    doc = serial.to_container(Section(G, np.ones(N)))
    doc["kind"] = "bogus"
    return serial.from_container(doc)


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
    ("region-ball", lambda: ball_region(G, np.zeros(1), 0.5).ball(-1.0),
     ValueError, "radius must be nonnegative"),
    ("bump-size", lambda: BumpFunction(G, np.ones(N + 1), 1.0, 1.0),
     ValueError, "bump values size does not match grid"),
    ("bump-resolution", lambda: lipschitz_bump(G, np.zeros(1), 0.1, 1.0),
     ValueError, "under-resolved bump"),
    # symbols
    ("symbol-shape", lambda: Symbol(G, 0, np.ones((3, 3))),
     ValueError, "symbol samples shape"),
    ("symbol-nonfinite",
     lambda: Symbol(G, 0, np.full((1, N), np.inf), x_independent=True),
     ValueError, "non-finite symbol samples"),
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
     lambda: quantize(Symbol(GridSpec(2, 68, 1.0), 0, np.ones((1, 68 ** 2)),
                             x_independent=True)),
     ValueError, "exceeds the dense cap"),
    ("multiplier-size", lambda: multiplication_operator(G, np.ones(N + 1)),
     ValueError, "multiplier size does not match grid"),
    ("compose-grid-mismatch", lambda: compose(_zero(), _zero(grid=G2)),
     ValueError, "grid mismatch"),
    ("commutator-grid-mismatch", lambda: commutator(_zero(), _zero(grid=G2)),
     ValueError, "grid mismatch"),
    # parametrix
    ("parametrix-nonelliptic",
     lambda: build_parametrix(_zero(), Symbol(G, 0, np.zeros((1, N)),
                                              x_independent=True), 1),
     ValueError, "symbol is not elliptic"),
    ("inner-product-adjoint", lambda: modified_inner_product(_drift()),
     ValueError, "requires a self-adjoint P"),
    # funcalc
    ("spectral-adjoint", lambda: spectral_data(_drift()),
     ValueError, "requires a self-adjoint operator"),
    ("function-name", lambda: named_function("no-such-function"),
     KeyError, "unknown function spec"),
    ("q-derivatives",
     lambda: q_integral(named_function("chi_rational"), 1, _P(), None),
     ValueError, "needs closed-form derivatives"),
    ("q-tail",
     lambda: q_integral(named_function("gaussian", {"sigma": 10.0}), 1,
                        _P(), None),
     ValueError, "not integrable on the grid"),
    # quasiloc
    ("profile-family", lambda: uniform_approx_profile(_P(), []),
     ValueError, "family must be nonempty"),
    ("profile-form",
     lambda: uniform_approx_profile(_P(), [_bump()], forms=("fTf",)),
     ValueError, "unknown form"),
    ("dominating-probes",
     lambda: dominating_function(_P(), 0.0, 0.0, [0.5], [], probes=0),
     ValueError, "at least one probe required"),
    ("dominating-radius",
     lambda: dominating_function(_P(), 0.0, 0.0, [-0.5], []),
     ValueError, "radius must be nonnegative"),
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
    ("commutator-integral-adjoint",
     lambda: commutator_integral(_drift(), _bump()),
     ValueError, "P must be self-adjoint"),
    ("homotopy-adjoint",
     lambda: homotopy_scan(_P(), _drift(), np.sign, [4], []),
     ValueError, "both endpoints must be self-adjoint"),
    ("homotopy-order",
     lambda: homotopy_scan(_zero(0), _zero(1), np.sign, [4], []),
     ValueError, "must share the declared order"),
    # serial
    ("container-kind", _unknown_container_kind,
     ValueError, "unknown container kind"),
]


@pytest.mark.parametrize("call, exc, fragment",
                         [row[1:] for row in GUARDS],
                         ids=[row[0] for row in GUARDS])
def test_input_guard_rejects_bad_input(call, exc, fragment):
    with pytest.raises(exc, match=fragment) as err:
        call()
    assert "\n" not in str(err.value)


def test_cli_needs_a_scenario_or_summary(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main([])
    assert err.value.code == 2
    assert "--scenario is required" in capsys.readouterr().err
