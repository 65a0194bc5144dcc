"""Functional calculus f(P) for self-adjoint operators.

The spectral decomposition is the oracle: every other route (Fourier/wave
quadrature, resolvent integral) reports its defect against it rather than
assuming convergence.  Quadratures are applied to the eigenvalues, which
agrees with summing the matrix-valued integrand by unitary equivalence.
A route and the oracle are then both diagonal in P's eigenbasis, so
max |route(lambda) - f(lambda)| over the spectrum is ||route(P) - f(P)||_2:
the routes report that number and build no operator.  A maximum over the
spectrum does not see how often a value repeats, so each route is taken
once per distinct eigenvalue (``np.unique``).  Spectral data passed in must
be P's own (``SpectralData.source is P``); any other is refused.

The operators that are read (spectral_apply, wave_operator, q_integral)
come from SpectralData.apply, V f(lambda) V*.  For a Fourier multiplier V
is the Fourier basis of lattice.to_frequency, the eigenvalues are the
values spectral_data reads from the kernel, and apply builds f(P) by
operators.multiplier_matrix, as fourier_multiplier does, at O(n^2 log n)
instead of a dense O(n^3) product.  wave_columns reads a set of e^{itP}'s
columns there with no n x n matrix: the multiplier's kernel holds every
entry.
The decomposition is checked when SpectralData is built, on one defect
matrix D = V diag(lambda) V* - P; in the Fourier basis that is also the one
test that P is a multiplier.  The spectral-norm checks go through a
one-sided gate: the bound
||D||_2 <= sqrt(||D||_1 ||D||_inf) against a Rayleigh quotient |x*Ax| / x*x
<= ||A||_2 can only say "pass" when the exact check would pass; otherwise
the exact SVD norms decide, as before.

Fourier transform convention for the wave route: fhat(t) is the unitary
transform, f(x) = (1/sqrt(2 pi)) int fhat(t) e^{itx} dt.  Its trapezoid
sum on the spectrum is taken in two levels (``_wave_route``): each node's
phase is a giant step at every b-th node times a baby step c h, h the
linspace's own step 2 t_max / (n_quad - 1), so (a + b) exps per eigenvalue
replace the n_quad of the full phase table.  The Lipschitz
constant of the psi-difference bound uses the non-unitary transform
psihat(s) = int psi(x) e^{-isx} dx, matching C = (1/2pi) int |s psihat(s)| ds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.special

from .lattice import from_frequency, to_frequency
from .operators import (
    DiscreteOperator,
    multiplier_matrix,
    op_norm,
    propagation_stamp,
)

__all__ = [
    "SpectralData",
    "spectral_data",
    "ScalarFunctionSpec",
    "named_function",
    "NAMED_FUNCTIONS",
    "spectral_apply",
    "wave_operator",
    "wave_columns",
    "FuncalcResult",
    "fourier_apply",
    "chi_resolvent_integral",
    "QIntegralResult",
    "q_integral",
    "PsiDifferenceReport",
    "psi_difference_bound",
]

SPECTRAL_REL_TOL = 1e-9
# entrywise Fourier-basis defect, relative to the largest eigenvalue
MULTIPLIER_ENTRY_TOL = 1e-12
UNITARY_TOL = 1e-10
# bytes of one row block of the resolvent route's table: about one core's
# L2 cache, so a block is written and summed while it stays there
_RESOLVENT_BLOCK_BYTES = 1 << 20
# relative room the cheap gate leaves for rounding in the norms it compares;
# those carry relative errors of order state_dim * 1e-16
GATE_MARGIN = 1e-6


# ---------------------------------------------------------------------------
# spectral decomposition


def _gate_passes(defect: np.ndarray, a: np.ndarray, x: np.ndarray) -> bool:
    """One-sided check of ||defect||_2 <= SPECTRAL_REL_TOL * ||a||_2.

    sqrt(||D||_1 ||D||_inf) bounds ||D||_2 from above (Golub & Van Loan,
    Matrix Computations, 2.3), and the Rayleigh quotient |x* a x| / x* x
    bounds ||a||_2 from below, so True implies that the exact check passes.
    False decides nothing: the caller then takes the exact norms.  A real
    ``defect`` is taken to hold |D| already, and no second n x n array of
    magnitudes is made.
    """
    mag = defect if np.isrealobj(defect) else np.abs(defect)
    upper = math.sqrt(float(mag.sum(axis=0).max())
                      * float(mag.sum(axis=1).max()))
    lower = abs(np.vdot(x, a @ x)) / np.vdot(x, x).real
    return upper * (1.0 + GATE_MARGIN) <= SPECTRAL_REL_TOL * lower


class _DefectError(ValueError):
    """A decomposition that does not rebuild its operator: on the Fourier
    path, the refusal that sends spectral_data to the dense eigensolve."""


@dataclass(frozen=True)
class SpectralData:
    """Eigendecomposition P = V diag(lambda) V* of a self-adjoint operator.

    ``vectors`` is V as a dense matrix, or None for the Fourier basis of
    lattice.to_frequency, in which eigenvalue i belongs to frequency state
    i; apply then builds a multiplier matrix, and ``eigenvectors`` is built
    only on first read.  Either way V diag(lambda) V* = P is checked here;
    in the Fourier basis first entry by entry (MULTIPLIER_ENTRY_TOL), the
    test that P is that multiplier at all, which takes no norm.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray | None
    source: DiscreteOperator

    def __post_init__(self):
        lam = self.eigenvalues
        a = self.source.matrix
        n = a.shape[0]
        top = int(np.argmax(np.abs(lam)))
        if self.vectors is not None:
            v = self.vectors
            gram_defect = float(np.abs(v.conj().T @ v - np.eye(n)).max())
            if gram_defect > UNITARY_TOL * n:
                raise ValueError(
                    f"eigenvector basis not unitary: {gram_defect:.3e}")
            x = v[:, top]
        d = self.apply(lam)
        d -= a
        mag = d
        if self.vectors is None:
            mag = np.abs(d)
            off = float(mag.max())
            if off > MULTIPLIER_ENTRY_TOL * (float(np.abs(lam).max()) or 1.0):
                raise _DefectError(f"spectral reconstruction defect {off:.3e}")
            x = np.zeros(n, dtype=complex)
            x[top] = 1.0
            x = from_frequency(self.source.grid, x)
        if not _gate_passes(mag, a, x):
            scale = float(np.linalg.norm(a, 2)) or 1.0
            defect = float(np.linalg.norm(d, 2))
            if defect > SPECTRAL_REL_TOL * scale:
                raise _DefectError(f"spectral reconstruction defect {defect:.3e}")

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        """V as a dense state_dim x state_dim matrix."""
        if self.vectors is not None:
            return self.vectors
        g = self.source.grid
        return from_frequency(g, np.eye(g.state_dim))

    def apply(self, values: np.ndarray) -> np.ndarray:
        """V diag(values) V*, with values in eigenvalue order."""
        values = np.asarray(values, dtype=complex)
        if self.vectors is None:
            return multiplier_matrix(self.source.grid, values)
        v = self.vectors
        return (v * values[None, :]) @ v.conj().T

    @property
    def spectral_radius(self) -> float:
        return float(np.abs(self.eigenvalues).max())


def spectral_data(P: DiscreteOperator) -> SpectralData:
    """Diagonalize a self-adjoint operator.

    Every operator is first offered the Fourier basis.  A multiplier is
    translation invariant, so its kernel at x = 0, the first r columns of
    P, holds all its values: sqrt(n_points) times their transform, read on
    the fiber diagonal [m*r + s, s].  SpectralData accepts them only if
    they rebuild P (its checks), so a Fourier multiplier, however built, is
    diagonalized exactly by the Fourier basis: the result is its
    eigenvalues alone, in frequency-state order.  Any other operator takes
    a dense eigensolve, eigenvalues ascending.
    """
    if not P.self_adjoint:
        raise ValueError("functional calculus requires a self-adjoint operator")
    g = P.grid
    n, r = g.n_points, g.fiber_dim
    kern = math.sqrt(n) * to_frequency(g, P.matrix[:, :r])
    values = kern.reshape(n, r, r)[:, np.arange(r), np.arange(r)].ravel()
    try:
        return SpectralData(values.real, None, P)
    except _DefectError:
        vals, vecs = scipy.linalg.eigh(P.matrix)
        return SpectralData(vals, vecs, P)


# ---------------------------------------------------------------------------
# scalar function specs


@dataclass(frozen=True)
class ScalarFunctionSpec:
    """Closed-form scalar function with a declared class.

    declared_class is one of "schwartz", "symbol" (with growth order m) or
    "normalizing"; any other is rejected.  fhat, when present, is the
    unitary Fourier transform of fn; derivative(j) returns the j-th
    derivative as a callable; c_psi, when present, is the closed form of
    (1/2pi) int |s psihat| ds, which the Lipschitz bounds of
    psi_difference_bound and homotopy_scan need.
    """

    name: str
    fn: object
    declared_class: str
    m: int = 0
    fhat: object = None
    derivative: object = None
    c_psi: float | None = None

    def __post_init__(self):
        if self.declared_class not in ("schwartz", "symbol", "normalizing"):
            raise ValueError(
                f"unknown function class {self.declared_class!r}")

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))

def _positive_scale(prm, key):
    """prm[key] (default 1.0), which must be a finite number > 0."""
    value = prm.get(key, 1.0)
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"{key} must be finite and > 0, got {value!r}")
    return value


def _gaussian(prm):
    sigma = _positive_scale(prm, "sigma")

    def fn(x):
        return np.exp(-(x ** 2) / (2.0 * sigma ** 2))

    def fhat(t):
        return sigma * np.exp(-(sigma ** 2) * t ** 2 / 2.0)

    def derivative(j):
        if j == 0:
            return fn

        def dj(x):
            u = np.asarray(x) / sigma
            he = np.polynomial.hermite_e.hermeval(
                u, [0.0] * j + [1.0])
            return (-1.0 / sigma) ** j * he * np.exp(-u ** 2 / 2.0)

        return dj

    return ScalarFunctionSpec("gaussian", fn, "schwartz", fhat=fhat,
                              derivative=derivative)


def _chi_rational(_prm):
    fn = lambda x: np.asarray(x) / np.sqrt(1.0 + np.asarray(x) ** 2)
    # chi'(x) = (1+x^2)^{-3/2}; its non-unitary transform 2|s|K_1(|s|) is
    # nonnegative, so (1/2pi) int |s chihat(s)| ds = chi'(0) = 1 exactly.
    return ScalarFunctionSpec("chi_rational", fn, "normalizing", m=0,
                              c_psi=1.0)


def _schwartz_bump(prm):
    a = prm.get("a", 1.0)
    b = _positive_scale(prm, "b")

    def fn(x):
        x = np.asarray(x, dtype=float)
        return np.exp(-(x / b) ** 2) * np.cos(a * x)

    def fhat(t):
        # unitary transform of exp(-(x/b)^2) cos(ax)
        t = np.asarray(t, dtype=float)
        c = b / (2.0 * np.sqrt(2.0))
        return c * (np.exp(-(b ** 2) * (t - a) ** 2 / 4.0)
                    + np.exp(-(b ** 2) * (t + a) ** 2 / 4.0))

    return ScalarFunctionSpec("schwartz_bump", fn, "schwartz", fhat=fhat)


def _si_normalizing(_prm):
    def fn(x):
        si, _ = scipy.special.sici(np.asarray(x, dtype=float))
        return (2.0 / np.pi) * si

    # psi'(x) = (2/pi) sinc; its non-unitary transform is the indicator of
    # [-1, 1] scaled by 2, so (1/2pi) int |s psihat(s)| ds = 2/pi exactly.
    return ScalarFunctionSpec("si_normalizing", fn, "normalizing",
                              c_psi=2.0 / np.pi)


def _identity_fn(_prm):
    return ScalarFunctionSpec("identity", lambda x: np.asarray(x, dtype=float),
                              "symbol", m=1)


def _one_fn(_prm):
    return ScalarFunctionSpec(
        "one", lambda x: np.ones_like(np.asarray(x, dtype=float)),
        "symbol", m=0)


NAMED_FUNCTIONS = {
    "gaussian": _gaussian,
    "chi_rational": _chi_rational,
    "schwartz_bump": _schwartz_bump,
    "si_normalizing": _si_normalizing,
    "identity": _identity_fn,
    "one": _one_fn,
}


def named_function(name: str, params: dict | None = None) -> ScalarFunctionSpec:
    if name not in NAMED_FUNCTIONS:
        raise KeyError(f"unknown function spec {name!r}")
    return NAMED_FUNCTIONS[name](params or {})


# ---------------------------------------------------------------------------
# calculus routes


def _spectrum_of(P: DiscreteOperator,
                 spectral: SpectralData | None) -> SpectralData:
    """``spectral`` when it decomposes P itself, else P's own spectral data.

    Data of any other operator, however alike, is refused: its f(Q) or its
    defect would be reported as P's.
    """
    if spectral is None:
        return spectral_data(P)
    if spectral.source is not P:
        raise ValueError("spectral data of another operator than P")
    return spectral


def spectral_apply(
    P: DiscreteOperator, f, spectral: SpectralData | None = None,
) -> DiscreteOperator:
    """Oracle route: f(P) = V f(lambda) V*, declared order 0."""
    sd = _spectrum_of(P, spectral)
    vals = np.asarray(f(sd.eigenvalues), dtype=complex)
    mat = sd.apply(vals)
    sa = bool(np.all(np.abs(vals.imag) <= 1e-14 * max(1.0, np.abs(vals).max())))
    return DiscreteOperator(P.grid, 0, mat, provenance="function_of",
                            self_adjoint=sa)


def wave_operator(
    P: DiscreteOperator, t: float, spectral: SpectralData | None = None,
) -> DiscreteOperator:
    """Unitary wave operator e^{itP}.

    When P carries a finite propagation speed and the displacement |t| * speed
    is a whole number of grid spacings, the result is stamped with that
    propagation bound; entries beyond it must already vanish to rounding and
    are then zeroed exactly.  Incommensurate displacements are left unstamped
    because the band-limited interpolant of a shifted section has full
    support on the lattice.
    """
    sd = _spectrum_of(P, spectral)
    mat = sd.apply(np.exp(1j * t * sd.eigenvalues))
    return DiscreteOperator(P.grid, 0, mat, provenance="function_of",
                            propagation_bound=_propagation_bound(P, t))


def _propagation_bound(P: DiscreteOperator, t: float) -> float | None:
    """|t| times P's propagation speed when that is a whole number of grid
    spacings, else None: the bound ``wave_operator`` stamps on e^{itP}."""
    if P.propagation_speed is None:
        return None
    shift = abs(t) * P.propagation_speed / P.grid.spacing
    if abs(shift - round(shift)) <= 1e-9 * max(1.0, shift):
        return abs(t) * P.propagation_speed
    return None


def wave_columns(
    P: DiscreteOperator, t: float, states: np.ndarray,
    spectral: SpectralData | None = None,
) -> tuple:
    """(``wave_operator(P, t).matrix[:, states]``, its propagation bound),
    bit for bit, with no n x n matrix on the Fourier path.

    There e^{itP} is the multiplier of e^{it lambda}, and its columns are
    read off its kernel (``multiplier_matrix`` with ``states``); the
    propagation stamp is applied to those columns.  The matrix is
    translation invariant and ``states`` holds every fiber slot of its
    points, so those columns hold every entry of the matrix and every
    entry beyond the bound: the stamp's scale and dust are the full
    matrix's.  On the eigh path the operator is built and its columns taken.
    """
    sd = _spectrum_of(P, spectral)
    if sd.vectors is not None:
        U = wave_operator(P, t, spectral=sd)
        return U.matrix.take(states, axis=1), U.propagation_bound
    cols = multiplier_matrix(P.grid, np.exp(1j * t * sd.eigenvalues), states)
    bound = _propagation_bound(P, t)
    if bound is not None:
        cols = propagation_stamp(P.grid, cols, bound,
                                 float(np.abs(cols).max()) or 1.0, states)
    return cols, bound


def _trapezoid(t_max: float, n: int) -> tuple:
    """Nodes and weights of the n-node trapezoid rule on [-t_max, t_max].

    The weight is the linspace's own step 2 t_max / (n - 1); t[1] - t[0]
    carries a rounding error of up to 1e-13 relative.
    """
    t = np.linspace(-t_max, t_max, n)
    w = np.full(n, 2.0 * t_max / (n - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    return t, w


@dataclass(frozen=True)
class FuncalcResult:
    """Defect of a quadrature route against the spectral oracle.

    The route and the oracle are both diagonal in P's eigenbasis, so the
    defect max |route(lambda) - f(lambda)| over the spectrum is the
    spectral norm ||route(P) - f(P)||_2; neither operator is built.  The
    maximum runs over the distinct eigenvalues, one route value each.
    """

    defect: float


def _wave_route(fhat, x: np.ndarray, t_max: float, n_quad: int) -> np.ndarray:
    """The package's one wave rule: on x, the n_quad-node trapezoid values
    of (1/sqrt(2 pi)) int_{-t_max}^{t_max} fhat(t) e^{itx} dt.

    The n_quad x len(x) phase table is never formed.  Node j = a b + c
    splits e^{i t_j x} into a giant step e^{i t_{ab} x}, read at the nodes
    t[::b], times a baby step e^{i c h x}, c < b (the baby-step/giant-step
    split of Paterson & Stockmeyer, SIAM J. Comput. 2, 1973).  b is the
    power of two nearest sqrt(n_quad) and h = 2 t_max / (n_quad - 1) is the
    linspace's own step; t[1] - t[0] would carry a rounding error that every
    phase multiplies.  The weights w fhat(t), zero-padded into an a x b
    matrix C, meet the baby steps in one product C E, so the rule takes
    (a + b) len(x) exps in place of n_quad len(x).
    """
    t, w = _trapezoid(t_max, n_quad)
    b = 1 << (int(n_quad).bit_length() // 2)
    a = -(-n_quad // b)
    coef = np.zeros(a * b, dtype=complex)
    coef[:n_quad] = w * np.asarray(fhat(t), dtype=complex)
    h = 2.0 * t_max / (n_quad - 1)
    baby = np.exp(1j * np.outer(h * np.arange(b), x))
    giant = np.exp(1j * np.outer(t[::b], x))
    giant *= coef.reshape(a, b) @ baby
    return giant.sum(axis=0) / np.sqrt(2 * np.pi)


def fourier_apply(
    P: DiscreteOperator, f: ScalarFunctionSpec, t_max: float = 12.0,
    n_quad: int = 2048, spectral: SpectralData | None = None,
) -> FuncalcResult:
    """Wave route f(P) = (1/sqrt(2 pi)) int fhat(t) e^{itP} dt by trapezoid.

    The n_quad-node sum is ``_wave_route`` on P's distinct eigenvalues
    (a repeated one adds nothing to the defect's maximum): a two-level
    sum over giant steps t[::b] and baby steps c h, with b ~ sqrt(n_quad)
    and h = 2 t_max / (n_quad - 1), which forms no n_quad x n phase table.
    Only f with a closed-form transform ``fhat`` (Schwartz f) is accepted,
    and the window [-t_max, t_max] needs a finite t_max > 0.
    """
    if f.fhat is None:
        raise ValueError(
            f"fourier_apply needs the closed-form transform of {f.name!r}")
    if n_quad < 2:
        raise ValueError(f"the wave route needs n_quad >= 2: {n_quad}")
    if not (np.isfinite(t_max) and t_max > 0):
        # a reversed or empty interval would flip or zero the integral
        raise ValueError(f"the wave route needs a finite t_max > 0: {t_max}")
    x = np.unique(_spectrum_of(P, spectral).eigenvalues)
    vals = _wave_route(f.fhat, x, t_max, n_quad)
    oracle = np.asarray(f.fn(x), dtype=complex)
    return FuncalcResult(float(np.abs(vals - oracle).max()))


def _resolvent_route(x: np.ndarray, n_quad: int) -> np.ndarray:
    """The package's one resolvent rule: on x, the values of the route
    chi(x) = (2/pi) int_0^inf x / (1 + lam^2 + x^2) dlam.

    The window [lam_min, lam_max] = [1e-6, 1e3] takes a log-spaced
    trapezoid grid; the head [0, lam_min] and the tail beyond lam_max are
    added in closed form ((2/pi) x / sqrt(1+x^2) times the arctan
    increments), so the only numerical error is the window's trapezoid error.

    The n_quad x len(x) table of weighted integrands is summed over the
    nodes in row blocks of about _RESOLVENT_BLOCK_BYTES, never whole.  Each
    block after the first carries the running sum as its first row, and
    numpy adds a C-ordered table's rows one after another along axis 0, so
    the rows meet in the whole table's order and the sum is its sum, bit
    for bit.
    """
    if n_quad < 2:
        raise ValueError(f"the resolvent route needs n_quad >= 2: {n_quad}")
    lam_min, lam_max = 1e-6, 1e3
    lam = np.geomspace(lam_min, lam_max, n_quad)
    w = np.zeros(n_quad)
    w[1:] += 0.5 * np.diff(lam)
    w[:-1] += 0.5 * np.diff(lam)
    x2 = x[None, :] ** 2
    rows = max(1, _RESOLVENT_BLOCK_BYTES // (8 * x.size))
    block = np.empty((rows + 1, x.size))
    for lo in range(0, n_quad, rows):
        hi = min(lo + rows, n_quad)
        q = block[1:hi - lo + 1]
        np.add(1.0 + lam[lo:hi, None] ** 2, x2, out=q)
        np.divide(x[None, :], q, out=q)
        q *= w[lo:hi, None]
        if lo:
            block[0] = total
        total = block[int(lo == 0):hi - lo + 1].sum(axis=0)
    body = (2.0 / np.pi) * total
    root = np.sqrt(1.0 + x ** 2)
    head = (2.0 / np.pi) * (x / root) * np.arctan(lam_min / root)
    tail = (2.0 / np.pi) * (x / root) * (np.pi / 2 - np.arctan(lam_max / root))
    return body + head + tail


def chi_resolvent_integral(
    P: DiscreteOperator, n_quad: int = 4096,
    spectral: SpectralData | None = None,
) -> FuncalcResult:
    """Resolvent route chi(P) = (2/pi) int_0^inf P (1 + lam^2 + P^2)^{-1} dlam,
    which is _resolvent_route on P's distinct eigenvalues."""
    x = np.unique(_spectrum_of(P, spectral).eigenvalues)
    vals = _resolvent_route(x, n_quad)
    return FuncalcResult(float(np.abs(vals - x / np.sqrt(1.0 + x ** 2)).max()))


# ---------------------------------------------------------------------------
# integration-by-parts identity for wave integrals


@dataclass(frozen=True)
class QIntegralResult:
    """Integration-by-parts check of A_0 = int q(t) e^{itP} dt: the
    identity's residual, its bound, and the norms of A_0."""

    identity_residual: float
    residual_bound: float
    norms: dict = field(default_factory=dict)


def q_integral(
    q: ScalarFunctionSpec, n: int, P: DiscreteOperator, parametrix,
) -> QIntegralResult:
    """Quadrature of A_0 = int q(t) e^{itP} dt with the order-raising identity.

    The trapezoid rule takes 4096 nodes on [-16, 16], summed by the wave
    rule ``_wave_route`` on P's eigenvalues.  Each integration by
    parts against the parametrix Q of P gives A_j = iQ A_{j+1} + S2 A_j,
    hence A_0 = (iQ)^n A_n + sum_{j<n} (iQ)^j S2 A_j.  The residual of that
    matrix identity is reported against a bound driven by the quadrature
    defects and the parametrix residual S2.  The norms of A_0 are recorded
    as maps H^{l-nk+k-1} -> H^l for l = 0 and 1.
    """
    if q.derivative is None:
        raise ValueError("q_integral needs closed-form derivatives of q")
    t_max, n_quad = 16.0, 4096
    t = _trapezoid(t_max, n_quad)[0]
    # every q^(j) is checked on the nodes before P's spectral data is taken
    for j in range(n + 1):
        qj = np.asarray(q.derivative(j)(t), dtype=complex)
        tail = float(np.abs(qj[0] * t[0]) + np.abs(qj[-1] * t[-1]))
        if tail > 1e-8:
            raise ValueError(
                f"q^({j})(t) |t| not integrable on the grid: tail {tail:.3e}"
            )
    sd = spectral_data(P)
    # int q^(j)(t) e^{itx} dt is sqrt(2 pi) times the wave rule of q^(j)
    mats = [sd.apply(np.sqrt(2 * np.pi) * _wave_route(
                q.derivative(j), sd.eigenvalues, t_max, n_quad))
            for j in range(n + 1)]

    g = P.grid
    iq = 1j * parametrix.Q.matrix
    s2 = parametrix.S2.matrix
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


# ---------------------------------------------------------------------------
# psi-difference Lipschitz bound


@dataclass(frozen=True)
class PsiDifferenceReport:
    lhs: float
    rhs: float


def psi_difference_bound(
    psi: ScalarFunctionSpec,
    P: DiscreteOperator,
    P_prime: DiscreteOperator,
) -> PsiDifferenceReport:
    """Check ||psi(P) - psi(P')|| <= C_psi ||P - P'|| in the L^2 operator norm.

    Both sides are op_norm(., 0, 0), the norm as maps L^2 -> L^2.
    """
    if psi.c_psi is None:
        raise ValueError(f"{psi.name} declares no closed-form C_psi")
    g = P.grid
    fp = spectral_apply(P, psi)
    fpp = spectral_apply(P_prime, psi)
    diff = DiscreteOperator(g, 0, fp.matrix - fpp.matrix,
                            provenance="function_of")
    pdiff = DiscreteOperator(g, P.order, P.matrix - P_prime.matrix,
                             provenance="composed")
    lhs = op_norm(diff, 0.0, 0.0)
    rhs = psi.c_psi * op_norm(pdiff, 0.0, 0.0)
    return PsiDifferenceReport(lhs=lhs, rhs=rhs)
