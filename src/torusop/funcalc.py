"""Functional calculus f(P) for self-adjoint operators.

The spectral decomposition is the oracle: every other route (Fourier/wave
quadrature, resolvent integral) reports its defect against it rather than
assuming convergence.  Quadratures are applied to the eigenvalues and
conjugated back, which agrees with summing the matrix-valued integrand by
unitary equivalence and keeps the routes cheap enough to scan.

Every route ends in SpectralData.apply, V f(lambda) V*.  For a Fourier
multiplier V is the Fourier basis (columns permuted by ``modes``), and apply
builds f(P) through operators._kn_matrix, the kernel builder that
fourier_multiplier uses, at O(n^2 log n) instead of a dense O(n^3) product.
The decomposition is checked when SpectralData is built.  The spectral-norm
checks go through a one-sided gate: the bound
||D||_2 <= sqrt(||D||_1 ||D||_inf) against a Rayleigh quotient |x*Ax| / x*x
<= ||A||_2 can only say "pass" when the exact check would pass; otherwise
the exact SVD norms decide, as before.

Fourier transform convention for the wave route: fhat(t) is the unitary
transform, f(x) = (1/sqrt(2 pi)) int fhat(t) e^{itx} dt.  The Lipschitz
constant of the psi-difference bound uses the non-unitary transform
psihat(s) = int psi(x) e^{-isx} dx, matching C = (1/2pi) int |s psihat(s)| ds.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.special

from .lattice import from_frequency
from .operators import (
    DiscreteOperator,
    _kn_matrix,
    _to_fourier_rep,
    fourier_matrix,
    op_norm,
)

__all__ = [
    "SpectralData",
    "spectral_data",
    "ScalarFunctionSpec",
    "named_function",
    "NAMED_FUNCTIONS",
    "spectral_apply",
    "wave_operator",
    "FuncalcResult",
    "fourier_apply",
    "chi_resolvent_integral",
    "QIntegralResult",
    "q_integral",
    "PsiDifferenceReport",
    "psi_difference_bound",
]

SPECTRAL_REL_TOL = 1e-9
UNITARY_TOL = 1e-10
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
    False decides nothing: the caller then takes the exact norms.
    """
    mag = np.abs(defect)
    upper = math.sqrt(float(mag.sum(axis=0).max())
                      * float(mag.sum(axis=1).max()))
    lower = abs(np.vdot(x, a @ x)) / np.vdot(x, x).real
    return upper * (1.0 + GATE_MARGIN) <= SPECTRAL_REL_TOL * lower


@dataclass(frozen=True)
class SpectralData:
    """Eigendecomposition P = V diag(lambda) V* of a self-adjoint operator.

    Exactly one of ``vectors`` (V as a dense matrix, the eigh path) and
    ``modes`` declares V.  ``modes`` makes V the Fourier basis of
    lattice.to_frequency with column i at frequency state index modes[i],
    unitary by construction; apply then runs through the multiplier kernel
    builder, and ``eigenvectors`` is built only on first read.  Either way
    the reconstruction V diag(lambda) V* = P is checked here.
    """

    eigenvalues: np.ndarray
    vectors: InitVar[np.ndarray | None]
    source: DiscreteOperator
    modes: np.ndarray | None = None

    def __post_init__(self, vectors):
        if (vectors is None) == (self.modes is None):
            raise ValueError(
                "exactly one of vectors and modes declares the basis")
        lam = self.eigenvalues
        a = self.source.matrix
        n = a.shape[0]
        top = int(np.argmax(np.abs(lam)))
        if self.modes is None:
            gram_defect = float(
                np.abs(vectors.conj().T @ vectors - np.eye(n)).max())
            if gram_defect > UNITARY_TOL * n:
                raise ValueError(
                    f"eigenvector basis not unitary: {gram_defect:.3e}")
            # the instance is frozen: fill the eigenvectors cache directly
            self.__dict__["eigenvectors"] = vectors
            x = vectors[:, top]
        else:
            if not np.array_equal(np.sort(self.modes), np.arange(n)):
                raise ValueError("modes is not a permutation of the states")
            x = np.zeros(n, dtype=complex)
            x[self.modes[top]] = 1.0
            x = from_frequency(self.source.grid, x)
        d = self.apply(lam)
        d -= a
        if not _gate_passes(d, a, x):
            scale = float(np.linalg.norm(a, 2)) or 1.0
            defect = float(np.linalg.norm(d, 2))
            if defect > SPECTRAL_REL_TOL * scale:
                raise ValueError(f"spectral reconstruction defect {defect:.3e}")

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        """V as a dense state_dim x state_dim matrix."""
        g = self.source.grid
        r = g.fiber_dim
        order = self.modes
        # column i is the column of W for mode order[i] // r, placed in
        # fiber slot order[i] % r
        w = (fourier_matrix(g)[:, None, order // r]
             * (np.arange(r)[:, None] == order % r))
        return w.reshape(g.state_dim, -1)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """V diag(values) V*, with values in eigenvalue order."""
        values = np.asarray(values, dtype=complex)
        if self.modes is None:
            v = self.eigenvectors
            return (v * values[None, :]) @ v.conj().T
        g = self.source.grid
        r = g.fiber_dim
        per_state = np.empty(g.state_dim, dtype=complex)
        per_state[self.modes] = values
        # an x-independent symbol, diagonal over the fiber
        return _kn_matrix(g, per_state.reshape(1, g.n_points, r, 1)
                          * np.eye(r))

    @property
    def spectral_radius(self) -> float:
        return float(np.abs(self.eigenvalues).max())


def spectral_data(P: DiscreteOperator) -> SpectralData:
    """Diagonalize a self-adjoint operator.

    Operators that are diagonal in the frequency basis (Fourier multipliers)
    are recognized and diagonalized exactly by the Fourier basis, which is
    much cheaper than a dense eigensolve and keeps multiplier calculus exact.
    The result is the eigenvalues and their mode order alone: its apply runs
    through the multiplier kernel builder, and no dense basis is built
    unless ``eigenvectors`` is read.
    """
    if not P.self_adjoint:
        raise ValueError("functional calculus requires a self-adjoint operator")
    if P.scalar_symbol:
        rep = _to_fourier_rep(P)
        diag = np.diag(rep).real.copy()
        np.fill_diagonal(rep, 0.0)
        off = float(np.abs(rep).max())
        del rep
        scale = float(np.abs(diag).max()) or 1.0
        if off <= 1e-12 * scale:
            order = np.argsort(diag, kind="stable")
            return SpectralData(diag[order], None, P, modes=order)
    vals, vecs = scipy.linalg.eigh(P.matrix)
    return SpectralData(vals, vecs, P)


# ---------------------------------------------------------------------------
# scalar function specs


@dataclass(frozen=True)
class ScalarFunctionSpec:
    """Closed-form scalar function with a declared class and verification.

    declared_class is one of "schwartz", "symbol" (with growth order m),
    "normalizing", or "borel".  fhat, when present, is the unitary Fourier
    transform of fn; derivative(j) returns the j-th derivative as a callable;
    c_psi, when present, is the closed form of (1/2pi) int |s psihat| ds.
    """

    name: str
    fn: object
    declared_class: str
    m: int = 0
    fhat: object = None
    derivative: object = None
    c_psi: float | None = None

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))

    def verify(self) -> dict:
        """Check the declared class on a sample grid; returns the evidence.

        The grid is 8001 points on [-40, 40].  For "symbol"/"schwartz" the
        measured constants C_n = sup |f^(n)| (1+|x|)^(n-m), n = 0..4, are
        returned; for "normalizing" the oddness defect, sign condition, and
        limit defects are returned.
        """
        x = np.linspace(-40.0, 40.0, 8001)
        f = np.asarray(self.fn(x), dtype=float)
        report = {"class": self.declared_class}
        if self.declared_class in ("schwartz", "symbol"):
            m = -np.inf if self.declared_class == "schwartz" else self.m
            d = f
            constants = []
            for n in range(5):
                weight = (1.0 + np.abs(x)) ** (n - (self.m if np.isfinite(m)
                                                    else -8))
                constants.append(float((np.abs(d) * weight).max()))
                d = np.gradient(d, x, edge_order=2)
            report["constants"] = tuple(constants)
            report["ok"] = all(np.isfinite(c) for c in constants)
        elif self.declared_class == "normalizing":
            odd = float(np.abs(f + self.fn(-x)).max())
            pos = bool((f[x > 0] > 0).all())
            big = np.array([1e4, 1e5, 1e6])
            limit = float(np.abs(np.asarray(self.fn(big)) - 1.0).max())
            report.update(odd_defect=odd, positive_on_positives=pos,
                          limit_defect=limit)
            report["ok"] = odd <= 1e-10 and pos and limit <= 1e-3
        else:
            report["ok"] = True
        return report


def _gaussian(prm):
    sigma = prm.get("sigma", 1.0)

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
    return ScalarFunctionSpec("chi_rational", fn, "normalizing", m=0)


def _schwartz_bump(prm):
    a = prm.get("a", 1.0)
    b = prm.get("b", 1.0)

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


def spectral_apply(
    P: DiscreteOperator, f, spectral: SpectralData | None = None,
) -> DiscreteOperator:
    """Oracle route: f(P) = V f(lambda) V*, declared order 0."""
    sd = spectral or spectral_data(P)
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
    sd = spectral or spectral_data(P)
    mat = sd.apply(np.exp(1j * t * sd.eigenvalues))
    bound = None
    if P.propagation_speed is not None:
        shift = abs(t) * P.propagation_speed / P.grid.spacing
        if abs(shift - round(shift)) <= 1e-9 * max(1.0, shift):
            bound = abs(t) * P.propagation_speed
    return DiscreteOperator(P.grid, 0, mat, provenance="function_of",
                            propagation_bound=bound)


def _trapezoid(t_max: float, n: int) -> tuple:
    """Nodes and weights of the n-node trapezoid rule on [-t_max, t_max]."""
    t = np.linspace(-t_max, t_max, n)
    w = np.full(n, t[1] - t[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return t, w


@dataclass(frozen=True)
class FuncalcResult:
    """Operator from a quadrature route plus its defect vs the oracle."""

    operator: DiscreteOperator
    defect: float


def fourier_apply(
    P: DiscreteOperator, f: ScalarFunctionSpec, t_max: float = 12.0,
    n_quad: int = 2048, spectral: SpectralData | None = None,
) -> FuncalcResult:
    """Wave route f(P) = (1/sqrt(2 pi)) int fhat(t) e^{itP} dt by trapezoid.

    Only f with a closed-form transform ``fhat`` (Schwartz f) is accepted.
    """
    if f.fhat is None:
        raise ValueError(
            f"fourier_apply needs the closed-form transform of {f.name!r}")
    sd = spectral or spectral_data(P)
    t, w = _trapezoid(t_max, n_quad)
    fh = np.asarray(f.fhat(t), dtype=complex)
    # the n_quad x n phase table is built in place and freed before f(P)
    # is: it would otherwise stay live through the operator's construction
    phases = np.outer(t, sd.eigenvalues) * 1j
    np.exp(phases, out=phases)
    vals = (w * fh) @ phases / np.sqrt(2 * np.pi)
    del phases
    mat = sd.apply(vals)
    oracle = np.asarray(f.fn(sd.eigenvalues), dtype=complex)
    defect = float(np.abs(vals - oracle).max())
    op = DiscreteOperator(P.grid, 0, mat, provenance="function_of")
    return FuncalcResult(op, defect)


def chi_resolvent_integral(
    P: DiscreteOperator, n_quad: int = 4096,
    spectral: SpectralData | None = None,
) -> FuncalcResult:
    """Resolvent route chi(P) = (2/pi) int_0^inf P (1 + lam^2 + P^2)^{-1} dlam.

    The quadrature covers the window [lam_min, lam_max] = [1e-6, 1e3] on a
    log-spaced trapezoid grid; the head [0, lam_min] and the tail beyond
    lam_max are added in closed form ((2/pi) x / sqrt(1+x^2) times the
    arctan increments), so the only numerical error is the trapezoid error
    of the middle segment.
    """
    sd = spectral or spectral_data(P)
    x = sd.eigenvalues
    lam_min, lam_max = 1e-6, 1e3
    lam = np.geomspace(lam_min, lam_max, n_quad)
    w = np.zeros(n_quad)
    w[1:] += 0.5 * np.diff(lam)
    w[:-1] += 0.5 * np.diff(lam)
    # one n_quad x n table, updated in place and freed before chi(P) is built
    q = 1.0 + lam[:, None] ** 2 + x[None, :] ** 2
    np.divide(x[None, :], q, out=q)
    q *= w[:, None]
    body = (2.0 / np.pi) * q.sum(axis=0)
    del q
    root = np.sqrt(1.0 + x ** 2)
    head = (2.0 / np.pi) * (x / root) * np.arctan(lam_min / root)
    tail = (2.0 / np.pi) * (x / root) * (np.pi / 2 - np.arctan(lam_max / root))
    vals = body + head + tail
    oracle = x / root
    defect = float(np.abs(vals - oracle).max())
    mat = sd.apply(vals.astype(complex))
    op = DiscreteOperator(P.grid, 0, mat, provenance="function_of",
                          self_adjoint=True)
    return FuncalcResult(op, defect)


# ---------------------------------------------------------------------------
# integration-by-parts identity for wave integrals


@dataclass(frozen=True)
class QIntegralResult:
    """int q(t) e^{itP} dt and its integration-by-parts verification."""

    operator: DiscreteOperator
    identity_residual: float
    residual_bound: float
    norms: dict = field(default_factory=dict)


def q_integral(
    q: ScalarFunctionSpec, n: int, P: DiscreteOperator, parametrix,
) -> QIntegralResult:
    """Quadrature of A_0 = int q(t) e^{itP} dt with the order-raising identity.

    The trapezoid rule takes 4096 nodes on [-16, 16].  Each integration by
    parts against the parametrix Q of P gives A_j = iQ A_{j+1} + S2 A_j,
    hence A_0 = (iQ)^n A_n + sum_{j<n} (iQ)^j S2 A_j.  The residual of that
    matrix identity is reported against a bound driven by the quadrature
    defects and the parametrix residual S2.  The norms of A_0 are recorded
    as maps H^{l-nk+k-1} -> H^l for l = 0 and 1.
    """
    if q.derivative is None:
        raise ValueError("q_integral needs closed-form derivatives of q")
    sd = spectral_data(P)
    t, w = _trapezoid(16.0, 4096)
    phases = np.exp(1j * np.outer(t, sd.eigenvalues))

    mats = []
    for j in range(n + 1):
        qj = np.asarray(q.derivative(j)(t), dtype=complex)
        tail = float(np.abs(qj[0] * t[0]) + np.abs(qj[-1] * t[-1]))
        if tail > 1e-8:
            raise ValueError(
                f"q^({j})(t) |t| not integrable on the grid: tail {tail:.3e}"
            )
        mats.append(sd.apply((w * qj) @ phases))

    g = P.grid
    iq = 1j * parametrix.Q.matrix
    s2 = parametrix.S2.matrix
    rhs = np.linalg.matrix_power(iq, n) @ mats[n]
    bound = 0.0
    s2_norm = np.linalg.norm(s2, 2)
    for j in range(n):
        term = np.linalg.matrix_power(iq, j) @ (s2 @ mats[j])
        rhs = rhs + term
        bound += (np.linalg.norm(parametrix.Q.matrix, 2) ** j
                  * s2_norm * np.linalg.norm(mats[j], 2))
    residual = float(np.linalg.norm(mats[0] - rhs, 2))

    k = P.order
    A = DiscreteOperator(g, -(n * k - k + 1), mats[0],
                         provenance="function_of")
    norms = {}
    for l in (0, 1):
        norms[l] = op_norm(A, float(l - n * k + k - 1), float(l))
    return QIntegralResult(operator=A, identity_residual=residual,
                           residual_bound=float(bound) + 1e-12, norms=norms)


# ---------------------------------------------------------------------------
# psi-difference Lipschitz bound


@dataclass(frozen=True)
class PsiDifferenceReport:
    lhs: float
    rhs: float
    c_psi: float


def _c_psi(psi: ScalarFunctionSpec) -> float:
    """(1/2pi) int |s psihat(s)| ds with psihat the non-unitary transform.

    Without a closed form, psi' is sampled at 2^18 points on [-200, 200)
    and transformed by FFT.
    """
    if psi.c_psi is not None:
        return float(psi.c_psi)
    # psi itself need not be integrable (normalizing functions tend to +-1),
    # but s psihat(s) = -i FT(psi')(s), and psi' is transformable.
    n_s = 1 << 18
    x = np.linspace(-200.0, 200.0, n_s, endpoint=False)
    dx = x[1] - x[0]
    if psi.derivative is not None:
        dsamples = np.asarray(psi.derivative(1)(x), dtype=complex)
    else:
        dsamples = np.gradient(np.asarray(psi.fn(x), dtype=complex), dx,
                               edge_order=2)
    s = np.fft.fftfreq(n_s, d=dx) * 2 * np.pi
    hat = np.fft.fft(dsamples) * dx * np.exp(-1j * s * x[0])
    ds = 2 * np.pi / (n_s * dx)
    return float(np.abs(hat).sum() * ds / (2 * np.pi))


def psi_difference_bound(
    psi: ScalarFunctionSpec,
    P: DiscreteOperator,
    P_prime: DiscreteOperator,
) -> PsiDifferenceReport:
    """Check ||psi(P) - psi(P')|| <= C_psi ||P - P'|| in the L^2 operator norm.

    Both sides are op_norm(., 0, 0), the norm as maps L^2 -> L^2.
    """
    g = P.grid
    c = _c_psi(psi)
    fp = spectral_apply(P, psi)
    fpp = spectral_apply(P_prime, psi)
    diff = DiscreteOperator(g, 0, fp.matrix - fpp.matrix,
                            provenance="function_of")
    pdiff = DiscreteOperator(g, P.order, P.matrix - P_prime.matrix,
                             provenance="composed")
    lhs = op_norm(diff, 0.0, 0.0)
    rhs = c * op_norm(pdiff, 0.0, 0.0)
    return PsiDifferenceReport(lhs=lhs, rhs=rhs, c_psi=c)
