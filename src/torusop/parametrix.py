"""Parametrix construction for elliptic operators and elliptic estimates.

The parametrix is built by Neumann-style symbol correction: starting from the
excised pointwise inverse q_0 of the symbol, each sweep subtracts the
composition defect, q_{j+1} = q_j - q_0 o (p o q_j - 1).  The xi-differences
of p and q_0 are the same in every sweep; each symbol keeps its own (see
symbols.Symbol.xi_difference), so they are taken once.  The residuals
S1 = I - PQ and S2 = I - QP are defined by exact subtraction, so the matrix
identities hold to rounding.  S1 is formed with Q; the dense product behind
S2 is formed on its first read, through ``ParametrixResult.S2`` or an
("S2", k, l) norm, and then kept.  Because the excision zeroes the inverse
on a low-frequency band, S1 acts as the identity there; residual norms are
therefore reported both on and off that band.  Each norm is one
operators.op_norm call, taken on the first read of its table entry; the
band tables pass op_norm the band as a frequency mask.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .lattice import (
    GridSpec,
    Section,
    from_frequency,
    sobolev_norm,
    to_frequency,
)
from .symbols import (
    Symbol,
    check_elliptic,
    compose_symbols,
    invert_principal,
)
from .operators import (
    DiscreteOperator,
    apply_operator,
    fourier_multiplier,
    multiplier_matrix,
    op_norm,
    quantize,
)

__all__ = [
    "ParametrixResult",
    "build_parametrix",
    "band_projector",
    "elliptic_estimate_constant",
    "fourier_diagonal_constant",
    "RegularityReport",
    "elliptic_regularity_check",
    "ModifiedInnerProduct",
    "modified_inner_product",
]

EIGH_DIM_CAP = 2000


def band_projector(grid: GridSpec, radius: float, off_band: bool = False):
    """Spectral projector onto modes with |xi| <= radius (or its complement)."""
    if off_band:
        fn = lambda xi: (np.linalg.norm(xi, axis=-1) > radius).astype(float)
    else:
        fn = lambda xi: (np.linalg.norm(xi, axis=-1) <= radius).astype(float)
    return fourier_multiplier(grid, fn, order=0)


class _LazyTable(Mapping):
    """Read-only table whose entries are computed on first read and kept.

    Membership, length and iteration use the fixed key list and compute
    nothing; ``compute(key)`` runs once per key, on its first ``[]`` read.
    """

    def __init__(self, keys, compute):
        self._keys = dict.fromkeys(keys)
        self._values = {}
        self._compute = compute

    def __getitem__(self, key):
        if key not in self._values:
            if key not in self._keys:
                raise KeyError(key)
            self._values[key] = self._compute(key)
        return self._values[key]

    def __contains__(self, key):
        return key in self._keys

    def __iter__(self):
        return iter(self._keys)

    def __len__(self):
        return len(self._keys)


class _Once:
    """The value of ``make()``, computed on the first ``get()`` and kept.

    ``make`` is dropped once it has run, with everything it refers to.
    """

    def __init__(self, make):
        self._make = make
        self._value = None

    def get(self):
        if self._make is not None:
            self._value = self._make()
            self._make = None
        return self._value


def _identity_defect(grid: GridSpec, A: np.ndarray,
                     B: np.ndarray) -> DiscreteOperator:
    """I - AB as a smoothing operator."""
    return DiscreteOperator(grid, -1000, np.eye(grid.state_dim) - A @ B,
                            provenance="smoothing")


@dataclass(frozen=True)
class ParametrixResult:
    """Approximate inverse Q with residuals S1 = I - PQ and S2 = I - QP.

    S1 is formed with Q.  S2 is formed on its first read, as ``.S2`` or
    through an ("S2", k, l) entry, and both reads then return the same
    operator; a result whose S2 is never read never forms it.  Nothing in
    the result refers back to it, so dropping the result frees S1 and S2
    without the cycle collector.

    The norm tables are read-only mappings whose keys are fixed when the
    result is built; each entry is an exact SVD norm, computed on its first
    read and then kept.  ``residual_norms[(tag, k, l)]`` is the norm of
    S1 or S2 (tag "S1"/"S2") as a map H^{-k} -> H^l;
    ``off_band_norms[(k, l)]`` and ``band_norms[(k, l)]`` are the same norm
    of S1 composed with the projector off or onto the excised band.
    """

    Q: DiscreteOperator
    S1: DiscreteOperator
    _s2: _Once = field(repr=False, compare=False)
    excision_radius: float
    excision_width: float
    residual_norms: Mapping = field(default_factory=dict)
    off_band_norms: Mapping = field(default_factory=dict)
    band_norms: Mapping = field(default_factory=dict)
    defect_history: tuple = ()
    diverged: bool = False
    worst_cell: tuple = ()

    @property
    def S2(self) -> DiscreteOperator:
        """I - QP, formed on the first read and then kept."""
        return self._s2.get()


def _denoise_x_spectrum(samples: np.ndarray, grid: GridSpec,
                        threshold: float) -> np.ndarray:
    """Zero x-harmonics below a relative noise threshold.

    Repeated spectral x-differentiation inside the composition expansion
    multiplies the rounding floor of the x-spectrum by (N/2L)^alpha per
    sweep, which bootstraps into a visible error after a few sweeps.  The
    genuine harmonics of the iterates decay geometrically, so coefficients
    below the threshold carry no information and are removed.
    """
    if samples.shape[0] == 1:
        return samples
    shaped = samples.reshape(grid.grid_shape() + samples.shape[1:])
    hat = np.fft.fftn(shaped, axes=tuple(range(grid.dim)))
    scale = np.abs(hat).max(axis=tuple(range(grid.dim)), keepdims=True)
    hat = np.where(np.abs(hat) < threshold * scale, 0.0, hat)
    out = np.fft.ifftn(hat, axes=tuple(range(grid.dim)))
    return out.reshape(samples.shape)


def build_parametrix(
    P: DiscreteOperator,
    p: Symbol,
    J: int,
    excision_width: float = 1.0,
    norm_range: int = 4,
) -> ParametrixResult:
    """Iterated symbol-correction parametrix of an elliptic operator.

    J counts the correction sweeps; it is also used as the truncation order
    of the composition expansion inside each sweep.  The norm tables hold
    the keys k, l in range(norm_range); no norm is computed here, and S2
    is not formed here.  The first read of an S1 entry (residual,
    off-band or band) takes the frequency representation of S1, the first
    read of an ("S2", k, l) entry forms S2 (unless ``.S2`` was read) and
    takes its representation (each kept as the operator's
    ``frequency_rep``), and every read of a new entry takes one SVD.
    """
    if J < 0:
        raise ValueError("J must be >= 0")
    cert = check_elliptic(p)
    if not cert.ok:
        raise ValueError(
            f"symbol is not elliptic; worst cell {cert.worst_point}"
        )
    g = p.grid
    q0 = invert_principal(p, cert, excision_width)
    q = q0
    expansion = max(J, 1)
    band_radius = cert.radius + excision_width
    offband = g.frequency_magnitude > band_radius

    history = []
    worst = ()
    diverged = False
    for _ in range(J):
        defect = compose_symbols(p, q, expansion)
        r = defect.samples.shape[-1]
        defect = Symbol(
            g, 0, defect.samples - np.eye(r, dtype=complex),
            x_independent=defect.x_independent,
        )
        mags = np.linalg.norm(defect.samples, axis=(-2, -1))
        level = float(mags[:, offband].max()) if offband.any() else 0.0
        history.append(level)
        if len(history) > 1 and history[-1] > 2.0 * history[-2]:
            diverged = True
            i, j = np.unravel_index(np.argmax(mags), mags.shape)
            worst = (int(i), int(j), float(g.frequency_magnitude[j]), level)
        corr = compose_symbols(q0, defect, expansion)
        x_max = g.points_per_axis / (2.0 * g.period_scale)
        eps = np.finfo(float).eps
        threshold = max(1e-12, 100.0 * eps * x_max ** expansion)
        q = Symbol(
            g, -p.order,
            _denoise_x_spectrum(q.samples - corr.samples, g, threshold),
            x_independent=q.x_independent and corr.x_independent,
        )

    Q = quantize(q)
    S1 = _identity_defect(g, P.matrix, Q.matrix)
    s2 = _Once(lambda: _identity_defect(g, Q.matrix, P.matrix))

    residual_of = {"S1": lambda: S1, "S2": s2.get}
    kl = [(k, l) for k in range(norm_range) for l in range(norm_range)]
    residual = _LazyTable(
        [(tag, k, l) for k, l in kl for tag in residual_of],
        lambda key: op_norm(residual_of[key[0]](), -float(key[1]),
                            float(key[2])))
    off_tab = _LazyTable(
        kl, lambda key: op_norm(S1, -float(key[0]), float(key[1]), offband))
    band_tab = _LazyTable(
        kl, lambda key: op_norm(S1, -float(key[0]), float(key[1]), ~offband))
    return ParametrixResult(
        Q=Q, S1=S1, _s2=s2,
        excision_radius=cert.radius, excision_width=excision_width,
        residual_norms=residual, off_band_norms=off_tab, band_norms=band_tab,
        defect_history=tuple(history), diverged=diverged, worst_cell=worst,
    )


# ---------------------------------------------------------------------------
# fundamental elliptic estimate


def _estimate_ratio(P: DiscreteOperator, u: Section, s: float) -> float:
    k = P.order
    num = sobolev_norm(u, s)
    den = sobolev_norm(u, s - k) + sobolev_norm(apply_operator(P, u), s - k)
    return num / den if den > 0 else np.inf


def elliptic_estimate_constant(
    P: DiscreteOperator, s: float, probes: int = 16, seed: int = 0
) -> float:
    """Measured constant in ||u||_{H^s} <= C (||u||_{H^{s-k}} + ||Pu||_{H^{s-k}}).

    The maximum runs over random sections, the extreme plane waves along each
    axis (which expose symbols degenerating in one frequency direction), and
    the maximiser of the surrogate ratio u^H D^2 u / u^H G u over frequency
    coefficients u, D = diag(ws), G = diag(wsk^2) + L^H L, L = diag(wsk) P_hat.
    D is a positive diagonal, so v = D u turns the pencil exactly into the
    Hermitian H = D^{-1} G D^{-1}: the maximiser is D^{-1} times the vector of
    H's smallest eigenvalue.  ?heevr returns one vector for a one-index range
    even at a tied eigenvalue, so no fallback solve is needed.
    """
    if probes < 0:
        raise ValueError("probes must be >= 0")
    g = P.grid
    rng = np.random.default_rng(seed)
    best = 0.0
    n, r = g.n_points, g.fiber_dim
    for _ in range(probes):
        vals = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
        best = max(best, _estimate_ratio(P, Section(g, vals), s))

    # adversarial high-frequency plane waves, one per axis and per fiber slot
    half = g.points_per_axis // 2
    for axis in range(g.dim):
        idx = [0] * g.dim
        idx[axis] = half
        flat_idx = np.ravel_multi_index(idx, g.grid_shape())
        for slot in range(r):
            vals = np.zeros((n, r), dtype=complex)
            vals[:, slot] = np.exp(1j * g.points @ g.frequencies[flat_idx])
            best = max(best, _estimate_ratio(P, Section(g, vals), s))

    if g.state_dim <= EIGH_DIM_CAP:
        ws = g.sobolev_weights(s)
        wsk = g.sobolev_weights(s - P.order)
        B = (wsk[:, None] * P.frequency_rep) / ws[None, :]
        # the lower triangle of B^H B; eigh reads only that triangle
        H = scipy.linalg.blas.zherk(1.0, B, trans=2, lower=1)
        H[np.diag_indices_from(H)] += (wsk / ws) ** 2
        v = scipy.linalg.eigh(H, lower=True, subset_by_index=[0, 0],
                              driver="evr")[1][:, 0]
        u = Section(g, from_frequency(g, v / ws).reshape(n, r))
        best = max(best, _estimate_ratio(P, u, s))
    return best


def fourier_diagonal_constant(fn, order: int) -> float:
    """Elliptic-estimate constant of a 1D multiplier, by direct supremum.

    For plane waves the estimate diagonalizes, and the constant is
    sup_xi (1+|xi|^2)^{k/2} / (1 + |m(xi)|) at every Sobolev index s,
    evaluated at xi = 0 and on 4000 log-spaced frequencies in [1e-3, 1e8],
    far past any lattice (the supremum of interest is often only attained
    as |xi| -> infinity).
    """
    mags = np.concatenate([[0.0], np.geomspace(1e-3, 1e8, 4000)])
    m = np.abs(np.asarray(fn(mags[:, None]), dtype=complex).ravel())
    ratio = (1.0 + mags ** 2) ** (order / 2.0) / (1.0 + m)
    return float(ratio.max())


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


def elliptic_regularity_check(
    P: DiscreteOperator,
    p: Symbol,
    u: Section,
    J: int = 2,
    excision_width: float = 1.0,
) -> RegularityReport:
    """Verify the parametrix identity on u and tabulate frequency tails.

    The levels F are six equal steps up to 0.75 times the largest lattice
    frequency.  At each level F the report compares the Sobolev mass of u
    above F with the mass of Pu above F; for an elliptic P of order k the
    former is controlled by the latter at relative order -k, except on the
    excised band, where Pu can vanish while u does not.
    """
    g = P.grid
    par = build_parametrix(P, p, J, excision_width, norm_range=1)
    pu = apply_operator(P, u)
    recon = apply_operator(par.Q, pu).values + apply_operator(par.S2, u).values
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


# ---------------------------------------------------------------------------
# modified inner product


@dataclass(frozen=True)
class ModifiedInnerProduct:
    """Gram operator of <u,v>_k + <Pu,Pv>_l and its symmetry defect for P."""

    gram: np.ndarray
    max_asymmetry: float


def modified_inner_product(
    P: DiscreteOperator, k: float = 0.0, l: float = 0.0, probes: int = 20,
) -> ModifiedInnerProduct:
    """Check that P is symmetric for <u,v> = <u,v>_{H^k} + <Pu,Pv>_{H^l}.

    The probes are drawn from the generator seeded with 0.
    """
    if not P.self_adjoint:
        raise ValueError("modified inner product requires a self-adjoint P")
    g = P.grid
    gk = multiplier_matrix(g, g.sobolev_weights(2 * k))
    lp = from_frequency(g, g.sobolev_weights(l)[:, None]
                        * to_frequency(g, P.matrix))
    gram = gk + lp.conj().T @ lp
    gram *= g.quadrature_weight ** 2

    rng = np.random.default_rng(0)
    worst = 0.0
    n, r = g.n_points, g.fiber_dim
    pnorm = np.linalg.norm(P.matrix, 2)
    for _ in range(probes):
        u = (rng.standard_normal((n * r,))
             + 1j * rng.standard_normal((n * r,)))
        v = (rng.standard_normal((n * r,))
             + 1j * rng.standard_normal((n * r,)))
        pu, pv = P.matrix @ u, P.matrix @ v
        lhs = np.vdot(pu, gram @ v)
        rhs = np.vdot(u, gram @ pv)
        norm_u = np.sqrt(abs(np.vdot(u, gram @ u)))
        norm_v = np.sqrt(abs(np.vdot(v, gram @ v)))
        worst = max(worst, abs(lhs - rhs) / (pnorm * norm_u * norm_v))
    return ModifiedInnerProduct(gram=gram, max_asymmetry=float(worst))
