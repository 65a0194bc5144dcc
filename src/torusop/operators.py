"""Quantization of symbols into dense operators and the operator algebra.

The quantization is exact on the grid: (Pu)(x) = sum_xi e^{i x.xi} p(x, xi)
u_hat(xi), realized as the kernel k(x, y) = n^{-1} sum_xi e^{i (x-y).xi}
p(x, xi), one inverse FFT over xi per point x.  A symbol that does not
depend on x takes a single inverse FFT, and its kernel depends on x - y
only; Fourier multipliers are built the same way, so quantization and
multipliers share one kernel builder, FFT mode order and state layout.
Operator norms between Sobolev spaces are taken in the frequency basis of
lattice.to_frequency, where the Sobolev weights are diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .lattice import GridSpec, Section, from_frequency, to_frequency
from .symbols import Symbol

__all__ = [
    "DiscreteOperator",
    "quantize",
    "multiplication_operator",
    "fourier_multiplier",
    "op_norm",
    "compose",
    "adjoint",
    "commutator",
    "symmetrize",
    "apply_operator",
    "kernel",
    "decay_profile",
    "DecayProfile",
]

STATE_DIM_CAP = 4608
SELF_ADJOINT_TOL = 1e-10
PROPAGATION_DUST_TOL = 1e-10
_PANEL_ROWS = 64


@lru_cache(maxsize=4)
def fourier_matrix(grid: GridSpec) -> np.ndarray:
    """Unitary W with W[j, m] = N^{-d/2} exp(i x_j . xi_m); inverse FFT matrix."""
    n = grid.points_per_axis
    j = np.arange(n)
    m = grid.axis_modes
    w_axis = np.exp(2j * np.pi * np.outer(j, m) / n) / np.sqrt(n)
    w = w_axis
    for _ in range(grid.dim - 1):
        w = np.kron(w, w_axis)
    return w


@lru_cache(maxsize=8)
def _distance_mask_beyond(grid: GridSpec, rho: float) -> np.ndarray:
    d = grid.pairwise_distance()
    # tolerate rounding when the bound lands exactly on a lattice distance
    mask = d > rho * (1.0 + 1e-12) + 1e-12 * grid.spacing
    if grid.fiber_dim > 1:
        mask = np.kron(mask, np.ones((grid.fiber_dim,) * 2, dtype=bool))
    return mask


def _hermitian_part(a: np.ndarray, tol: float) -> tuple:
    """max|A - A*| and, when that is at most ``tol``, (A + A*) / 2, else None.

    Works one row panel at a time: each block of rows is paired with the
    conjugate transpose of the same block of columns.  Every entry gets the
    arithmetic of the full-matrix expressions, so both results are bitwise
    equal to theirs, and the memory beyond the output is a few panels.
    Once the defect is over ``tol`` the remaining panels only add to it,
    so a matrix that is not Hermitian costs one scan and fills no output.
    """
    out = np.empty_like(a)
    defect = 0.0
    for i in range(0, a.shape[0], _PANEL_ROWS):
        rows = slice(i, i + _PANEL_ROWS)
        ct = a[:, rows].conj().T
        defect = max(defect, float(np.abs(a[rows] - ct).max()))
        if defect <= tol:
            np.add(a[rows], ct, out=out[rows])
            out[rows] /= 2.0
    return defect, (out if defect <= tol else None)


@dataclass(frozen=True)
class DiscreteOperator:
    """Dense operator on sections with declared order and provenance.

    With ``self_adjoint=True`` the matrix must satisfy
    max|A - A*| <= SELF_ADJOINT_TOL max|A|, and (A + A*) / 2 is stored;
    the check and the symmetrization share one panelled pass over A.
    """

    grid: GridSpec
    order: int
    matrix: np.ndarray
    provenance: str = "quantized"
    self_adjoint: bool = False
    scalar_symbol: bool = False
    propagation_bound: float | None = None
    propagation_speed: float | None = None

    def __post_init__(self):
        g = self.grid
        a = np.asarray(self.matrix, dtype=complex)
        if a.shape != (g.state_dim, g.state_dim):
            raise ValueError(
                f"matrix shape {a.shape} != state dim {g.state_dim}"
            )
        if not np.all(np.isfinite(a)):
            raise ValueError("non-finite operator entries")
        if self.self_adjoint or self.propagation_bound is not None:
            # before the symmetrized copy, so the abs temporary is freed
            scale = float(np.abs(a).max()) or 1.0
        if self.self_adjoint:
            defect, a_h = _hermitian_part(a, SELF_ADJOINT_TOL * scale)
            if a_h is None:
                raise ValueError(
                    f"operator flagged self_adjoint but defect {defect:.3e}"
                )
            a = a_h
        if self.propagation_bound is not None:
            beyond = _distance_mask_beyond(g, float(self.propagation_bound))
            dust = float(np.abs(a[beyond]).max()) if beyond.any() else 0.0
            if dust > PROPAGATION_DUST_TOL * scale:
                raise ValueError(
                    f"declared propagation bound violated: entry {dust:.3e} "
                    f"beyond distance {self.propagation_bound}"
                )
            a = np.where(beyond, 0.0, a)
        object.__setattr__(self, "matrix", a)


def _kn_matrix(grid: GridSpec, a: np.ndarray) -> np.ndarray:
    """Dense matrix of sum_xi e^{i (x_j - x_k).xi} a(x_j, xi) / n_points.

    ``a`` has shape (m, n_points, r, r), indexed (x, xi, fiber, fiber) with
    xi in FFT order; m = 1 stands for a symbol that does not depend on x.
    The xi-sum is one inverse FFT per sampled x; the kernel entry (j, k)
    then reads it at the lattice offset (j - k) mod N, at x_j.  With a
    single sample the matrix is translation invariant (circulant): its
    entries are read through a strided view of the kernel wrap-padded to
    2N per axis, strides (+s, -s) for (j, k), so no offset index array is
    built.  The x-dependent kernel is gathered with offset index arrays,
    since padding it would cost 2^d times its size.
    """
    d, N = grid.dim, grid.points_per_axis
    n, r = grid.n_points, grid.fiber_dim
    shape = grid.grid_shape()
    if a.shape[0] == n:
        b = np.fft.ifftn(a.reshape(shape + shape + (r, r)),
                         axes=tuple(range(d, 2 * d)))
        # open index grids over the axes (j_1..j_d, k_1..k_d)
        ix = np.ix_(*[np.arange(N)] * (2 * d))
        j, k = ix[:d], ix[d:]
        kern = b[j + tuple((ji - ki) % N for ji, ki in zip(j, k))]
        return (kern.reshape(n, n, r, r).transpose(0, 2, 1, 3)
                .reshape(n * r, n * r))
    b = np.fft.ifftn(a.reshape(shape + (r, r)), axes=tuple(range(d)))
    # entry N + j - k of a padded axis is b at (j - k) mod N
    padded = np.tile(b, (2,) * d + (1, 1))
    s = padded.strides
    view = np.lib.stride_tricks.as_strided(
        padded[(N,) * d],
        shape=shape + (r,) + shape + (r,),
        strides=s[:d] + s[d:d + 1] + tuple(-x for x in s[:d]) + s[d + 1:],
        writeable=False,
    )
    return np.ascontiguousarray(view).reshape(n * r, n * r)


def _kn_operator(grid: GridSpec, order: int, a: np.ndarray,
                 **flags) -> DiscreteOperator:
    """The operator of ``_kn_matrix(grid, a)``, flagged self-adjoint when it is."""
    if grid.state_dim > STATE_DIM_CAP:
        raise ValueError(
            f"state dimension {grid.state_dim} exceeds the dense cap "
            f"{STATE_DIM_CAP}"
        )
    mat = _kn_matrix(grid, a)
    op = DiscreteOperator(grid, order, mat, provenance="quantized", **flags)
    # flag and symmetrize as __post_init__ does for self_adjoint=True,
    # with one scan of A instead of one here and one there
    scale = float(np.abs(mat).max()) or 1.0
    _defect, herm = _hermitian_part(mat, SELF_ADJOINT_TOL * scale)
    if herm is not None:
        object.__setattr__(op, "matrix", herm)
        object.__setattr__(op, "self_adjoint", True)
    return op


def quantize(p: Symbol) -> DiscreteOperator:
    """Kohn-Nirenberg quantization of a sampled symbol, exact on the grid."""
    return _kn_operator(
        p.grid, p.order, p.samples,
        scalar_symbol=(p.grid.fiber_dim == 1),
    )


def multiplication_operator(grid: GridSpec, values) -> DiscreteOperator:
    """Diagonal multiplication by a scalar grid function (order 0, local)."""
    f = np.asarray(values).ravel()
    if f.shape != (grid.n_points,):
        raise ValueError("multiplier size does not match grid")
    diag = np.repeat(f, grid.fiber_dim).astype(complex)
    return DiscreteOperator(
        grid, 0, np.diag(diag),
        provenance="multiplication",
        self_adjoint=bool(np.all(np.isreal(f))),
        scalar_symbol=True,
        propagation_bound=0.0,
    )


def fourier_multiplier(
    grid: GridSpec, fn, order: int = 0,
    propagation_speed: float | None = None,
) -> DiscreteOperator:
    """Operator diagonal in the frequency basis: u_hat(xi) -> fn(xi) u_hat(xi).

    ``fn`` maps the (n_points, dim) frequency array to per-mode scalars.
    Unlike quantization of a sampled symbol, the multiplier uses the raw
    frequency values including the half mode, so e.g. the first derivative
    has exact lattice translation semantics.
    """
    vals = np.asarray(fn(grid.frequencies), dtype=complex).ravel()
    return _kn_operator(
        grid, order, vals[None, :, None, None] * np.eye(grid.fiber_dim),
        scalar_symbol=True, propagation_speed=propagation_speed,
    )


def apply_operator(A: DiscreteOperator, u: Section) -> Section:
    return Section(A.grid, (A.matrix @ u.flat()).reshape(-1, A.grid.fiber_dim))


def _state_weights(grid: GridSpec, s: float) -> np.ndarray:
    return np.repeat(grid.sobolev_weights(s), grid.fiber_dim)


def _to_fourier_rep(A: DiscreteOperator) -> np.ndarray:
    """W* A W: the matrix of A acting on Fourier coefficient vectors."""
    g = A.grid
    # W is symmetric, so right-multiplying by W transforms the rows
    return from_frequency(g, to_frequency(g, A.matrix).T).T


def _weighted_rep(rep: np.ndarray, grid: GridSpec, s: float,
                  t: float) -> np.ndarray:
    """A frequency representation conjugated to a map H^s -> H^t on l2."""
    return rep * (_state_weights(grid, t)[:, None]
                  / _state_weights(grid, s)[None, :])


def op_norm(A: DiscreteOperator, s: float, t: float) -> float:
    """Operator norm of A : H^s -> H^t (norm of W_t A W_s^{-1} on l2).

    Exact: the largest singular value of the weighted frequency
    representation.
    """
    return float(np.linalg.norm(
        _weighted_rep(_to_fourier_rep(A), A.grid, s, t), 2))


def _combine_propagation(a, b):
    if a is None or b is None:
        return None
    return a + b


def compose(A: DiscreteOperator, B: DiscreteOperator) -> DiscreteOperator:
    if A.grid != B.grid:
        raise ValueError("grid mismatch")
    return DiscreteOperator(
        A.grid, A.order + B.order, A.matrix @ B.matrix,
        provenance="composed",
        scalar_symbol=A.scalar_symbol and B.scalar_symbol,
        propagation_bound=_combine_propagation(
            A.propagation_bound, B.propagation_bound),
    )


def adjoint(A: DiscreteOperator) -> DiscreteOperator:
    """A* with every flag of A kept: order, symbol flags, propagation data."""
    return replace(A, matrix=A.matrix.conj().T, provenance="composed")


def commutator(A: DiscreteOperator, B: DiscreteOperator) -> DiscreteOperator:
    """AB - BA; drops one order when both carry the scalar-symbol flag."""
    if A.grid != B.grid:
        raise ValueError("grid mismatch")
    order = A.order + B.order
    if A.scalar_symbol and B.scalar_symbol:
        order -= 1
    return DiscreteOperator(
        A.grid, order, A.matrix @ B.matrix - B.matrix @ A.matrix,
        provenance="composed",
        scalar_symbol=A.scalar_symbol and B.scalar_symbol,
        propagation_bound=_combine_propagation(
            A.propagation_bound, B.propagation_bound),
    )


def symmetrize(A: DiscreteOperator) -> DiscreteOperator:
    """(A + A*)/2 flagged self-adjoint, with every other flag of A kept."""
    return replace(A, matrix=_hermitian_part(A.matrix, math.inf)[1],
                   self_adjoint=True)


def kernel(A: DiscreteOperator) -> np.ndarray:
    """The matrix reindexed as blocks k(x, y), shape (n, n, r, r)."""
    g = A.grid
    n, r = g.n_points, g.fiber_dim
    return A.matrix.reshape(n, r, n, r).transpose(0, 2, 1, 3)


@dataclass(frozen=True)
class DecayProfile:
    """Kernel shell maxima plus the smoothing-criterion norm table."""

    shells: tuple  # rows (shell_lo, shell_hi, max_abs)
    norms: dict    # (k, l) -> ||A||_{-k, l}


def decay_profile(
    A: DiscreteOperator, num_shells: int = 12, norm_range: int = 4
) -> DecayProfile:
    """Max |k_A(x, y)| per geodesic distance shell and ||A||_{-k,l} table."""
    g = A.grid
    d = g.pairwise_distance()
    k = kernel(A)
    mags = np.abs(k).max(axis=(2, 3))
    edges = np.linspace(0.0, d.max() * (1 + 1e-12), num_shells + 1)
    rows = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        sel = (d >= lo) & (d < hi)
        rows.append((float(lo), float(hi),
                     float(mags[sel].max()) if sel.any() else 0.0))
    rep = _to_fourier_rep(A)
    norms = {
        (kk, ll): float(np.linalg.norm(_weighted_rep(rep, g, -kk, ll), 2))
        for kk in range(norm_range + 1)
        for ll in range(norm_range + 1)
    }
    return DecayProfile(shells=tuple(rows), norms=norms)
