"""Quantization of symbols into dense operators and the operator algebra.

The quantization is exact on the grid: (Pu)(x) = sum_xi e^{i x.xi} p(x, xi)
u_hat(xi), realized as the kernel k(x, y) = n^{-1} sum_xi e^{i (x-y).xi}
p(x, xi), one inverse FFT over xi per point x.  A symbol that does not
depend on x takes a single inverse FFT, and its kernel depends on x - y
only; multiplier_matrix builds Fourier multipliers the same way, so
quantization and multipliers share one kernel routine and state layout,
and a multiplier's columns, or a strided view of it, come from its kernel.
A quantization holds one n x n array: an x-dependent kernel is transformed
and gathered into the matrix in row panels, and the Hermitian part is
written back into that matrix.
Operator norms between Sobolev spaces are taken in the frequency basis of
lattice.to_frequency, where the Sobolev weights are diagonal, by op_norm
alone; it reads the representation each operator keeps as frequency_rep.
A declared ``propagation_speed`` is read by funcalc's wave route alone,
which stamps e^{itP} with ``propagation_stamp``; no other operator here
carries a propagation bound, through composition or otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .lattice import GridSpec, Section, from_frequency, to_frequency
from .symbols import Symbol

__all__ = [
    "DiscreteOperator",
    "quantize",
    "multiplication_operator",
    "fourier_multiplier",
    "multiplier_matrix",
    "propagation_stamp",
    "op_norm",
    "compose",
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
_TILE = 64
# bytes of a row panel of a dense matrix or a row block of a summed table:
# about one core's L2 cache, where it stays while it is used
_BLOCK_BYTES = 1 << 20


@lru_cache(maxsize=4)
def fourier_matrix(grid: GridSpec) -> np.ndarray:
    """Unitary W, W[j, m] = N^{-d/2} exp(i x_j . xi_m): the dense oracle that
    the tests check the FFT layer against; nothing in the package builds it."""
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


def _hermitian_part(a: np.ndarray, tol: float, out=None) -> tuple:
    """max|A - A*| and, when that is at most ``tol``, (A + A*) / 2, else None.

    The defect is scanned first, over tiles (i, j) and (j, i) read together;
    only a matrix within ``tol`` is then symmetrized, tile pair by tile
    pair, into ``out`` (a new array by default).  ``out`` may be ``a``
    itself, since both tiles' new values are taken before either is
    assigned.  Each output entry is A_pq + conj(A_qp), never its mirror's
    conjugate (which flips the sign of a zero imaginary part): both results
    are bitwise those of the full-matrix expressions.
    """
    pairs = [(slice(i, i + _TILE), slice(j, j + _TILE))
             for i in range(0, len(a), _TILE) for j in range(i, len(a), _TILE)]
    defect = max(0.0, *(float(np.abs(a[rows, cols] - a[cols, rows].conj().T)
                              .max()) for rows, cols in pairs))
    if defect > tol:
        return defect, None
    out = np.empty_like(a) if out is None else out
    for rows, cols in pairs:
        upper, lower = a[rows, cols], a[cols, rows]
        out[rows, cols], out[cols, rows] = ((upper + lower.conj().T) / 2.0,
                                            (lower + upper.conj().T) / 2.0)
    return defect, out


def propagation_stamp(grid: GridSpec, a: np.ndarray, bound: float,
                      scale: float, states=None) -> np.ndarray:
    """``a`` with its entries beyond distance ``bound`` zeroed exactly.

    Those entries must already vanish to PROPAGATION_DUST_TOL * ``scale``,
    else ValueError.  With ``states``, ``a`` holds only those columns of
    the matrix, and the check reads only them.
    """
    beyond = _distance_mask_beyond(grid, float(bound))
    if states is not None:
        beyond = beyond[:, states]
    dust = float(np.abs(a[beyond]).max()) if beyond.any() else 0.0
    if dust > PROPAGATION_DUST_TOL * scale:
        raise ValueError(
            f"declared propagation bound violated: entry {dust:.3e} "
            f"beyond distance {bound}"
        )
    return np.where(beyond, 0.0, a)


@dataclass(frozen=True)
class DiscreteOperator:
    """Dense operator on sections with declared order and provenance.

    With ``self_adjoint=True`` the matrix must satisfy
    max|A - A*| <= SELF_ADJOINT_TOL max|A|, and (A + A*) / 2 is stored, in
    a new array: the check and the symmetrization read A by tile pairs.
    """

    grid: GridSpec
    order: int
    matrix: np.ndarray
    provenance: str = "quantized"
    self_adjoint: bool = False
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
        if self.self_adjoint:
            scale = float(np.abs(a).max()) or 1.0
            defect, a_h = _hermitian_part(a, SELF_ADJOINT_TOL * scale)
            if a_h is None:
                raise ValueError(
                    f"operator flagged self_adjoint but defect {defect:.3e}"
                )
            a = a_h
        object.__setattr__(self, "matrix", a)

    @cached_property
    def frequency_rep(self) -> np.ndarray:
        """Read-only W* A W, taken on first read: A on Fourier coefficients."""
        rep = _to_fourier_rep(self)
        rep.flags.writeable = False
        return rep


def _check_dense_cap(grid: GridSpec) -> None:
    if grid.state_dim > STATE_DIM_CAP:
        raise ValueError(f"state dimension {grid.state_dim} exceeds the "
                         f"dense cap {STATE_DIM_CAP}")


def _panels(grid: GridSpec) -> list:
    """(lo, hi) ranges of the first grid axis that split the rows of a
    dense matrix into panels of about _BLOCK_BYTES, one step at least."""
    n, N = grid.state_dim, grid.points_per_axis
    k = min(N, max(1, _BLOCK_BYTES // (16 * n * (n // N))))
    return [(lo, min(lo + k, N)) for lo in range(0, N, k)]


def _kn_kernel(grid: GridSpec, a: np.ndarray) -> np.ndarray:
    """Inverse FFT over xi of x-independent symbol samples ``a``: the
    kernel b(offset), shape grid_shape + (r, r)."""
    _check_dense_cap(grid)
    shape, r = grid.grid_shape(), grid.fiber_dim
    return np.fft.ifftn(a.reshape(shape + (r, r)),
                        axes=tuple(range(grid.dim)))


def _kn_matrix(grid: GridSpec, a: np.ndarray) -> np.ndarray:
    """Dense matrix of sum_xi e^{i (x_j - x_k).xi} a(x_j, xi) / n_points.

    ``a`` has shape (m, n_points, r, r), indexed (x, xi, fiber, fiber) with
    xi in FFT order; m = 1 stands for a symbol that does not depend on x.
    The xi-sum is one inverse FFT per sampled x; the kernel entry (j, k)
    then reads it at the lattice offset (j - k) mod N, at x_j.  With a
    single sample the matrix is translation invariant (``_circulant_matrix``).
    Otherwise the matrix is the one n x n array: each row panel
    (``_panels``) takes its points' transforms and is then gathered in
    place with offset index arrays, which is safe since a panel's rows read
    only that panel's kernel rows.
    """
    if a.shape[0] == 1:
        return _circulant_matrix(grid, _kn_kernel(grid, a))
    _check_dense_cap(grid)
    d, N, r = grid.dim, grid.points_per_axis, grid.fiber_dim
    n, shape = grid.n_points, grid.grid_shape()
    out = np.empty((n * r, n * r), dtype=complex)
    # out's memory as the kernel b(x, offset), and as rows by x_1
    b, rows = out.reshape(shape * 2 + (r, r)), out.reshape(N, -1, r, n, r)
    # open index grids over the axes (j_1..j_d, k_1..k_d)
    ix = np.ix_(*[np.arange(N)] * (2 * d))
    offset = tuple((j - k) % N for j, k in zip(ix[:d], ix[d:]))
    for lo, hi in _panels(grid):
        np.fft.ifftn(a.reshape(b.shape)[lo:hi], axes=tuple(range(d, 2 * d)),
                     out=b[lo:hi])
        kern = b[(ix[0][lo:hi],) + ix[1:d] + (offset[0][lo:hi],) + offset[1:]]
        rows[lo:hi] = (kern.reshape(hi - lo, -1, n, r, r)
                       .transpose(0, 1, 3, 2, 4))
    return out


def _circulant_view(grid: GridSpec, b: np.ndarray) -> np.ndarray:
    """Read-only view of the matrix with fiber block (j, k) = b((j - k) mod N),
    shape grid_shape + (r,) + grid_shape + (r,): b wrap-padded to 2N per
    axis, read with strides (+s, -s)."""
    d, N, r = grid.dim, grid.points_per_axis, grid.fiber_dim
    # entry N + j - k of a padded axis is b at (j - k) mod N
    padded = np.tile(b, (2,) * d + (1, 1))
    s = padded.strides
    return np.lib.stride_tricks.as_strided(
        padded[(N,) * d],
        shape=grid.grid_shape() + (r,) + grid.grid_shape() + (r,),
        strides=s[:d] + s[d:d + 1] + tuple(-x for x in s[:d]) + s[d + 1:],
        writeable=False,
    )


def _circulant_matrix(grid: GridSpec, b: np.ndarray) -> np.ndarray:
    """Dense copy of ``_circulant_view(grid, b)``."""
    n = grid.state_dim
    return np.ascontiguousarray(_circulant_view(grid, b)).reshape(n, n)


def _hermitian_kernel(b: np.ndarray, tol: float) -> tuple:
    """``_hermitian_part`` of ``_circulant_matrix(grid, b)``, taken on b.

    Block (j, k) of its adjoint is b(k - j)*^T, so the defect is
    max|b(delta) - b(-delta)*^T| and the Hermitian part is the matrix of
    (b(delta) + b(-delta)*^T) / 2: the tile scan's arithmetic per entry.
    """
    axes = tuple(range(b.ndim - 2))
    adj = np.roll(np.flip(b, axes), 1, axes).conj().swapaxes(-1, -2)
    defect = float(np.abs(b - adj).max())
    return defect, ((b + adj) / 2.0 if defect <= tol else None)


def _circulant_columns(grid: GridSpec, b: np.ndarray,
                       states: np.ndarray) -> np.ndarray:
    """Columns ``states`` of ``_circulant_matrix(grid, b)``, with no n x n
    matrix formed: entry (j, k) is read, as there, from b wrap-padded to 2N
    per axis at N + j - k, so the columns are the matrix's bit for bit.

    The flat index of that entry splits into a part of the row (j and its
    fiber slot) and a part of the column (k and its fiber slot), so one
    broadcast sum indexes every entry of the columns.
    """
    d, N = grid.dim, grid.points_per_axis
    n, r = grid.n_points, grid.fiber_dim
    padded = np.tile(b, (2,) * d + (1, 1))
    # element strides of padded's grid axes
    place = (2 * N) ** np.arange(d - 1, -1, -1)[:, None] * r * r
    k, fib = np.divmod(np.asarray(states), r)
    k = np.array(np.unravel_index(k, grid.grid_shape())).reshape(d, -1)
    row = (place * np.indices(grid.grid_shape()).reshape(d, n)).sum(axis=0)
    row = row[:, None] + r * np.arange(r)
    col = (place * (N - k)).sum(axis=0) + fib
    return padded.reshape(-1).take(row[:, :, None] + col).reshape(n * r, -1)


def multiplier_matrix(grid: GridSpec, values, states=None) -> np.ndarray:
    """Dense matrix of u_hat -> values * u_hat, one value per frequency state.

    The states are indexed as lattice.to_frequency indexes its output.
    With ``states``, a flat index array, only the matrix's columns
    [:, states] are built, from the same kernel."""
    samples = _multiplier_samples(grid, values)
    if states is None:
        return _kn_matrix(grid, samples)
    return _circulant_columns(grid, _kn_kernel(grid, samples), states)


def _multiplier_view(grid: GridSpec, values) -> np.ndarray:
    """``multiplier_matrix(grid, values)`` read through its kernel's
    ``_circulant_view``: its entries, bit for bit, with no n x n array."""
    return _circulant_view(grid, _kn_kernel(grid,
                                            _multiplier_samples(grid, values)))


def _multiplier_samples(grid: GridSpec, values) -> np.ndarray:
    values = np.asarray(values, dtype=complex)
    if values.size != grid.state_dim:
        raise ValueError(f"a multiplier needs {grid.state_dim} values, one "
                         f"per frequency state, got {values.size}")
    r = grid.fiber_dim
    # an x-independent symbol, diagonal over the fiber
    return values.reshape(1, grid.n_points, r, 1) * np.eye(r)


def _kn_operator(grid: GridSpec, order: int, a: np.ndarray,
                 **flags) -> DiscreteOperator:
    """The operator of symbol samples ``a``, flagged self-adjoint when it is:
    __post_init__'s check, on the kernel when a is x-independent, else in
    place on the one matrix."""
    if a.shape[0] == 1:
        b = _kn_kernel(grid, a)
        scale = float(np.abs(b).max()) or 1.0
        _defect, herm = _hermitian_kernel(b, SELF_ADJOINT_TOL * scale)
        mat = _circulant_matrix(grid, b if herm is None else herm)
    else:
        mat = _kn_matrix(grid, a)
        scale = max(float(np.abs(mat.reshape(grid.points_per_axis, -1)[lo:hi])
                          .max()) for lo, hi in _panels(grid)) or 1.0
        _defect, herm = _hermitian_part(mat, SELF_ADJOINT_TOL * scale, mat)
    op = DiscreteOperator(grid, order, mat, provenance="quantized", **flags)
    object.__setattr__(op, "self_adjoint", herm is not None)
    return op


def quantize(p: Symbol) -> DiscreteOperator:
    """Kohn-Nirenberg quantization of a sampled symbol, exact on the grid."""
    return _kn_operator(p.grid, p.order, p.samples)


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
        grid, order,
        _multiplier_samples(grid, np.repeat(vals, grid.fiber_dim)),
        propagation_speed=propagation_speed,
    )


def apply_operator(A: DiscreteOperator, u: Section) -> Section:
    return Section(A.grid, (A.matrix @ u.flat()).reshape(-1, A.grid.fiber_dim))


def _to_fourier_rep(A: DiscreteOperator) -> np.ndarray:
    """W* A W: the matrix of A acting on Fourier coefficient vectors."""
    g = A.grid
    # W is symmetric, so right-multiplying by W transforms the rows
    return from_frequency(g, to_frequency(g, A.matrix).T).T


def op_norm(A: DiscreteOperator, s: float, t: float, modes=None) -> float:
    """Operator norm of A : H^s -> H^t (norm of W_t A W_s^{-1} on l2).

    Exact: the largest singular value of the weighted frequency
    representation.  With ``modes``, a boolean mask over the lattice
    frequencies, it is the norm of A composed with the spectral projector
    onto them: the representation loses the columns outside the mask.
    """
    g = A.grid
    cols = slice(None) if modes is None else np.repeat(modes, g.fiber_dim)
    weights = g.sobolev_weights(t)[:, None] / g.sobolev_weights(s)[None, cols]
    return float(np.linalg.norm(A.frequency_rep[:, cols] * weights, 2))


def compose(A: DiscreteOperator, B: DiscreteOperator) -> DiscreteOperator:
    if A.grid != B.grid:
        raise ValueError("grid mismatch")
    return DiscreteOperator(
        A.grid, A.order + B.order, A.matrix @ B.matrix,
        provenance="composed",
    )


def commutator(A: DiscreteOperator, B: DiscreteOperator) -> DiscreteOperator:
    """AB - BA, one order below AB on a scalar bundle (fiber_dim 1).

    There the principal symbols are scalars and commute, so the principal
    part of the commutator cancels; on a larger fiber they need not.
    """
    if A.grid != B.grid:
        raise ValueError("grid mismatch")
    order = A.order + B.order - (A.grid.fiber_dim == 1)
    return DiscreteOperator(
        A.grid, order, A.matrix @ B.matrix - B.matrix @ A.matrix,
        provenance="composed",
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
    kls = range(norm_range + 1)
    norms = {(kk, ll): op_norm(A, -kk, ll) for kk in kls for ll in kls}
    return DecayProfile(shells=tuple(rows), norms=norms)
