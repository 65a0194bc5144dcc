"""Discretized flat torus: grids, sections, regions, Sobolev norms and cutoffs.

The torus has ``dim`` axes of length ``2*pi*L`` sampled at ``N`` points each.
Sections are complex vector-valued grid functions.  The one Fourier
transform of the package is to_frequency / from_frequency, the unitary FFT
over the grid axes of state vectors, written axis after axis into one
output array; all Sobolev norms are diagonal in the frequency basis.  A
region is a mask of grid points; its distance field gives the geodesic ball
B_R(region) as ``distance_field() <= R``, and the smooth cutoffs of the
restricted seminorms are built on it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

__all__ = [
    "GridSpec",
    "Section",
    "Region",
    "BumpFunction",
    "to_frequency",
    "from_frequency",
    "sobolev_norm",
    "restricted_seminorm",
    "cutoff_eta",
    "lipschitz_bump",
    "smoothstep",
    "ball_region",
]


def smoothstep(u):
    """C^2 step: 1 for u <= 0, 0 for u >= 1, quintic polynomial in between.

    The polynomial rounds to about -1e-15 just below u = 1, so the result
    is clamped at 0: every value lies in [0, 1].
    """
    u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
    return np.maximum(1.0 - u ** 3 * (10.0 - 15.0 * u + 6.0 * u ** 2), 0.0)


@dataclass(frozen=True)
class GridSpec:
    """Geometry of the discretized torus (R / 2*pi*L*Z)^dim with fiber C^r."""

    dim: int
    points_per_axis: int
    period_scale: float
    fiber_dim: int = 1

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        n = self.points_per_axis
        if n < 4 or n % 2 != 0:
            raise ValueError(f"points_per_axis must be even and >= 4, got {n}")
        if not 0 < self.period_scale < np.inf:
            raise ValueError(
                f"period_scale must be positive and finite, "
                f"got {self.period_scale}")
        if self.fiber_dim < 1:
            raise ValueError("fiber_dim must be positive")

    @property
    def n_points(self) -> int:
        return self.points_per_axis ** self.dim

    @property
    def state_dim(self) -> int:
        return self.n_points * self.fiber_dim

    @property
    def period(self) -> float:
        return 2.0 * np.pi * self.period_scale

    @property
    def spacing(self) -> float:
        return self.period / self.points_per_axis

    @property
    def quadrature_weight(self) -> float:
        # makes the weighted l2-norm of section values agree with the L2 norm
        return self.spacing ** (self.dim / 2.0)

    @cached_property
    def axis_coords(self) -> np.ndarray:
        return np.arange(self.points_per_axis) * self.spacing

    @cached_property
    def points(self) -> np.ndarray:
        """Grid point coordinates, shape (n_points, dim), C-order flattening."""
        axes = [self.axis_coords] * self.dim
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    @cached_property
    def axis_modes(self) -> np.ndarray:
        """Integer frequency indices per axis in FFT order (Nyquist = -N/2)."""
        n = self.points_per_axis
        return np.rint(np.fft.fftfreq(n) * n).astype(int)

    @cached_property
    def frequencies(self) -> np.ndarray:
        """Frequency lattice points m/L, shape (n_points, dim), FFT order."""
        xi_axis = self.axis_modes / self.period_scale
        mesh = np.meshgrid(*([xi_axis] * self.dim), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    @cached_property
    def frequency_magnitude(self) -> np.ndarray:
        return np.linalg.norm(self.frequencies, axis=-1)

    def sobolev_weights(self, s: float) -> np.ndarray:
        """(1 + |xi|^2)^(s/2) per frequency state, repeated over the fiber.

        A weight that overflows to inf or falls below the smallest normal
        float raises ValueError naming s."""
        with np.errstate(over="ignore"):
            w = (1.0 + self.frequency_magnitude ** 2) ** (s / 2.0)
        if not np.all(np.isfinite(w) & (w >= np.finfo(float).tiny)):
            raise ValueError(f"Sobolev index s = {s} gives weights that "
                             "are not finite normal floats")
        return np.repeat(w, self.fiber_dim)

    def grid_shape(self) -> tuple:
        return (self.points_per_axis,) * self.dim

    def wrap_delta(self, delta: np.ndarray) -> np.ndarray:
        """Reduce coordinate differences to the fundamental domain [-T/2, T/2)."""
        period = self.period
        return (np.asarray(delta) + period / 2.0) % period - period / 2.0

    def pairwise_distance(self) -> np.ndarray:
        """(n_points, n_points) geodesic distance matrix."""
        pts = self.points
        d = self.wrap_delta(pts[:, None, :] - pts[None, :, :])
        return np.sqrt((d ** 2).sum(axis=-1))


def _check_finite(values, what="values"):
    if not np.all(np.isfinite(values)):
        raise ValueError(f"non-finite entries in {what}")


@dataclass(frozen=True)
class Section:
    """A sampled section of the rank-r bundle: values of shape (n_points, r)."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.ndim == 1:
            v = v[:, None]
        if v.shape != (self.grid.n_points, self.grid.fiber_dim):
            raise ValueError(
                f"section shape {v.shape} does not match grid "
                f"({self.grid.n_points}, {self.grid.fiber_dim})"
            )
        _check_finite(v, "section values")
        object.__setattr__(self, "values", v)

    def flat(self) -> np.ndarray:
        return self.values.ravel()

    def l2_norm(self) -> float:
        return self.grid.quadrature_weight * float(np.linalg.norm(self.values))


def _over_grid_axes(grid: GridSpec, cols, transform) -> np.ndarray:
    cols = np.asarray(cols)
    shaped = cols.reshape(grid.grid_shape() + (grid.fiber_dim,) + cols.shape[1:])
    out = transform(shaped, axes=tuple(range(grid.dim)), norm="ortho",
                    out=np.empty_like(shaped, dtype=complex))
    return out.reshape(cols.shape)


def to_frequency(grid: GridSpec, cols) -> np.ndarray:
    """Unitary Fourier analysis of state vectors, column by column.

    ``cols`` is one state vector of length ``state_dim`` or a stack of them
    as columns.  A state index is point * fiber_dim + fiber slot, with the
    points in C order over the grid axes; the result is indexed by
    mode * fiber_dim + fiber slot, with the modes in FFT order.  This is
    W* cols for the unitary W[j, m] = N^{-d/2} exp(i x_j . xi_m) acting on
    each fiber slot.
    """
    return _over_grid_axes(grid, cols, np.fft.fftn)


def from_frequency(grid: GridSpec, cols) -> np.ndarray:
    """Inverse of to_frequency: Fourier synthesis W cols, column by column."""
    return _over_grid_axes(grid, cols, np.fft.ifftn)


def sobolev_norm(u: Section, s: float) -> float:
    """Spectral Sobolev norm (sum over xi of (1+|xi|^2)^s |u_hat|^2)^(1/2).

    For s = 0 this is exactly the weighted l2-norm of the values.
    """
    if s == 0:
        return u.l2_norm()
    hat = to_frequency(u.grid, u.flat()) * u.grid.sobolev_weights(s)
    return u.grid.quadrature_weight * float(np.linalg.norm(hat))


@dataclass(frozen=True)
class Region:
    """A subset of grid points given by a boolean mask."""

    grid: GridSpec
    mask: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mask, dtype=bool).ravel()
        if m.shape != (self.grid.n_points,):
            raise ValueError("mask size does not match grid")
        object.__setattr__(self, "mask", m)

    def is_empty(self) -> bool:
        return not self.mask.any()

    def distance_field(self) -> np.ndarray:
        """Geodesic distance from every grid point to the region (0 inside).

        The minimum runs over the region's edge points only: those with at
        least one of their 2*dim periodic lattice neighbours outside the
        region.  A region point that is not an edge point has a neighbour in
        the region one grid step closer to any outside point, so it is never
        the nearest, and the minimum is the same float as over all points.
        """
        g = self.grid
        if self.is_empty():
            return np.full(g.n_points, np.inf)
        shaped = self.mask.reshape(g.grid_shape())
        interior = shaped.copy()
        for axis in range(g.dim):
            for step in (1, -1):
                interior &= np.roll(shaped, step, axis)
        outside = ~self.mask
        out = np.zeros(g.n_points)
        if outside.any():
            pts = g.points
            edge = pts[self.mask & ~interior.ravel()]
            d = g.wrap_delta(pts[outside][:, None, :] - edge[None, :, :])
            out[outside] = np.sqrt((d ** 2).sum(axis=-1)).min(axis=1)
        return out


def ball_region(grid: GridSpec, center, radius: float) -> Region:
    """Geodesic ball {x : d(x, center) <= radius} as a Region."""
    center = np.atleast_1d(np.asarray(center, dtype=float))
    d = grid.wrap_delta(grid.points - center[None, :])
    return Region(grid, np.sqrt((d ** 2).sum(axis=-1)) <= radius)


@dataclass(frozen=True)
class BumpFunction:
    """Real scalar grid function with declared Lipschitz/support certificates."""

    grid: GridSpec
    values: np.ndarray
    lipschitz_bound: float
    support_diam: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).ravel()
        if v.shape != (self.grid.n_points,):
            raise ValueError("bump values size does not match grid")
        _check_finite(v, "bump values")
        object.__setattr__(self, "values", v)

    def translated(self, shift_indices) -> "BumpFunction":
        """Exact array rotation by integer grid offsets per axis."""
        g = self.grid
        shift = np.atleast_1d(np.asarray(shift_indices, dtype=int))
        v = self.values.reshape(g.grid_shape())
        for axis, k in enumerate(shift):
            v = np.roll(v, k, axis=axis)
        return replace(self, values=v.ravel())


def lipschitz_bump(grid: GridSpec, center, R: float, L: float) -> BumpFunction:
    """An element of L-Lip_R: plateau bump, L-Lipschitz, support diameter <= R.

    Profile: clip(L * (R/2 - d(x, center)), 0, 1).
    """
    if not 0 < L < np.inf:
        raise ValueError(f"bump slope L must be positive and finite, got {L}")
    if R < 4 * grid.spacing:
        raise ValueError("under-resolved bump: R must be >= 4 grid spacings")
    center = np.atleast_1d(np.asarray(center, dtype=float))
    d = grid.wrap_delta(grid.points - center[None, :])
    dist = np.sqrt((d ** 2).sum(axis=-1))
    vals = np.clip(L * (R / 2.0 - dist), 0.0, 1.0)
    return BumpFunction(grid, vals, lipschitz_bound=L, support_diam=R)


def cutoff_eta(region: Region, R: float) -> BumpFunction:
    """Smooth cutoff: 1 on the region, 0 outside B_R(region).

    The transition runs over geodesic distance [0, R] with a C^2 smoothstep,
    whose slope is at most 1.875 / R (the declared Lipschitz bound).
    """
    g = region.grid
    if R < 4 * g.spacing:
        raise ValueError("under-resolved cutoff: R must be >= 4 grid spacings")
    # an empty region has distance inf everywhere and a full one zeros, which
    # smoothstep maps to exactly 0.0 and 1.0
    vals = smoothstep(region.distance_field() / R)
    return BumpFunction(g, vals, lipschitz_bound=1.875 / R,
                        support_diam=np.inf)


def restricted_seminorm(
    u: Section, s: float, region: Region, cutoff_width: float
) -> float:
    """Smooth-cutoff surrogate of the restricted Sobolev seminorm ||u||_{H^s, region}.

    Multiplies u by a cutoff that is 1 on the region and 0 outside
    B_cutoff_width(region), then takes the full Sobolev norm.  Empty
    regions give 0 by convention: their cutoff is exactly 0.
    """
    eta = cutoff_eta(region, cutoff_width)
    return sobolev_norm(Section(u.grid, u.values * eta.values[:, None]), s)
