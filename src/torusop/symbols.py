"""Matrix-valued symbols p(x, xi) of declared order and their calculus.

Samples live on the product of the spatial grid and the frequency lattice.
Derivatives use the convention D = -i * d/d(.) in both x and xi; x-derivatives
are spectral (the symbol is periodic in x), xi-derivatives are centered lattice
differences with second-order one-sided stencils at the lattice edges.  Each
symbol keeps its own ladder of xi-differences (``Symbol.xi_difference``),
built one unit step at a time on first read and read-only, so repeated
compositions with the same left factor difference it once.  Composition
and the symbol-class constants take their derivatives the same way: every
x-derivative from one batch of x-FFTs (``_x_derivatives``), every
xi-difference from a ladder (for the constants, the ladder of a symbol that
holds D_x^alpha p, which is p itself for alpha = 0).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .lattice import GridSpec, smoothstep

__all__ = [
    "Symbol",
    "EllipticityCertificate",
    "symbol_from_callable",
    "estimate_constants",
    "check_elliptic",
    "compose_symbols",
    "invert_principal",
    "named_symbol",
    "NAMED_SYMBOLS",
]

HERMITIAN_TOL = 1e-12


@dataclass(frozen=True)
class Symbol:
    """Sampled symbol of declared order.

    samples has shape (n_x, n_xi, r, r) where n_x is either the full number of
    grid points or 1 for an x-independent symbol; that shape is the only
    record of x-independence (``x_independent``).  The xi axis runs over the
    flattened frequency lattice in FFT order; the Nyquist entries are stored
    already symmetrized over the +-N/2 aliases.
    """

    grid: GridSpec
    order: int
    samples: np.ndarray
    hermitian_valued: bool = False

    def __post_init__(self):
        g = self.grid
        a = np.asarray(self.samples, dtype=complex)
        r = g.fiber_dim
        if a.ndim == 2:
            a = a[:, :, None, None]
        if a.shape[0] not in (1, g.n_points) or a.shape[1:] != (g.n_points,
                                                                r, r):
            raise ValueError(
                f"symbol samples shape {a.shape}, expected "
                f"({g.n_points} or 1, {g.n_points}, {r}, {r})"
            )
        if not np.all(np.isfinite(a)):
            raise ValueError("non-finite symbol samples")
        if self.hermitian_valued:
            if r == 1:
                # |a - conj(a)| = |2i Im a|: the same float in one pass
                defect = 2.0 * np.abs(a.imag).max()
            else:
                defect = np.abs(a - np.conj(np.swapaxes(a, -1, -2))).max()
            if defect > 0 and defect > HERMITIAN_TOL * max(np.abs(a).max(),
                                                           1.0):
                raise ValueError(
                    f"symbol flagged hermitian_valued but defect {defect:.3e}"
                )
        object.__setattr__(self, "samples", a)
        object.__setattr__(self, "_xi_ladder", {})

    @property
    def x_independent(self) -> bool:
        """Whether the samples hold one x sample, shared by every point."""
        return self.samples.shape[0] == 1

    def xi_difference(self, beta: tuple) -> np.ndarray:
        """Lattice difference d^beta/dxi^beta of the samples, kept.

        The samples themselves for beta = 0.  Every other order is built
        on its first read from the order one below by a single ``_xi_step``
        along the last axis with a nonzero index, so all axis-0 steps run
        before the axis-1 steps; it is kept on this symbol and is read-only.
        """
        beta = tuple(beta)
        if sum(beta) == 0:
            return self.samples
        ladder = self._xi_ladder
        if beta not in ladder:
            ax = max(i for i, b in enumerate(beta) if b)
            below = tuple(b - (i == ax) for i, b in enumerate(beta))
            d = _xi_step(self.xi_difference(below), self.grid, ax)
            d.flags.writeable = False
            ladder[beta] = d
        return ladder[beta]


def symbol_from_callable(
    grid: GridSpec,
    order: int,
    fn,
    hermitian_valued: bool = False,
    x_independent: bool = False,
) -> Symbol:
    """Sample a vectorized symbol function on the grid.

    ``fn(x, xi)`` receives broadcastable coordinate arrays of shape
    (n_x, 1, dim) and (1, n_xi, dim) and must return an array broadcastable
    to (n_x, n_xi) for scalar symbols or (n_x, n_xi, r, r) for matrix ones.
    It must act on each frequency independently of the others.  A 2-d
    result has 1x1 blocks; blocks that are not the grid's r x r fiber are
    rejected with one line naming both sizes.

    Nyquist frequency entries are symmetrized over the two aliases
    m = +-N/2 per axis (evaluate on every sign choice and average), which
    keeps real symbols quantizing to Hermitian-symmetrizable operators.
    ``fn`` is evaluated once on the whole lattice, and again on the
    Nyquist columns only (the modes with some axis index -N/2) for each of
    the 2^dim sign choices; those are averaged in a fixed sign order.  Off
    the Nyquist columns every sign choice would give the same sample a,
    and their running sum from 0 is exactly 2^dim a, so the average there
    is a + 0 (a with -0.0 read as +0.0), which is what is stored.
    """
    g = grid
    r = g.fiber_dim
    xs = (np.zeros((1, g.dim)) if x_independent else g.points)[:, None, :]
    n_x = xs.shape[0]

    def eval_on(xi_lattice):
        out = np.asarray(fn(xs, xi_lattice[None, :, :]))
        if out.ndim == 2:
            out = out[:, :, None, None]
        if out.ndim == 4 and out.shape[2:] != (r, r):
            raise ValueError(
                f"symbol blocks are {out.shape[2]}x{out.shape[3]} but the "
                f"grid's fiber needs {r}x{r}")
        return np.broadcast_to(out, (n_x, len(xi_lattice), r, r))

    samples = np.empty((n_x, g.n_points, r, r), dtype=complex)
    np.add(eval_on(g.frequencies), 0.0, out=samples)

    half = g.points_per_axis // 2
    mesh = np.meshgrid(*([g.axis_modes] * g.dim), indexing="ij")
    at_nyq = np.stack([m.ravel() == -half for m in mesh], axis=-1)
    cols = np.flatnonzero(at_nyq.any(axis=1))
    at_nyq = at_nyq[cols]
    nyq_val = half / g.period_scale
    acc = np.zeros((n_x, len(cols), r, r), dtype=complex)
    combos = list(itertools.product((1.0, -1.0), repeat=g.dim))
    for signs in combos:
        xi = g.frequencies[cols]
        for ax, sgn in enumerate(signs):
            xi[at_nyq[:, ax], ax] = sgn * nyq_val
        acc = acc + eval_on(xi)
    samples[:, cols] = acc / len(combos)
    return Symbol(grid, order, samples, hermitian_valued=hermitian_valued)


def _xi_step(samples: np.ndarray, grid: GridSpec, axis: int) -> np.ndarray:
    """One centered-difference step d/dxi along a lattice axis.

    The stencil is one-sided at the lattice edges.  On even grids the
    half-mode slot holds the symmetrized sample, which for symbols with an
    odd-in-xi part is not a smooth continuation of its neighbours.  The
    difference stencil therefore runs over the sorted interior modes only,
    and the half-mode slot receives the symmetric average of the two
    one-sided edge values.
    """
    g = grid
    n_x = samples.shape[0]
    a = samples.reshape((n_x,) + g.grid_shape() + samples.shape[2:])
    ax = 1 + axis
    # grids are even: the sorted layout puts the half mode at index 0
    a = np.fft.fftshift(a, axes=ax)
    interior = np.take(a, range(1, g.points_per_axis), axis=ax)
    d_int = np.gradient(interior, 1.0 / g.period_scale, axis=ax,
                        edge_order=2)
    lo = np.take(d_int, [0], axis=ax)
    hi = np.take(d_int, [d_int.shape[ax] - 1], axis=ax)
    a = np.concatenate([0.5 * (lo + hi), d_int], axis=ax)
    return np.fft.ifftshift(a, axes=ax).reshape(samples.shape)


def _multi_indices(dim: int, max_total: int):
    for total in range(max_total + 1):
        if dim == 1:
            yield (total,)
        else:
            for a0 in range(total + 1):
                yield (a0, total - a0)


def _block_norms(samples: np.ndarray) -> np.ndarray:
    """Spectral norm of each (r, r) block."""
    if samples.shape[-1] == 1:
        return np.abs(samples[..., 0, 0])
    return np.linalg.norm(samples, ord=2, axis=(-2, -1))


def estimate_constants(p: Symbol, alpha_max: int, beta_max: int) -> dict:
    """Measure C^{ab} = max_(x,xi) ||D_x^a D_xi^b p|| / (1+|xi|)^(k-|b|).

    Returns {(alpha, beta): C^{ab}} over the multi-indices with
    |alpha| <= alpha_max and |beta| <= beta_max.
    """
    g = p.grid
    if alpha_max < 0:
        raise ValueError("alpha_max must be >= 0")
    if beta_max < 0:
        raise ValueError("beta_max must be >= 0")
    if beta_max >= g.points_per_axis // 2:
        raise ValueError("beta_max exceeds the frequency lattice extent")
    if alpha_max >= g.points_per_axis // 2:
        raise ValueError("alpha_max exceeds spectral resolution")
    absxi = g.frequency_magnitude
    dx_p = _x_derivatives(p, alpha_max)
    constants = {}
    for alpha in _multi_indices(g.dim, alpha_max):
        da = p if sum(alpha) == 0 else Symbol(g, p.order, dx_p[alpha])
        for beta in _multi_indices(g.dim, beta_max):
            norms = _block_norms(da.xi_difference(beta))
            weight = (1.0 + absxi) ** (p.order - sum(beta))
            constants[(alpha, beta)] = float((norms / weight[None, :]).max())
    return constants


@dataclass(frozen=True)
class EllipticityCertificate:
    """Invertibility of p(x, xi) for |xi| > radius."""

    ok: bool
    radius: float = np.inf
    worst_point: tuple = ()


def check_elliptic(p: Symbol) -> EllipticityCertificate:
    """Find the smallest lattice radius R past which the symbol is invertible.

    A block counts as invertible when its smallest singular value exceeds
    1e-12 max(1, largest); at most 24 radii (and 0) are tried, none past
    half the Nyquist frequency, N/(4L).
    """
    g = p.grid
    a = p.samples
    sv_max = _block_norms(a)
    if a.shape[-1] == 1:
        sv_min = np.abs(a[..., 0, 0])
    else:
        sv_min = np.linalg.svd(a, compute_uv=False)[..., -1]
    absxi = g.frequency_magnitude
    invertible = sv_min > 1e-12 * np.maximum(sv_max, 1.0)
    bad = ~invertible.all(axis=0)  # per xi point: any x fails

    uniq = np.unique(absxi)
    if len(uniq) > 24:
        idx = np.linspace(0, len(uniq) - 1, 24).astype(int)
        uniq = uniq[idx]
    candidates = np.concatenate([[0.0], uniq])
    # a radius past half the Nyquist frequency leaves as its exterior only a
    # shell at the lattice edge, too thin to stand for all large |xi|
    half_nyquist = g.points_per_axis / (4.0 * g.period_scale)
    for radius in np.unique(candidates[candidates <= half_nyquist]):
        if bad[absxi > radius].any():
            continue
        return EllipticityCertificate(ok=True, radius=float(radius))
    flat = sv_min.min(axis=0)
    j = int(np.argmax(absxi * bad)) if bad.any() else int(np.argmin(flat))
    i = int(np.argmin(sv_min[:, j]))
    return EllipticityCertificate(
        ok=False, worst_point=(i, j, float(absxi[j]), float(flat[j]))
    )


def _x_derivatives(sym: Symbol, J: int) -> dict:
    """Spectral d^alpha/dx^alpha of the samples, keyed by alpha, |alpha| <= J.

    Each derivative is taken along axis 0 first and then along axis 1 of
    that result, every order along an axis from a single forward FFT of
    the array it starts from: the samples are transformed once along axis
    0, and each axis-0 result once along axis 1.
    """
    g = sym.grid
    if sym.x_independent:
        zero = np.zeros_like(sym.samples)
        return {alpha: sym.samples if sum(alpha) == 0 else zero
                for alpha in _multi_indices(g.dim, J)}
    xi_axis = g.axis_modes / g.period_scale
    layer = {(): sym.samples.reshape(g.grid_shape()
                                     + sym.samples.shape[1:])}
    for ax in range(g.dim):
        shape = [1] * (g.dim + 3)
        shape[ax] = g.points_per_axis
        step = 1j * xi_axis.reshape(shape)
        deeper = {}
        for alpha, a in layer.items():
            deeper[alpha + (0,)] = a
            if sum(alpha) < J:
                hat = np.fft.fft(a, axis=ax)
                for order in range(1, J - sum(alpha) + 1):
                    deeper[alpha + (order,)] = np.fft.ifft(
                        hat * step ** order, axis=ax)
        layer = deeper
    return {alpha: a.reshape(sym.samples.shape)
            for alpha, a in layer.items()}


def compose_symbols(p: Symbol, q: Symbol, J: int) -> Symbol:
    """Truncated composition sum_(|a|<=J) i^|a|/a! (D_xi^a p)(D_x^a q).

    Declared order is order(p) + order(q).  The xi-differences of p are
    read from p's ladder (``Symbol.xi_difference``), which p keeps,
    read-only, for later compositions; the x-derivatives of q come from
    one forward FFT per axis.  With D = -i d/d(.) on both sides, a term on
    1x1 blocks is the product of the plain derivatives times the one
    coefficient i^|a| (-i)^|a| (-i)^|a| / a! = (-i)^|a| / a!; on larger
    blocks both operands are rotated by (-i)^|a| before the product.
    Terms accumulate in place.  The result is bit for bit that of applying
    the three factors one by one.
    """
    g = p.grid
    if g != q.grid:
        raise ValueError("incompatible grids")
    if J < 0:
        raise ValueError("J must be >= 0")
    if J >= g.points_per_axis // 2:
        raise ValueError("J exceeds resolvable lattice differences")
    dx_q = _x_derivatives(q, J)
    total = None
    for alpha in _multi_indices(g.dim, J):
        n = sum(alpha)
        fact = math.prod(math.factorial(ai) for ai in alpha)
        dxi_p = p.xi_difference(alpha)
        if g.fiber_dim == 1:
            term = np.matmul(dxi_p, dx_q[alpha])
            term *= (-1j) ** n / fact
        else:
            # BLAS sums the r products of a block entry with fused
            # multiply-adds, which do not commute with a rotation by -i
            # bit for bit, so the operands are rotated before the product
            term = np.matmul((-1j) ** n * dxi_p, (-1j) ** n * dx_q[alpha])
            term *= 1j ** n / fact
        if total is None:
            total = term
        else:
            total += term
    return Symbol(g, p.order + q.order, total)


def invert_principal(
    p: Symbol, cert: EllipticityCertificate, excision_width: float
) -> Symbol:
    """Excised pointwise inverse chi_ex(|xi|) p(x, xi)^{-1}, declared order -k."""
    if not cert.ok:
        raise ValueError("cannot invert a symbol without an ellipticity certificate")
    if excision_width <= 0:
        raise ValueError("excision_width must be positive")
    g = p.grid
    absxi = g.frequency_magnitude
    chi = 1.0 - smoothstep((absxi - cert.radius) / excision_width)
    a = p.samples
    out = np.zeros_like(a)
    active = chi > 0
    if a.shape[-1] == 1:
        out[:, active, 0, 0] = chi[active] / a[:, active, 0, 0]
    else:
        out[:, active] = chi[active, None, None] * np.linalg.inv(a[:, active])
    return Symbol(g, -p.order, out)


# ---------------------------------------------------------------------------
# named symbol families (closed forms used by tests and the CLI)

_SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)


def _xi_sq(xi):
    return (xi ** 2).sum(axis=-1)


NAMED_SYMBOLS = {
    # name: (fn builder, order, hermitian, x_independent)
    "laplace+1": lambda prm: (
        lambda x, xi: 1.0 + _xi_sq(xi), 2, True, True),
    "sqrt_laplace": lambda prm: (
        lambda x, xi: np.sqrt(1.0 + _xi_sq(xi)), 1, True, True),
    "momentum": lambda prm: (
        lambda x, xi: xi[..., 0] + 0.0 * x[..., 0], 1, True, True),
    "elliptic_x": lambda prm: (
        lambda x, xi: (prm.get("a", 2.0) + np.cos(x[..., 0])) + _xi_sq(xi),
        2, True, False),
    "drift": lambda prm: (
        lambda x, xi: (prm.get("a", 2.0) + np.cos(x[..., 0])) * xi[..., 0],
        1, True, False),
    "magnetic": lambda prm: (
        lambda x, xi: (xi[..., 0] - prm.get("b", 1.0) * np.sin(x[..., 0])) ** 2
        + 1.0,
        2, True, False),
    "mult_cos": lambda prm: (
        lambda x, xi: (prm.get("a", 2.0) + np.cos(x[..., 0])) + 0.0 * xi[..., 0],
        0, True, False),
    "schwartz_xi": lambda prm: (
        lambda x, xi: np.exp(-_xi_sq(xi)), 0, True, True),
    "schwartz_drift": lambda prm: (
        lambda x, xi: (prm.get("a", 2.0) + np.cos(x[..., 0]))
        * np.exp(-_xi_sq(xi)),
        0, True, False),
    "order_minus1": lambda prm: (
        lambda x, xi: (1.0 + _xi_sq(xi)) ** -0.5, -1, True, True),
    "xi1_squared": lambda prm: (
        lambda x, xi: xi[..., 0] ** 2, 2, True, True),
    "dirac": lambda prm: (
        lambda x, xi: xi[..., 0, None, None] * _SIGMA1, 1, True, True),
    "dirac_mass": lambda prm: (
        lambda x, xi: xi[..., 0, None, None] * _SIGMA1
        + prm.get("m", 1.0) * _SIGMA2,
        1, True, True),
}


def named_symbol(grid: GridSpec, name: str, params: dict | None = None) -> Symbol:
    """Construct one of the closed-form symbol families by name."""
    if name not in NAMED_SYMBOLS:
        raise KeyError(f"unknown symbol family {name!r}")
    fn, order, hermitian, x_indep = NAMED_SYMBOLS[name](params or {})
    return symbol_from_callable(
        grid, order, fn, hermitian_valued=hermitian, x_independent=x_indep
    )
