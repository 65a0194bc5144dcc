"""Quasilocality measurements: dominating functions, eps-ranks, scans.

A dominating function estimate mu_hat(R) is the measured sup, over regions L
and sections u supported in L, of the Sobolev mass of Au outside the
R-neighbourhood of L, relative to the norm of u.  The sup over u (for a fixed
smooth cutoff) is computed exactly, as ||X||_2 of one matrix X per region
and radius: the H^s image W_s F(eta Z) of the cut-off columns.  At s = 0,
W_0 = 1 and F is unitary, so by Parseval the rows of eta Z where eta != 0
have the same ||X||_2 and ||X w||, and X is never formed: Z is solved only
on the rows some cutoff leaves, its Gram X^H X is summed from those rows,
the exterior rows (eta = 1, nested in R) once per region into a running
Gram and each radius's 0 < eta < 1 rows on top of it (``_exterior_sups``),
and a random probe w reads ||X w|| as ||eta (Z w)||.  At s != 0 the sup
and the probes read X.  A probe is a feasible point of that sup: it can
raise the estimate only by rounding, where X's top singular values tie.
What depends only on the regions, r and the radii (distance fields, exterior
cutoffs and the rows they leave, the real R factor of each region's H^r
embedding) is prepared once and then serves every operator: once per
``dominating_function`` call, and once per ``wave_quasilocality_scan`` for
all its wave operators, whose region columns ``funcalc.wave_columns`` reads
without forming U_t.  What depends on the operator and a region but not on
the radius, Z = C R^{-1} for the operator's region columns C, is solved
once and serves every radius.
Every estimate is a lower bound for the true dominating function, so tests
assert decay laws rather than exact values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy

from .lattice import (
    Region,
    ball_region,
    cutoff_eta,
    to_frequency,
)
from .operators import DiscreteOperator, multiplier_matrix
from .funcalc import SpectralData, spectral_data, wave_columns

__all__ = [
    "eps_rank",
    "EpsRankProfile",
    "uniform_approx_profile",
    "DominatingFunctionEstimate",
    "dominating_function",
    "WaveScanReport",
    "wave_quasilocality_scan",
]

# width of every exterior cutoff, in grid spacings
CUTOFF_SPACINGS = 4.0


# ---------------------------------------------------------------------------
# eps-ranks


def _count_at_least(sv: np.ndarray, eps: float) -> int:
    return int((sv >= eps).sum())


def eps_rank(T: DiscreteOperator, eps: float) -> int:
    """Minimal rank N with ||T - T_N|| < eps, via singular value counting."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return _count_at_least(np.linalg.svd(T.matrix, compute_uv=False), eps)


@dataclass(frozen=True)
class EpsRankProfile:
    """Max eps-rank over an operator family: ``ranks[form]`` has one rank
    per epsilon, in the order of the eps_list asked for."""

    ranks: dict


def uniform_approx_profile(
    T: DiscreteOperator,
    family,
    forms=("fT", "Tf", "[T,f]"),
    eps_list=(0.5, 0.1, 0.02),
) -> EpsRankProfile:
    """eps-rank profile of {fT}, {Tf} and {[T,f]} over a bump family.

    Reports the max rank over the family at each epsilon, which is the
    quantity that must stay finite uniformly for an approximable family.
    """
    if not family:
        raise ValueError("family must be nonempty")
    if not forms:
        raise ValueError("forms must be nonempty")
    unknown = [form for form in forms if form not in ("fT", "Tf", "[T,f]")]
    if unknown:
        raise ValueError(f"unknown form {unknown[0]!r}")
    if any(eps <= 0 for eps in eps_list):
        raise ValueError("eps must be positive")
    r = T.grid.fiber_dim
    ranks = {}
    for form in forms:
        worst = [0] * len(eps_list)
        for f in family:
            mf = np.repeat(f.values, r)
            if form == "fT":
                mat = mf[:, None] * T.matrix
            elif form == "Tf":
                mat = T.matrix * mf[None, :]
            else:
                mat = T.matrix * mf[None, :] - mf[:, None] * T.matrix
            sv = np.linalg.svd(mat, compute_uv=False)
            for i, eps in enumerate(eps_list):
                worst[i] = max(worst[i], _count_at_least(sv, eps))
        ranks[form] = tuple(worst)
    return EpsRankProfile(ranks)


# ---------------------------------------------------------------------------
# dominating functions


@dataclass(frozen=True)
class DominatingFunctionEstimate:
    """Lower-bound estimate of a dominating function by exact suprema.

    A radius that leaves no region an exterior measured nothing; its
    mu_hat is NaN, which is the only record of the skip.
    """

    R_list: tuple
    mu_hat: tuple

    def isotonic_defect(self) -> float:
        """How far mu_hat, read by increasing R, is from nonincreasing,
        relative to its max.  Skipped radii (NaN) are left out; with none
        measured it is NaN, so no budget passes a scan that measured nothing.
        """
        mu = np.asarray(self.mu_hat, dtype=float)
        mu = mu[np.argsort(self.R_list, kind="stable")]
        mu = mu[np.isfinite(mu)]
        if not mu.size:
            return np.nan
        running = np.minimum.accumulate(mu)
        scale = mu.max() if mu.max() > 0 else 1.0
        return float((mu - running).max() / scale)


def _region_states(region: Region) -> np.ndarray:
    """Flat state indices of the region: its points times every fiber slot."""
    return np.flatnonzero(np.repeat(region.mask, region.grid.fiber_dim))


def _embedding_r_factor(region: Region, r: float) -> np.ndarray:
    """R factor of the H^r embedding of sections supported in the region.

    The embedding is diag(w_r) W* E, E the region's columns of the identity.
    W is unitary, so W diag(w_r) W* E, the region's columns of the
    multiplier of w_r, has the same Gram matrix, and its R is the
    embedding's up to a diagonal of unit-modulus entries, which no sup and
    no probe ratio ||X R u|| / ||R u|| sees.  That matrix is real, since w_r
    is even in xi: its imaginary part holds only rounding and is dropped
    before the QR (``mode="r"``, no Q formed).  A Cholesky factor of the
    m x m Gram matrix would be cheaper but squares the conditioning.
    """
    g = region.grid
    emb = multiplier_matrix(g, g.sobolev_weights(r), _region_states(region))
    return np.linalg.qr(emb.real, mode="r")


def _cutoff_matrix(z: np.ndarray, eta, s: float) -> np.ndarray:
    """X = W_s F(eta z), the H^s image of the region's cut-off columns.

    ``z`` is C R^{-1} for the region's columns C of A (``_region_states``)
    and its ``_embedding_r_factor`` R, ``eta`` the cutoff of the exterior.
    For u supported in the region, with values u_s on its states,
    ||X R u_s|| = ||eta A u||_{H^s} and ||R u_s|| = ||u||_{H^r}.
    ``_evaluate_mu_hat`` forms X only at s != 0: at s = 0, W_0 = 1 and F is
    unitary, so by Parseval it reads ||X||_2 and ||X v|| off the rows of
    eta z where eta != 0, with no FFT.
    """
    g = eta.grid
    x = to_frequency(g, z * np.repeat(eta.values, g.fiber_dim)[:, None])
    x *= g.sobolev_weights(s)[:, None]
    return x


def _gram(x: np.ndarray, running: np.ndarray | None = None) -> np.ndarray:
    """Lower triangle of X^H X, plus ``running`` when given: one zherk."""
    return scipy.linalg.blas.zherk(1.0, x, beta=float(running is not None),
                                   c=running, trans=2, lower=1)


def _gram_sup(gram: np.ndarray) -> float:
    """The root of the top eigenvalue of a Gram matrix given by its lower
    triangle; the clamp at 0 keeps an all-zero Gram exactly 0."""
    m = gram.shape[0]
    top = scipy.linalg.eigh(gram, lower=True, eigvals_only=True,
                            subset_by_index=[m - 1, m - 1], driver="evr")[0]
    return float(np.sqrt(top)) if top > 0 else 0.0


def _cutoff_sup(x: np.ndarray) -> float:
    """||X||_2, the exact sup over u of the cutoff seminorm ratio: the root
    of the top eigenvalue of X^H X."""
    return _gram_sup(_gram(x))


def _exterior_sups(z: np.ndarray, prep, R_list) -> list:
    """``_cutoff_sup(_cutoff_matrix(z, eta, 0))`` at each radius with an
    exterior (None at the others), with the exterior Grams nested.

    ``z`` holds C R^{-1} on the region's kept rows ``prep.kept`` only, the
    rows where some cutoff is non-zero.  At s = 0, X^H X is the sum of
    eta_i^2 z_i^H z_i over the rows where eta != 0.  Where the distance to
    the region exceeds R, eta = 1, and those exterior rows shrink as R
    grows.  So from the largest R down, one zherk adds to a running Gram
    the exterior rows not yet in it, and each radius adds that Gram to the
    Gram of its own 0 < eta < 1 rows.  Each Gram holds only its radius's
    rows, summed in another order than one zherk over X: the sups agree to
    rounding, and rows that are exactly zero still give exactly 0.
    """
    sups = [None] * len(R_list)
    running, taken = None, np.zeros(z.shape[0], dtype=bool)
    for j in sorted((j for j, cut in enumerate(prep.cuts) if cut is not None),
                    key=lambda j: R_list[j], reverse=True):
        fiber = prep.etas[j].grid.fiber_dim
        exterior = np.repeat(prep.dist > R_list[j], fiber)[prep.kept]
        new = np.flatnonzero(exterior & ~taken)
        if new.size:
            running = _gram(z[new], running)
        taken = exterior
        cut = prep.cuts[j]
        edge = np.flatnonzero((cut != 0) & ~exterior)
        sups[j] = _gram_sup(_gram(z[edge] * cut[edge, None], running)
                            if edge.size else running)
    return sups


@dataclass(frozen=True)
class _PreparedRegion:
    """What mu_hat needs of one region, whatever the operator.

    ``dist`` is the region's distance field; ``etas[j]`` is the cutoff of
    the exterior at the j-th radius (the points where ``dist`` exceeds it),
    None where that exterior is empty; ``factor`` is the
    ``_embedding_r_factor``, None when every exterior is empty.  ``kept``
    are the states where some cutoff is non-zero, the only rows an s = 0
    sup or probe reads; the cutoffs nest, so they are the smallest radius's
    support.  ``cuts[j]`` is ``etas[j]`` on those rows (None with it).
    """

    states: np.ndarray
    dist: np.ndarray
    etas: tuple
    factor: np.ndarray | None
    kept: np.ndarray
    cuts: tuple


def _check_dominating_args(R_list, region_list, probes: int) -> None:
    if probes < 1:
        raise ValueError("at least one probe required")
    if any(R < 0 for R in R_list):
        raise ValueError("radius must be nonnegative")
    if any(region.is_empty() for region in region_list):
        raise ValueError("region must be nonempty")


def _prepare_regions(region_list, r: float, R_list) -> list:
    """Each region's exterior cutoffs and H^r factor, built once.

    One distance field per region gives every exterior (the points farther
    than R); each non-empty exterior's cutoff is CUTOFF_SPACINGS grid
    spacings wide; the QR factor is taken only for a region with some
    non-empty exterior.  The cutoffs are also kept on the rows where some
    of them is non-zero.
    """
    prepared = []
    for region in region_list:
        g = region.grid
        dist = region.distance_field()
        etas = []
        for R in R_list:
            outside = Region(g, dist > R)
            etas.append(None if outside.is_empty()
                        else cutoff_eta(outside, CUTOFF_SPACINGS * g.spacing))
        cuts = [None if eta is None else np.repeat(eta.values, g.fiber_dim)
                for eta in etas]
        kept = np.flatnonzero(np.any(
            [cut != 0 for cut in cuts if cut is not None], axis=0))
        factor = (None if all(eta is None for eta in etas)
                  else _embedding_r_factor(region, r))
        prepared.append(_PreparedRegion(
            _region_states(region), dist, tuple(etas), factor, kept,
            tuple(None if cut is None else cut[kept] for cut in cuts)))
    return prepared


def _evaluate_mu_hat(
    g, columns, s: float, R_list, prepared, probes: int, seed: int,
) -> DominatingFunctionEstimate:
    """mu_hat(R) of one operator over regions from ``_prepare_regions``.

    ``columns[i]`` holds the operator's columns on the i-th region's states.
    Z = C R^{-1}, those columns C solved against the region's factor by one
    triangular solve, serves every radius.  At s = 0 only the region's kept
    rows ``kept`` of C are solved, the only rows any cutoff leaves: each
    row of Z is solved on its own, so they are the full solve's rows.
    There ``_exterior_sups`` takes every radius's sup from nested Grams of
    Z's rows, and a probe w reads ||X w|| as ||eta (Z w)||, one product
    Z w per radius and region, with no X formed.  At s != 0 Z is solved on
    every row, X = ``_cutoff_matrix`` is formed once per (radius, region),
    and the sup and every probe read it.  The probes come from a generator
    seeded with ``seed``, in radius-major, region-minor order.
    """
    rng = np.random.default_rng(seed)
    zs = [None if prep.factor is None
          else scipy.linalg.solve_triangular(
              prep.factor, (cols[prep.kept] if s == 0 else cols).T,
              trans="T").T
          for prep, cols in zip(prepared, columns)]
    sups = [_exterior_sups(z, prep, R_list) if s == 0 and z is not None
            else None for prep, z in zip(prepared, zs)]
    mu = []
    for j, R in enumerate(R_list):
        best, usable = 0.0, False
        for prep, z, region_sups in zip(prepared, zs, sups):
            eta = prep.etas[j]
            if eta is None:
                continue
            usable = True
            draws = rng.standard_normal((probes, 2, g.n_points, g.fiber_dim))
            u = (draws[:, 0] + 1j * draws[:, 1]).reshape(probes, -1)
            # one probe per column of w = R u_s: ||X w|| / ||w||
            w = prep.factor @ u[:, prep.states].T
            if s == 0:
                xw, sup = z @ w, region_sups[j]
                xw *= prep.cuts[j][:, None]
            else:
                x = _cutoff_matrix(z, eta, s)
                xw, sup = x @ w, _cutoff_sup(x)
            ratios = np.linalg.norm(xw, axis=0) / np.linalg.norm(w, axis=0)
            best = max(best, sup, float(ratios.max()))
        mu.append(best if usable else np.nan)
    return DominatingFunctionEstimate(
        R_list=tuple(float(R) for R in R_list), mu_hat=tuple(mu))


def dominating_function(
    A: DiscreteOperator,
    r: float,
    s: float,
    R_list,
    region_list,
    probes: int = 8,
    seed: int = 0,
) -> DominatingFunctionEstimate:
    """Estimate mu(R): mass of Au beyond B_R(L) relative to ||u||_{H^r}.

    The regions are prepared once (``_prepare_regions``): one distance
    field per region, whose exterior at radius R is the set where that
    distance exceeds R, one cutoff per non-empty exterior, CUTOFF_SPACINGS
    grid spacings wide, and one R factor of the region's H^r embedding.
    A's region columns are solved against that factor once per region;
    each exact sup is then the top eigenvalue of an m x m Gram matrix, m
    the region's state count (``_cutoff_sup``).  The ``probes`` random
    sections drawn from ``seed`` are feasible points of that sup: they move
    mu_hat only by rounding, where its top singular values tie.
    """
    _check_dominating_args(R_list, region_list, probes)
    prepared = _prepare_regions(region_list, r, R_list)
    columns = [A.matrix.take(prep.states, axis=1) for prep in prepared]
    return _evaluate_mu_hat(A.grid, columns, s, R_list, prepared, probes,
                            seed)


# ---------------------------------------------------------------------------
# wave scans


def _loglog_slope(xs, ys) -> float:
    """Least-squares slope of log ys against log xs over the entries ys > 0.

    NaN when those entries have fewer than two distinct xs.
    """
    xs, ys = np.asarray(xs), np.asarray(ys)
    good = ys > 0
    if np.unique(xs[good]).size < 2:
        return np.nan
    return float(np.polyfit(np.log(xs[good]), np.log(ys[good]), 1)[0])


@dataclass(frozen=True)
class WaveScanReport:
    """mu_hat(R; t) for e^{itP} with log-log fits in R and |t|."""

    entries: tuple  # rows (t, R, l, mu_hat)
    slope_R: float
    growth_t: float
    range_limited: bool
    propagation_exact: tuple = ()


def wave_quasilocality_scan(
    P: DiscreteOperator,
    k: int,
    t_list,
    R_list,
    l: float,
    region: Region | None = None,
    probes: int = 4,
    seed: int = 0,
    spectral: SpectralData | None = None,
) -> WaveScanReport:
    """Scan mu_hat(R; t) of the wave operators as H^l -> H^{l-(k-1)} maps.

    Each row is what ``dominating_function(U_t, l, l-(k-1), R_list,
    [region], probes, seed)`` returns, bit for bit, but the region is
    prepared once per scan: one distance field, one cutoff per non-empty
    exterior (CUTOFF_SPACINGS grid spacings wide) and one R factor of its
    H^l embedding serve every t.  Only U_t's region columns, their one
    triangular solve against that factor (shared by every radius) and the
    probes, which move a row only by rounding, are taken per t.  The
    columns are ``funcalc.wave_columns``, bitwise U_t's: on the Fourier
    path they are read off U_t's kernel, and U_t is never formed.
    """
    g = P.grid
    cutoff_width = CUTOFF_SPACINGS * g.spacing
    if region is None:
        center = g.points[g.n_points // 2]
        region = ball_region(g, center, 2.0 * g.spacing)
    _check_dominating_args(R_list, [region], probes)
    sd = spectral or spectral_data(P)
    s_out = l - (k - 1)
    prepared = _prepare_regions([region], l, R_list)

    entries = []
    table = {}
    prop_rows = []
    for t in t_list:
        cols, bound = wave_columns(P, t, prepared[0].states, spectral=sd)
        est = _evaluate_mu_hat(g, [cols], s_out, R_list, prepared, probes,
                               seed)
        for R, m in zip(est.R_list, est.mu_hat):
            entries.append((float(t), float(R), float(l), float(m)))
            table[(t, R)] = m
        if bound is not None:
            # a skipped radius (NaN, no exterior left) measured nothing
            for R, m in zip(est.R_list, est.mu_hat):
                if R > bound + cutoff_width and np.isfinite(m):
                    prop_rows.append((float(t), float(R), m == 0.0))
    slopes = [
        _loglog_slope(list(R_list), [table[(t, R)] for R in R_list])
        for t in t_list if t != 0
    ]
    growths = [
        _loglog_slope([abs(t) for t in t_list if t != 0],
                      [table[(t, R)] for t in t_list if t != 0])
        for R in R_list
    ]
    slopes = [x for x in slopes if np.isfinite(x)]
    growths = [x for x in growths if np.isfinite(x)]
    r_arr = np.asarray(R_list, dtype=float)
    range_limited = bool(
        r_arr.max() / max(r_arr.min(), 1e-12) < 4.0 or not slopes
    )
    return WaveScanReport(
        entries=tuple(entries),
        slope_R=float(np.median(slopes)) if slopes else np.nan,
        growth_t=float(np.median(growths)) if growths else np.nan,
        range_limited=range_limited,
        propagation_exact=tuple(prop_rows),
    )
