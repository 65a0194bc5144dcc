"""Quasilocality measurements: dominating functions, eps-ranks, scans.

A dominating function estimate mu_hat(R) is the measured sup, over regions L
and sections u supported in L, of the Sobolev mass of Au outside the
R-neighbourhood of L, relative to the norm of u.  The sup over u (for a fixed
smooth cutoff) is a generalized singular value problem and is computed
exactly when feasible; random probes provide an independent lower bound.
Every estimate is a lower bound for the true dominating function, so tests
assert decay laws rather than exact values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .lattice import (
    Region,
    Section,
    ball_region,
    cutoff_eta,
    lipschitz_bump,
    sobolev_norm,
    to_frequency,
)
from .operators import DiscreteOperator, _state_weights, apply_operator
from .funcalc import SpectralData, spectral_data, wave_operator

__all__ = [
    "eps_rank",
    "EpsRankProfile",
    "uniform_approx_profile",
    "DominatingFunctionEstimate",
    "dominating_function",
    "WaveScanReport",
    "wave_quasilocality_scan",
    "SpotcheckReport",
    "pseudolocality_equivalence_spotcheck",
]

EXACT_ESTIMATOR_CAP = 4608
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
    """Max eps-rank over an operator family, per form and epsilon."""

    eps_list: tuple
    ranks: dict

    def rank(self, form: str, eps: float) -> int:
        return self.ranks[form][self.eps_list.index(eps)]


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
            elif form == "[T,f]":
                mat = T.matrix * mf[None, :] - mf[:, None] * T.matrix
            else:
                raise ValueError(f"unknown form {form!r}")
            sv = np.linalg.svd(mat, compute_uv=False)
            for i, eps in enumerate(eps_list):
                worst[i] = max(worst[i], _count_at_least(sv, eps))
        ranks[form] = tuple(worst)
    return EpsRankProfile(tuple(eps_list), ranks)


# ---------------------------------------------------------------------------
# dominating functions


@dataclass(frozen=True)
class DominatingFunctionEstimate:
    """Probe-based lower-bound estimate of a dominating function."""

    R_list: tuple
    mu_hat: tuple
    estimator: tuple
    skipped: tuple = ()

    def isotonic_defect(self) -> float:
        """How far mu_hat is from nonincreasing, relative to its max.

        Skipped radii (NaN) are left out; with none measured it is 0.
        """
        mu = np.asarray(self.mu_hat, dtype=float)
        mu = mu[np.isfinite(mu)]
        if not mu.size:
            return 0.0
        running = np.minimum.accumulate(mu)
        scale = mu.max() if mu.max() > 0 else 1.0
        return float((mu - running).max() / scale)


def _embedding_r_factor(region: Region, r: float) -> np.ndarray:
    """R factor of the H^r embedding of sections supported in the region.

    Taken by QR of the n x m embedding: a Cholesky factor of its m x m Gram
    matrix would be cheaper but squares the conditioning.
    """
    g = region.grid
    fdim = g.fiber_dim
    mask = np.repeat(region.mask, fdim)
    m = int(mask.sum())
    emb = np.zeros((g.state_dim, m))
    emb[np.where(mask)[0], np.arange(m)] = 1.0
    den = to_frequency(g, emb)
    den *= _state_weights(g, r)[:, None]
    return np.linalg.qr(den)[1]


def _sup_ratio(num: np.ndarray, rr: np.ndarray) -> float:
    """sup over v of ||num v|| / ||rr v|| for an upper-triangular ``rr``.

    That is ||X||_2 for X = num rr^{-1}, which takes one triangular solve;
    ||X||_2^2 is the top eigenvalue of the m x m Gram matrix X^H X.  The
    clamp at 0 keeps an all-zero ``num`` exactly 0.
    """
    x = scipy.linalg.solve_triangular(rr, num.T, trans="T").T
    top = scipy.linalg.eigh(x.conj().T @ x, eigvals_only=True)[-1]
    return float(np.sqrt(top)) if top > 0 else 0.0


def _restricted_sup(
    A: DiscreteOperator, region: Region, eta, rr: np.ndarray, s: float,
) -> float:
    """Exact sup over u supported in the region of the cutoff seminorm ratio.

    ``eta`` is the cutoff of the exterior and ``rr`` the region's
    ``_embedding_r_factor``.  With num the H^s image of the cut-off columns
    of A on the region, the sup is ``_sup_ratio(num, rr)``.
    """
    g = A.grid
    fdim = g.fiber_dim
    mask = np.repeat(region.mask, fdim)
    cols = A.matrix[:, mask]
    cols = cols * np.repeat(eta.values, fdim)[:, None]
    num = to_frequency(g, cols)
    num *= _state_weights(g, s)[:, None]
    return _sup_ratio(num, rr)


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

    Each region's distance field is taken once per call and its exterior
    at radius R is the set where that distance exceeds R; the cutoff of
    each exterior is built once per (R, region) and serves the exact
    estimator and every probe; the QR factor of a region's H^r embedding
    is taken once per call.  Each exact sup is then one triangular solve
    against that factor and the top eigenvalue of an m x m Gram matrix,
    m the region's state count (``_sup_ratio``).  Each exterior cutoff is
    CUTOFF_SPACINGS grid spacings wide.
    """
    g = A.grid
    if probes < 1:
        raise ValueError("at least one probe required")
    if any(R < 0 for R in R_list):
        raise ValueError("radius must be nonnegative")
    cutoff_width = CUTOFF_SPACINGS * g.spacing
    rng = np.random.default_rng(seed)
    dists = [region.distance_field() for region in region_list]
    factors = {}  # region index -> R factor, taken on first use
    mu, estimators, skipped = [], [], []
    for R in R_list:
        best = 0.0
        estimator = "probe"
        usable = False
        for i, (region, dist) in enumerate(zip(region_list, dists)):
            outside = Region(g, dist > R)
            if outside.is_empty():
                skipped.append((float(R), "no exterior at this radius"))
                continue
            usable = True
            eta = cutoff_eta(outside, cutoff_width)
            # a region holds at most state_dim states
            if g.state_dim <= EXACT_ESTIMATOR_CAP:
                if i not in factors:
                    factors[i] = _embedding_r_factor(region, r)
                best = max(best, _restricted_sup(A, region, eta, factors[i],
                                                 s))
                estimator = "svd"
            for _ in range(probes):
                vals = (rng.standard_normal((g.n_points, g.fiber_dim))
                        + 1j * rng.standard_normal((g.n_points, g.fiber_dim)))
                vals[~region.mask] = 0.0
                u = Section(g, vals)
                denom = sobolev_norm(u, r)
                if denom == 0.0:
                    continue
                au = apply_operator(A, u)
                # the body of restricted_seminorm, with this exterior's eta
                num = sobolev_norm(
                    Section(g, au.values * eta.values[:, None]), s)
                best = max(best, num / denom)
        if usable:
            mu.append(best)
            estimators.append(estimator)
        else:
            mu.append(np.nan)
            estimators.append("skipped")
    return DominatingFunctionEstimate(
        R_list=tuple(float(R) for R in R_list),
        mu_hat=tuple(mu), estimator=tuple(estimators),
        skipped=tuple(skipped),
    )


# ---------------------------------------------------------------------------
# wave scans


def _loglog_slope(xs, ys) -> float:
    """Least-squares slope of log ys against log xs over the entries ys > 0.

    NaN when fewer than two entries are positive.
    """
    xs, ys = np.asarray(xs), np.asarray(ys)
    good = ys > 0
    if good.sum() < 2:
        return np.nan
    return float(np.polyfit(np.log(xs[good]), np.log(ys[good]), 1)[0])


@dataclass(frozen=True)
class WaveScanReport:
    """mu_hat(R; t) for e^{itP} with log-log fits in R and |t|."""

    entries: tuple  # rows (t, R, l, mu_hat, estimator, probes, seed)
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

    Each exterior cutoff is CUTOFF_SPACINGS grid spacings wide.
    """
    g = P.grid
    cutoff_width = CUTOFF_SPACINGS * g.spacing
    if region is None:
        center = g.points[g.n_points // 2]
        region = ball_region(g, center, 2.0 * g.spacing)
    sd = spectral or spectral_data(P)
    s_out = l - (k - 1)

    entries = []
    table = {}
    prop_rows = []
    for t in t_list:
        U = wave_operator(P, t, spectral=sd)
        est = dominating_function(U, l, s_out, R_list, [region],
                                  probes=probes, seed=seed)
        for R, m, e in zip(est.R_list, est.mu_hat, est.estimator):
            entries.append((float(t), float(R), float(l), float(m), e,
                            probes, seed))
            table[(t, R)] = m
        if U.propagation_bound is not None:
            # a skipped radius (NaN, no exterior left) measured nothing
            for R, m in zip(est.R_list, est.mu_hat):
                if R > U.propagation_bound + cutoff_width and np.isfinite(m):
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


# ---------------------------------------------------------------------------
# pseudolocality equivalence spot check


@dataclass(frozen=True)
class SpotcheckReport:
    """Step-function approximation bookkeeping for commutators [T, f]."""

    step_defects: tuple       # ||[T,f] - [T,f']|| per sampled f
    direct_bounds: tuple      # 2 mesh ||T|| per sampled f
    verdict_lipschitz: bool
    verdict_borel: bool


def pseudolocality_equivalence_spotcheck(
    T: DiscreteOperator,
    R: float,
    L: float,
    samples: int = 3,
) -> SpotcheckReport:
    """Compare the Lipschitz-commutator and Borel-indicator approximability views.

    For sampled f in L-Lip_R (centres drawn from the generator seeded with
    0), the range of f is partitioned into intervals of mesh 0.25;
    f' = sum_i c_i chi_i is the induced step function.  Since
    ||f - f'|| <= mesh, the commutator difference obeys
    ||[T,f] - [T,f']|| <= 2 mesh ||T||, and [T, f'] assembles from the
    off-diagonal blocks chi_i T chi_j, which is the bridge between the two
    families.  Each family verdict holds when every sampled operator has
    eps-rank at most state_dim // 4 at eps = 0.25.
    """
    g = T.grid
    rng = np.random.default_rng(0)
    tnorm = float(np.linalg.norm(T.matrix, 2))
    mesh = eps = 0.25
    rank_cap = g.state_dim // 4

    defects, bounds = [], []
    lip_ok = True
    borel_ok = True
    for _ in range(samples):
        center = g.points[rng.integers(0, g.n_points)]
        f = lipschitz_bump(g, center, R, L)
        vals = f.values
        edges = np.arange(vals.min(), vals.max() + mesh, mesh)
        idx = np.clip(np.digitize(vals, edges) - 1, 0, len(edges) - 1)
        levels = edges[idx] + mesh / 2.0
        fv = np.repeat(vals, g.fiber_dim)
        sv = np.repeat(levels, g.fiber_dim)
        comm_f = T.matrix * fv[None, :] - fv[:, None] * T.matrix
        comm_s = T.matrix * sv[None, :] - sv[:, None] * T.matrix
        defect = float(np.linalg.norm(comm_f - comm_s, 2))
        defects.append(defect)
        bounds.append(2.0 * mesh * tnorm)
        # family verdicts: commutator vs indicator compressions
        sv_c = np.linalg.svd(comm_f, compute_uv=False)
        lip_ok = lip_ok and _count_at_least(sv_c, eps) <= rank_cap
        for i in np.unique(idx):
            chi_i = np.repeat(idx == i, g.fiber_dim).astype(float)
            mat = chi_i[:, None] * T.matrix - T.matrix * chi_i[None, :]
            sv_b = np.linalg.svd(mat, compute_uv=False)
            borel_ok = borel_ok and _count_at_least(sv_b, eps) <= rank_cap
    return SpotcheckReport(
        step_defects=tuple(defects), direct_bounds=tuple(bounds),
        verdict_lipschitz=bool(lip_ok), verdict_borel=bool(borel_ok),
    )
