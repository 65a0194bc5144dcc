"""Multigraded Fredholm modules built from normalized elliptic operators.

The central object is the triple (state space, bump-function representation,
T = chi(P)) for a self-adjoint elliptic P and a normalizing function chi.
This module verifies its defining conditions numerically: T is self-adjoint,
T^2 - 1 and [T, rho(f)] have finite eps-rank profiles uniformly over bump
families, and T respects a Clifford multigrading on the fiber.  A homotopy
scan along the segment between two operators with the same leading behaviour
tracks the norm continuity of these families in the deformation parameter.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .operators import (
    DiscreteOperator,
    op_norm,
)
from .funcalc import (
    SPECTRAL_REL_TOL,
    ScalarFunctionSpec,
    spectral_data,
    spectral_apply,
)
from .quasiloc import _loglog_slope, uniform_approx_profile

__all__ = [
    "Multigrading",
    "make_multigrading",
    "FredholmModule",
    "VerificationReport",
    "assemble_module",
    "HomotopyTrace",
    "homotopy_scan",
]

_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

GRADING_TOL = 1e-12
# largest relative order-k difference homotopy_scan accepts between endpoints
PRINCIPAL_MISMATCH_TOL = 0.1


@dataclass(frozen=True)
class Multigrading:
    """Grading involution plus p anticommuting odd unitaries on the fiber.

    degree -1 encodes the ungraded case: no grading data at all.
    """

    degree: int
    grading: np.ndarray | None
    generators: tuple

    def __post_init__(self):
        if self.degree < -1:
            raise ValueError("degree must be >= -1")
        if self.degree == -1:
            if self.grading is not None or self.generators:
                raise ValueError("degree -1 carries no grading data")
            return
        if self.grading is None:
            raise ValueError("graded case requires a grading involution")
        if len(self.generators) != self.degree:
            raise ValueError("need exactly degree many generators")
        defect = self.identity_defect()
        if defect > GRADING_TOL:
            raise ValueError(
                f"grading identities violated: defect {defect:.3e}"
            )

    @property
    def fiber_dim(self) -> int:
        return 1 if self.grading is None else self.grading.shape[0]

    def identity_defect(self) -> float:
        """Max deviation over all defining matrix identities."""
        if self.degree == -1:
            return 0.0
        eps = self.grading
        n = eps.shape[0]
        eye = np.eye(n)
        worst = max(
            np.abs(eps - eps.T.conj()).max(),
            np.abs(eps @ eps - eye).max(),
        )
        for g in self.generators:
            worst = max(
                worst,
                np.abs(g @ g.T.conj() - eye).max(),    # unitary
                np.abs(g @ g + eye).max(),             # squares to -1
                np.abs(eps @ g + g @ eps).max(),       # odd
            )
        for i, gi in enumerate(self.generators):
            for gj in self.generators[i + 1:]:
                worst = max(worst, np.abs(gi @ gj + gj @ gi).max())
        return float(worst)


def make_multigrading(p: int) -> Multigrading:
    """Clifford-type multigrading of degree p on a 2^m fiber.

    m = max(1, ceil(p / 2)).  The representation uses iterated Pauli tensor
    blocks: hermitian anticommuting gamma factors with an i prefactor so
    each generator squares to -1.  For other grading and generator matrices
    build Multigrading directly; its constructor enforces the relations.
    """
    if p < -1:
        raise ValueError("p must be >= -1")
    if p == -1:
        return Multigrading(-1, None, ())
    m = max(1, -(-p // 2))  # ceil(p / 2), at least one block for the grading

    def _chain(factors):
        out = np.array([[1.0 + 0.0j]])
        for f in factors:
            out = np.kron(out, f)
        return out

    eps = _chain([_PAULI_Z] * m)
    gens = []
    for j in range(p):
        k, odd = divmod(j, 2)
        head = [_PAULI_Z] * k + [_PAULI_Y if odd else _PAULI_X]
        head += [np.eye(2)] * (m - k - 1)
        gens.append(1j * _chain(head))
    return Multigrading(p, eps, tuple(gens))


# ---------------------------------------------------------------------------
# module assembly


@dataclass(frozen=True)
class VerificationReport:
    """Numerical record of the Fredholm-module conditions for T = chi(P)."""

    adjoint_defect: float
    grading_identity_defect: float
    odd_defect: float
    multigraded_defect: float
    profiles: dict
    square_defect: float | None
    passed: bool


@dataclass(frozen=True)
class FredholmModule:
    T: DiscreteOperator
    verification: VerificationReport


def assemble_module(
    P: DiscreteOperator,
    chi,
    mg: Multigrading,
    test_families,
    eps_list=(0.5, 0.1, 0.02),
    check_square_exact: bool = False,
) -> FredholmModule:
    """Build (H, rho, chi(P)) and verify the module conditions.

    test_families is a dict mapping a label to a list of BumpFunction; the
    eps-rank profiles of (T^2-1) rho(f), rho(f) (T^2-1) and [T, rho(f)] are
    recorded per family.  With check_square_exact the spectrum must avoid 0
    and chi must be a hard sign there, making T^2 - 1 vanish identically;
    an eigenvalue within SPECTRAL_REL_TOL times the spectral radius of 0,
    the accuracy the spectral data certifies, counts as no gap.
    """
    g = P.grid
    if not P.self_adjoint:
        raise ValueError("P must be self-adjoint")
    if mg.degree >= 0 and mg.fiber_dim != g.fiber_dim:
        raise ValueError("multigrading fiber does not match the grid fiber")
    odd_defect = 0.0
    graded_defect = 0.0
    if mg.degree >= 0:
        a, n, r = P.matrix, g.n_points, g.fiber_dim
        # a fiber matrix acts pointwise: on the fiber index of each state
        left = lambda m: (m @ a.reshape(n, r, n * r)).reshape(a.shape)
        right = lambda m: (a.reshape(n * r, n, r) @ m).reshape(a.shape)
        odd_defect = float(
            np.abs(left(mg.grading) + right(mg.grading)).max()
        )
        if odd_defect > 1e-10 * max(1.0, np.abs(P.matrix).max()):
            raise ValueError(f"P is not odd: defect {odd_defect:.3e}")
        for gen in mg.generators:
            graded_defect = max(graded_defect, float(
                np.abs(left(gen) - right(gen)).max()
            ))
        if graded_defect > 1e-10 * max(1.0, np.abs(P.matrix).max()):
            raise ValueError(
                f"P is not multigraded: defect {graded_defect:.3e}"
            )

    sd = spectral_data(P)
    if check_square_exact and (np.abs(sd.eigenvalues).min()
                               <= SPECTRAL_REL_TOL * sd.spectral_radius):
        raise ValueError("exact square check needs a spectral gap at 0")
    T = spectral_apply(P, chi, spectral=sd)
    adjoint_defect = float(np.linalg.norm(T.matrix - T.matrix.T.conj(), 2))

    tsq = DiscreteOperator(g, 0, T.matrix @ T.matrix - np.eye(g.state_dim),
                           provenance="function_of")
    profiles = {}
    for label, family in test_families.items():
        profiles[(label, "fT2m1")] = uniform_approx_profile(
            tsq, family, forms=("fT",), eps_list=eps_list)
        profiles[(label, "T2m1f")] = uniform_approx_profile(
            tsq, family, forms=("Tf",), eps_list=eps_list)
        profiles[(label, "comm")] = uniform_approx_profile(
            T, family, forms=("[T,f]",), eps_list=eps_list)

    square_defect = None
    if check_square_exact:
        # T^2 - 1 = (chi^2 - 1)(P); checking on the spectrum keeps the
        # exactness claim free of matrix-product roundoff
        chi_vals = np.asarray(chi(sd.eigenvalues))
        square_defect = float(np.abs(chi_vals * chi_vals - 1.0).max())

    report = VerificationReport(
        adjoint_defect=adjoint_defect,
        grading_identity_defect=mg.identity_defect(),
        odd_defect=odd_defect,
        multigraded_defect=graded_defect,
        profiles=profiles,
        square_defect=square_defect,
        passed=bool(
            adjoint_defect <= 1e-10
            and (square_defect is None or square_defect == 0.0)
        ),
    )
    return FredholmModule(T, report)


# ---------------------------------------------------------------------------
# homotopy scan


@dataclass(frozen=True)
class HomotopyTrace:
    """Adjacent-step jumps of the module families along P_t = (1-t)P + tP'."""

    step_counts: tuple
    jumps: dict        # (family, steps) -> tuple of per-step max-over-f jumps
    max_jumps: dict    # (family, steps) -> float
    gamma: dict        # family -> fitted continuity exponent, nan if unfit
    lipschitz: tuple   # (t_lo, t_hi, lhs, rhs) rows for the order-1 check
    c_chi: float | None
    principal_defect: float

    def max_jump(self, family: str) -> float:
        return max(self.max_jumps[(family, s)] for s in self.step_counts)


FAMILIES = ("commutator", "locally_compact", "adjoint")


def homotopy_scan(
    P: DiscreteOperator,
    P_prime: DiscreteOperator,
    chi,
    t_steps,
    test_fs,
) -> HomotopyTrace:
    """Track the three module families along the straight-line operator path.

    t_steps is a list of step counts, each at least 1; with two or more
    distinct counts the decay of the max adjacent-step jump against the
    step size is fitted to a power law, giving the continuity exponent
    gamma per family.  At order 1 a ScalarFunctionSpec chi must declare
    c_psi, and each step of the last count is checked against
    ||chi(P_b) - chi(P_a)|| <= c_psi ||P_b - P_a||.  The leading
    behaviour of P and P' must agree: their difference, measured at the full
    declared order, may be at most PRINCIPAL_MISMATCH_TOL = 0.1 of the
    operators themselves.
    """
    g = P.grid
    if not (P.self_adjoint and P_prime.self_adjoint):
        raise ValueError("both endpoints must be self-adjoint")
    if P.order != P_prime.order:
        raise ValueError("endpoints must share the declared order")
    if any(steps < 1 for steps in t_steps):
        raise ValueError("t_steps must all be at least 1")
    k = P.order
    c_chi = None
    if k == 1 and isinstance(chi, ScalarFunctionSpec):
        if chi.c_psi is None:
            raise ValueError(f"{chi.name} declares no closed-form C_psi")
        c_chi = chi.c_psi
    diff = DiscreteOperator(g, k, P.matrix - P_prime.matrix,
                            provenance="composed")
    # compare at full order k on the upper half of the frequency range,
    # where a genuine leading-order discrepancy stays O(1) relative to P
    # while lower-order differences are suppressed like 1/|xi|
    hi = g.frequency_magnitude > 0.5 * float(np.max(g.frequency_magnitude))
    hi_norm = lambda A: op_norm(A, 0.0, -float(k), hi)
    principal_defect = (hi_norm(diff)
                        / max(hi_norm(P), hi_norm(P_prime), 1e-30))
    if principal_defect > PRINCIPAL_MISMATCH_TOL:
        raise ValueError("principal symbols differ: relative order-k "
                         f"defect {principal_defect:.3e}")

    step_counts = tuple(int(s) for s in t_steps)
    rhos = [np.repeat(f.values, g.fiber_dim) for f in test_fs]
    eye = np.eye(g.state_dim)
    diff_norm = op_norm(diff, 0.0, 0.0)

    # chi(P_t) by t: nested step counts revisit the same t-points
    @functools.cache
    def chi_at(t):
        Pt = DiscreteOperator(g, k, (1.0 - t) * P.matrix + t * P_prime.matrix,
                              provenance="composed", self_adjoint=True)
        sd = spectral_data(Pt)
        return sd.apply(np.asarray(chi(sd.eigenvalues), dtype=complex))

    def tracks(T):
        tsq = T @ T - eye
        tad = T - T.T.conj()
        return {
            "commutator": [rho[:, None] * T - T * rho[None, :]
                           for rho in rhos],
            "locally_compact": [tsq * rho[None, :] for rho in rhos],
            "adjoint": [tad * rho[None, :] for rho in rhos],
        }

    jumps = {}
    lipschitz = []
    for steps in step_counts:
        grid_t = np.linspace(0.0, 1.0, steps + 1)
        prev = tracks(chi_at(grid_t[0]))
        per_family = {fam: [] for fam in FAMILIES}
        for a, b in zip(grid_t[:-1], grid_t[1:]):
            cur = tracks(chi_at(b))
            for fam in FAMILIES:
                jump = max(float(np.linalg.norm(x - y, 2))
                           for x, y in zip(cur[fam], prev[fam]))
                # tracks that vanish identically (e.g. chi - chi* for
                # hermitian paths) only show eigensolver roundoff
                per_family[fam].append(0.0 if jump <= 1e-12 else jump)
            if c_chi is not None and steps == step_counts[-1]:
                lhs = float(np.linalg.norm(chi_at(b) - chi_at(a), 2))
                rhs = c_chi * (b - a) * diff_norm
                lipschitz.append((float(a), float(b), lhs, rhs))
            prev = cur
        for fam in FAMILIES:
            jumps[(fam, steps)] = tuple(per_family[fam])
    max_jumps = {key: max(js) for key, js in jumps.items()}

    gamma = {}
    hs = np.array([1.0 / s for s in step_counts])
    for fam in FAMILIES:
        js = np.array([max_jumps[(fam, s)] for s in step_counts])
        if len(set(step_counts)) < 2:
            # one step size fits no exponent
            gamma[fam] = float("nan")
        elif not js.any():
            # identically zero track: continuity holds trivially
            gamma[fam] = float("inf")
        else:
            gamma[fam] = _loglog_slope(hs, js)
    return HomotopyTrace(
        step_counts=step_counts, jumps=jumps, max_jumps=max_jumps,
        gamma=gamma, lipschitz=tuple(lipschitz), c_chi=c_chi,
        principal_defect=float(principal_defect),
    )
