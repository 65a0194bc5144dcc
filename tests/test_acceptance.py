"""End-to-end acceptance checks, one per advertised guarantee.

Each test prints a single pass/fail line so the whole ledger is readable
from the pytest output (-s).  Tolerances are the contract: they are never
loosened to make a run green.
"""

import json
import os
import time

import numpy as np

from torusop.lattice import (
    GridSpec,
    Section,
    ball_region,
    from_frequency,
    lipschitz_bump,
    to_frequency,
)
from torusop.operators import (
    DiscreteOperator,
    apply_operator,
    commutator,
    compose,
    decay_profile,
    fourier_multiplier,
    multiplication_operator,
    op_norm,
    quantize,
    symmetrize,
)
from torusop.symbols import compose_symbols, named_symbol, symbol_from_callable
from torusop.parametrix import (
    build_parametrix,
    elliptic_estimate_constant,
    fourier_diagonal_constant,
)
from torusop.funcalc import (
    chi_resolvent_integral,
    fourier_apply,
    named_function,
    psi_difference_bound,
    spectral_apply,
    spectral_data,
)
from torusop.quasiloc import (
    eps_rank,
    uniform_approx_profile,
    wave_quasilocality_scan,
)
from torusop.khomology import (
    assemble_module,
    homotopy_scan,
    make_multigrading,
)
from torusop import cli


def _verdict(num, label, ok):
    print(f"criterion {num:02d} ({label}): {'PASS' if ok else 'FAIL'}",
          flush=True)
    assert ok, f"criterion {num:02d} ({label}) failed"


_ORDERS = {
    "laplace+1": 2, "elliptic_x": 2, "magnetic": 2,
    "drift": 1, "sqrt_laplace": 1, "momentum": 1,
    "schwartz_drift": 0, "schwartz_xi": 0,
}


def test_criterion_01_quantization_exactness():
    g = GridSpec(1, 64, 2.0)
    ok = True
    one = symbol_from_callable(g, 0, lambda x, xi: 1.0 + 0.0 * xi[..., 0],
                               hermitian_valued=True, x_independent=True)
    ok &= np.abs(quantize(one).matrix - np.eye(g.state_dim)).max() <= 1e-12
    P = quantize(named_symbol(g, "momentum"))
    for m in (-20, -7, 0, 3, 25):
        u = Section(g, np.exp(1j * (m / g.period_scale) * g.points))
        v = apply_operator(P, u)
        ok &= np.abs(v.values - (m / g.period_scale) * u.values).max() \
            <= 1e-11 * max(1.0, abs(m))
    # the symmetrized Nyquist slot samples odd symbols to zero, so the
    # Nyquist plane wave is annihilated rather than scaled by m/L
    ny = Section(g, np.exp(1j * (-32 / g.period_scale) * g.points))
    ok &= np.abs(apply_operator(P, ny).values).max() <= 1e-11
    rng = np.random.default_rng(0)
    u = Section(g, rng.standard_normal((g.n_points, 1))
                + 1j * rng.standard_normal((g.n_points, 1)))
    back = from_frequency(g, to_frequency(g, u.flat()))
    ok &= np.abs(back - u.flat()).max() <= 1e-12 * u.l2_norm()
    _verdict(1, "quantization exactness", bool(ok))


def test_criterion_02_filtered_algebra_orders():
    pairs = [
        ("elliptic_x", "drift"),
        ("sqrt_laplace", "drift"),
        ("schwartz_drift", "elliptic_x"),
        ("laplace+1", "magnetic"),
        ("elliptic_x", "schwartz_drift"),
    ]
    N_ladder = (256, 512, 1024)
    ok = True
    for pn, qn in pairs:
        kp, kq = _ORDERS[pn], _ORDERS[qn]
        vals = {}
        scales = {}
        for N in N_ladder:
            g = GridSpec(1, N, 1.0)
            p, q = named_symbol(g, pn), named_symbol(g, qn)
            P, Q = quantize(p), quantize(q)
            PQ = compose(P, Q)
            if N == N_ladder[0]:
                for s in (0.0, 1.0):
                    scales[s] = op_norm(PQ, s, s - kp - kq)
            for J in (0, 1, 2):
                R = quantize(compose_symbols(p, q, J))
                D = DiscreteOperator(g, kp + kq, PQ.matrix - R.matrix,
                                     provenance="composed")
                for s in (0.0, 1.0):
                    vals.setdefault((J, s), []).append(
                        op_norm(D, s, s - kp - kq + J + 1))
        for (J, s), series in vals.items():
            # additive floor: below a fraction of the composition scale the
            # remainder norm sits in discretization noise
            stable = max(series) <= 1.25 * min(series) + 0.005 * scales[s]
            if not stable:
                print(f"  unstable pair ({pn}, {qn}) J={J} s={s}: {series}")
            ok &= stable
    _verdict(2, "filtered-algebra order bookkeeping", bool(ok))


def test_criterion_03_commutator_drop():
    functions = (
        ("cos", lambda x: np.cos(x)),
        ("sin+cos2", lambda x: np.sin(x) + 0.5 * np.cos(2 * x)),
        ("exp_cos", lambda x: np.exp(np.cos(x))),
    )
    ok = True
    for pname in ("laplace+1", "elliptic_x", "sqrt_laplace"):
        k = _ORDERS[pname]
        for fname, fn in functions:
            series = []
            for N in (128, 256, 512):
                g = GridSpec(1, N, 1.0)
                P = quantize(named_symbol(g, pname))
                M = multiplication_operator(g, fn(g.points[:, 0]))
                series.append(op_norm(commutator(P, M), 0.0, float(1 - k)))
            finite = all(np.isfinite(v) for v in series)
            stable = max(series) <= 1.10 * min(series)
            if not (finite and stable):
                print(f"  drift ({pname}, {fname}): {series}")
            ok &= finite and stable
    _verdict(3, "commutator order drop", bool(ok))


def test_criterion_04_parametrix():
    ok = True
    vals = {}
    for N in (256, 512):
        g = GridSpec(1, N, 4.0)
        p = named_symbol(g, "elliptic_x")
        P = quantize(p)
        for J in range(4):
            res = build_parametrix(P, p, J, excision_width=8.0)
            ok &= not res.diverged
            for l in (0, 1, 2):
                vals[(N, J, l)] = res.off_band_norms[(0, l)]
    for N in (256, 512):
        for l in (0, 1, 2):
            for J in range(3):
                # 2% tie tolerance: past convergence the sweeps sit at the
                # discretization floor
                mono = vals[(N, J + 1, l)] <= 1.02 * vals[(N, J, l)]
                if not mono:
                    print(f"  non-monotone N={N} J={J}->{J + 1} l={l}: "
                          f"{vals[(N, J, l)]:.3e} -> {vals[(N, J + 1, l)]:.3e}")
                ok &= mono
    for J in range(4):
        for l in (0, 1, 2):
            a, b = vals[(256, J, l)], vals[(512, J, l)]
            # one-sided: once the sweeps converge, the leftover residual is
            # pure discretization error and refinement can only shrink it
            stable = b <= 1.25 * a + 1e-10
            if not stable:
                print(f"  refinement J={J} l={l}: {a:.3e} vs {b:.3e}")
            ok &= stable
    g = GridSpec(1, 256, 4.0)
    p = named_symbol(g, "laplace+1")
    exact = build_parametrix(quantize(p), p, 1, excision_width=8.0)
    ok &= exact.off_band_norms[(0, 0)] <= 1e-10
    _verdict(4, "parametrix residuals", bool(ok))


def test_criterion_05_elliptic_estimate():
    ok = True
    c = fourier_diagonal_constant(lambda xi: 1.0 + xi[..., 0] ** 2, 2)
    ok &= abs(c - 1.0) <= 1e-9
    series = []
    for N in (128, 256):
        g = GridSpec(1, N, 1.0)
        series.append(
            elliptic_estimate_constant(quantize(named_symbol(g, "elliptic_x")),
                                       2.0))
    ok &= all(np.isfinite(v) for v in series)
    ok &= max(series) <= 1.10 * min(series)
    bad = []
    for N in (16, 32, 64):
        g = GridSpec(2, N, 1.0)
        P = quantize(named_symbol(g, "xi1_squared"))
        bad.append(elliptic_estimate_constant(P, 2.0))
    ok &= bad[-1] >= 10.0 * bad[0]
    _verdict(5, "fundamental elliptic estimate", bool(ok))


def test_criterion_06_wave_quasilocality():
    ok = True
    # finite propagation: translation generator, commensurate times
    g = GridSpec(1, 256, 4.0)
    P = fourier_multiplier(g, lambda xi: xi[..., 0], order=1,
                           propagation_speed=1.0)
    rep = wave_quasilocality_scan(
        P, 1, (8 * g.spacing, 16 * g.spacing), (1.0, 2.0, 3.0), 0.0,
        probes=2,
    )
    ok &= bool(rep.propagation_exact)
    ok &= all(exact for _t, _R, exact in rep.propagation_exact)
    # quasilocality decay law for 1 - Laplace: the maximizing probe content
    # sits near the transport frequency R/2t, which the scan window resolves
    g = GridSpec(1, 2048, 8.0)
    P = fourier_multiplier(g, lambda xi: 1.0 + xi[..., 0] ** 2, order=2)
    rep = wave_quasilocality_scan(
        P, 2, (0.0625, 0.125, 0.25), (2.0, 4.0, 8.0, 16.0), 1.0,
        region=ball_region(g, np.zeros(1), 4.0), probes=2,
    )
    ok &= not rep.range_limited
    ok &= -1.3 <= rep.slope_R <= -0.7
    ok &= 0.7 <= rep.growth_t <= 1.3
    if not ok:
        print(f"  slope_R={rep.slope_R:.3f} growth_t={rep.growth_t:.3f}")
    _verdict(6, "wave-operator quasilocality", bool(ok))


def test_criterion_07_functional_calculus_routes():
    g = GridSpec(1, 128, 4.0)
    P = quantize(named_symbol(g, "sqrt_laplace"))
    sd = spectral_data(P)
    ok = np.abs(sd.eigenvalues).max() <= 20.0
    f = named_function("gaussian", {"sigma": 1.0})
    wave_defects = [fourier_apply(P, f, n_quad=n, spectral=sd).defect
                    for n in (512, 1024, 2048)]
    ok &= wave_defects[-1] <= 1e-5
    res_defects = [chi_resolvent_integral(P, n_quad=n, spectral=sd).defect
                   for n in (1024, 2048, 4096)]
    ok &= res_defects[-1] <= 1e-5
    for series in (wave_defects, res_defects):
        for prev, cur in zip(series, series[1:]):
            # past resolution the trapezoid defect lands on the roundoff
            # floor, where monotonicity is vacuous
            ok &= cur <= max(prev, 1e-12)
    if not ok:
        print(f"  wave {wave_defects} resolvent {res_defects}")
    _verdict(7, "functional-calculus routes", bool(ok))


def test_criterion_08_smoothing_calculus():
    f = named_function("gaussian", {"sigma": 1.0})
    ok = True
    for pname in ("laplace+1", "elliptic_x", "sqrt_laplace"):
        tables = []
        for N in (128, 256):
            g = GridSpec(1, N, 1.0)
            FP = spectral_apply(quantize(named_symbol(g, pname)), f)
            prof = decay_profile(FP, num_shells=10)
            tables.append(prof.norms)
            if N == 128:
                shells = [row[2] for row in prof.shells]
                dec = all(b < a for a, b in zip(shells, shells[1:]))
                if not dec:
                    print(f"  shells not decreasing for {pname}: {shells}")
                ok &= dec
        for key in tables[0]:
            a, b = tables[0][key], tables[1][key]
            ok &= np.isfinite(a) and np.isfinite(b)
            ok &= max(a, b) <= 1.25 * min(a, b)
    _verdict(8, "smoothing functional calculus", bool(ok))


def test_criterion_09_psi_difference_bound():
    psi = named_function("si_normalizing")
    g = GridSpec(1, 96, 1.0)
    mult = {
        "id": fourier_multiplier(g, lambda xi: xi[..., 0], order=1),
        "jap": fourier_multiplier(g, lambda xi: np.sqrt(1 + xi[..., 0] ** 2),
                                  order=1),
        "tanh": fourier_multiplier(g, lambda xi: np.tanh(xi[..., 0]),
                                   order=1),
    }
    ok = True
    slacks = []
    for a, b in (("id", "jap"), ("id", "tanh"), ("jap", "tanh")):
        rep = psi_difference_bound(psi, mult[a], mult[b])
        slacks.append(rep.lhs / max(rep.rhs, 1e-30))
        ok &= rep.lhs <= 1.05 * rep.rhs
    def _plus(P, values):
        M = multiplication_operator(g, values)
        return DiscreteOperator(g, 1, P.matrix + M.matrix,
                                provenance="composed", self_adjoint=True)
    x = g.points[:, 0]
    noncomm = (
        (mult["id"], _plus(mult["id"], 0.3 * np.cos(x))),
        (quantize(named_symbol(g, "sqrt_laplace")),
         _plus(quantize(named_symbol(g, "sqrt_laplace")), 0.2 * np.sin(x))),
        (symmetrize(quantize(named_symbol(g, "drift"))),
         _plus(symmetrize(quantize(named_symbol(g, "drift"))),
               0.25 * np.cos(2 * x))),
    )
    for P, Pp in noncomm:
        rep = psi_difference_bound(psi, P, Pp)
        slacks.append(rep.lhs / max(rep.rhs, 1e-30))
        ok &= rep.lhs <= 1.05 * rep.rhs
    if not ok:
        print(f"  slacks {slacks}")
    _verdict(9, "psi-difference bound", bool(ok))


def test_criterion_10_uniform_approximability():
    ok = True
    # eps-rank against direct singular value counting
    g = GridSpec(1, 32, 1.0)
    sv = np.concatenate([[2.0, 1.0, 0.4, 0.4], np.full(28, 0.01)])
    rng = np.random.default_rng(7)
    qa, _ = np.linalg.qr(rng.standard_normal((32, 32)))
    qb, _ = np.linalg.qr(rng.standard_normal((32, 32)))
    A = DiscreteOperator(g, 0, qa @ np.diag(sv) @ qb.T,
                         provenance="composed")
    ok &= eps_rank(A, 0.5) == 2
    ok &= eps_rank(A, 0.3) == 4
    ok &= eps_rank(A, 0.005) == 32

    eps_list = (0.5, 0.1, 0.05)

    def _profiles(N, name, form):
        g = GridSpec(1, N, 2.0)
        T = quantize(named_symbol(g, name))
        fam = [lipschitz_bump(g, np.zeros(1), 1.5, 2.0)
               .translated((k * N // 8,)) for k in range(8)]
        per_member = [
            uniform_approx_profile(T, [f], forms=(form,), eps_list=eps_list)
            for f in fam
        ]
        joint = uniform_approx_profile(T, fam, forms=(form,),
                                       eps_list=eps_list)
        return per_member, joint

    for name, form in (("order_minus1", "fT"), ("order_minus1", "Tf"),
                       ("schwartz_xi", "[T,f]")):
        ranks = {}
        for N in (128, 256):
            per_member, joint = _profiles(N, name, form)
            # translation covariance: exact integer equality over translates
            for single in per_member:
                ok &= single.ranks[form] == joint.ranks[form]
            ranks[N] = joint.ranks[form]
        for a, b in zip(ranks[128], ranks[256]):
            stable = abs(a - b) <= 1
            if not stable:
                print(f"  rank jump {name}/{form}: {ranks[128]} vs "
                      f"{ranks[256]}")
            ok &= stable
    _verdict(10, "uniform approximability", bool(ok))


def test_criterion_11_fredholm_module():
    g = GridSpec(1, 64, 1.0, fiber_dim=2)
    fam = [lipschitz_bump(g, np.zeros(1), 1.5, 2.0).translated((k * 8,))
           for k in range(8)]
    chi = named_function("chi_rational")
    mod = assemble_module(quantize(named_symbol(g, "dirac")), chi,
                          make_multigrading(1), {"translates": fam},
                          eps_list=(0.5, 0.1, 0.05))
    rep = mod.verification
    ok = rep.adjoint_defect <= 1e-10
    ok &= rep.grading_identity_defect <= 1e-12
    ok &= rep.odd_defect <= 1e-10
    ok &= rep.multigraded_defect <= 1e-10
    for key, prof in rep.profiles.items():
        for ranks in prof.ranks.values():
            ok &= all(r < g.state_dim for r in ranks)
    # translate exactness of the compact-part profiles
    T = mod.T
    tsq = DiscreteOperator(g, 0, T.matrix @ T.matrix - np.eye(g.state_dim),
                           provenance="function_of")
    for op, form in ((tsq, "fT"), (T, "[T,f]")):
        singles = [
            uniform_approx_profile(op, [f], forms=(form,),
                                   eps_list=(0.5, 0.1, 0.05)).ranks[form]
            for f in fam
        ]
        ok &= all(s == singles[0] for s in singles)
    gapped = assemble_module(
        quantize(named_symbol(g, "dirac_mass", {"m": 1.0})), np.sign,
        make_multigrading(0), {"translates": fam[:2]},
        check_square_exact=True)
    ok &= gapped.verification.square_defect == 0.0
    _verdict(11, "multigraded Fredholm module", bool(ok))


def test_criterion_12_homotopy_scan():
    g = GridSpec(1, 64, 1.0)
    f = lipschitz_bump(g, np.zeros(1), 1.5, 2.0)
    chi = named_function("chi_rational")
    P1 = fourier_multiplier(g, lambda xi: xi[..., 0], order=1)
    tr = homotopy_scan(P1, P1, chi, [4, 8], [f])
    ok = all(tr.max_jump(fam) == 0.0 for fam in tr.gamma)
    pert = multiplication_operator(g, 0.3 * np.cos(g.points[:, 0]))
    Pp = DiscreteOperator(g, 1, P1.matrix + pert.matrix,
                          provenance="composed", self_adjoint=True)
    tr1 = homotopy_scan(P1, Pp, chi, [4, 8, 16], [f])
    ok &= bool(tr1.lipschitz)
    for _a, _b, lhs, rhs in tr1.lipschitz:
        ok &= lhs <= 1.05 * rhs
    P2 = fourier_multiplier(g, lambda xi: 1.0 + xi[..., 0] ** 2, order=2)
    pert2 = multiplication_operator(g, 0.25 * np.cos(g.points[:, 0]))
    Pp2 = DiscreteOperator(g, 2, P2.matrix + pert2.matrix,
                           provenance="composed", self_adjoint=True)
    tr2 = homotopy_scan(P2, Pp2, chi, [4, 8, 16], [f])
    for fam, gamma in tr2.gamma.items():
        ok &= gamma > 0
    if not ok:
        print(f"  gamma {tr2.gamma}")
    _verdict(12, "homotopy scan", bool(ok))


def test_criterion_13_determinism(tmp_path):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert cli.run("quasiloc-scan", out=str(out), seed=0) == 0
    ok = True
    names = sorted(os.listdir(outs[0]))
    ok &= names == sorted(os.listdir(outs[1]))
    for name in names:
        b0 = (outs[0] / name).read_bytes()
        b1 = (outs[1] / name).read_bytes()
        if name == "manifest.json":
            m0, m1 = json.loads(b0), json.loads(b1)
            m0.pop("timestamp")
            m1.pop("timestamp")
            ok &= m0 == m1
        else:
            ok &= b0 == b1
    start = time.monotonic()
    code = cli.run("full-suite", out=str(tmp_path / "suite"), seed=0)
    elapsed = time.monotonic() - start
    ok &= code == 0
    ok &= elapsed <= 600.0
    _verdict(13, "determinism and runtime", bool(ok))
