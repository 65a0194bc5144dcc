"""Configuration-driven experiment harness.

Each scenario builds small torus models, measures the advertised quantities,
and returns its checks and deterministic CSV/JSON artifacts without writing
anything.  ``run`` then writes them with a summary and a run manifest, so a
run that raises leaves no new file.  Re-running a scenario with the same
config and seed reproduces every artifact byte for byte; only the manifest
timestamp differs.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import numbers
import os
import sys

import numpy as np

from . import __version__
from .lattice import GridSpec, ball_region, lipschitz_bump
from .symbols import (
    NAMED_SYMBOLS,
    estimate_constants,
    compose_symbols,
    named_symbol,
    symbol_from_callable,
)
from .operators import (
    DiscreteOperator,
    compose,
    fourier_multiplier,
    multiplication_operator,
    op_norm,
    quantize,
)
from .parametrix import build_parametrix, elliptic_estimate_constant
from .funcalc import (
    NAMED_FUNCTIONS,
    chi_resolvent_integral,
    fourier_apply,
    named_function,
    spectral_data,
)
from .quasiloc import dominating_function, wave_quasilocality_scan
from .khomology import assemble_module, homotopy_scan, make_multigrading
from .serial import json_bytes, write_csv

__all__ = ["main", "run", "report", "SCENARIOS", "default_config"]

# rows of the tightest-margin table that --summary prints
_MARGIN_ROWS = 5
# columns of the scan.csv that waveprop and quasiloc-scan write
_SCAN_HEADER = ("t", "R", "l", "mu_hat", "estimator", "probes", "seed")


# ---------------------------------------------------------------------------
# configs

_DEFAULTS = {
    "symbol-check": {
        "N": 64, "L": 1.0, "families": ["laplace+1", "elliptic_x", "drift",
                                        "schwartz_xi", "dirac"],
        "alpha_max": 2, "beta_max": 2,
    },
    "compose-check": {
        "N_ladder": [64, 128], "L": 1.0,
        "pairs": [["elliptic_x", "laplace+1"], ["mult_cos", "momentum"]],
        "J_list": [0, 1], "s_list": [0.0, 1.0],
    },
    "parametrix": {
        "N": 128, "L": 2.0, "family": "elliptic_x", "J_list": [0, 1, 2],
        "excision_width": 4.0, "l_list": [0.0, 1.0, 2.0],
    },
    "elliptic-estimate": {
        "N": 64, "L": 1.0, "families": ["laplace+1", "elliptic_x"],
        "s": 2.0, "probes": 8, "seed": 0,
    },
    "waveprop": {
        "N": 256, "L": 4.0, "t_spacings": [16, 32], "R_list": [1.0, 2.0, 3.0],
        "l": 0.0, "probes": 2, "seed": 0,
    },
    "funcalc-defect": {
        "N": 64, "L": 2.0, "family": "sqrt_laplace",
        "function": "gaussian", "sigma": 1.0,
        "t_max": 12.0, "n_quad": [1024, 2048],
        "resolvent_quad": [2048, 4096],
    },
    "quasiloc-scan": {
        "N": 128, "L": 2.0, "family": "schwartz_xi",
        "R_list": [0.5, 1.0, 2.0, 3.0], "r": 0.0, "s": 0.0,
        "center_radius": 0.5, "probes": 4, "seed": 0,
    },
    "fredholm-check": {
        "N": 64, "L": 1.0, "mass": 1.0, "eps_list": [0.5, 0.1, 0.02],
        "bump_R": 1.5, "bump_L": 2.0, "centers": [0.0, 1.0, 3.0],
    },
    "homotopy-scan": {
        "N": 64, "L": 1.0, "perturbation": 0.3, "t_steps": [4, 8, 16],
        "bump_R": 1.5, "bump_L": 2.0,
    },
}

_DEFAULTS["full-suite"] = {"seed": 0}


def default_config(scenario: str) -> dict:
    if scenario not in _DEFAULTS:
        raise KeyError(f"unknown scenario {scenario!r}")
    return json.loads(json.dumps(_DEFAULTS[scenario]))


def _fits(value, default) -> bool:
    """Whether value has the type of default; an int may stand for a float."""
    if isinstance(value, bool):
        return isinstance(default, bool)
    if isinstance(default, float):
        return isinstance(value, numbers.Real)
    if isinstance(default, int):
        return isinstance(value, numbers.Integral)
    if isinstance(default, list):
        return isinstance(value, list) and all(
            _fits(v, default[0]) for v in value)
    return isinstance(value, type(default))


def _config_function(cfg):
    """The scalar function a funcalc-defect config names, with its sigma."""
    return named_function(cfg["function"], {"sigma": cfg["sigma"]})


def _validate_config(scenario: str, config: dict) -> dict:
    base = default_config(scenario)
    if not isinstance(config, dict):
        raise ValueError(f"config for {scenario} must be a JSON object")
    unknown = sorted(set(config) - set(base))
    if unknown:
        raise ValueError(
            f"unknown config keys for {scenario}: {', '.join(unknown)}"
        )
    for key, value in sorted(config.items()):
        if value == []:  # every list default is non-empty
            raise ValueError(f"config key {key!r} for {scenario} is empty")
        if not _fits(value, base[key]):
            raise ValueError(
                f"config key {key!r} for {scenario} must be like "
                f"{base[key]!r}, got {value!r}"
            )
    base.update(config)
    # bad names and grid values fail here, before run() writes anything
    pairs = base.get("pairs", [])
    if any(len(pair) != 2 for pair in pairs):
        raise ValueError(f"config for {scenario}: pairs must be name pairs")
    names = base.get("families", []) + sum(pairs, [])
    if "family" in base:
        names.append(base["family"])
    for name in names:
        if name not in NAMED_SYMBOLS:
            raise ValueError(
                f"config for {scenario}: unknown symbol family {name!r}")
    function = base.get("function")
    if function is not None and function not in NAMED_FUNCTIONS:
        raise ValueError(f"config for {scenario}: unknown function {function!r}")
    if function is not None:
        # built with the run's own parameters, so a bad scale fails here
        try:
            f = _config_function(base)
        except ValueError as exc:
            raise ValueError(f"config for {scenario}: {exc}") from None
        if f.fhat is None:
            raise ValueError(f"config for {scenario}: function {function!r} "
                             "has no closed-form Fourier transform")
    if "L" in base:
        for N in base.get("N_ladder", [base.get("N")]):
            try:
                GridSpec(1, N, base["L"])
            except ValueError as exc:
                raise ValueError(f"config for {scenario}: {exc}") from None
    return base


def _check(name, value, budget, ok=None) -> dict:
    if ok is None:
        ok = bool(value <= budget)
    return {"name": name, "value": value, "budget": budget,
            "passed": bool(ok)}


# ---------------------------------------------------------------------------
# scenarios


def _run_symbol_check(cfg):
    g = GridSpec(1, cfg["N"], cfg["L"])
    checks, rows = [], []
    for fam in cfg["families"]:
        fiber = 2 if fam.startswith("dirac") else 1
        gf = GridSpec(1, cfg["N"], cfg["L"], fiber)
        p = named_symbol(gf, fam)
        consts = estimate_constants(p, cfg["alpha_max"], cfg["beta_max"])
        for (a, b), c in sorted(consts.items()):
            rows.append((fam, a[0], b[0], c))
        checks.append(_check(f"{fam}: constants finite",
                             max(consts.values()), np.inf,
                             ok=np.isfinite(max(consts.values()))))
    one = symbol_from_callable(
        g, 0, lambda x, xi: 1.0 + 0.0 * xi[..., 0], hermitian_valued=True,
        x_independent=True)
    ident = quantize(one)
    checks.append(_check("quantize(1) = identity",
                         float(np.abs(ident.matrix - np.eye(g.state_dim)).max()),
                         1e-12))
    header = ("family", "alpha", "beta", "constant")
    return checks, {"constants.csv": (header, rows)}


def _run_compose_check(cfg):
    checks, rows = [], []
    for N in cfg["N_ladder"]:
        g = GridSpec(1, int(N), cfg["L"])
        for pname, qname in cfg["pairs"]:
            p = named_symbol(g, pname)
            q = named_symbol(g, qname)
            P, Q = quantize(p), quantize(q)
            PQ = compose(P, Q)
            for J in cfg["J_list"]:
                r = compose_symbols(p, q, int(J))
                R = quantize(r)
                diff = DiscreteOperator(g, PQ.order, PQ.matrix - R.matrix,
                                        provenance="composed")
                for s in cfg["s_list"]:
                    t = s - p.order - q.order + J + 1
                    norm = op_norm(diff, float(s), float(t))
                    rows.append((pname, qname, int(N), int(J), float(s),
                                 norm))
                    checks.append(_check(
                        f"{pname}*{qname} J={J} s={s} N={N} finite",
                        norm, np.inf, ok=np.isfinite(norm)))
    header = ("p", "q", "N", "J", "s", "norm")
    return checks, {"remainders.csv": (header, rows)}


def _run_parametrix(cfg):
    g = GridSpec(1, cfg["N"], cfg["L"])
    p = named_symbol(g, cfg["family"])
    P = quantize(p)
    checks, rows = [], []
    for J in cfg["J_list"]:
        res = build_parametrix(P, p, int(J),
                               excision_width=cfg["excision_width"])
        for (tag, k, l), norm in sorted(res.residual_norms.items()):
            rows.append((tag, float(k), float(l), norm, int(J),
                         cfg["N"], cfg["L"]))
        for l in cfg["l_list"]:
            key = (0.0, float(l))
            if key in res.off_band_norms:
                checks.append(_check(
                    f"off-band S1 (0,{l}) finite at J={J}",
                    res.off_band_norms[key], np.inf,
                    ok=np.isfinite(res.off_band_norms[key])))
        checks.append(_check(f"J={J} converged", int(res.diverged), 0))
    header = ("term", "k", "l", "norm", "J", "N", "L")
    return checks, {"residuals.csv": (header, rows)}


def _run_elliptic_estimate(cfg):
    checks, doc = [], {}
    for fam in cfg["families"]:
        g = GridSpec(1, cfg["N"], cfg["L"])
        p = named_symbol(g, fam)
        P = quantize(p)
        c = elliptic_estimate_constant(P, cfg["s"], probes=cfg["probes"],
                                       seed=cfg["seed"])
        doc[fam] = c
        checks.append(_check(f"{fam}: estimate constant finite", c, np.inf,
                             ok=np.isfinite(c)))
    return checks, {"constants.json": doc}


def _run_waveprop(cfg):
    g = GridSpec(1, cfg["N"], cfg["L"])
    P = fourier_multiplier(g, lambda xi: xi[..., 0], order=1,
                           propagation_speed=1.0)
    t_list = [k * g.spacing for k in cfg["t_spacings"]]
    rep = wave_quasilocality_scan(P, 1, t_list, cfg["R_list"], cfg["l"],
                                  probes=cfg["probes"], seed=cfg["seed"])
    checks = []
    beyond = [row for row in rep.propagation_exact]
    checks.append(_check("rows beyond |t| + cutoff recorded",
                         len(beyond), np.inf, ok=len(beyond) > 0))
    checks.append(_check("exact zeros beyond propagation cone",
                         sum(0 if row[2] else 1 for row in beyond), 0))
    return checks, {"scan.csv": (_SCAN_HEADER, rep.entries)}


def _run_funcalc_defect(cfg):
    g = GridSpec(1, cfg["N"], cfg["L"])
    P = quantize(named_symbol(g, cfg["family"]))
    sd = spectral_data(P)
    f = _config_function(cfg)
    doc = {"spectral_radius": sd.spectral_radius, "fourier": [],
           "resolvent": []}
    checks = [_check("spectral radius", sd.spectral_radius, 20.0)]
    prev = None
    for nq in cfg["n_quad"]:
        res = fourier_apply(P, f, t_max=cfg["t_max"], n_quad=int(nq),
                            spectral=sd)
        doc["fourier"].append({"n_quad": int(nq), "defect": res.defect})
        if prev is not None:
            # doubling the grid must help unless already at roundoff
            checks.append(_check("wave-route defect decreases",
                                 res.defect, max(prev, 1e-12)))
        prev = res.defect
    checks.append(_check("wave-route final defect", prev, 1e-5))
    prev = None
    for nq in cfg["resolvent_quad"]:
        res = chi_resolvent_integral(P, n_quad=int(nq), spectral=sd)
        doc["resolvent"].append({"n_quad": int(nq), "defect": res.defect})
        if prev is not None:
            checks.append(_check("resolvent-route defect decreases",
                                 res.defect, max(prev, 1e-12)))
        prev = res.defect
    checks.append(_check("resolvent-route final defect", prev, 1e-5))
    return checks, {"defects.json": doc}


def _run_quasiloc_scan(cfg):
    g = GridSpec(1, cfg["N"], cfg["L"])
    T = quantize(named_symbol(g, cfg["family"]))
    region = ball_region(g, np.zeros(1), cfg["center_radius"])
    est = dominating_function(T, cfg["r"], cfg["s"], cfg["R_list"], [region],
                              probes=cfg["probes"], seed=cfg["seed"])
    rows = [
        (0.0, R, cfg["s"], mu, estimator, cfg["probes"], cfg["seed"])
        for R, mu, estimator in zip(est.R_list, est.mu_hat, est.estimator)
    ]
    checks = [_check("mu_hat isotonic defect", est.isotonic_defect(), 0.10)]
    return checks, {"scan.csv": (_SCAN_HEADER, rows)}


def _run_fredholm_check(cfg):
    g = GridSpec(1, cfg["N"], cfg["L"], fiber_dim=2)
    fam = [lipschitz_bump(g, np.array([c]), cfg["bump_R"], cfg["bump_L"])
           for c in cfg["centers"]]
    chi = named_function("chi_rational")
    P = quantize(named_symbol(g, "dirac"))
    mod = assemble_module(P, chi, make_multigrading(1), {"bumps": fam},
                          eps_list=tuple(cfg["eps_list"]))
    Pm = quantize(named_symbol(g, "dirac_mass", {"m": cfg["mass"]}))
    gapped = assemble_module(Pm, np.sign, make_multigrading(0),
                             {"bumps": fam},
                             eps_list=tuple(cfg["eps_list"]),
                             check_square_exact=True)
    rep, grep = mod.verification, gapped.verification
    checks = [
        _check("T self-adjoint", rep.adjoint_defect, 1e-10),
        _check("grading identities", rep.grading_identity_defect, 1e-12),
        _check("T odd", rep.odd_defect, 1e-10),
        _check("T multigraded", rep.multigraded_defect, 1e-10),
        _check("gapped: T^2 - 1 = 0 exactly", grep.square_defect, 0.0),
    ]
    doc = {
        "adjoint_defect": rep.adjoint_defect,
        "odd_defect": rep.odd_defect,
        "multigraded_defect": rep.multigraded_defect,
        "grading_identity_defect": rep.grading_identity_defect,
        "gapped_square_defect": grep.square_defect,
        "profiles": {
            f"{label}/{kind}": prof.ranks
            for (label, kind), prof in rep.profiles.items()
        },
    }
    return checks, {"module.json": doc}


def _run_homotopy_scan(cfg):
    g = GridSpec(1, cfg["N"], cfg["L"])
    f = lipschitz_bump(g, np.zeros(1), cfg["bump_R"], cfg["bump_L"])
    chi = named_function("chi_rational")
    P = fourier_multiplier(g, lambda xi: xi[..., 0], order=1)
    pert = multiplication_operator(
        g, cfg["perturbation"] * np.cos(g.points[:, 0]))
    Pp = DiscreteOperator(g, 1, P.matrix + pert.matrix,
                          provenance="composed", self_adjoint=True)
    tr = homotopy_scan(P, Pp, chi, cfg["t_steps"], [f])
    checks = []
    for fam, gamma in sorted(tr.gamma.items()):
        checks.append(_check(f"continuity exponent {fam} > 0", -gamma, 0.0,
                             ok=gamma > 0))
    bad = sum(1 for (_, _, lhs, rhs) in tr.lipschitz if lhs > 1.05 * rhs)
    checks.append(_check("order-1 Lipschitz bound rows", bad, 0))
    doc = {
        "gamma": tr.gamma, "principal_defect": tr.principal_defect,
        "c_chi": tr.c_chi,
        "max_jumps": {f"{fam}/{steps}": v
                      for (fam, steps), v in sorted(tr.max_jumps.items())},
        "lipschitz": tr.lipschitz,
    }
    return checks, {"trace.json": doc}


def _sub_scenarios():
    """The scenarios full-suite runs, each in its own sub-directory."""
    return [s for s in sorted(_DEFAULTS) if s != "full-suite"]


def _run_full_suite(cfg):
    checks, artifacts = [], {}
    for scenario in _sub_scenarios():
        sub_cfg = default_config(scenario)
        if "seed" in sub_cfg:
            sub_cfg["seed"] = cfg["seed"]
        sub_checks, files = SCENARIOS[scenario](sub_cfg)
        files["summary.json"] = _summary(scenario, sub_cfg, sub_checks)
        # one rollup row per scenario; its checks stay in its own summary
        checks.append(_check(f"{scenario} all rows pass",
                             sum(0 if c["passed"] else 1
                                 for c in sub_checks), 0,
                             ok=files["summary.json"]["passed"]))
        artifacts.update((f"{scenario}/{name}", payload)
                         for name, payload in files.items())
    return checks, artifacts


SCENARIOS = {
    "symbol-check": _run_symbol_check,
    "compose-check": _run_compose_check,
    "parametrix": _run_parametrix,
    "elliptic-estimate": _run_elliptic_estimate,
    "waveprop": _run_waveprop,
    "funcalc-defect": _run_funcalc_defect,
    "quasiloc-scan": _run_quasiloc_scan,
    "fredholm-check": _run_fredholm_check,
    "homotopy-scan": _run_homotopy_scan,
    "full-suite": _run_full_suite,
}


# ---------------------------------------------------------------------------
# harness


def _summary(scenario, cfg, checks) -> dict:
    """The summary document; a run with no check is not a pass."""
    return {"scenario": scenario, "config": cfg, "checks": checks,
            "passed": bool(checks) and all(c["passed"] for c in checks)}


def _write_artifacts(out, artifacts) -> None:
    """Write each artifact under out: CSV from (header, rows), else JSON."""
    for name, payload in artifacts.items():
        path = os.path.join(out, name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        if name.endswith(".csv"):
            write_csv(path, *payload)
        else:
            with open(path, "wb") as fh:
                fh.write(json_bytes(payload))


def _remove_previous_results(out):
    """Delete the summary and manifest files an earlier run left in ``out``.

    Only those named files are touched: in ``out`` itself and in the
    per-scenario sub-directories full-suite writes.  A run that then
    crashes leaves no summary behind that --summary could read as a pass.
    """
    for sub in ["", *_sub_scenarios()]:
        for name in ("summary.json", "manifest.json"):
            try:
                os.remove(os.path.join(out, sub, name))
            except FileNotFoundError:
                pass


def run(scenario: str, config: dict | None = None, out: str = ".",
        seed: int | None = None) -> int:
    """Run one scenario; returns 0 iff every recorded check passed.

    ``seed`` overrides the config's seed; a scenario without one (it draws
    nothing at random) rejects it.
    """
    if scenario not in SCENARIOS:
        raise KeyError(f"unknown scenario {scenario!r}")
    cfg = _validate_config(scenario, config or {})
    if seed is not None:
        if "seed" not in cfg:
            raise ValueError(f"scenario {scenario} takes no seed")
        cfg["seed"] = int(seed)
    _remove_previous_results(out)
    # the scenario computes everything before the first file is written,
    # so a run that raises leaves no new file behind
    checks, artifacts = SCENARIOS[scenario](cfg)
    artifacts["summary.json"] = _summary(scenario, cfg, checks)
    artifacts["manifest.json"] = {
        "scenario": scenario,
        "config_hash": hashlib.sha256(
            json_bytes({"scenario": scenario, "config": cfg})).hexdigest(),
        "seed": cfg.get("seed"),
        "versions": {
            "torusop": __version__,
            "numpy": np.__version__,
        },
        "artifacts": sorted(artifacts),
        "timestamp": datetime.datetime.now(
            datetime.timezone.utc).isoformat(),
    }
    _write_artifacts(out, artifacts)
    return 0 if artifacts["summary.json"]["passed"] else 1


def _read_summaries(artifact_dir: str) -> list:
    """(directory, parsed summary.json) for every summary under a directory."""
    summaries = []
    for root, _dirs, files in os.walk(artifact_dir):
        if "summary.json" in files:
            with open(os.path.join(root, "summary.json")) as fh:
                summaries.append((root, json.load(fh)))
    if not summaries:
        raise FileNotFoundError(f"no summaries under {artifact_dir}")
    return sorted(summaries)


def _tally(summaries: list) -> tuple:
    """Exit code and pass/fail lines of parsed summaries."""
    lines, failures = [], []
    total = passed = 0
    for root, doc in summaries:
        for c in doc["checks"]:
            total += 1
            passed += bool(c["passed"])
            if not c["passed"]:
                failures.append(f"{root}: {c['name']} "
                                f"(value {c['value']!r})")
    lines.append(f"{passed}/{total} pass")
    lines.extend(failures)
    return (0 if 0 < passed == total else 1), lines


def report(artifact_dir: str) -> tuple:
    """Aggregate pass/fail over the summaries found under a directory."""
    return _tally(_read_summaries(artifact_dir))


def _tightest_margins(summaries: list) -> list:
    """The _MARGIN_ROWS checks of parsed summaries with the largest value/budget.

    Checks whose value or budget is a string (a non-finite float in strict
    JSON) or whose budget is not positive have no margin and are skipped.
    """
    rows = []
    for root, doc in summaries:
        for c in doc["checks"]:
            value, budget = c["value"], c["budget"]
            if isinstance(value, str) or isinstance(budget, str):
                continue
            if 0 < budget < math.inf:
                rows.append((value / budget, root, c["name"]))
    rows.sort(key=lambda row: -row[0])
    return [f"margin {m:.3g} {root}: {name}"
            for m, root, name in rows[:_MARGIN_ROWS]]


def _print_summary(artifact_dir: str) -> int:
    summaries = _read_summaries(artifact_dir)
    code, lines = _tally(summaries)
    try:
        print("\n".join(lines + _tightest_margins(summaries)), flush=True)
    except BrokenPipeError:  # the reader closed early; quiet the exit flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def _read_config(path: str):
    """The JSON document in a --config file; a malformed one names the file."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ValueError(f"config file {path}: {exc}") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="torusop",
        description="Torus operator-calculus experiment harness.",
    )
    parser.add_argument("--scenario", required=False,
                        choices=sorted(SCENARIOS))
    parser.add_argument("--config", default=None,
                        help="JSON config file; unknown keys are errors")
    parser.add_argument("--out", default=".")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--summary", action="store_true",
                        help="print a pass/fail table and the 5 tightest "
                        "margins (value/budget) for --out and exit")
    args = parser.parse_args(argv)

    if args.summary and args.scenario is None:
        try:
            return _print_summary(args.out)
        except FileNotFoundError as exc:
            print(str(exc), file=sys.stderr)
            return 2

    if args.scenario is None:
        parser.error("--scenario is required unless --summary is given")
    try:
        config = _read_config(args.config) if args.config else {}
        code = run(args.scenario, config, out=args.out, seed=args.seed)
    except (KeyError, ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.summary:
        _print_summary(args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
