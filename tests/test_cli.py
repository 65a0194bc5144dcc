import json
import math
import os
import subprocess
import sys

import pytest

import torusop
from torusop import cli
from torusop.cli import default_config, main, report, run


def _tree_bytes(root):
    out = {}
    for base, _dirs, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def test_run_symbol_check_passes(tmp_path):
    out = tmp_path / "run"
    assert run("symbol-check", out=str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"]
    assert summary["scenario"] == "symbol-check"
    manifest = json.loads((out / "manifest.json").read_text())
    assert "constants.csv" in manifest["artifacts"]
    assert (out / "constants.csv").exists()


def test_unknown_scenario_rejected(tmp_path):
    with pytest.raises(KeyError):
        run("no-such-scenario", out=str(tmp_path))


def test_unknown_config_keys_listed(tmp_path):
    with pytest.raises(ValueError) as err:
        run("symbol-check", {"Nx": 32, "zeta": 1}, out=str(tmp_path))
    # every offending key must be named, not just the first
    assert "Nx" in str(err.value)
    assert "zeta" in str(err.value)


def test_default_config_copies():
    a = default_config("waveprop")
    a["N"] = 1
    assert default_config("waveprop")["N"] != 1
    with pytest.raises(KeyError):
        default_config("bogus")


def test_rerun_is_deterministic_except_timestamp(tmp_path):
    cfg = {"N": 32, "families": ["laplace+1"], "s": 2.0}
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run("elliptic-estimate", dict(cfg), out=str(out1), seed=0)
    run("elliptic-estimate", dict(cfg), out=str(out2), seed=0)
    t1, t2 = _tree_bytes(out1), _tree_bytes(out2)
    assert set(t1) == set(t2)
    for name in t1:
        if name == "manifest.json":
            m1 = json.loads(t1[name])
            m2 = json.loads(t2[name])
            m1.pop("timestamp")
            m2.pop("timestamp")
            assert m1 == m2
        else:
            assert t1[name] == t2[name], name


def test_report_aggregates_summaries(tmp_path):
    run("symbol-check", {"N": 32}, out=str(tmp_path / "one"))
    run("elliptic-estimate", {"N": 32}, out=str(tmp_path / "two"))
    code, lines = report(str(tmp_path))
    assert code == 0
    counted, total = lines[0].split(" ")[0].split("/")
    assert counted == total
    assert len(lines) == 1


def test_report_empty_directory_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        report(str(tmp_path))


def test_main_run_and_summary(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["--scenario", "symbol-check", "--out", str(out),
                 "--summary"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "pass" in stdout


def test_main_summary_only_mode(tmp_path, capsys):
    assert main(["--summary", "--out", str(tmp_path)]) == 2
    run("symbol-check", {"N": 32}, out=str(tmp_path))
    assert main(["--summary", "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("scenario", [[], ["--scenario", "symbol-check"]])
def test_summary_into_a_closed_pipe_exits_cleanly(tmp_path, scenario):
    # the read end is closed before the child writes, so its write to
    # stdout fails with EPIPE; that is the reader's choice, not a crash
    run("symbol-check", {"N": 32}, out=str(tmp_path))
    src = os.path.dirname(os.path.dirname(torusop.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "torusop.cli", "--summary",
             "--out", str(tmp_path)] + scenario,
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert b"Traceback" not in proc.stderr, proc.stderr.decode()
    assert proc.returncode == 0, proc.stderr.decode()


def test_full_suite_summary_counts_each_check_once(tmp_path, monkeypatch):
    names = [s for s in cli.SCENARIOS if s != "full-suite"]
    assert len(names) == 9

    def stub(fail):
        def scenario(cfg):
            checks = [cli._check("ok row", 0, 0)]
            if fail:
                checks.append(cli._check("broken row", 1, 0))
            return checks, {}
        return scenario

    for name in names:
        monkeypatch.setitem(cli.SCENARIOS, name, stub(name == "parametrix"))
    out = tmp_path / "all"
    assert run("full-suite", out=str(out)) == 1
    code, lines = report(str(out))
    assert code == 1
    # 9 rollup rows on top, then the 10 stub checks of the sub-scenarios
    assert lines[0] == "17/19 pass"
    assert len([line for line in lines if "broken row" in line]) == 1


def test_every_list_default_is_nonempty():
    for scenario in cli.SCENARIOS:
        for key, value in default_config(scenario).items():
            if isinstance(value, list):
                assert value, f"{scenario}: {key}"


def test_a_run_with_no_checks_is_not_a_pass(tmp_path, monkeypatch):
    def passing(cfg):
        return [cli._check("ok row", 0, 0)], {}

    for name in cli.SCENARIOS:
        if name != "full-suite":
            monkeypatch.setitem(cli.SCENARIOS, name, passing)
    monkeypatch.setitem(cli.SCENARIOS, "parametrix", lambda cfg: ([], {}))
    out = tmp_path / "one"
    assert run("parametrix", out=str(out)) == 1
    assert json.loads((out / "summary.json").read_text())["passed"] is False
    assert report(str(out)) == (1, ["0/0 pass"])
    # full-suite's rollup row for the empty scenario fails too
    out = tmp_path / "all"
    assert run("full-suite", out=str(out)) == 1
    code, lines = report(str(out))
    assert code == 1
    assert lines[0] == "16/17 pass"
    assert "parametrix all rows pass" in lines[1]


def test_main_config_file_and_bad_key(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"nonsense": True}))
    code = main(["--scenario", "symbol-check", "--config", str(cfg_path),
                 "--out", str(tmp_path / "run")])
    assert code == 2


@pytest.mark.parametrize("bad", [
    {"N": "64"}, {"N": True}, {"N": 64.0}, {"L": "1.0"}, {"L": False},
    {"families": "laplace+1"}, {"families": ["laplace+1", 3]},
])
def test_config_types_checked_before_any_output(tmp_path, bad):
    out = tmp_path / "run"
    with pytest.raises(ValueError) as err:
        run("symbol-check", bad, out=str(out))
    assert "\n" not in str(err.value)
    assert not out.exists()


@pytest.mark.parametrize("text", ['{"N": 32,', "[1, 2]", None],
                         ids=["malformed", "array", "missing"])
def test_unreadable_config_file_is_a_one_line_error(tmp_path, capsys, text):
    cfg_path = tmp_path / "cfg.json"
    if text is not None:
        cfg_path.write_text(text)
    out = tmp_path / "run"
    code = main(["--scenario", "symbol-check", "--config", str(cfg_path),
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    if text != "[1, 2]":
        assert str(cfg_path) in err[0]
    assert not out.exists()


def test_main_rejects_mistyped_config_with_one_line(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"N": "64"}))
    out = tmp_path / "run"
    code = main(["--scenario", "symbol-check", "--config", str(cfg_path),
                 "--out", str(out)])
    assert code == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("scenario,bad", [
    ("symbol-check", {"N": 15}), ("symbol-check", {"N": 2}),
    ("parametrix", {"L": -1.0}), ("waveprop", {"L": 0}),
    ("symbol-check", {"L": float("nan")}),
    ("symbol-check", {"L": float("inf")}),
    ("compose-check", {"N_ladder": [64, 15]}),
    ("compose-check", {"N_ladder": [64], "L": -2.0}),
    ("parametrix", {"family": "nope"}),
    ("symbol-check", {"families": ["laplace+1", "nope"]}),
    ("compose-check", {"pairs": [["elliptic_x", "nope"]]}),
    ("compose-check", {"pairs": [["elliptic_x"]]}),
    ("funcalc-defect", {"function": "nope"}),
    ("funcalc-defect", {"function": "chi_rational"}),
    ("funcalc-defect", {"function": "identity"}),
    # an empty list would run no check; one quadrature node is no rule
    ("compose-check", {"N_ladder": []}),
    ("parametrix", {"J_list": []}),
    ("quasiloc-scan", {"R_list": []}),
    ("funcalc-defect", {"n_quad": []}),
    ("funcalc-defect", {"n_quad": [1]}),
    # no step, a non-positive eps or an empty region measures nothing
    ("homotopy-scan", {"t_steps": [0]}),
    ("fredholm-check", {"eps_list": [0.0]}),
    ("quasiloc-scan", {"center_radius": -1.0}),
    # a bump of slope L <= 0 is no bump: every check would pass vacuously
    ("fredholm-check", {"bump_L": 0.0}),
    ("fredholm-check", {"bump_L": -2.0}),
    ("homotopy-scan", {"bump_L": 0.0}),
    ("homotopy-scan", {"bump_L": -2.0}),
    # a 2x2 symbol on a scalar grid is a fiber mismatch, named in one line
    ("elliptic-estimate", {"families": ["dirac"]}),
    ("quasiloc-scan", {"family": "dirac_mass"}),
    # a function scale must be finite and > 0; counts and orders >= 0
    ("funcalc-defect", {"sigma": 0.0}),
    ("funcalc-defect", {"sigma": -1.0}),
    ("parametrix", {"J_list": [-1]}),
    ("parametrix", {"J_list": [0, -1]}),
    ("elliptic-estimate", {"probes": -1}),
    ("symbol-check", {"alpha_max": -1}),
    ("symbol-check", {"beta_max": -1}),
    # a gapless operator has no exact square; a window t_max <= 0 no route
    ("fredholm-check", {"mass": 0.0}),
    ("funcalc-defect", {"t_max": 0.0}),
    ("funcalc-defect", {"t_max": -12.0}),
    # only the scenarios that draw at random take a seed
    ("parametrix", {"seed": 0}),
])
def test_bad_grid_values_fail_before_any_output(tmp_path, capsys, scenario,
                                                bad):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(bad))
    out = tmp_path / "run"
    code = main(["--scenario", scenario, "--config", str(cfg_path),
                 "--out", str(out)])
    assert code == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("family", ["schwartz_xi", "schwartz_drift"])
def test_elliptic_estimate_with_tied_top_eigenvalues_reports(tmp_path, capsys,
                                                            family):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"families": [family]}))
    out = tmp_path / "run"
    code = main(["--scenario", "elliptic-estimate", "--config", str(cfg_path),
                 "--out", str(out), "--summary"])
    assert code in (0, 1)
    assert "pass" in capsys.readouterr().out
    assert (out / "summary.json").exists()


def test_bad_grid_values_keep_an_earlier_summary(tmp_path):
    out = tmp_path / "run"
    assert run("symbol-check", {"N": 32}, out=str(out)) == 0
    before = _tree_bytes(out)
    for bad in ({"N": 15}, {"L": -1.0}, {"families": ["nope"]}):
        with pytest.raises(ValueError):
            run("symbol-check", bad, out=str(out))
        assert _tree_bytes(out) == before
    # unknown names in the other scenarios that read them
    for scenario, good, bads in [
        ("parametrix", {"N": 32, "J_list": [0]}, [{"family": "nope"}]),
        ("compose-check", {"N_ladder": [32], "J_list": [0]},
         [{"pairs": [["nope", "momentum"]]}]),
        ("funcalc-defect", {"N": 32},
         [{"function": "nope"}, {"function": "si_normalizing"}]),
    ]:
        out = tmp_path / scenario
        run(scenario, good, out=str(out))
        before = _tree_bytes(out)
        assert "summary.json" in before and "manifest.json" in before
        for bad in bads:
            with pytest.raises(ValueError):
                run(scenario, bad, out=str(out))
            assert _tree_bytes(out) == before


def test_homotopy_scan_with_one_step_size_fits_no_exponent(tmp_path):
    # [4, 4] has one distinct step size: no continuity exponent is fitted
    out = tmp_path / "run"
    assert run("homotopy-scan", {"t_steps": [4, 4]}, out=str(out)) == 1
    trace = json.loads((out / "trace.json").read_text())
    assert trace["gamma"] == dict.fromkeys(
        ("adjoint", "commutator", "locally_compact"), "nan")


def test_int_config_value_accepted_for_float_default(tmp_path):
    assert run("symbol-check", {"N": 32, "L": 1}, out=str(tmp_path)) == 0


@pytest.mark.parametrize("crashing", ["symbol-check", "parametrix"])
def test_crashed_run_leaves_no_old_pass(tmp_path, monkeypatch, crashing):
    # a passing full-suite, then a run into the same directory whose
    # scenario raises: neither the old summaries nor the sub-scenarios
    # finished before the crash may read as a pass
    def passing(cfg):
        return [cli._check("ok row", 0, 0)], {}

    for name in cli.SCENARIOS:
        if name != "full-suite":
            monkeypatch.setitem(cli.SCENARIOS, name, passing)
    out = str(tmp_path / "run")
    assert run("full-suite", out=out) == 0
    assert main(["--summary", "--out", out]) == 0

    def crash(cfg):
        raise RuntimeError("scenario crashed")

    monkeypatch.setitem(cli.SCENARIOS, crashing, crash)
    scenario = "full-suite" if crashing == "parametrix" else crashing
    with pytest.raises(RuntimeError):
        main(["--scenario", scenario, "--out", out])
    assert main(["--summary", "--out", out]) != 0


def test_crashed_full_suite_writes_no_file(tmp_path, monkeypatch):
    # compose-check runs for real and finishes before elliptic-estimate
    # raises: its remainders must not reach the disk either
    def crash(cfg):
        raise RuntimeError("scenario crashed")

    monkeypatch.setitem(cli.SCENARIOS, "elliptic-estimate", crash)
    out = tmp_path / "run"
    with pytest.raises(RuntimeError):
        run("full-suite", out=str(out))
    assert _tree_bytes(out) == {}


def test_quasiloc_scan_with_a_skipped_radius_passes(tmp_path):
    # no exterior is left at R = 100, so that radius is skipped (NaN)
    out = tmp_path / "run"
    cfg = {"R_list": [0.5, 1.0, 2.0, 100.0]}
    assert run("quasiloc-scan", cfg, out=str(out)) == 0

    def no_constant(name):
        raise ValueError(f"summary.json holds {name}")

    summary = json.loads((out / "summary.json").read_text(),
                         parse_constant=no_constant)
    assert summary["passed"]


def test_quasiloc_scan_that_measures_no_radius_fails(tmp_path):
    # every radius is skipped: a scan that measured nothing is no pass
    out = tmp_path / "run"
    assert run("quasiloc-scan", {"R_list": [100.0]}, out=str(out)) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert [c["value"] for c in summary["checks"]] == ["nan"]


SEEDED = ("elliptic-estimate", "waveprop", "quasiloc-scan", "full-suite")


def test_only_scenarios_that_draw_at_random_take_a_seed():
    for scenario in cli.SCENARIOS:
        assert ("seed" in default_config(scenario)) == (scenario in SEEDED)


@pytest.mark.parametrize("scenario", sorted(set(cli.SCENARIOS) - set(SEEDED)))
def test_seed_for_a_seedless_scenario_fails_before_any_output(
        tmp_path, capsys, scenario):
    out = tmp_path / "run"
    with pytest.raises(ValueError, match=f"scenario {scenario} takes no seed"):
        run(scenario, out=str(out), seed=0)
    assert main(["--scenario", scenario, "--out", str(out),
                 "--seed", "3"]) == 2
    assert capsys.readouterr().err.strip() == (
        f"scenario {scenario} takes no seed")
    assert not out.exists()


def test_full_suite_forwards_its_seed_to_the_seeded_scenarios(tmp_path,
                                                              monkeypatch):
    seen = {}

    def recording(name):
        def runner(cfg):
            seen[name] = cfg.get("seed")
            return [cli._check("ok row", 0, 0)], {}
        return runner

    for name in cli.SCENARIOS:
        if name != "full-suite":
            monkeypatch.setitem(cli.SCENARIOS, name, recording(name))
    out = tmp_path / "suite"
    assert run("full-suite", out=str(out), seed=5) == 0
    assert seen == {name: 5 if name in SEEDED else None
                    for name in cli.SCENARIOS if name != "full-suite"}
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 5
    for name in seen:
        summary = json.loads((out / name / "summary.json").read_text())
        assert ("seed" in summary["config"]) == (name in SEEDED)
    # a seedless scenario's manifest records no seed
    monkeypatch.setitem(cli.SCENARIOS, "homotopy-scan",
                        recording("homotopy-scan"))
    assert run("homotopy-scan", out=str(tmp_path / "one")) == 0
    manifest = json.loads((tmp_path / "one" / "manifest.json").read_text())
    assert manifest["seed"] is None


def test_waveprop_skipped_radius_is_not_a_propagation_row(tmp_path):
    # no exterior is left at R = 100, so its mu_hat is NaN: it measured
    # nothing and must not count as a row beyond the propagation cone
    base = default_config("waveprop")["R_list"]
    rows = []
    for name, radii in (("base", base), ("far", base + [100.0])):
        out = tmp_path / name
        assert run("waveprop", {"R_list": radii}, out=str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        rows.append({c["name"]: c["value"] for c in summary["checks"]}
                    ["rows beyond |t| + cutoff recorded"])
    assert rows[0] == rows[1] > 0
    scan = (tmp_path / "far" / "scan.csv").read_text().splitlines()[1:]
    far = [line for line in scan if line.split(",")[1] == "100"]
    assert far and all(line.split(",")[3:5] == ["nan", "skipped"]
                       for line in far)


def test_full_suite_writes_strict_json(tmp_path):
    def no_constant(name):
        raise ValueError(f"non-standard JSON constant {name}")

    out = tmp_path / "suite"
    assert run("full-suite", out=str(out), seed=0) == 0
    tree = _tree_bytes(out)
    names = [name for name in tree if name.endswith(".json")]
    assert len(names) > 10
    for name in names:
        json.loads(tree[name], parse_constant=no_constant)
    # the identically-zero adjoint track has an infinite exponent
    trace = json.loads(tree[os.path.join("homotopy-scan", "trace.json")])
    assert trace["gamma"]["adjoint"] == "inf"


def test_summary_prints_the_five_tightest_margins_on_a_pass(tmp_path, capsys,
                                                            monkeypatch):
    checks = [cli._check(f"ratio {v}", v, 1.0) for v in (0.1, 0.9, 0.3, 0.5)]
    checks += [
        cli._check("quarter of two", 0.5, 2.0),
        cli._check("count", 0, 0),                      # budget 0: no margin
        # written as the strings "inf" and "-inf" in strict JSON
        cli._check("finite", 1e300, math.inf),
        cli._check("exponent", -math.inf, 0.0, ok=True),
        cli._check("negative budget", -3.0, -1.0, ok=True),
        cli._check("tiny", 1e-20, 1e-10),
    ]
    cli._write_artifacts(str(tmp_path), {
        "summary.json": cli._summary("stub", {}, checks)})
    reads = []
    read = cli._read_summaries
    monkeypatch.setattr(cli, "_read_summaries",
                        lambda d: reads.append(d) or read(d))
    assert main(["--summary", "--out", str(tmp_path)]) == 0
    assert reads == [str(tmp_path)]  # one walk for both tables
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"{len(checks)}/{len(checks)} pass"
    assert lines[1:] == [f"margin {m} {tmp_path}: {name}" for m, name in (
        ("0.9", "ratio 0.9"), ("0.5", "ratio 0.5"), ("0.3", "ratio 0.3"),
        ("0.25", "quarter of two"), ("0.1", "ratio 0.1"))]
