import json
import math
import os
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import g2cone
from g2cone.shoot import SERIES_MAX_OFFSET
from g2cone.cli import (CSV_HEADER, MAX_CONV_TOL, MAX_MU_POINTS, MAX_SAMPLES, MAX_T_MAX,
                        MAX_TOL, MAX_U_MAX, SWEEP_HEADER, ConfigError, main, mu_values,
                        parse_args, validate)
from helpers import with_termination


def run(args):
    return main(list(args))


def load(path):
    return json.loads(path.read_text())


def _env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(g2cone.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


# -- verify-torsion -----------------------------------------------------------


def test_verify_torsion_passes(tmp_path):
    assert run(["verify-torsion", "--samples", "60", "--out", str(tmp_path)]) == 0
    rep = load(tmp_path / "verify_torsion.json")
    assert rep["schema"] == 1
    assert rep["pass"] is True
    assert rep["max_relative_mismatch"] <= 1e-9
    assert rep["max_residual_at_analytic_derivs"] <= 1e-10


def test_verify_torsion_negative_control(tmp_path):
    assert run(["verify-torsion", "--samples", "10", "--debug-flip-psi",
                "--out", str(tmp_path)]) == 1
    rep = load(tmp_path / "verify_torsion.json")
    assert rep["pass"] is False
    assert rep["debug_flip_psi"] is True


def test_verify_torsion_counts_solve_failures(tmp_path, monkeypatch):
    ext = g2cone.exterior
    solve = ext.solve_torsion_free_derivs

    def every_fourth_fails(states, psi=None):
        out = solve(states, psi)
        out[3::4] = np.nan  # a failing state of a batch is a NaN row
        return out

    monkeypatch.setattr(ext, "solve_torsion_free_derivs", every_fourth_fails)
    assert run(["verify-torsion", "--samples", "12", "--out", str(tmp_path)]) == 1
    rep = load(tmp_path / "verify_torsion.json")
    assert (rep["failing_samples"], rep["solve_failures"]) == (3, 3)
    assert rep["max_relative_mismatch"] is None


@pytest.mark.parametrize("flip", [[], ["--debug-flip-psi"]])
def test_verify_torsion_is_one_batch(tmp_path, monkeypatch, flip):
    """One run makes one solve and one residual call, over all states at
    once; the states are random.Random(seed)'s draws, four per sample in
    sample order, bit for bit."""
    ext = g2cone.exterior
    calls = []
    for name in ("solve_torsion_free_derivs", "torsion_residual"):
        def counted(states, *rest, _name=name, _fn=getattr(ext, name)):
            calls.append((_name, states))
            return _fn(states, *rest)
        monkeypatch.setattr(ext, name, counted)
    run(["verify-torsion", "--samples", "30", "--seed", "5", "--out", str(tmp_path), *flip])
    assert sorted(name for name, _ in calls) == ["solve_torsion_free_derivs", "torsion_residual"]
    rng = random.Random(5)
    per_sample = np.array([[rng.uniform(0.2, 5.0) for _ in range(4)] for _ in range(30)])
    for _, states in calls:
        assert np.array_equal(states, per_sample)


@pytest.mark.parametrize("rel_peak, res_peak, unsolved, expected", [
    (30, 10, [], 30), (10, 30, [], 30), (35, 20, [5, 35], 20)])
def test_verify_torsion_worst_state_is_the_last_new_maximum(tmp_path, monkeypatch, rel_peak,
                                                            res_peak, unsolved, expected):
    """worst_state is the last sample that raised the running maximum of the
    mismatch or of the residual, as a loop over the samples finds it; a
    repeated maximum (two unsolved states) raises it only the first time."""
    ext, flow = g2cone.exterior, g2cone.flow
    rng = np.random.default_rng(3)
    offsets, residuals = rng.uniform(0.0, 1e-12, size=40), rng.uniform(0.0, 1e-13, size=40)
    offsets[rel_peak], residuals[res_peak] = 5e-10, 5e-11
    seen = {}

    def solve(states, psi=None):
        seen["states"] = states
        v = flow.velocity(states)
        out = v + offsets[:, None] * np.maximum(1.0, np.abs(v))
        out[unsolved] = np.nan
        return out

    monkeypatch.setattr(ext, "solve_torsion_free_derivs", solve)
    monkeypatch.setattr(ext, "torsion_residual", lambda states, derivs, psi=None:
                        (residuals, 0.5 * residuals))
    assert run(["verify-torsion", "--samples", "40", "--out", str(tmp_path)]) == int(
        bool(unsolved))
    states = seen["states"]
    v = flow.velocity(states)
    rel = np.max(np.abs(solve(states) - v) / np.maximum(1.0, np.abs(v)), axis=1)
    rel[unsolved] = np.inf
    worst, top_rel, top_res = None, 0.0, 0.0
    for i, (r, q) in enumerate(zip(rel, residuals)):
        if r > top_rel or q > top_res:
            worst = i
        top_rel, top_res = max(top_rel, r), max(top_res, q)
    assert worst == expected
    rep = load(tmp_path / "verify_torsion.json")
    assert rep["worst_state"] == states[worst].tolist()
    assert rep["max_residual_at_analytic_derivs"] == top_res
    assert rep["max_relative_mismatch"] == (None if unsolved else top_rel)


def test_invalid_common_options(tmp_path):
    # a rejected configuration exits 2 and still writes <command>.json
    for i, argv in enumerate((["verify-torsion", "--samples", "0"],
                              ["verify-torsion", "--seed", "-1"],
                              ["shoot", "--mu", "0.3", "--format", "bogus"],
                              ["shoot", "--mu", "0.5", "--stride", "0"],
                              ["shoot", "--mu", "1.5"],
                              ["shoot"],  # no mu
                              ["shoot", "--mu", "0.5", "--order", "11"],
                              ["shoot", "--mu", "0.3", "--t-max", "nan"],
                              ["shoot", "--mu", "0.3", "--t-max", "inf"],
                              ["shoot", "--mu", "0.3", "--t-max", "1e-300"],  # below launch
                              ["shoot", "--mu", "0.3", "--u-max", "nan"],
                              ["shoot", "--mu", "0.3", "--tol", "nan"],
                              ["shoot", "--mu", "1e-9", "--tol", "1e300"],  # past MAX_TOL
                              ["shoot", "--mu", "0.3", "--conv-tol", "nan"],
                              ["shoot", "--mu", "0.9", "--conv-tol", "10"],  # vacuous
                              ["sweep", "--conv-tol", "2"],
                              ["stationary", "--mu", "0.99"],  # stencil leaves the chart
                              ["sweep", "--mu-range", "nonsense"])):
        out = tmp_path / str(i)
        assert run(argv + ["--out", str(out)]) == 2, argv
        rep = load(out / (argv[0].replace("-", "_") + ".json"))
        assert rep["command"] == argv[0], argv
        assert rep["pass"] is False, argv
        assert isinstance(rep["error"], str) and rep["error"], argv


def test_input_bounds():
    validate(parse_args(["verify-torsion", "--samples", str(MAX_SAMPLES)]))
    with pytest.raises(ConfigError):
        validate(parse_args(["verify-torsion", "--samples", str(MAX_SAMPLES + 1)]))
    # the shape run starts at the series launch offset, at most SERIES_MAX_OFFSET
    validate(parse_args(["shoot", "--t-max", str(float(np.nextafter(SERIES_MAX_OFFSET, 1.0)))]))
    with pytest.raises(ConfigError):
        validate(parse_args(["shoot", "--t-max", str(SERIES_MAX_OFFSET)]))
    for option, bound in (("--t-max", MAX_T_MAX), ("--u-max", MAX_U_MAX)):
        validate(parse_args(["shoot", option, str(bound)]))
        with pytest.raises(ConfigError):
            validate(parse_args(["shoot", option, str(float(np.nextafter(bound, np.inf)))]))
    validate(parse_args(["shoot", "--conv-tol", str(MAX_CONV_TOL)]))
    with pytest.raises(ConfigError):
        validate(parse_args(["shoot", "--conv-tol", str(float(np.nextafter(MAX_CONV_TOL, 1.0)))]))
    validate(parse_args(["shoot", "--tol", str(MAX_TOL)]))
    with pytest.raises(ConfigError):
        validate(parse_args(["shoot", "--tol", str(float(np.nextafter(MAX_TOL, 1.0)))]))
    grid = mu_values(parse_args(["sweep", "--mu-range", f"0.1:0.9:{MAX_MU_POINTS}"]), [])
    assert len(grid) == MAX_MU_POINTS
    for n in (0, MAX_MU_POINTS + 1):
        with pytest.raises(ConfigError):
            mu_values(parse_args(["sweep", "--mu-range", f"0.1:0.9:{n}"]), [])


_RUN = ("--t-max", "--u-max", "--tol", "--conv-tol", "--order", "--stride", "--format")
# the options each command takes besides --out: those its code reads
_TAKES = {
    "verify-torsion": ("--samples", "--seed", "--debug-flip-psi"),
    "oracle": (),
    "shoot": ("--mu", *_RUN),
    "stationary": ("--mu", "--mu-range"),
    "sweep": ("--mu", "--mu-range", *_RUN),
}


def test_each_command_takes_only_the_options_it_reads(tmp_path, capsys):
    """27 (command, option) pairs: --help lists a command's own options and
    --out, an accepted report echoes all of them but --out, and an option of
    another command is a usage error (exit 2) that writes no report."""
    assert sum(len(flags) + 1 for flags in _TAKES.values()) == 27
    cheap = {"verify-torsion": ["--samples", "5"], "shoot": ["--mu", "0.3", "--format", "json"],
             "sweep": ["--mu", "0.3", "--format", "json"]}
    for command, flags in _TAKES.items():
        dests = {flag[2:].replace("-", "_") for flag in flags}
        assert set(vars(parse_args([command]))) == dests | {"command", "out"}
        with pytest.raises(SystemExit) as exc:
            parse_args([command, "--help"])
        assert exc.value.code == 0, command
        listed = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        assert listed == {*flags, "--out"}, command
        out = tmp_path / command
        assert run([command, *cheap.get(command, []), "--out", str(out)]) == 0, command
        (report,) = out.glob("*.json")
        assert set(load(report)["config"]) == dests, command
    for argv in (["oracle", "--order", "9"], ["verify-torsion", "--format", "json"]):
        out = tmp_path / "rejected"
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--out", str(out)])
        assert exc.value.code == 2 and not out.exists(), argv


def test_option_forms_give_one_namespace():
    """--name value and --name=value parse alike, the last of a repeated option
    wins, and the namespace keeps the command's option order."""
    spaced = parse_args(["sweep", "--mu-range", "0.1:0.2:2", "--tol", "1e-9", "--order", "5",
                         "--tol", "1e-8", "--format", "json", "--out", "x"])
    joined = parse_args(["sweep", "--mu-range=0.1:0.2:2", "--tol=1e-9", "--order=5",
                         "--tol=1e-8", "--format=json", "--out=x"])
    assert vars(spaced) == vars(joined)
    assert list(vars(spaced).items()) == [
        ("command", "sweep"), ("mu", None), ("mu_range", "0.1:0.2:2"), ("t_max", 200.0),
        ("u_max", 60.0), ("tol", 1e-8), ("conv_tol", 1e-6), ("order", 5), ("stride", 1),
        ("format", "json"), ("out", "x")]
    flipped = parse_args(["verify-torsion", "--debug-flip-psi", "--seed", "3"])
    assert (flipped.debug_flip_psi, flipped.seed, flipped.samples) == (True, 3, 200)


def test_a_value_is_taken_as_written(tmp_path):
    """A value that starts with - is still the option's value: --mu -0.5 and
    --format -x reach validation, which rejects them with exit 2 and a report."""
    for i, argv in enumerate((["shoot", "--mu", "-0.5"],
                              ["shoot", "--mu", "0.3", "--format", "-x"])):
        out = tmp_path / str(i)
        assert run(argv + ["--out", str(out)]) == 2, argv
        rep = load(out / "shoot.json")
        assert rep["pass"] is False and rep["error"], argv


@pytest.mark.parametrize("argv", [
    ["verify-torsion", "--samp", "5"],  # names are exact: no abbreviation
    ["oracle", "--order", "9"],  # an option of another command
    ["shoot", "--out", "OUT", "--mu"],  # a missing value
    ["verify-torsion", "--samples", "abc"],  # not an int
    ["verify-torsion", "--debug-flip-psi=1"],  # a flag takes no value
    ["verify-torsion", "5"],  # a bare token
    [],  # no command
    ["bogus", "--out", "OUT"],  # an unknown command
    ["--out", "OUT"],
])
def test_usage_errors_exit_2_without_a_report(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)  # the default --out would land here
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: g2cone "), captured.err
    assert "error: " in captured.err
    assert list(tmp_path.iterdir()) == []


def test_help_lists_the_commands(capsys):
    for flag in ("--help", "-h"):
        with pytest.raises(SystemExit) as exc:
            run([flag])
        assert exc.value.code == 0
        listed = capsys.readouterr().out
        assert re.findall(r"^  ([a-z-]+)  +\S", listed, re.M) == list(_TAKES)


def test_unusable_out_directory(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    assert run(["oracle", "--out", str(blocker)]) == 2
    assert str(blocker) in capsys.readouterr().err
    assert blocker.read_text() == "not a directory\n"


# -- oracle ----------------------------------------------------------------------


def test_oracle_report(tmp_path):
    assert run(["oracle", "--out", str(tmp_path)]) == 0
    rep = load(tmp_path / "oracle.json")
    assert rep["pass"] is True
    assert rep["bgg"]["F_constant"] == -3.375
    assert rep["bgg"]["max_mismatch"] <= 1e-7
    assert rep["bs"]["F_constant"] == pytest.approx(-1.0 / (3 * math.sqrt(3.0)))
    assert "bs_asymptotics" in rep
    slopes = rep["bs_asymptotics"]["slopes"]
    assert slopes[0] == pytest.approx(1.0 / 3.0, abs=1e-3)
    assert slopes[2] == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-3)


# -- shoot ------------------------------------------------------------------------


def test_shoot_family_member(tmp_path):
    assert run(["shoot", "--mu", "0.5", "--out", str(tmp_path),
                "--format", "csv,json,svg"]) == 0
    rep = load(tmp_path / "shoot_mu0.5.json")
    assert rep["pass"] is True
    assert rep["converged"] is True
    assert rep["dist_to_target_end"] <= 1e-6
    assert rep["positivity_ok"] is True
    assert rep["u_converged"] < 60.0
    assert rep["F_initial"] == pytest.approx(0.375, abs=1e-10)
    assert any("A1" in note for note in rep["notes"])

    csv_lines = (tmp_path / "shoot_mu0.5.csv").read_text().splitlines()
    assert csv_lines[0] == ",".join(CSV_HEADER)
    assert csv_lines[0] == ("t,u,A1,A2,B1,B2,alpha1,alpha2,alpha3,alpha4,"
                            "f,F,F1,F2,F3,F4,F5,G1,G2,beta")
    assert len(csv_lines) > 100
    for name in ("shoot_mu0.5_shapes.svg", "shoot_mu0.5_sphere_a1a3.svg",
                 "shoot_mu0.5_sphere_ya3.svg"):
        text = (tmp_path / name).read_text()
        assert text.startswith("<svg")
        assert "polyline" in text


def test_shoot_alc_block(tmp_path):
    assert run(["shoot", "--mu", "0.3", "--out", str(tmp_path), "--format", "json"]) == 0
    rep = load(tmp_path / "shoot_mu0.3.json")
    slopes = rep["alc"]["slopes"]
    expected = [0.0, 1 / math.sqrt(3), 2 / 3, 1 / math.sqrt(3)]
    assert np.max(np.abs(np.array(slopes) - expected)) <= 2e-2
    assert rep["alc"]["note"]


def test_stride_only_thins_written_rows(tmp_path):
    # the report (convergence, fit, monitors) reads the whole run whatever
    # --stride is; the CSV keeps rows 0, N, 2N, ..., last of the stride-1 CSV,
    # also for a stride past int64, which keeps the first and the last row only
    def shoot(stride):
        out = tmp_path / str(stride)
        assert run(["shoot", "--mu", "0.3", "--stride", str(stride), "--out", str(out)]) == 0
        rep = load(out / "shoot_mu0.3.json")
        del rep["config"]["stride"]
        return rep, (out / "shoot_mu0.3.csv").read_text().splitlines()

    rep, (header, *rows) = shoot(1)
    for n in (4, 16, 100000, 10**20):
        thin_rep, (thin_header, *thin_rows) = shoot(n)
        assert thin_rep == rep, n
        assert thin_header == header
        assert thin_rows == rows[:-1:n] + rows[-1:], n
    assert thin_rows == [rows[0], rows[-1]]


def test_shoot_beyond_family_edge_reports_and_fails(tmp_path):
    # no complete metric beyond the critical parameter: the run reports
    # diagnostics and exits nonzero, with the JSON present
    assert run(["shoot", "--mu", "0.99", "--out", str(tmp_path), "--format", "json"]) == 1
    rep = load(tmp_path / "shoot_mu0.99.json")
    assert rep["pass"] is False
    assert rep["converged"] is False
    assert rep["termination"] in ("step-failure", "positivity-violation")


def test_step_failure_never_passes(tmp_path, monkeypatch):
    # a run ending in step failure fails even when its path counts as converged
    # (as a vacuous --conv-tol once made it)
    monkeypatch.setattr(g2cone.shoot, "detect_convergence", lambda *a: (True, 0.0))
    assert run(["shoot", "--mu", "0.9", "--out", str(tmp_path), "--format", "json"]) == 1
    rep = load(tmp_path / "shoot_mu0.9.json")
    assert (rep["termination"], rep["converged"], rep["pass"]) == ("step-failure", True, False)
    # a sweep member that passes every other gate
    assert run(["sweep", "--mu", "0.3", "--out", str(tmp_path / "ok"), "--format", "json"]) == 0
    family = g2cone.shoot.family_shape_trajectory
    monkeypatch.setattr(g2cone.shoot, "family_shape_trajectory",
                        lambda mu, **kw: with_termination(family(mu, **kw),
                                                          g2cone.shoot.STEP_FAILURE))
    assert run(["sweep", "--mu", "0.3", "--out", str(tmp_path), "--format", "json"]) == 1
    assert load(tmp_path / "sweep.json")["members"][0]["pass"] is False


def test_empty_cells_for_missing_monitors(tmp_path):
    # deep in the convergent tail the cubic denominator and alpha4 - alpha2
    # degenerate: F1 and F2 must come out as empty cells, never inf or nan
    assert run(["shoot", "--mu", "0.5", "--t-max", "3000", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "shoot_mu0.5.csv").read_text()
    lines = text.splitlines()
    header = lines[0].split(",")
    last = lines[-1].split(",")
    assert last[header.index("F1")] == ""  # cubic denominator degenerate
    assert last[header.index("F5")] != ""
    assert last[header.index("F2")] != ""  # F2 tends to a finite limit (ln 2)
    assert "inf" not in text and "nan" not in text


# -- stationary -------------------------------------------------------------------


def test_stationary_report(tmp_path):
    assert run(["stationary", "--out", str(tmp_path)]) == 0
    rep = load(tmp_path / "stationary.json")
    assert rep["pass"] is True
    s1 = rep["stationary"]["S1"]
    expected = sorted([-2 * math.sqrt(2), -7 * math.sqrt(2) / 3 - math.sqrt(290) / 3,
                       -7 * math.sqrt(2) / 3 + math.sqrt(290) / 3])
    assert np.max(np.abs(np.array(s1["eigenvalues_real"]) - expected)) <= 1e-6
    assert s1["orbit_size"] == 16
    charts = rep["chart"]
    assert [c["mu"] for c in charts] == [0.25, 0.5, 0.75]
    for c in charts:
        assert np.allclose(c["eigenvalues"], [-2.0, 0.0, 2.0], atol=1e-7)
        assert c["reference_claim"]["eigenvalues"] == [2.0, -1.0, 0.0]
        assert "discrepancy_note" in c
    sinf = rep["stationary"]["Sinf"]
    assert all(v < 0 for v in sinf["eigenvalues_real"])
    # the chart linearization still fits just below where its stencil leaves the chart
    assert run(["stationary", "--mu", "0.9874", "--out", str(tmp_path / "edge")]) == 0


def _stationary_fails(tmp_path):
    """stationary exits 1 and still writes its full report, with "pass": false."""
    assert run(["stationary", "--mu", "0.5", "--out", str(tmp_path)]) == 1
    rep = load(tmp_path / "stationary.json")
    assert rep["pass"] is False and "error" not in rep
    assert set(rep["stationary"]) >= {"S1", "Sinf"} and [c["mu"] for c in rep["chart"]] == [0.5]
    return rep


def test_stationary_fails_on_s1_eigenvalues(tmp_path, monkeypatch):
    shifted = tuple(v + 1e-10 for v in g2cone.flow.S1_EIGENVALUES)
    monkeypatch.setattr(g2cone.flow, "S1_EIGENVALUES", shifted)
    s1 = _stationary_fails(tmp_path)["stationary"]["S1"]
    assert 1e-11 < s1["eigenvalue_error"] < 1e-9
    assert s1["diagonal_mode_alignment"] >= 1.0 - 1e-6


def test_stationary_fails_on_s1_diagonal_mode(tmp_path, monkeypatch):
    # the same three eigenvalues, but the first names another mode than -2 sqrt(2)
    first, *rest = g2cone.flow.S1_EIGENVALUES
    monkeypatch.setattr(g2cone.flow, "S1_EIGENVALUES", (*rest, first))
    s1 = _stationary_fails(tmp_path)["stationary"]["S1"]
    assert s1["eigenvalue_error"] <= 1e-12
    assert s1["diagonal_mode_alignment"] < 1.0 - 1e-6


def test_stationary_fails_on_chart_eigenvalues(tmp_path, monkeypatch):
    chart_eigendata = g2cone.analysis.chart_eigendata

    def off(mu):
        got, direction = chart_eigendata(mu)
        return got + np.array([0.0, 0.0, 1e-6]), direction

    monkeypatch.setattr(g2cone.analysis, "chart_eigendata", off)
    (chart,) = _stationary_fails(tmp_path)["chart"]
    assert chart["eigenvalue_error"] > 1e-7 and chart["direction_angle"] <= 1e-6


@pytest.mark.parametrize("command", ["sweep", "stationary"])
def test_mu_and_mu_range_are_mutually_exclusive(tmp_path, command):
    assert run([command, "--mu", "0.3", "--mu-range", "0.1:0.2:2", "--out", str(tmp_path)]) == 2
    assert [p.name for p in tmp_path.iterdir()] == [f"{command}.json"]
    rep = load(tmp_path / f"{command}.json")
    assert rep["pass"] is False and "mutually exclusive" in rep["error"]


# -- sweep -------------------------------------------------------------------------


def test_sweep_converging_members(tmp_path):
    assert run(["sweep", "--mu-range", "0.2:0.4:2", "--out", str(tmp_path),
                "--format", "json"]) == 0
    rep = load(tmp_path / "sweep.json")
    assert rep["pass"] is True
    assert rep["witnesses_distinct"] is True
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == ",".join(SWEEP_HEADER)
    assert len(lines) == 3
    for member in rep["members"]:
        mu = member["mu"]
        assert member["F_initial"] == pytest.approx(mu * (1 - mu * mu), abs=1e-10)
        assert member["converged"] is True


def test_sweep_flags_members_beyond_edge(tmp_path):
    assert run(["sweep", "--mu-range", "0.4:0.8:2", "--out", str(tmp_path),
                "--format", "json"]) == 1
    rep = load(tmp_path / "sweep.json")
    assert rep["pass"] is False
    outcomes = {m["mu"]: m["pass"] for m in rep["members"]}
    assert outcomes[0.4] is True
    assert outcomes[0.8] is False


def test_sweep_members_keep_their_own_artifacts(tmp_path):
    # the file names carry mu in full: these two agree to 6 significant digits
    assert run(["sweep", "--mu-range", "0.3:0.3000001:2", "--out", str(tmp_path),
                "--format", "csv,json"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "shoot_mu0.3.csv", "shoot_mu0.3000001.csv", "sweep.csv", "sweep.json"]
    assert run(["shoot", "--mu", "0.3000001", "--out", str(tmp_path), "--format", "json"]) == 0
    assert (tmp_path / "shoot_mu0.3000001.json").exists()


@pytest.mark.parametrize("args, report", [
    (["shoot", "--mu", "0.9999999"], "shoot_mu0.9999999.json"),
    (["sweep", "--mu-range", "0.99999:0.99999:1"], "sweep.json"),
])
def test_exit_code_contract_near_mu_one(tmp_path, args, report):
    """lambda -> 0 as mu -> 1: the run fails cleanly, with its report and no warning."""
    proc = subprocess.run([sys.executable, "-m", "g2cone.cli", *args, "--out", str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode in (0, 1, 2)
    assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr, proc.stderr
    rep = load(tmp_path / report)
    assert (proc.returncode == 0) == rep["pass"]
    assert (proc.returncode == 2) == ("error" in rep)


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "g2cone.cli", "verify-torsion", "--samples", "5",
         "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_console_entry_point_reads_sys_argv(tmp_path):
    """With argv None, main parses sys.argv[1:]: --help exits 0 and lists the
    commands, no argument at all exits 2 with a usage line and no report."""
    def cli(*args):
        return subprocess.run([sys.executable, "-m", "g2cone.cli", *args], cwd=tmp_path,
                              env=_env(), capture_output=True, text=True, timeout=60)

    proc = cli("--help")
    assert proc.returncode == 0, proc.stderr
    assert all(command in proc.stdout for command in _TAKES)
    proc = cli()
    assert proc.returncode == 2 and proc.stderr.startswith("usage: g2cone "), proc.stderr
    assert "Traceback" not in proc.stderr and list(tmp_path.iterdir()) == []


def test_runtime_imports():
    """The command runs on numpy alone, a bare import of the package loads no
    module of it, the closure oracle loads none of the flow modules it is
    checked against, and none of them loads the oracle (fresh interpreters)."""
    def loaded(module):
        code = ("import json, sys\n"
                f"import {module}\n"
                "print(json.dumps(sorted(m for m in sys.modules"
                " if m.split('.')[0] in ('g2cone', 'scipy'))))\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=_env(), check=True)
        return set(json.loads(proc.stdout))

    assert loaded("g2cone") == {"g2cone"}
    flow_layers = {"g2cone.flow", "g2cone.shoot", "g2cone.analysis"}
    oracle = loaded("g2cone.exterior")
    assert not flow_layers & oracle, oracle
    for module in sorted(flow_layers):
        assert "g2cone.exterior" not in loaded(module), module
    assert not {m for m in loaded("g2cone.cli") if m.startswith("scipy")}


def test_no_command_imports_numpy_random(tmp_path):
    """numpy.random takes about 13 ms to import and no command needs it: after
    verify-torsion (plain and flipped), oracle, stationary and shoot in one
    fresh interpreter, it is still not loaded.  Nor is numpy.ma, which the
    first np.unique call imports, also about 13 ms, nor argparse, gettext or
    locale (a bare interpreter with numpy loads none of the three)."""
    code = ("import sys\nfrom g2cone import cli\n"
            f"out = {str(tmp_path)!r}\n"
            "for argv in (['verify-torsion', '--samples', '5'],\n"
            "             ['verify-torsion', '--samples', '5', '--debug-flip-psi'],\n"
            "             ['oracle'], ['stationary'], ['shoot', '--mu', '0.3']):\n"
            "    cli.main(argv + ['--out', out])\n"
            "assert 'numpy.random' not in sys.modules, 'numpy.random was imported'\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
            "loaded = {'argparse', 'gettext', 'locale'} & set(sys.modules)\n"
            "assert not loaded, f'{sorted(loaded)} imported'\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    # every command ran and wrote its report
    assert {"verify_torsion.json", "oracle.json", "stationary.json",
            "shoot_mu0.3.json"} <= {p.name for p in tmp_path.iterdir()}


# -- the exit-code contract under generated inputs -------------------------------

_BAD = ["nan", "inf", "", "abc", "1e", "--"]  # non-finite and garbage strings
_ABOVE_LAUNCH = repr(float(np.nextafter(SERIES_MAX_OFFSET, 1.0)))  # the least valid --t-max
_PAST_CONV = repr(float(np.nextafter(MAX_CONV_TOL, 1.0)))
_PAST_TOL = repr(float(np.nextafter(MAX_TOL, 1.0)))
# each numeric option at and past its bounds, with a bounded cost per run
_OPTIONS = {
    "--t-max": ["200", "1", _ABOVE_LAUNCH, repr(SERIES_MAX_OFFSET), repr(MAX_T_MAX), "1e101", "0",
                "-1", *_BAD],
    "--u-max": ["60", "1", "5e-324", repr(MAX_U_MAX), repr(float(np.nextafter(MAX_U_MAX, np.inf))),
                "6000", "0", "-1", *_BAD],
    "--tol": ["1e-10", "5e-324", repr(MAX_TOL), _PAST_TOL, "0.1", "1e300", "0", "-1e-10", *_BAD],
    "--conv-tol": ["1e-6", "5e-324", repr(MAX_CONV_TOL), _PAST_CONV, "0", *_BAD],
    "--order": ["3", "8", "2", "9", "-1", "3.5", "abc"],
    "--stride": ["1", "7", "1000000000000", str(2**63), str(10**20), "0", "-1", "abc"],
    "--seed": ["0", str(2**70), "-1", "abc"],
    "--format": ["csv,json", "json", "svg", "", "csv,svg,json", "bogus", ",,"],
}
_MU = [repr(sys.float_info.min), "5e-324", "1e-300", "1e-9", "0", "-0.0", "0.3", "0.6",
       "0.9999999", "0.9999999999999999", "1", "1.0000001", "nan", "inf", "abc"]
_MU_RANGE = ["0.99999:0.99999:1", "1e-300:0.9999999:2", "0.3:0.6:2", "0:0.5:2", "0.5:1:2",
             "nan:0.5:1", "inf:inf:1", "0.5:0.5:0", f"0.5:0.5:{MAX_MU_POINTS + 1}",
             "0.3:0.4:2.5", "a:b:c", "1:2", ""]
_SAMPLES = ["1", "2", "0", str(MAX_SAMPLES + 1), "-1", "abc"]


@st.composite
def _argv(draw):
    """An argv list of one command from its own options, at most two mu values."""
    command = draw(st.sampled_from(list(_TAKES)))
    takes = _TAKES[command]
    argv = [command]
    if command == "verify-torsion":  # the default of 200 samples is too slow to draw often
        argv += ["--samples", draw(st.sampled_from(_SAMPLES))]
        argv += ["--debug-flip-psi"] if draw(st.booleans()) else []
    # the default grid of sweep is nine members: sweeps always name theirs
    mu = draw(st.sampled_from([f for f in takes if f.startswith("--mu")]
                              + ([None] if command != "sweep" else [])))
    if mu is not None:
        argv += [mu, draw(st.sampled_from(_MU if mu == "--mu" else _MU_RANGE))]
    options = [f for f in takes if f in _OPTIONS]
    if options:  # oracle takes none
        for option in draw(st.lists(st.sampled_from(options), max_size=3, unique=True)):
            argv += [option, draw(st.sampled_from(_OPTIONS[option]))]
    return argv


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(argv=_argv(), unusable_out=st.sampled_from([False, False, False, True]))  # one in four
@example(argv=["shoot", "--mu", "0.9999999"], unusable_out=False)
@example(argv=["sweep", "--mu-range", "0.99999:0.99999:1"], unusable_out=False)
@example(argv=["sweep", "--mu", "0.6", "--tol", "0.1"], unusable_out=False)  # past MAX_TOL
@example(argv=["sweep", "--mu", "5e-324"], unusable_out=False)  # a subnormal A1
@example(argv=["shoot", "--mu", "0.3", "--t-max", "1e103"], unusable_out=False)  # f^3 overflows
@example(argv=["shoot", "--mu", "0.3", "--u-max", "6000"], unusable_out=False)  # so does exp(ln f)
@example(argv=["stationary", "--mu-range", "0.25:0.75:3\t"], unusable_out=False)  # echoed in JSON
@example(argv=["shoot", "--mu", "0.3", "--stride", str(2**63)], unusable_out=False)  # past int64
def test_exit_code_contract_generated(tmp_path_factory, argv, unusable_out):
    """Every argv exits 0, 1 or 2 without an exception or a RuntimeWarning, and
    writes its report (exit 2 exactly when it has an error), except after a
    usage error (a value that does not parse as its option's type) or with an
    unusable --out."""
    out = tmp_path_factory.mktemp("run") / "out"
    if unusable_out:
        out.write_text("not a directory\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = main(argv + ["--out", str(out)])
        except SystemExit as exc:  # parse_args rejected the argv
            assert exc.code == 2, argv
            return
    assert code in (0, 1, 2), argv
    if unusable_out:
        assert code == 2 and out.read_text() == "not a directory\n", argv
        return
    reports = list(out.glob("*.json"))
    assert len(reports) == 1, (argv, reports)
    rep = load(reports[0])
    assert (code == 2) == ("error" in rep), argv
    assert (code == 0) == rep["pass"], argv
