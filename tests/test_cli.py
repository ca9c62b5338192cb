import json
import math
import shutil
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from handsoff import cli
from handsoff.cli import ConfigError, main
from handsoff.dca import DcaConfig, solve_l1
from handsoff.errors import (
    AssumptionViolationError,
    DimensionError,
    DomainError,
    HandsOffError,
    InfeasibleProblemError,
    NumericalError,
    ParameterError,
    SizeError,
)
from handsoff.penalty import Penalty
from handsoff.system import ControlProblem, LinearSystem, build_discrete
from handsoff.cli import parse_penalty_spec, penalty_from_mapping, penalty_label

from cli_inputs import BAD_VALUES, BENCH, EVERY_READER, FLAG_ERRORS, config


# A damped three-state plant with two inputs.  At N = 40 its l1 vertex has
# three fractional samples, |u| = 0.083, 0.224 and 0.329.
DAMPED = {
    "system": {"A": [[-0.3, -0.137, -0.383], [0.137, -0.3, -0.338], [0.383, 0.338, -0.3]],
               "B": [[-1.265, -0.623], [0.041, -2.325], [-0.219, -1.246]]},
    "x0": [-0.227, -0.169, -0.098],
}


def write_config(tmp_path, name="config.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(config(overrides)), encoding="utf-8")
    return str(path)


def output_flag(command, path):
    """``--output path`` for a command that takes it: every one but validate."""
    return [] if command == "validate" else ["--output", str(path)]


def read_summary(outdir, name="summary.json"):
    return json.loads((outdir / name).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# penalty spec parsing

def test_parse_penalty_spec():
    pen = parse_penalty_spec("scad lambda=0.25 alpha=3")
    assert pen == Penalty("scad", 0.25, alpha=3.0)
    assert parse_penalty_spec("lp lambda=0.8 p=0.5") == Penalty("lp", 0.8, p=0.5)


def test_parse_penalty_spec_errors():
    with pytest.raises(ConfigError):
        parse_penalty_spec("")
    with pytest.raises(ConfigError):
        parse_penalty_spec("l1l2 0.6")
    with pytest.raises(ConfigError):
        parse_penalty_spec("cauchy lambda=0.5")
    with pytest.raises(ConfigError):
        penalty_from_mapping({"kind": "l1l2", "lambda": 0.6, "beta": 1.0})
    with pytest.raises(ConfigError):
        penalty_from_mapping({"kind": "l1l2"})


def test_penalty_label_round_trips():
    for pen in (Penalty("l1l2", 0.1), Penalty("lp", 0.8, p=0.5),
                Penalty("scad", 0.25, alpha=3.0)):
        assert parse_penalty_spec(penalty_label(pen)) == pen


# ---------------------------------------------------------------------------
# validate

def test_validate_pass(capsys):
    assert main(["validate", "--penalty", "l1l2 lambda=0.6"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["passed"] is True
    assert out["violated"] == []


def test_validate_degenerate_l1l2(capsys):
    assert main(["validate", "--penalty", "l1l2 lambda=1.0"]) == 4
    out = json.loads(capsys.readouterr().out)
    assert out["violated"] == ["A3"]


def test_validate_degenerate_capped():
    assert main(["validate", "--penalty", "capped_l1 lambda=0.8 alpha=1.0"]) == 4


def test_validate_out_of_range_parameter():
    assert main(["validate", "--penalty", "scad lambda=1.5 alpha=3"]) == 1


def test_validate_needs_a_spec():
    assert main(["validate"]) == 1


def test_validate_from_config(tmp_path, capsys):
    cfg = write_config(tmp_path, penalty={"kind": "mcp", "lambda": 0.25, "alpha": 2.0})
    assert main(["validate", "--config", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["penalty"] == "mcp lambda=0.25 alpha=2.0"
    assert out["grid_size"] == 1000


# ---------------------------------------------------------------------------
# solve

def test_solve_writes_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--output", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("solve: l1l2")

    lines = (out / "trajectory.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "t,u_1,x_1,x_2"
    assert len(lines) == 2 + BENCH["N"] + 1  # comment + header + N+1 grid rows
    last = lines[-1].split(",")
    assert last[1] == ""  # no control sample on the terminal row
    assert float(last[0]) == pytest.approx(5.0)

    summary = read_summary(out)
    for key in ("penalty", "iterations", "lp_solves", "cost_history", "l0",
                "feas_residual", "bob_deviation", "complementarity_violation",
                "stop_reason", "wall_time_s", "equivalence_constant"):
        assert key in summary
    assert summary["kind"] == "l1l2"
    assert summary["feas_residual"] <= 1e-8
    assert summary["lp_solves"] <= 10


def test_solve_origin_start(tmp_path):
    cfg = write_config(tmp_path, x0=[0.0, 0.0], N=10)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--output", str(out)]) == 0
    assert read_summary(out)["l0"] == 0.0


def test_solve_inline_penalty_overrides(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--output", str(out),
                 "--penalty", "lp lambda=0.8 p=0.5"]) == 0
    assert read_summary(out)["kind"] == "lp"


def test_solve_infeasible_exit(tmp_path):
    cfg = write_config(tmp_path, x0=[100.0, 0.0], T=1.0, N=8)
    assert main(["solve", "--config", cfg, "--output", str(tmp_path / "o")]) == 2


def test_solve_assumption_exit(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["solve", "--config", cfg, "--output", str(tmp_path / "o"),
                 "--penalty", "l1l2 lambda=1.0"]) == 4


def test_inline_penalty_value_that_is_not_a_number(tmp_path, capsys):
    # the spec parser passes a non-numeric value on, and the mapping check names it
    cfg = write_config(tmp_path)
    capsys.readouterr()
    assert main(["solve", "--config", cfg, "--output", str(tmp_path / "o"),
                 "--penalty", "l1l2 lambda=x"]) == 1
    assert capsys.readouterr().err == (
        "configuration error: penalty field 'lambda' must be a number, got 'x'\n")


def test_solve_config_errors(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "missing.json")]) == 1

    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["solve", "--config", str(bad)]) == 1

    cfg = write_config(tmp_path, penalty=None)
    assert main(["solve", "--config", cfg]) == 1

    cfg = write_config(tmp_path, dca={"warm_start": "l1", "bogus": 1})
    assert main(["solve", "--config", cfg]) == 1

    cfg = write_config(tmp_path, N=0)
    assert main(["solve", "--config", cfg]) == 1


# (section, key, value, exit code, what a section with "bogus" added is refused
# for): each DcaConfig field at its default is taken.  The keys that are now
# constants keep their ids, at the value they had, and are refused themselves.
CONFIG_FIELDS = [("dca", f.name, f.default, 0, "dca fields ['bogus']")
                 for f in fields(DcaConfig)] + [
    ("certificate", "l0", 0.05, 1, "top-level fields ['certificate']"),
    ("dca", "l0_threshold", 1e-6, 1, "dca fields ['bogus', 'l0_threshold']"),
    ("dca", "lp_epsilon", 1e-8, 1, "dca fields ['bogus', 'lp_epsilon']")]


@pytest.mark.parametrize("section,key,value,code,unknown", CONFIG_FIELDS,
                         ids=[f"{case[0]}.{case[1]}" for case in CONFIG_FIELDS])
def test_config_takes_every_field_of_its_dataclass(tmp_path, capsys, section, key, value, code,
                                                   unknown):
    pens = [{"kind": "l1l2", "lambda": 0.1}]
    cfg = write_config(tmp_path, N=20, penalty=pens, **{section: {key: value}})
    assert main(["compare", "--config", cfg, "--output", str(tmp_path / "ok")]) == code
    cfg = write_config(tmp_path, N=20, penalty=pens, **{section: {key: value, "bogus": 1}})
    capsys.readouterr()
    assert main(["compare", "--config", cfg, "--output", str(tmp_path / "bad")]) == 1
    assert capsys.readouterr().err == f"configuration error: unknown {unknown}\n"


def test_solve_output_dir_from_config(tmp_path):
    out = tmp_path / "nested" / "dir"
    cfg = write_config(tmp_path, output_dir=str(out))
    assert main(["solve", "--config", cfg]) == 0
    assert (out / "summary.json").exists()


# ---------------------------------------------------------------------------
# compare

def test_compare_table_and_artifacts(tmp_path):
    cfg = write_config(tmp_path, N=40, penalty=[
        {"kind": "l1l2", "lambda": 0.1},
        {"kind": "lp", "lambda": 0.8, "p": 0.5},
    ])
    out = tmp_path / "out"
    assert main(["compare", "--config", cfg, "--output", str(out)]) == 0

    lines = (out / "comparison.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == ("penalty,status,l0,J_d,c,iterations,lp_solves,"
                        "bob_deviation,certificate")
    assert len(lines) == 4  # header + l1 baseline + two penalties
    assert lines[1].startswith("l1,ok,")
    cells = [ln.split(",") for ln in lines[1:]]
    assert all(row[-1] in ("pass", "fail") for row in cells)

    for name in ("trajectory_l1.csv", "trajectory_l1l2.csv", "trajectory_lp.csv",
                 "summary_l1l2.json", "summary_lp.json"):
        assert (out / name).exists(), name


def test_compare_empty_penalty_list_is_baseline_only(tmp_path):
    cfg = write_config(tmp_path, N=20, penalty=[])
    out = tmp_path / "out"
    assert main(["compare", "--config", cfg, "--output", str(out)]) == 0
    lines = (out / "comparison.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("l1,ok,")


def test_compare_without_a_penalty_key_is_baseline_only(tmp_path):
    cfg = write_config(tmp_path, N=20, penalty=None)
    out = tmp_path / "out"
    assert main(["compare", "--config", cfg, "--output", str(out)]) == 0
    lines = (out / "comparison.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("l1,ok,")


def test_compare_duplicate_kinds_get_distinct_tags(tmp_path):
    cfg = write_config(tmp_path, N=20, penalty=[
        {"kind": "l1l2", "lambda": 0.1},
        {"kind": "l1l2", "lambda": 0.3},
    ])
    out = tmp_path / "out"
    assert main(["compare", "--config", cfg, "--output", str(out)]) == 0
    assert (out / "summary_l1l2.json").exists()
    assert (out / "summary_l1l2_2.json").exists()


def test_compare_records_failing_row(tmp_path, capsys):
    cfg = write_config(tmp_path, N=20, penalty=[
        {"kind": "l1l2", "lambda": 0.1},
        {"kind": "l1l2", "lambda": 1.0},
    ])
    out = tmp_path / "out"
    assert main(["compare", "--config", cfg, "--output", str(out)]) == 4
    lines = (out / "comparison.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 4
    statuses = [ln.split(",")[1] for ln in lines[1:]]
    assert statuses == ["ok", "ok", "assumption_violated"]


def test_compare_infeasible_problem(tmp_path):
    cfg = write_config(tmp_path, x0=[100.0, 0.0], T=1.0, N=8,
                       penalty=[{"kind": "l1l2", "lambda": 0.1}])
    out = tmp_path / "out"
    assert main(["compare", "--config", cfg, "--output", str(out)]) == 2
    lines = (out / "comparison.csv").read_text(encoding="utf-8").splitlines()
    statuses = [ln.split(",")[1] for ln in lines[1:]]
    assert statuses == ["infeasible", "infeasible"]


def count_lp_calls(monkeypatch):
    """Wrap solve_lp where dca binds it (the one module that solves LPs);
    returns the list of the ``start`` arguments of every call, None for a
    call that runs phase 1."""
    import handsoff.cli
    import handsoff.dca

    starts = []
    original = handsoff.dca.solve_lp

    def counting(problem, tol=1e-9, start=None):
        starts.append(start)
        return original(problem, tol=tol, start=start)

    assert not hasattr(handsoff.cli, "solve_lp")
    monkeypatch.setattr(handsoff.dca, "solve_lp", counting)
    return starts


def test_compare_runs_phase_1_once(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, N=40, penalty=[
        {"kind": "mcp", "lambda": 1.0, "alpha": 0.5},
        {"kind": "scad", "lambda": 0.25, "alpha": 3.0},
    ])
    starts = count_lp_calls(monkeypatch)
    out = tmp_path / "out"
    assert main(["compare", "--config", cfg, "--output", str(out)]) == 0
    rows = [ln.split(",") for ln in (out / "comparison.csv").read_text().splitlines()[1:]]
    # the baseline's l1 LP, then under "l1" each run's own l1 LP and its DC steps
    assert len(starts) == sum(int(row[6]) for row in rows)  # lp_solves, l1 row included
    assert len(starts) == len(rows) + sum(int(row[5]) for row in rows[1:])  # 1 + P + iterations
    assert starts.count(None) == 1 and starts[0] is None


def test_oracle_runs_phase_1_once(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, N=100, penalty=[
        {"kind": "mcp", "lambda": 1.0, "alpha": 0.5},
        {"kind": "l1l2", "lambda": 0.1},
        {"kind": "scad", "lambda": 0.25, "alpha": 3.0},
    ])
    starts = count_lp_calls(monkeypatch)
    out = tmp_path / "out"
    assert main(["oracle", "--config", cfg, "--output", str(out)]) == 0
    runs = json.loads((out / "oracle.json").read_text())["runs"]
    assert len(starts) == 1 + sum(run["lp_solves"] for run in runs)  # the l1 LP up front
    assert starts.count(None) == 1 and starts[0] is None
    assert all(run["certificate"] == "pass" for run in runs)


def test_compare_l1_warm_starts_make_no_pivots(tmp_path, monkeypatch):
    # Every run gets the baseline's l1 solution, so under "l1" its own l1 LP
    # re-solves the baseline's objective from the baseline's optimum.
    import handsoff.cli
    import handsoff.dca

    events = []
    solve, run = handsoff.dca.solve_lp, handsoff.cli.run_dca

    def recording_solve(problem, tol=1e-9, start=None):
        sol = solve(problem, tol=tol, start=start)
        events.append((problem.c, start, sol))
        return sol

    def marking_run(dp, pen, cfg, l1):
        events.append(l1)
        return run(dp, pen, cfg, l1)

    monkeypatch.setattr(handsoff.dca, "solve_lp", recording_solve)
    monkeypatch.setattr(handsoff.cli, "run_dca", marking_run)
    # from its phase-1 basis the damped plant's l1 LP takes pivots (on the
    # double integrator it takes none)
    cfg = write_config(tmp_path, **DAMPED, N=40, penalty=[
        {"kind": "mcp", "lambda": 1.0, "alpha": 0.5},
        {"kind": "scad", "lambda": 0.25, "alpha": 3.0},
        {"kind": "l1l2", "lambda": 0.1},
    ])
    assert main(["compare", "--config", cfg, "--output", str(tmp_path / "out")]) == 0
    c, start, l1 = events[0]
    assert np.all(c == 1.0) and start is None and l1.iterations > 0
    runs = [i for i, e in enumerate(events) if e is l1]
    assert len(runs) == 3
    for i in runs:
        c, start, sol = events[i + 1]
        assert np.all(c == 1.0) and start is l1.start
        assert sol.iterations == 0 and np.array_equal(sol.z, l1.z)


def without_wall_time(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    del doc["wall_time_s"]
    return doc


@pytest.mark.parametrize("config", ["double_integrator_fast.json", "planted_oracle.json"])
def test_compare_and_oracle_rows_equal_solve(tmp_path, capsys, config):
    # Under warm_start "l1" a row's result does not depend on the rows before
    # it, and every view of a run reports the one record of it: the summary,
    # the comparison row, the compare stdout line and the oracle run.
    cfg = str(Path(__file__).resolve().parents[1] / "configs" / config)
    doc = json.loads(Path(cfg).read_text(encoding="utf-8"))
    assert doc["dca"]["warm_start"] == "l1"
    cmp_out, orc_out = tmp_path / "compare", tmp_path / "oracle"
    capsys.readouterr()
    assert main(["compare", "--config", cfg, "--seed", "3", "--output", str(cmp_out)]) == 0
    lines = {}  # penalty label -> the line's status, l0 and certificate fields
    for ln in capsys.readouterr().out.splitlines():
        if ln.startswith("compare: "):
            label, rest = ln[len("compare: "):].rsplit(" status=", 1)
            lines[label.rstrip()] = ("status=" + rest).split()
    assert main(["oracle", "--config", cfg, "--seed", "3", "--output", str(orc_out)]) == 0
    report = json.loads((orc_out / "oracle.json").read_text(encoding="utf-8"))
    table = (cmp_out / "comparison.csv").read_text(encoding="utf-8").splitlines()
    rows = {row["penalty"]: row for row in (dict(zip(table[0].split(","), ln.split(",")))
                                             for ln in table[1:])}
    assert len(report["runs"]) == len(doc["penalty"]) == len(rows) - 1 == len(lines) - 1
    for pen_doc, run in zip(doc["penalty"], report["runs"]):
        label = penalty_label(penalty_from_mapping(pen_doc))
        out = tmp_path / f"solve_{pen_doc['kind']}"
        assert main(["solve", "--config", cfg, "--seed", "3", "--penalty", label,
                     "--output", str(out)]) == 0
        tag = pen_doc["kind"]
        assert ((cmp_out / f"trajectory_{tag}.csv").read_bytes()
                == (out / "trajectory.csv").read_bytes())
        solo = without_wall_time(out / "summary.json")
        assert without_wall_time(cmp_out / f"summary_{tag}.json") == solo
        shared = {k: solo[k] for k in ("l0", "iterations", "lp_solves", "bob_deviation")}
        row = rows[label]
        assert row["status"] == run["status"] == "ok" and run["penalty"] == label
        assert {k: type(v)(row[k]) for k, v in shared.items()} == shared
        assert float(row["J_d"]) == solo["cost_history"][-1]
        assert {k: run[k] for k in shared} == shared
        assert lines[label] == ["status=ok", f"l0={solo['l0']:.6g}",
                                f"certificate={row['certificate']}"]
        if report["mode"] == "certificate":
            assert run["certificate"] == row["certificate"] == "pass"
            assert run["certificate_report"]["l0"] == solo["l0"]
        else:
            assert "certificate" not in run
            assert run["agrees"] == (abs(solo["l0"] - report["oracle_min_l0"]) <= 1e-9)


def count_builds(monkeypatch):
    """Wrap build_discrete where cli and oracle bind it; returns the list of
    calls, one N per call."""
    import handsoff.cli
    import handsoff.oracle

    built = []
    original = handsoff.cli.build_discrete

    def counting(problem, N):
        built.append(N)
        return original(problem, N)

    for mod in (handsoff.cli, handsoff.oracle):
        monkeypatch.setattr(mod, "build_discrete", counting)
    return built


def test_planted_oracle_discretizes_once(tmp_path, monkeypatch):
    # placing the planted x0 takes the one discretization the runs use, and
    # that build's Ad^N: the drift map is formed once
    built = count_builds(monkeypatch)
    powers = []
    original = np.linalg.matrix_power

    def counting_power(a, n):
        powers.append(n)
        return original(a, n)

    monkeypatch.setattr(np.linalg, "matrix_power", counting_power)
    cfg = write_config(tmp_path, N=8, T=4.0, x0=None,
                       oracle={"planted": [1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]},
                       penalty=[{"kind": "l1l2", "lambda": 0.1}])
    assert main(["oracle", "--config", cfg, "--output", str(tmp_path / "out")]) == 0
    assert built == [8]
    assert powers == [8]


def test_solve_hands_its_l1_solution_to_its_run(tmp_path, monkeypatch):
    # solve takes the path compare and oracle take: one l1 LP, whose
    # solution its run starts from
    import handsoff.cli

    solved, handed = [], []
    solve, run = handsoff.cli.solve_l1, handsoff.cli.run_dca

    def recording_solve(dp, cfg):
        solved.append(solve(dp, cfg))
        return solved[-1]

    def recording_run(dp, pen, cfg, l1):
        handed.append(l1)
        return run(dp, pen, cfg, l1)

    monkeypatch.setattr(handsoff.cli, "solve_l1", recording_solve)
    monkeypatch.setattr(handsoff.cli, "run_dca", recording_run)
    assert main(["solve", "--config", write_config(tmp_path), "--output",
                 str(tmp_path / "out")]) == 0
    assert len(solved) == 1 and len(handed) == 1 and handed[0] is solved[0]


@pytest.mark.parametrize("command", ["solve", "compare", "oracle"])
@pytest.mark.parametrize("overrides", [
    {"N": 8, "T": 4.0},
    {"N": 8, "T": 4.0, "x0": None, "oracle": {"planted": [1.0, 1.0] + [0.0] * 6}},
], ids=["x0", "planted"])
def test_each_command_builds_once_and_solves_the_l1_lp_once(tmp_path, monkeypatch,
                                                             command, overrides):
    import handsoff.cli

    built, solved = count_builds(monkeypatch), []
    solve = handsoff.cli.solve_l1

    def counting_solve(dp, cfg):
        solved.append(dp.N)
        return solve(dp, cfg)

    monkeypatch.setattr(handsoff.cli, "solve_l1", counting_solve)
    pens = [{"kind": "l1l2", "lambda": 0.1}, {"kind": "scad", "lambda": 0.25, "alpha": 3.0}]
    cfg = write_config(tmp_path, **overrides, penalty=pens[0] if command == "solve" else pens)
    assert main([command, "--config", cfg, "--output", str(tmp_path / "out")]) == 0
    assert built == [8] and solved == [8]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["solve", "compare", "oracle"])
def test_overflowing_horizon_is_one_configuration_error(tmp_path, capsys, command):
    # x' = 5x + u over T = 256: e^1280 leaves double precision.  The build
    # comes before the output directory, so none is made.
    cfg = write_config(tmp_path, system={"A": [[5.0]], "B": [[1.0]]}, x0=[0.1],
                       T=256.0, N=500)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, "--config", cfg, "--output", str(out)]) == 1
    assert capsys.readouterr().err == ("configuration error: T = 256 overflows double "
                                       "precision: the plant grows like e^(5 t), "
                                       "e^1280 over T\n")
    assert not out.exists()


def count_simulate_calls(monkeypatch):
    """Wrap simulate where cli binds it (the certificate simulates nothing);
    returns the list of calls, one N per call."""
    import handsoff.cli

    calls = []
    original = handsoff.cli.simulate

    def counting(dp, x0, z):
        calls.append(dp.N)
        return original(dp, x0, z)

    monkeypatch.setattr(handsoff.cli, "simulate", counting)
    return calls


def record_controls(monkeypatch):
    """Wrap cli's l1 solve and DC runs; returns a dict from row tag ("l1" or
    the penalty kind) to the split control that row's trajectory comes from."""
    import handsoff.cli

    controls = {}
    solve_l1, run_dca = handsoff.cli.solve_l1, handsoff.cli.run_dca

    def recording_l1(dp, cfg):
        sol = solve_l1(dp, cfg)
        controls["l1"] = sol.z
        return sol

    def recording_run(dp, pen, cfg, l1):
        result = run_dca(dp, pen, cfg, l1)
        controls[pen.kind] = result.z_star
        return result

    monkeypatch.setattr(handsoff.cli, "solve_l1", recording_l1)
    monkeypatch.setattr(handsoff.cli, "run_dca", recording_run)
    return controls


def test_compare_simulates_each_solved_row_once(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, N=40, penalty=[
        {"kind": "l1l2", "lambda": 0.1},
        {"kind": "scad", "lambda": 0.25, "alpha": 3.0},
        {"kind": "l1l2", "lambda": 1.0},  # fails the assumption check
    ])
    controls = record_controls(monkeypatch)
    calls = count_simulate_calls(monkeypatch)
    out = tmp_path / "out"
    assert main(["compare", "--config", cfg, "--output", str(out)]) == 4
    rows = [ln.split(",") for ln in (out / "comparison.csv").read_text().splitlines()[1:]]
    assert [row[1] for row in rows] == ["ok", "ok", "ok", "assumption_violated"]
    assert [row[-1] for row in rows[:3]] == ["pass"] * 3
    # the l1 LP and both DC rows end on bitwise the same z, which has an
    # entry a rounding error below 0; they write one trajectory from one simulate
    assert controls["l1"].min() < 0.0
    assert all(np.array_equal(controls["l1"], z) for z in controls.values())
    files = [(out / f"trajectory_{tag}.csv").read_bytes() for tag in ("l1", "l1l2", "scad")]
    assert files[0] == files[1] == files[2]
    assert calls == [40]


def test_oracle_certificate_mode_simulates_each_run_once(tmp_path, monkeypatch):
    import handsoff.cli

    controls = []
    run_dca = handsoff.cli.run_dca

    def recording_run(dp, pen, cfg, l1):
        result = run_dca(dp, pen, cfg, l1)
        controls.append(result.z_star.tobytes())
        return result

    monkeypatch.setattr(handsoff.cli, "run_dca", recording_run)
    cfg = write_config(tmp_path, N=100, penalty=[
        {"kind": "mcp", "lambda": 1.0, "alpha": 0.5},
        {"kind": "l1l2", "lambda": 0.1},
        {"kind": "scad", "lambda": 0.25, "alpha": 3.0},
    ])
    calls = count_simulate_calls(monkeypatch)
    out = tmp_path / "out"
    assert main(["oracle", "--config", cfg, "--output", str(out)]) == 0
    runs = json.loads((out / "oracle.json").read_text())["runs"]
    assert [run["certificate"] for run in runs] == ["pass"] * 3
    # one simulate per distinct control; runs that end on the same one share it
    assert len(set(controls)) < len(controls) == 3
    assert calls == [100] * len(set(controls))


def test_compare_rows_with_equal_controls_share_one_trajectory(tmp_path, monkeypatch):
    import handsoff.cli

    controls = record_controls(monkeypatch)
    formatted = []
    trajectory_csv = handsoff.cli.trajectory_csv

    def counting(signal, states):
        formatted.append(signal)
        return trajectory_csv(signal, states)

    monkeypatch.setattr(handsoff.cli, "trajectory_csv", counting)
    calls = count_simulate_calls(monkeypatch)
    cfg = str(Path(__file__).resolve().parents[1] / "configs" / "double_integrator.json")
    out = tmp_path / "out"
    assert main(["compare", "--config", cfg, "--output", str(out)]) == 0

    files = {tag: (out / f"trajectory_{tag}.csv").read_bytes() for tag in controls}
    assert len(files) == 7
    for a in controls:
        for b in controls:
            if np.array_equal(controls[a], controls[b]):
                assert files[a] == files[b], (a, b)
    # every row stays on the l1 LP's vertex
    distinct = {z.tobytes() for z in controls.values()}
    assert len(formatted) == len(calls) == len(distinct) == 1

    # the table as each row computed on its own gave it
    rows = [ln.split(",") for ln in (out / "comparison.csv").read_text().splitlines()]
    assert rows[0] == ["penalty", "status", "l0", "J_d", "c", "iterations", "lp_solves",
                       "bob_deviation", "certificate"]
    expected = [
        ("l1", "", "1", 200.0, 1.44e-12),
        ("lp lambda=0.8 p=0.5", "0.80000000000000004", "2", 160.0, 1.44e-12),
        ("mcp lambda=1.0 alpha=0.5", "0.25", "2", 50.0, 1.44e-12),
        ("scad lambda=0.25 alpha=3.0", "0.125", "2", 25.0, 1.44e-12),
        ("lsp lambda=0.007238240841133117 alpha=1e-06", "0.099999999999999978", "2",
         20.0, 1.44e-12),
        ("capped_l1 lambda=0.8 alpha=0.5", "0.40000000000000002", "2", 80.0, 1.44e-12),
        ("l1l2 lambda=0.1", "0.90000000000000002", "2", 180.0, 1.44e-12),
    ]
    assert len(rows) == 1 + len(expected)
    for row, (penalty, c, lp_solves, j_d, bob) in zip(rows[1:], expected):
        assert [row[0], row[1], row[2], row[4], row[5], row[6], row[8]] == [
            penalty, "ok", "1", c, "1", lp_solves, "pass"]
        assert float(row[3]) == pytest.approx(j_d, rel=1e-10)
        assert float(row[7]) == pytest.approx(bob, abs=1e-13)


def test_compare_l1_row_is_measured_like_the_dc_rows(tmp_path, monkeypatch):
    import handsoff.dca
    from handsoff.cli import _fmt

    controls = record_controls(monkeypatch)
    # a threshold of 0.25 splits the l1 vertex's fractional samples
    monkeypatch.setattr(handsoff.dca, "L0_THRESHOLD", 0.25)
    cfg = write_config(tmp_path, **DAMPED, N=40,
                       penalty=[{"kind": "scad", "lambda": 0.25, "alpha": 3.0}])
    out = tmp_path / "out"
    assert main(["compare", "--config", cfg, "--output", str(out)]) == 0
    rows = [ln.split(",") for ln in (out / "comparison.csv").read_text().splitlines()[1:]]
    assert [(row[0].split()[0], row[1]) for row in rows] == [("l1", "ok"), ("scad", "ok")]

    def support(tag, theta):  # delta times the trajectory's samples with |u| > theta
        lines = (out / f"trajectory_{tag}.csv").read_text().splitlines()[2:-1]
        u = np.array([[float(x) for x in ln.split(",")[1:3]] for ln in lines])
        return 5.0 / 40 * np.count_nonzero(np.abs(u) > theta)

    # both rows count at the threshold; at 1e-6 the l1 row would read more
    assert float(rows[0][2]) == support("l1", 0.25) < support("l1", 1e-6)
    assert float(rows[1][2]) == support("scad", 0.25)
    # J_d is the objective on the clipped split, as for the DC rows
    assert rows[0][3] == _fmt(np.sum(np.clip(controls["l1"], 0.0, 1.0)))


ERROR_OUTCOMES = [
    (ConfigError, "config_error", 1, "configuration error"),
    (ParameterError, "config_error", 1, "configuration error"),
    (DimensionError, "config_error", 1, "configuration error"),
    (DomainError, "config_error", 1, "configuration error"),
    (InfeasibleProblemError, "infeasible", 2, "infeasible"),
    (NumericalError, "numerical_failure", 3, "numerical failure"),
    (AssumptionViolationError, "assumption_violated", 4, "assumption violated"),
    (SizeError, "config_error", 1, "configuration error"),
]


def test_error_outcomes_cover_every_package_error():
    assert {row[0] for row in ERROR_OUTCOMES} == set(HandsOffError.__subclasses__())


@pytest.mark.parametrize("exc_type,status,code,prefix", ERROR_OUTCOMES,
                         ids=[row[0].__name__ for row in ERROR_OUTCOMES])
def test_error_outcome(tmp_path, monkeypatch, capsys, exc_type, status, code, prefix):
    import handsoff.cli

    def failing(*args, **kwargs):
        raise exc_type("boom")

    monkeypatch.setattr(handsoff.cli, "run_dca", failing)
    cfg = write_config(tmp_path, N=20)
    assert main(["solve", "--config", cfg, "--output", str(tmp_path / "s")]) == code
    assert capsys.readouterr().err == f"{prefix}: boom\n"
    out = tmp_path / "c"
    assert main(["compare", "--config", cfg, "--output", str(out)]) == code
    assert capsys.readouterr().err == "l1l2 lambda=0.1 failed: boom\n"
    rows = [ln.split(",") for ln in (out / "comparison.csv").read_text().splitlines()[1:]]
    assert [row[1] for row in rows] == ["ok", status]
    # oracle runs its penalties as compare does, and exits with the first failed run's code
    out = tmp_path / "o"
    assert main(["oracle", "--config", cfg, "--output", str(out)]) == code
    assert capsys.readouterr().err == "l1l2 lambda=0.1 failed: boom\n"
    runs = json.loads((out / "oracle.json").read_text())["runs"]
    assert runs == [{"penalty": "l1l2 lambda=0.1", "status": status}]


# ---------------------------------------------------------------------------
# trajectory CSV

def legacy_trajectory_csv(signal, states) -> str:
    """The writer's bytes as first specified: one _fmt call per cell."""
    from handsoff.cli import _fmt

    N, m = signal.N, signal.m
    n = states.shape[1]
    lines = [
        "# one row per grid point t = k*delta, k = 0..N; "
        "u_* columns have N rows (blank at k = N), x_* columns have N+1 rows",
        ",".join(["t"] + [f"u_{j + 1}" for j in range(m)] + [f"x_{i + 1}" for i in range(n)]),
    ]
    for k in range(N + 1):
        row = [_fmt(k * signal.delta)]
        row += [_fmt(signal.samples[k, j]) for j in range(m)] if k < N else [""] * m
        row += [_fmt(states[k, i]) for i in range(n)]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("delta", [5.0 / 4000, np.float64(0.1), 1.0])
def test_trajectory_csv_bytes_match_per_cell_formatting(tmp_path, delta):
    from handsoff.cli import trajectory_csv, write_trajectory_csv
    from handsoff.dca import ControlSignal

    tiny = 5e-324
    samples = np.array([[-0.0, 1.0], [tiny, -1.0], [2.2250738585072014e-308 / 3, 0.0],
                        [1.0 / 3.0, -2.0 / 3.0], [0.0, 1e-17]])
    rng = np.random.default_rng(0)
    states = np.vstack([
        [1e8, -1e8, 0.0],
        1e8 * rng.normal(size=(2, 3)),
        [3.0, -0.0, 1e16],
        [tiny, -tiny, 123456789.0],
        [np.pi, -np.e, 0.1],
    ])
    signal = ControlSignal(delta, samples)
    path = tmp_path / "t.csv"
    write_trajectory_csv(path, trajectory_csv(signal, states))
    assert path.read_bytes() == legacy_trajectory_csv(signal, states).encode("utf-8")


def test_trajectory_csv_bytes_match_on_a_long_random_trajectory(tmp_path):
    from handsoff.cli import trajectory_csv, write_trajectory_csv
    from handsoff.dca import ControlSignal

    rng = np.random.default_rng(3)
    N = 1000
    samples = np.round(rng.uniform(-1.0, 1.0, size=(N, 2)), int(rng.integers(0, 17)))
    states = 1e8 * rng.normal(size=(N + 1, 3))
    states[::7] = np.round(states[::7])
    signal = ControlSignal(7.0 / N, samples)
    path = tmp_path / "t.csv"
    write_trajectory_csv(path, trajectory_csv(signal, states))
    assert path.read_bytes() == legacy_trajectory_csv(signal, states).encode("utf-8")


# ---------------------------------------------------------------------------
# oracle

def test_oracle_enumeration_with_planted(tmp_path, capsys):
    cfg = write_config(
        tmp_path, N=8, T=4.0, x0=None,
        oracle={"planted": [1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]},
        penalty=[{"kind": "lp", "lambda": 0.8, "p": 0.5}],
    )
    out = tmp_path / "out"
    assert main(["oracle", "--config", cfg, "--output", str(out)]) == 0
    text = (out / "oracle.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == text + f"wrote {out / 'oracle.json'}\n"
    report = json.loads(text)
    assert report["mode"] == "enumeration"
    assert report["planted_support_measure"] == pytest.approx(1.0)
    assert report["oracle_min_l0"] is not None
    assert report["oracle_min_l0"] <= report["planted_support_measure"] + 1e-12
    run = report["runs"][0]
    assert run["status"] == "ok"
    assert isinstance(run["agrees"], bool)
    assert run["agrees"] is True


@pytest.mark.parametrize("x0,eps", [([1.0, -1.0], 3e-3), ([0.0, 0.0], 1e-8)])
def test_oracle_default_eps_without_a_planted_signal(tmp_path, x0, eps):
    # 1e-3 times the largest drift entry |zeta| (here 3 and 0), at least 1e-5
    cfg = write_config(tmp_path, N=8, T=4.0, x0=x0, penalty=[{"kind": "l1l2", "lambda": 0.1}])
    out = tmp_path / "out"
    assert main(["oracle", "--config", cfg, "--output", str(out)]) == 0
    report = json.loads((out / "oracle.json").read_text(encoding="utf-8"))
    assert report["mode"] == "enumeration"
    assert report["eps"] == pytest.approx(eps, rel=1e-12)


def test_oracle_random_planted_is_seed_deterministic(tmp_path):
    cfg = write_config(
        tmp_path, N=8, T=4.0, x0=None,
        oracle={"random_planted": {"support_size": 2}},
        penalty=[{"kind": "l1l2", "lambda": 0.1}],
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["oracle", "--config", cfg, "--output", str(out1), "--seed", "7"]) == 0
    assert main(["oracle", "--config", cfg, "--output", str(out2), "--seed", "7"]) == 0
    assert (out1 / "oracle.json").read_bytes() == (out2 / "oracle.json").read_bytes()


def test_oracle_certificate_mode(tmp_path):
    cfg = write_config(tmp_path, N=200)
    out = tmp_path / "out"
    assert main(["oracle", "--config", cfg, "--output", str(out)]) == 0
    report = json.loads((out / "oracle.json").read_text(encoding="utf-8"))
    assert report["mode"] == "certificate"
    assert report["lower_bound"] == pytest.approx(1.0)
    run = report["runs"][0]
    assert run["certificate"] == "pass"
    assert abs(run["l0"] - 1.0) <= 0.05
    assert sorted(run["certificate_report"]) == ["l0", "lower_bound", "passed", "terminal_norm"]


def test_oracle_size_error(tmp_path):
    # past the enumeration cap every plant has the certificate, not only the
    # double integrator: no size error
    cfg = write_config(tmp_path, system={"A": [[0.0]], "B": [[1.0]]},
                       x0=[1.0], N=20, T=5.0,
                       penalty=[{"kind": "l1l2", "lambda": 0.1},
                                {"kind": "scad", "lambda": 0.25, "alpha": 3.0}])
    out = tmp_path / "o"
    assert main(["oracle", "--config", cfg, "--output", str(out)]) == 0
    report = json.loads((out / "oracle.json").read_text(encoding="utf-8"))
    assert report["mode"] == "certificate"
    dp = build_discrete(ControlProblem(LinearSystem([[0.0]], [[1.0]]), np.array([1.0]), 5.0), 20)
    assert report["lower_bound"] == dp.delta * math.ceil(solve_l1(dp).objective) == 1.0
    assert [run["certificate"] for run in report["runs"]] == ["pass", "pass"]


@pytest.mark.parametrize("x0,bound", [([0.0, -2.0], 4.0), ([-1.0, 1.0], 1.0)])
def test_double_integrator_outside_the_closed_form_is_certified(tmp_path, x0, bound):
    # l0 = -xi2 fails here (-xi2 = 2 and -1); the bound the l1 LP proves holds
    pens = json.loads((Path(__file__).resolve().parents[1] / "configs"
                       / "double_integrator_fast.json").read_text())["penalty"]
    cfg = write_config(tmp_path, x0=x0, N=200, penalty=pens)
    out = tmp_path / "out"
    assert main(["compare", "--config", cfg, "--output", str(out)]) == 0
    rows = [ln.split(",") for ln in (out / "comparison.csv").read_text().splitlines()[1:]]
    assert len(rows) == 7
    assert all(float(row[2]) == bound and row[-1] == "pass" for row in rows)
    assert main(["oracle", "--config", cfg, "--output", str(out)]) == 0
    report = json.loads((out / "oracle.json").read_text(encoding="utf-8"))
    assert report["lower_bound"] == bound
    assert [run["certificate"] for run in report["runs"]] == ["pass"] * 6


def _bad_value_id(i, case):
    command, _, message, *key = case
    return f"{command}-{key[0] if key else message.split()[0]}-{i}"


@pytest.mark.parametrize("command,overrides,message", [case[:3] for case in BAD_VALUES],
                         ids=[_bad_value_id(i, case) for i, case in enumerate(BAD_VALUES)])
def test_bad_config_value_is_a_configuration_error(tmp_path, capsys, command, overrides, message):
    cfg = write_config(tmp_path, **overrides)
    capsys.readouterr()
    assert main([command, "--config", cfg, *output_flag(command, tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"configuration error: {message}\n"


@pytest.mark.parametrize("overrides,commands,message", [case[:3] for case in EVERY_READER],
                         ids=[(case[3:] or [case[2].split(",")[0]])[0] for case in EVERY_READER])
def test_malformed_input_is_refused_by_every_command_that_reads_it(tmp_path, capsys, overrides,
                                                                    commands, message):
    cfg = write_config(tmp_path, **overrides)
    for command in commands:
        capsys.readouterr()
        assert main([command, "--config", cfg, *output_flag(command, tmp_path / command)]) == 1
        assert capsys.readouterr().err == f"configuration error: {message}\n"


@pytest.mark.parametrize("argv,message", FLAG_ERRORS,
                         ids=["no-config", "seed-abc", "no-command", "unknown-flag", "validate",
                              "negative-seed", "validate-output", "validate-seed"])
def test_flag_error_is_a_configuration_error(tmp_path, capsys, argv, message):
    # argparse's own exit code 2 would read as an infeasible problem
    assert main([*argv, *output_flag(argv[0], tmp_path / "o")] if argv[1:] else argv) == 1
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_unknown_command_is_a_configuration_error(capsys):
    assert main(["frobnicate"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: argument command: invalid choice: ")
    assert err.count("\n") == 1


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0
    assert "--config" in capsys.readouterr().out


def test_config_root_must_be_an_object(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text("[1]", encoding="utf-8")
    assert main(["solve", "--config", str(path)]) == 1
    assert capsys.readouterr().err == "configuration error: config root must be a JSON object\n"


def test_integer_fields_keep_integers_beyond_float_precision():
    from handsoff.cli import _number

    big = 2**53 + 1  # not a float; float(big) rounds to 2**53
    assert _number({"N": big}, "N", None, int) == big
    assert _number({"N": 8.0}, "N", None, int) == 8


@pytest.mark.parametrize("where", ["file", "under_file"])
def test_output_that_cannot_be_a_directory_is_a_configuration_error(tmp_path, capsys, where):
    taken = tmp_path / "taken"
    taken.write_text("not a directory", encoding="utf-8")
    out = taken if where == "file" else taken / "sub"
    cfg = write_config(tmp_path, N=20)
    capsys.readouterr()
    assert main(["compare", "--config", cfg, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: cannot create output directory {out}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert taken.read_text(encoding="utf-8") == "not a directory"


def test_oracle_size_error_comes_before_the_certificate(tmp_path, capsys):
    # with no size error past the cap, a bad dca value is what gets reported
    cfg = write_config(tmp_path, system={"A": [[0.0]], "B": [[1.0]]},
                       x0=[1.0], N=20, T=5.0, dca={"lp_tol": "x"})
    assert main(["oracle", "--config", cfg, "--output", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        "configuration error: lp_tol must be a positive finite number, got 'x'\n")


# ---------------------------------------------------------------------------
# one parser per process

def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_flags_of_one_call_do_not_leak_into_the_next(tmp_path):
    cfg = write_config(tmp_path, penalty={"kind": "scad", "lambda": 0.25, "alpha": 3.0})
    flagged, plain = tmp_path / "flagged", tmp_path / "plain"
    assert main(["solve", "--config", cfg, "--output", str(flagged), "--seed", "3",
                 "--penalty", "l1l2 lambda=0.1"]) == 0
    first = read_summary(flagged)
    assert (first["seed"], first["kind"]) == (3, "l1l2")
    assert main(["solve", "--config", cfg, "--output", str(plain)]) == 0
    second = read_summary(plain)
    assert (second["seed"], second["kind"]) == (None, "scad")


def run_snapshot(argv, outdir, capsys):
    """Exit code, stdout, stderr and artifacts (summaries without wall time) of one call."""
    code = main(argv)
    out, err = capsys.readouterr()
    files = {}
    for path in sorted(outdir.iterdir()) if outdir.exists() else ():
        files[path.name] = (without_wall_time(path) if path.name.startswith("summary")
                            else path.read_bytes())
    return code, out, err, files


REPEATED_COMMANDS = [
    ("solve", {}, []),
    ("solve", {}, ["--penalty", "l1l2 lambda=1.0"]),
    ("solve", {"x0": [100.0, 0.0], "T": 1.0, "N": 8}, []),
    ("compare", {"N": 20, "penalty": [{"kind": "l1l2", "lambda": 0.1},
                                      {"kind": "scad", "lambda": 0.25, "alpha": 3.0}]}, []),
    ("oracle", {"N": 8, "T": 4.0, "x0": None,
                "oracle": {"random_planted": {"support_size": 2}},
                "penalty": [{"kind": "mcp", "lambda": 1.0, "alpha": 0.5}]}, ["--seed", "7"]),
    ("validate", {}, ["--penalty", "capped_l1 lambda=0.8 alpha=1.0"]),
]


@pytest.mark.parametrize("command,overrides,flags", REPEATED_COMMANDS,
                         ids=["solve", "solve-assumption", "solve-infeasible", "compare",
                              "oracle", "validate"])
def test_repeated_call_gives_the_same_result(tmp_path, capsys, command, overrides, flags):
    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / "out"
    argv = [command, "--config", cfg, *output_flag(command, out), *flags]
    first = run_snapshot(argv, out, capsys)
    assert run_snapshot(argv, out, capsys) == first


# ---------------------------------------------------------------------------
# artifacts written in place

RERUN_COMMANDS = [
    ("solve", {}),
    ("compare", {"penalty": [{"kind": "l1l2", "lambda": 0.1},
                             {"kind": "scad", "lambda": 0.25, "alpha": 3.0}]}),
    ("oracle", {}),  # certificate mode
]


@pytest.mark.parametrize("command,overrides", RERUN_COMMANDS,
                         ids=[c for c, _ in RERUN_COMMANDS])
def test_rerun_into_a_used_directory_equals_a_fresh_run(tmp_path, capsys, command, overrides):
    out = tmp_path / "out"
    argv = [command, "--config", str(tmp_path / "config.json"), "--output", str(out)]
    write_config(tmp_path, N=60, **overrides)
    longer = run_snapshot(argv, out, capsys)
    write_config(tmp_path, N=40, **overrides)
    rerun = run_snapshot(argv, out, capsys)
    shutil.rmtree(out)
    fresh = run_snapshot(argv, out, capsys)
    assert rerun == fresh
    assert fresh[0] == 0
    # every file of the longer run was longer, so a stale tail would show
    assert all(len(longer[3][name]) > len(data) for name, data in fresh[3].items()
               if not name.startswith("summary"))


def test_write_text_creates_a_missing_file(tmp_path):
    path, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    cli._write_text(path, "a,b\n")
    with open(ref, "w") as fh:
        fh.write("a,b\n")
    assert path.read_bytes() == b"a,b\n"
    assert path.stat().st_mode == ref.stat().st_mode


def test_write_text_overwrites_in_place_and_cuts_to_length(tmp_path):
    path = tmp_path / "table.csv"
    path.write_bytes(b"x" * 1000)
    inode = path.stat().st_ino
    cli._write_text(path, "short\n")
    assert path.read_bytes() == b"short\n"
    assert path.stat().st_ino == inode


def test_write_text_writes_through_a_symlink(tmp_path):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_bytes(b"{}" * 100)
    link.symlink_to(target)
    cli._write_text(link, "{}\n")
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert target.read_bytes() == b"{}\n"


def test_write_text_is_utf8_with_unix_newlines(tmp_path):
    path = tmp_path / "text.csv"
    cli._write_text(path, "t,\u00e9\n1,2\n")
    assert path.read_bytes() == b"t,\xc3\xa9\n1,2\n"


# ---------------------------------------------------------------------------
# determinism

def test_solve_byte_reproducible(tmp_path):
    cfg = write_config(tmp_path, N=60)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["solve", "--config", cfg, "--output", str(out1)]) == 0
    assert main(["solve", "--config", cfg, "--output", str(out2)]) == 0
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
    s1, s2 = read_summary(out1), read_summary(out2)
    s1.pop("wall_time_s"), s2.pop("wall_time_s")
    assert s1 == s2
