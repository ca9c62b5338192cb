"""Fast self-tests for the benchmark's own checks, tracing and statistics.

    python3 -m pytest perfbench -q

Each output check is shown to accept the program's real output on a small
instance and to reject the same output with one value corrupted.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import compare  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from handsoff.cli import main as cli_main  # noqa: E402

DBLINT_SMALL = {
    "system": {"A": [[0.0, 1.0], [0.0, 0.0]], "B": [[0.0], [1.0]]},
    "x0": [1.0, -1.0], "T": 5.0, "N": 200,
    "penalty": workloads.DBLINT_PENALTIES[1:3], "dca": workloads.DCA,
}


def _run(tmp_path, command, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli_main([command, "--config", str(path), "--output", str(out)]) == 0
    return out


def test_zoh_matches_double_integrator_closed_form():
    d = 0.1
    Ad, Bd = reference.zoh([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], d)
    assert np.allclose(Ad, [[1.0, d], [0.0, 1.0]], atol=1e-15)
    assert np.allclose(Bd, [[d * d / 2], [d]], atol=1e-15)


def test_terminal_state_without_input_is_the_drift():
    A = np.array([[-0.5, 2.0], [-2.0, -0.5]])
    x0 = np.array([1.0, 2.0])
    xT = reference.terminal_state(A, np.ones((2, 1)), 3.0, x0, np.zeros((50, 1)))
    from scipy.linalg import expm

    assert np.allclose(xT, expm(3.0 * A) @ x0, rtol=1e-12)


def test_cost_nonincreasing():
    assert checks.cost_nonincreasing([3.0, 2.0, 2.0, 1.0])
    assert not checks.cost_nonincreasing([3.0, 2.0, 2.000001])


def _corrupt_control(path):
    lines = path.read_text().splitlines()
    cells = lines[10].split(",")
    cells[1] = "0.5" if float(cells[1]) == 0.0 else "0"
    lines[10] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_check_compare_accepts_real_output_and_rejects_a_corrupted_control(tmp_path):
    out = _run(tmp_path, "compare", DBLINT_SMALL)
    good = checks.check_compare(DBLINT_SMALL, out, dblint=True)
    assert good.problems == []
    assert good.results == 3 and good.agreements == 3

    _corrupt_control(out / "trajectory_scad.csv")
    bad = checks.check_compare(DBLINT_SMALL, out, dblint=True)
    assert any("scad: terminal state" in p for p in bad.problems)


def test_check_compare_rejects_a_wrong_l1_objective(tmp_path):
    out = _run(tmp_path, "compare", DBLINT_SMALL)
    table = (out / "comparison.csv").read_text().splitlines()
    cells = table[1].split(",")
    cells[3] = repr(float(cells[3]) * (1 + 1e-4))
    table[1] = ",".join(cells)
    (out / "comparison.csv").write_text("\n".join(table) + "\n")
    assert any("HiGHS" in p for p in checks.check_compare(DBLINT_SMALL, out).problems)


def test_twin_must_reproduce_the_unscaled_controls(tmp_path):
    out = _run(tmp_path, "compare", DBLINT_SMALL)
    first = checks.check_compare(DBLINT_SMALL, out, dblint=True)
    shifted = {k: np.roll(v, 1, axis=0) for k, v in first.controls.items()}
    again = checks.check_compare(DBLINT_SMALL, out, dblint=True, twin_controls=shifted)
    assert any("differs from the unscaled" in p for p in again.problems)


def test_check_oracle_accepts_real_output_and_rejects_a_wrong_minimum(tmp_path):
    cfg = workloads.planted_oracle(seed=5)[-2]["config"]  # an m*N = 8 instance
    out = _run(tmp_path, "oracle", cfg)
    good = checks.check_oracle(cfg, out)
    assert good.problems == []
    assert good.results == len(cfg["penalty"])

    rep = json.loads((out / "oracle.json").read_text())
    rep["oracle_min_l0"] += rep["delta"]
    (out / "oracle.json").write_text(json.dumps(rep))
    assert any("enumeration gives" in p for p in checks.check_oracle(cfg, out).problems)


def test_lp_ascent_fails_only_the_known_way(tmp_path):
    op = workloads.planted_oracle(seed=1)[-1]
    assert op["id"] == "lp_ascent" and op == workloads.planted_oracle(seed=2)[-1]
    out = _run(tmp_path, "oracle", op["config"])
    outcome = checks.check_oracle(op["config"], out)
    assert outcome.problems == [workloads.LP_ASCENT_PROBLEM]
    assert run.classify(op, 0, outcome) == "known_failure"
    outcome.problems.append("mcp: |u| exceeds 1")
    assert run.classify(op, 0, outcome).startswith("lp lambda=0.8 p=0.5: cost_history")


def _mark_failed(out, kind, status):
    table = (out / "comparison.csv").read_text().splitlines()
    for i, line in enumerate(table):
        cells = line.split(",")
        if cells[0].split()[0] == kind:
            table[i] = ",".join([cells[0], status] + [""] * (len(cells) - 2))
    (out / "comparison.csv").write_text("\n".join(table) + "\n")


def test_a_numerical_failure_is_known_only_if_the_other_rows_pass(tmp_path):
    op = {"expect": "numerical_failure"}
    out = _run(tmp_path, "compare", DBLINT_SMALL)
    _mark_failed(out, "scad", "numerical_failure")
    outcome = checks.check_compare(DBLINT_SMALL, out, dblint=True)
    assert outcome.failed_rows == [("scad", "numerical_failure")] and outcome.problems == []
    assert outcome.results == 2
    assert run.classify(op, run.EXIT_CODE_NUMERICAL, outcome) == "known_failure"
    assert run.classify(op, 0, outcome) != "known_failure"

    _corrupt_control(out / "trajectory_mcp.csv")  # a wrong control on a row that solved
    outcome = checks.check_compare(DBLINT_SMALL, out, dblint=True)
    assert outcome.problems
    assert run.classify(op, run.EXIT_CODE_NUMERICAL, outcome) != "known_failure"

    _mark_failed(out, "mcp", "infeasible")
    outcome = checks.check_compare(DBLINT_SMALL, out, dblint=True)
    assert run.classify(op, run.EXIT_CODE_NUMERICAL, outcome) != "known_failure"


def test_tracer_spans_account_for_the_command(tmp_path):
    import handsoff.cli
    import handsoff.dca

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(DBLINT_SMALL))
    argv = ["compare", "--config", str(path), "--output", str(tmp_path / "out")]
    original = handsoff.dca.solve_lp
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.run_op(0, cli_main, argv) == 0
    finally:
        tracer.uninstall()
    assert handsoff.dca.solve_lp is original and handsoff.cli.run_dca.__module__ == "handsoff.dca"
    root = [s for s in tracer.spans if s[3] == tracing.ROOT_SPAN]
    assert len(root) == 1
    wall = (root[0][5] - root[0][4]) * 1e-9
    m = tracing.layer_metrics(tracer.spans, tracer.counts, [0], [wall])
    assert m["trace.accounted_share"] == pytest.approx(1.0, rel=1e-9)
    assert sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS) + m["cli.write_trajectory_csv_s"] \
        + m["cli.write_json_s"] == pytest.approx(wall, rel=1e-9)
    assert m["dca.run_dca_calls"] == 2 and m["lp.solve_lp_calls"] >= 5
    assert m["lp.pivots"] > 0 and m["cli.bytes_written"] > 0
    assert m["oracle.certificate_calls"] == 3


def test_self_times_subtract_direct_children_only():
    spans = [[0, 0, -1, "cli.main", 0, 100], [0, 1, 0, "dca.run_dca", 10, 60],
             [0, 2, 1, "lp.solve_lp", 20, 50], [0, 3, 0, "cli.write_json", 70, 80]]
    dur, own = tracing.self_times(spans)
    assert list(own * 1e9) == pytest.approx([40, 20, 30, 10])


def test_spread_and_comparison_verdicts():
    assert compare.spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    assert compare.worsening(1.0, 1.2, "lower") == pytest.approx(0.2)
    assert compare.worsening(1.0, 1.2, "higher") == pytest.approx(-0.2)
    bench = {"end_to_end": [{"name": "op_s", "unit": "s", "better": "lower", "bound": 0.1}]}

    def runs(value, failed):
        return {"w": [{"result": {"attempted": 10, "failed": failed,
                                  "metrics": {"op_s": {"value": value, "unit": "s"}}}}]}

    assert compare.compare(runs(1.0, 1), runs(1.05, 1), bench)[1]
    assert not compare.compare(runs(1.0, 1), runs(1.2, 1), bench)[1]
    assert not compare.compare(runs(1.0, 1), runs(1.0, 2), bench)[1]


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "dblint-n4000",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
