"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; without
``-s`` pytest shows them only for failing criteria.
"""

import json
import math
import time

import numpy as np
import pytest

from handsoff.cli import main
from handsoff.dca import ControlSignal, DcaConfig, run_dca, solve_l1
from handsoff.errors import ParameterError
from handsoff.linalg import expm, zoh_discretize
from handsoff.lp import LpProblem, solve_lp
from handsoff.oracle import brute_force_l0, certificate, make_exact_instance, support_lower_bound
from handsoff.penalty import (
    Penalty,
    equivalence_constant,
    phi,
    phi_subgradient,
    validate_assumption,
)
from handsoff.system import (
    ControlProblem,
    LinearSystem,
    build_discrete,
    double_integrator,
    simulate,
)

from test_lp import enumerate_optimum, random_feasible_problem
from test_penalty import BENCHMARK, CATALOG, _branch_points

X0 = np.array([1.0, -1.0])
T = 5.0


def _line(num: int, ok: bool, text: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {text}")


def _benchmark_runs(N):
    prob = ControlProblem(double_integrator(), X0, T)
    dp = build_discrete(prob, N)
    runs = []
    for pen in BENCHMARK:
        t0 = time.perf_counter()
        res = run_dca(dp, pen, DcaConfig(warm_start="l1"))
        runs.append((pen, res, time.perf_counter() - t0))
    return prob, dp, runs


@pytest.fixture(scope="module")
def full_runs():
    return _benchmark_runs(1000)


@pytest.fixture(scope="module")
def fast_runs():
    return _benchmark_runs(200)


@pytest.fixture(scope="module")
def planted_runs():
    rng = np.random.default_rng(2026)
    out = []
    for i in range(20):
        n = int(rng.integers(1, 3))
        sys_ = LinearSystem(rng.normal(scale=0.5, size=(n, n)),
                            rng.normal(size=(n, 1)))
        k = int(rng.integers(1, 4))
        samples = np.zeros((8, 1))
        idx = rng.choice(8, size=k, replace=False)
        samples[idx, 0] = rng.choice([-1.0, 1.0], size=k)
        planted = ControlSignal(0.5, samples)
        prob = make_exact_instance(sys_, 4.0, 8, planted)
        dp = build_discrete(prob, 8)
        pen = BENCHMARK[i % len(BENCHMARK)]
        res = run_dca(dp, pen, DcaConfig(warm_start="l1"))
        best_l0, _ = brute_force_l0(dp)
        out.append({"dp": dp, "pen": pen, "res": res,
                    "planted_size": k, "oracle_l0": best_l0})
    return out


def test_criterion_1_benchmark_reproduction(full_runs, fast_runs):
    # The closed-form facts of the double integrator from x0 = (xi1, xi2):
    # |u| in {0, 1} but for at most n fractional samples (an LP vertex), l0
    # within 2*delta of -xi2, the double integral of u, which on the grid is
    # exactly delta * sum((T - (k + 1/2)*delta) * u_k) = -xi1 - xi2*T, and the
    # terminal state at the origin.  The support certificate passes as well.
    failures = []
    checked = 0
    max_wall = 0.0
    xi1, xi2 = X0
    for (prob, dp, runs), label in ((full_runs, "N=1000"), (fast_runs, "N=200")):
        bound = support_lower_bound(dp, solve_l1(dp).duals)
        mid = (np.arange(dp.N) + 0.5) * dp.delta
        for pen, res, wall in runs:
            u = res.u_star.samples[:, 0]
            fractional = np.count_nonzero(np.minimum(np.abs(u), np.abs(np.abs(u) - 1.0)) > 1e-9)
            dblint = dp.delta * np.sum((T - mid) * u)
            terminal = simulate(dp, prob.x0, res.z_star)[-1]
            norm = np.linalg.norm(terminal)
            passed = certificate(res.l0, bound, terminal, dp.delta).passed
            checked += 1
            max_wall = max(max_wall, wall)
            if not (fractional <= dp.n and abs(res.l0 + xi2) <= 2 * dp.delta
                    and abs(dblint + xi1 + xi2 * T) <= 1e-6 and norm <= 1e-6 and passed):
                failures.append(f"{label}/{pen.kind}: fractional={fractional} l0={res.l0:.4f} "
                                f"dbl={dblint:.6f} terminal={norm:.2e} certificate={passed}")
            if wall > 60.0:
                failures.append(f"{label}/{pen.kind}: wall {wall:.1f}s > 60s")
    ok = not failures
    _line(1, ok, f"benchmark reproduction: {checked - len(failures)}/{checked} "
                 f"runs met the closed form and passed the certificate, "
                 f"max wall {max_wall:.2f}s"
                 + (f"; failures: {failures}" if failures else ""))
    assert ok, failures


def test_criterion_2_lp_subproblem_budget(full_runs, fast_runs):
    counts = {}
    for (_, _, runs), label in ((full_runs, "N=1000"), (fast_runs, "N=200")):
        for pen, res, _ in runs:
            counts[f"{label}/{pen.kind}"] = res.lp_solves
    worst = max(counts.values())
    ok = worst <= 10
    _line(2, ok, f"lp solve counts per run: {counts} (max {worst} <= 10)")
    assert ok, counts


def test_criterion_3_descent_and_iterate_feasibility(full_runs, fast_runs, planted_runs):
    results = [res for _, _, runs in (full_runs, fast_runs) for _, res, _ in runs]
    results += [rec["res"] for rec in planted_runs]
    worst_rise = -np.inf
    worst_feas = 0.0
    for res in results:
        hist = np.asarray(res.cost_history)
        if hist.size > 1:
            worst_rise = max(worst_rise, float(np.max(np.diff(hist))))
        worst_feas = max(worst_feas, max(res.feas_history))
    ok = worst_rise <= 1e-9 and worst_feas <= 1e-8
    _line(3, ok, f"descent over {len(results)} runs: worst cost rise "
                 f"{worst_rise:.2e} (<= 1e-9), worst iterate residual "
                 f"{worst_feas:.2e} (<= 1e-8)")
    assert ok


def test_criterion_4_small_grid_oracle(planted_runs):
    failures = []
    agree = 0
    for i, rec in enumerate(planted_runs):
        dp, res, pen = rec["dp"], rec["res"], rec["pen"]
        bound = rec["planted_size"] * dp.delta
        if not (math.isfinite(rec["oracle_l0"]) and rec["oracle_l0"] <= bound + 1e-12):
            failures.append(f"instance {i}: oracle {rec['oracle_l0']} above planted {bound}")
        if res.bob_deviation <= 1e-9:
            want = equivalence_constant(pen) * res.l0 / dp.delta
            if abs(res.cost_history[-1] - want) > 1e-6:
                failures.append(f"instance {i}: cost {res.cost_history[-1]:.8f} "
                                f"!= c*l0/delta = {want:.8f}")
        if abs(res.l0 - rec["oracle_l0"]) <= 1e-9:
            agree += 1
    ok = not failures
    _line(4, ok, f"small-grid oracle on 20 planted instances: bounds/identities "
                 f"{'hold' if ok else failures}; solver/oracle agreement "
                 f"{agree}/20 (reported, not asserted)")
    assert ok, failures


def test_criterion_5_penalty_suite():
    failures = []
    for pen in CATALOG:
        rep = validate_assumption(pen)
        if not rep.passed:
            failures.append(f"{pen.kind} unexpectedly fails {rep.violated}")
    for pen, tag in ((Penalty("l1l2", 1.0), "A3"),
                     (Penalty("capped_l1", 0.8, alpha=1.0), "A3")):
        rep = validate_assumption(pen)
        if rep.passed or tag not in rep.violated:
            failures.append(f"crafted {pen.kind} violation not tagged {tag}: {rep.violated}")
    try:
        Penalty("scad", 1.5, alpha=3.0)
        failures.append("scad lambda=1.5 was not rejected")
    except ParameterError:
        pass

    grid = np.linspace(0.0, 1.0, 1001)
    h = 1e-6
    for pen in CATALOG:
        pts = np.linspace(2e-3, 1.0 - 2e-3, 1400)
        for b in _branch_points(pen):
            pts = pts[np.abs(pts - b) > 1e-3]
        pts = pts[:1000]
        if pts.size < 1000:
            failures.append(f"{pen.kind}: only {pts.size} smooth points")
            continue
        fd = (phi(pen, pts + h) - phi(pen, pts - h)) / (2.0 * h)
        sg = phi_subgradient(pen, pts)
        rel = np.max(np.abs(sg - fd) / np.maximum(np.abs(fd), 1e-8))
        if rel > 1e-5:
            failures.append(f"{pen.kind}: subgradient vs finite differences rel {rel:.2e}")
        vals = phi(pen, grid)
        subs = phi_subgradient(pen, grid)
        gap = vals[None, :] - vals[:, None] - subs[:, None] * (grid[None, :] - grid[:, None])
        if gap.min() < -1e-9:
            failures.append(f"{pen.kind}: subgradient inequality violated by {gap.min():.2e}")
    ok = not failures
    _line(5, ok, "penalty suite: catalog passes, crafted violations tagged, "
                 "subgradients verified at 1000 smooth points per penalty"
                 + ("" if ok else f"; failures: {failures}"))
    assert ok, failures


def test_criterion_6_numerics(full_runs, fast_runs, planted_runs):
    failures = []
    for delta in (0.005, 0.025, 0.5):
        E = expm(np.array([[0.0, delta], [0.0, 0.0]]))
        if np.max(np.abs(E - [[1.0, delta], [0.0, 1.0]])) > 1e-12:
            failures.append(f"expm closed form at delta={delta}")
        sys_ = double_integrator()
        Ad, Bd = zoh_discretize(sys_.A, np.hstack([sys_.B, -sys_.B]), delta)
        want_Ad = np.array([[1.0, delta], [0.0, 1.0]])
        want_Bd = np.array([[0.5 * delta**2, -0.5 * delta**2], [delta, -delta]])
        if np.max(np.abs(Ad - want_Ad)) > 1e-12 or np.max(np.abs(Bd - want_Bd)) > 1e-12:
            failures.append(f"zoh closed form at delta={delta}")

    results = [res for _, _, runs in (full_runs, fast_runs) for _, res, _ in runs]
    results += [rec["res"] for rec in planted_runs]
    worst_kkt = max(res.max_kkt_residual for res in results)
    if worst_kkt > 1e-8:
        failures.append(f"acceptance LP kkt residual {worst_kkt:.2e} > 1e-8")

    rng = np.random.default_rng(14)
    worst_gap = 0.0
    for _ in range(50):
        rows = int(rng.integers(1, 4))
        cols = int(rng.integers(rows + 1, 13))
        p = random_feasible_problem(rng, rows, cols)
        sol = solve_lp(p)
        if sol.status != "optimal" or sol.kkt_residual > 1e-8:
            failures.append(f"random LP not cleanly solved ({sol.status})")
            continue
        worst_gap = max(worst_gap, abs(sol.objective - enumerate_optimum(p.c, p.Aeq, p.beq)))
    if worst_gap > 1e-9:
        failures.append(f"vertex enumeration gap {worst_gap:.2e} > 1e-9")
    ok = not failures
    _line(6, ok, f"numerics: closed forms to 1e-12, acceptance kkt max {worst_kkt:.2e}, "
                 f"50-instance enumeration gap {worst_gap:.2e}"
                 + ("" if ok else f"; failures: {failures}"))
    assert ok, failures


def test_criterion_7_determinism(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "system": {"A": [[0.0, 1.0], [0.0, 0.0]], "B": [[0.0], [1.0]]},
        "x0": [1.0, -1.0],
        "T": 5.0,
        "N": 200,
        "penalty": [{"kind": pen.kind, "lambda": pen.lam,
                     **({"alpha": pen.alpha} if pen.alpha is not None else {}),
                     **({"p": pen.p} if pen.p is not None else {})}
                    for pen in BENCHMARK],
        "dca": {"warm_start": "l1"},
    }), encoding="utf-8")
    outs = []
    for run in ("r1", "r2"):
        out = tmp_path / run
        assert main(["compare", "--config", str(cfg), "--output", str(out)]) == 0
        outs.append(out)

    mismatches = []
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        a, b = (out / name for out in outs)
        if name.endswith(".json"):
            da, db = (json.loads(p.read_text(encoding="utf-8")) for p in (a, b))
            da.pop("wall_time_s", None), db.pop("wall_time_s", None)
            if da != db:
                mismatches.append(name)
        elif a.read_bytes() != b.read_bytes():
            mismatches.append(name)
    ok = not mismatches
    _line(7, ok, f"determinism: {len(names)} artifacts byte-identical across "
                 f"re-runs (wall time excluded)"
                 + ("" if ok else f"; mismatches: {mismatches}"))
    assert ok, mismatches
