"""Independent checks of one operation's outputs.

Each check returns an ``Outcome``: the problems found (empty when the outputs
are right) and the quality figures the result contributes.  ``compare``
outputs are read from the files the CLI wrote.  The ``oracle`` command writes
no controls, so its runs are repeated through the public module functions and
the repeats must reproduce the CLI's figures before they are checked.
"""

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference

TERMINAL_RTOL = 1e-6
COST_RTOL = 1e-9
L1_RTOL = 1e-6
L0_THETA = 1e-6  # the support threshold the CLI uses for l0
AGREE_TOL = 1e-9  # |l0 - enumeration minimum| for oracle agreement (as in the CLI)


@dataclass
class Outcome:
    problems: list = field(default_factory=list)
    failed_rows: list = field(default_factory=list)  # (tag, status) of rows not "ok"
    results: int = 0  # successful solver results
    l0_total: float = 0.0
    agreements: int = 0
    controls: dict = field(default_factory=dict)  # row tag -> (N, m) samples

    def row_ok(self, tag, status):
        """Whether a row or run reported success; a failed one is recorded
        apart from the problems, so the caller can tell a known failure."""
        if status != "ok":
            self.failed_rows.append((tag, status))
        return status == "ok"

    def expect(self, ok, message):
        if not ok:
            self.problems.append(message)
        return ok


def terminal_tolerance(A, B, T, N, x0):
    """Scale-relative bound on the terminal state: TERMINAL_RTOL times the
    largest of 1, |x0| and the zero-input drift |Ad^N x0| (max norms).  An
    unstable plant amplifies rounding by as much as it amplifies x0."""
    Ad, _ = reference.zoh(A, B, T / N)
    drift = np.linalg.matrix_power(Ad, N) @ np.asarray(x0, dtype=float)
    return TERMINAL_RTOL * max(1.0, float(np.max(np.abs(x0))), float(np.max(np.abs(drift))))


def cost_nonincreasing(history):
    h = np.asarray(history, dtype=float)
    slack = COST_RTOL * np.maximum(1.0, np.abs(h[:-1]))
    return bool(np.all(h[1:] <= h[:-1] + slack))


def read_trajectory(path, m):
    """Control samples (N, m) from a trajectory CSV written by the CLI."""
    with open(path, encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[2:]]
    return np.array([[float(v) for v in row[1:1 + m]] for row in rows[:-1]])


def read_table(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _check_control(out, tag, cfg, U, reported_l0):
    A, B, T, x0 = cfg["system"]["A"], cfg["system"]["B"], cfg["T"], cfg["x0"]
    N = cfg["N"]
    delta = T / N
    out.expect(U.shape == (N, np.shape(B)[1]), f"{tag}: control has shape {U.shape}")
    out.expect(np.max(np.abs(U)) <= 1.0 + 1e-9, f"{tag}: |u| exceeds 1")
    xT = reference.terminal_state(A, B, T, x0, U)
    tol = terminal_tolerance(A, B, T, N, x0)
    out.expect(np.max(np.abs(xT)) <= tol,
               f"{tag}: terminal state {np.max(np.abs(xT)):.3e} exceeds {tol:.3e}")
    l0 = reference.support(U, L0_THETA) * delta
    out.expect(abs(l0 - reported_l0) <= 1e-9, f"{tag}: reported l0 {reported_l0} but u has {l0}")


def _check_dblint(out, tag, cfg, U, l0):
    """Closed-form facts for the double integrator from x0 = (xi1, xi2):
    the velocity needs delta*sum(u) = -xi2, the position needs
    int_0^T (T - t) u(t) dt = -xi1 - xi2*T, and no admissible control has a
    support measure below |xi2| (a lower bound, so it is a check; reaching it
    is an agreement)."""
    xi1, xi2 = cfg["x0"]
    T, N = cfg["T"], cfg["N"]
    delta = T / N
    b = cfg["system"]["B"][1][0]  # 1, or the twin's scale
    u = b * U[:, 0]
    scale = max(1.0, abs(xi1), abs(xi2))
    mid = (np.arange(N) + 0.5) * delta
    out.expect(abs(delta * u.sum() + xi2) <= 1e-6 * scale, f"{tag}: velocity integral is off")
    out.expect(abs(delta * np.sum((T - mid) * u) + xi1 + xi2 * T) <= 1e-6 * scale,
               f"{tag}: double integral is off")
    expected = -xi2 / b
    out.expect(l0 >= expected - 2 * delta, f"{tag}: l0 {l0} below the closed-form minimum {expected}")
    return abs(l0 - expected) <= 2 * delta


def check_compare(cfg, outdir, dblint=False, twin_controls=None):
    """Every row of comparison.csv that reports success: control inside the
    box and steering x0 to the origin under the reference discretization, l0
    read off the control, DCA costs nonincreasing, the l1 row's objective
    equal to HiGHS's optimum.  On the double integrator also the closed-form
    facts.  ``twin_controls`` are the rows of the unscaled problem, which a
    coordinate-scaled twin must reproduce.  Rows that report a failure go to
    ``failed_rows``; the rows that solved are checked all the same."""
    outdir = Path(outdir)
    out = Outcome()
    m = np.shape(cfg["system"]["B"])[1]
    rows = read_table(outdir / "comparison.csv")
    out.expect(len(rows) == 1 + len(cfg["penalty"]), f"comparison has {len(rows)} rows")
    seen = {}
    for row in rows:
        kind = row["penalty"].split()[0]
        seen[kind] = seen.get(kind, 0) + 1
        tag = kind if seen[kind] == 1 else f"{kind}_{seen[kind]}"
        if not out.row_ok(tag, row["status"]):
            continue
        U = read_trajectory(outdir / f"trajectory_{tag}.csv", m)
        out.controls[tag] = U
        l0 = float(row["l0"])
        _check_control(out, tag, cfg, U, l0)
        if tag != "l1":
            summary = json.loads((outdir / f"summary_{tag}.json").read_text())
            out.expect(cost_nonincreasing(summary["cost_history"]),
                       f"{tag}: cost_history increases")
            out.expect(summary["l0"] == l0, f"{tag}: summary and table disagree on l0")
        if dblint:
            out.agreements += _check_dblint(out, tag, cfg, U, l0)
        if twin_controls is not None and tag in twin_controls:
            gap = float(np.max(np.abs(U - twin_controls[tag])))
            out.expect(gap <= 1e-6, f"{tag}: u* differs from the unscaled u* by {gap:.3e}")
        out.results += 1
        out.l0_total += l0
    l1 = [r for r in rows if r["penalty"] == "l1" and r["status"] == "ok"]
    if l1:
        best = reference.l1_optimum(cfg["system"]["A"], cfg["system"]["B"], cfg["T"],
                                    cfg["N"], cfg["x0"])
        jd = float(l1[0]["J_d"])
        if out.expect(best is not None, "HiGHS found no l1 optimum"):
            ok = out.expect(abs(jd - best) <= L1_RTOL * max(1.0, abs(best)),
                            f"l1: objective {jd} but HiGHS finds {best}")
            if not dblint:
                out.agreements += ok
    return out


def check_oracle(cfg, outdir):
    """The oracle report against the public module functions and the
    reference discretization: the planted signal steers the program's x0 to
    the origin, the enumeration minimum is at most the planted support and
    every minimizer is feasible, and each DCA run (repeated through
    ``run_dca``) reproduces the reported l0 and iterations, stays in the box,
    reaches the origin and never raises its cost."""
    from handsoff.cli import penalty_from_mapping
    from handsoff.dca import ControlSignal, DcaConfig, run_dca
    from handsoff.oracle import brute_force_l0, make_exact_instance
    from handsoff.system import LinearSystem, build_discrete

    out = Outcome()
    rep = json.loads((Path(outdir) / "oracle.json").read_text())
    A, B, T, N = cfg["system"]["A"], cfg["system"]["B"], cfg["T"], cfg["N"]
    planted = np.asarray(cfg["oracle"]["planted"], dtype=float)
    delta = T / N
    planted_l0 = reference.support(planted) * delta
    out.expect(rep.get("mode") == "enumeration", f"mode {rep.get('mode')}")
    out.expect(abs(rep.get("planted_support_measure", -1) - planted_l0) <= 1e-12,
               "planted support measure is off")

    problem = make_exact_instance(LinearSystem(A, B), T, N, ControlSignal(delta, planted))
    x0 = problem.x0
    tol = terminal_tolerance(A, B, T, N, x0)
    gap = np.max(np.abs(reference.terminal_state(A, B, T, x0, planted)))
    out.expect(gap <= tol, f"planted signal misses the origin by {gap:.3e}")

    dp = build_discrete(problem, N)
    best, minimizers = brute_force_l0(dp, eps=rep["eps"])
    out.expect(rep["oracle_min_l0"] is not None and abs(rep["oracle_min_l0"] - best) <= 1e-12,
               f"oracle minimum {rep['oracle_min_l0']} but enumeration gives {best}")
    out.expect(best <= planted_l0 + 1e-12, f"oracle minimum {best} above planted {planted_l0}")
    out.expect(rep["n_minimizers"] == len(minimizers), "minimizer count differs")
    for i, sig in enumerate(minimizers):
        U = sig.samples
        out.expect(np.all(np.isin(U, (-1.0, 0.0, 1.0))), f"minimizer {i} leaves the grid")
        out.expect(abs(reference.support(U) * delta - best) <= 1e-12,
                   f"minimizer {i} has another support")
        gap = np.max(np.abs(reference.terminal_state(A, B, T, x0, U)))
        out.expect(gap <= tol, f"minimizer {i} misses the origin by {gap:.3e}")

    dca_cfg = DcaConfig(**cfg["dca"])
    for pen_doc, run in zip(cfg["penalty"], rep["runs"]):
        tag = run["penalty"]
        if not out.row_ok(tag, run["status"]):
            continue
        res = run_dca(dp, penalty_from_mapping(pen_doc), dca_cfg)
        out.expect(res.l0 == run["l0"] and res.iterations == run["iterations"],
                   f"{tag}: run_dca does not reproduce the CLI's run")
        U = res.u_star.samples
        out.expect(np.max(np.abs(U)) <= 1.0 + 1e-9, f"{tag}: |u| exceeds 1")
        gap = np.max(np.abs(reference.terminal_state(A, B, T, x0, U)))
        out.expect(gap <= tol, f"{tag}: terminal state {gap:.3e} exceeds {tol:.3e}")
        out.expect(abs(reference.support(U, L0_THETA) * delta - run["l0"]) <= 1e-9,
                   f"{tag}: l0 does not match u")
        out.expect(cost_nonincreasing(res.cost_history), f"{tag}: cost_history increases")
        agrees = abs(run["l0"] - best) <= AGREE_TOL
        out.expect(run.get("agrees") == agrees, f"{tag}: 'agrees' flag is wrong")
        out.agreements += agrees
        out.results += 1
        out.l0_total += run["l0"]
    out.expect(len(rep["runs"]) == len(cfg["penalty"]), "run count differs from penalties")
    return out
