"""Command-line front end: JSON config in, CSV/JSON artifacts out.

Commands
    solve      run the DC iteration for one penalty, write trajectory + summary
    compare    run the plain l1 baseline and every configured penalty, write a table
    validate   check a penalty against the structural conditions
    oracle     compare solver output against exhaustive enumeration or the
               double-integrator certificate

Exit codes: 0 success, 1 configuration error, 2 infeasible problem,
3 numerical failure, 4 assumption violated, 5 instance too large for the
oracle.  Outputs are byte-reproducible across runs except for the wall-time
field in summaries.
"""

import argparse
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .dca import (
    ControlSignal,
    DcaConfig,
    SplitControl,
    bang_off_bang_deviation,
    checked_lp,
    l0_measure,
    recombine,
    run_dca,
)
from .errors import (
    AssumptionViolationError,
    HandsOffError,
    InfeasibleProblemError,
    NumericalError,
    SizeError,
)
from .lp import LpProblem, solve_lp
from .oracle import (
    CertificateTolerances,
    brute_force_l0,
    double_integrator_certificate,
    make_exact_instance,
)
from .penalty import KINDS, Penalty, equivalence_constant, validate_assumption
from .system import ControlProblem, LinearSystem, build_discrete, simulate

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2
EXIT_NUMERICAL = 3
EXIT_ASSUMPTION = 4
EXIT_SIZE = 5


class ConfigError(HandsOffError, ValueError):
    """Malformed configuration document or flag."""


# ---------------------------------------------------------------------------
# config ingestion

_PENALTY_FIELDS = {"lambda": "lam", "alpha": "alpha", "p": "p"}


def penalty_from_mapping(doc) -> Penalty:
    if not isinstance(doc, dict):
        raise ConfigError(f"penalty spec must be a mapping, got {type(doc).__name__}")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise ConfigError(f"penalty kind must be one of {KINDS}, got {kind!r}")
    kwargs = {}
    for key, attr in _PENALTY_FIELDS.items():
        if key in doc:
            try:
                kwargs[attr] = float(doc[key])
            except (TypeError, ValueError):
                raise ConfigError(f"penalty field {key!r} must be numeric") from None
    unknown = set(doc) - set(_PENALTY_FIELDS) - {"kind"}
    if unknown:
        raise ConfigError(f"unknown penalty fields {sorted(unknown)}")
    if "lam" not in kwargs:
        raise ConfigError(f"penalty {kind!r} needs a lambda value")
    return Penalty(kind=kind, **kwargs)


def parse_penalty_spec(text: str) -> Penalty:
    """Inline form: '<kind> key=value ...', e.g. 'l1l2 lambda=0.6'."""
    parts = text.split()
    if not parts:
        raise ConfigError("empty penalty spec")
    doc = {"kind": parts[0]}
    for tok in parts[1:]:
        key, sep, val = tok.partition("=")
        if not sep:
            raise ConfigError(f"penalty spec token {tok!r} is not key=value")
        doc[key] = val
    return penalty_from_mapping(doc)


def penalty_label(pen: Penalty) -> str:
    out = f"{pen.kind} lambda={pen.lam!r}"
    if pen.alpha is not None:
        out += f" alpha={pen.alpha!r}"
    if pen.p is not None:
        out += f" p={pen.p!r}"
    return out


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    return doc


def _require(doc: dict, key: str):
    if key not in doc:
        raise ConfigError(f"config is missing required key {key!r}")
    return doc[key]


def _system_from_config(doc: dict) -> LinearSystem:
    sysdoc = _require(doc, "system")
    if not isinstance(sysdoc, dict) or "A" not in sysdoc or "B" not in sysdoc:
        raise ConfigError("config key 'system' must be a mapping with 'A' and 'B'")
    try:
        return LinearSystem(np.asarray(sysdoc["A"], dtype=float),
                            np.asarray(sysdoc["B"], dtype=float))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad system matrices: {exc}") from exc


def _horizon_from_config(doc: dict) -> tuple[float, int]:
    try:
        T = float(_require(doc, "T"))
        N = int(_require(doc, "N"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"T must be a number and N an integer: {exc}") from exc
    if N < 1:
        raise ConfigError(f"N must be at least 1, got {N}")
    return T, N


def _dca_from_config(doc: dict, warm_start_flag: str | None) -> DcaConfig:
    sub = doc.get("dca", {})
    if not isinstance(sub, dict):
        raise ConfigError("config key 'dca' must be a mapping")
    allowed = {"cost_tol", "step_tol", "max_iter", "lp_tol", "l0_threshold",
               "lp_epsilon", "warm_start"}
    unknown = set(sub) - allowed
    if unknown:
        raise ConfigError(f"unknown dca fields {sorted(unknown)}")
    kwargs = dict(sub)
    if warm_start_flag is not None:
        kwargs["warm_start"] = warm_start_flag
    try:
        return DcaConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad dca config: {exc}") from exc


def _penalties_from_config(doc: dict, inline: str | None, *, want_list: bool):
    if inline is not None:
        pens = [parse_penalty_spec(inline)]
        return pens if want_list else pens[0]
    pendoc = doc.get("penalty")
    if pendoc is None:
        if want_list:
            return []
        raise ConfigError("config is missing required key 'penalty'")
    if isinstance(pendoc, list):
        if not want_list:
            raise ConfigError("'penalty' must be a single mapping for this command")
        return [penalty_from_mapping(p) for p in pendoc]
    pen = penalty_from_mapping(pendoc)
    return [pen] if want_list else pen


def _planted_from_config(doc: dict, system: LinearSystem, T: float, N: int,
                         seed: int | None) -> ControlSignal | None:
    sub = doc.get("oracle", {})
    if not isinstance(sub, dict):
        raise ConfigError("config key 'oracle' must be a mapping")
    delta = T / N
    if "planted" in sub:
        arr = np.asarray(sub["planted"], dtype=float)
        if arr.ndim == 1:
            if system.m != 1 or arr.shape[0] != N:
                raise ConfigError("flat 'planted' requires m = 1 and length N")
            arr = arr.reshape(N, 1)
        return ControlSignal(delta, arr)
    if "random_planted" in sub:
        spec = sub["random_planted"]
        if not isinstance(spec, dict) or "support_size" not in spec:
            raise ConfigError("'random_planted' must be a mapping with 'support_size'")
        k = int(spec["support_size"])
        if not 0 <= k <= N * system.m:
            raise ConfigError(f"support_size must lie in [0, {N * system.m}]")
        rng = np.random.default_rng(0 if seed is None else seed)
        flat = np.zeros(N * system.m)
        idx = rng.choice(N * system.m, size=k, replace=False)
        flat[idx] = rng.choice([-1.0, 1.0], size=k)
        return ControlSignal(delta, flat.reshape(N, system.m))
    return None


def _problem_from_config(doc: dict, seed: int | None) -> tuple[ControlProblem, int, ControlSignal | None]:
    system = _system_from_config(doc)
    T, N = _horizon_from_config(doc)
    planted = _planted_from_config(doc, system, T, N, seed)
    if planted is not None:
        return make_exact_instance(system, T, N, planted), N, planted
    x0doc = _require(doc, "x0")
    try:
        problem = ControlProblem(system, np.asarray(x0doc, dtype=float), T)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad x0/T: {exc}") from exc
    return problem, N, None


def _certificate_tols(doc: dict) -> CertificateTolerances:
    sub = doc.get("certificate", {})
    if not isinstance(sub, dict):
        raise ConfigError("config key 'certificate' must be a mapping")
    allowed = {"value", "l0", "dblint", "terminal", "support_threshold",
               "edge_window", "per_edge"}
    unknown = set(sub) - allowed
    if unknown:
        raise ConfigError(f"unknown certificate fields {sorted(unknown)}")
    try:
        return CertificateTolerances(**sub)
    except TypeError as exc:
        raise ConfigError(f"bad certificate config: {exc}") from exc


def _is_double_integrator(system: LinearSystem) -> bool:
    return (
        system.n == 2
        and system.m == 1
        and np.array_equal(system.A, [[0.0, 1.0], [0.0, 0.0]])
        and np.array_equal(system.B, [[0.0], [1.0]])
    )


# ---------------------------------------------------------------------------
# output writers

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):  # before int: bool subclasses int
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def trajectory_csv(signal: ControlSignal, states: np.ndarray) -> str:
    """The trajectory file's text.  Rows are grid points t = k*delta for
    k = 0..N; the control columns carry N rows (blank in the terminal row),
    the state columns N + 1."""
    N, m = signal.N, signal.m
    n = states.shape[1]
    delta = float(signal.delta)
    # Row k holds k*delta (the same double as Python's k * delta), the
    # controls and the states; the terminal row has no controls.
    body = np.empty((N, 1 + m + n))
    body[:, 0] = np.arange(N) * delta
    body[:, 1:1 + m] = signal.samples
    body[:, 1 + m:] = states[:N]
    values = body.ravel().tolist() + [N * delta] + states[N].tolist()
    # One format call for the table; on Python floats "{:.17g}" gives _fmt's bytes.
    row = ",".join(["{:.17g}"] * (1 + m + n))
    last = ",".join(["{:.17g}"] + [""] * m + ["{:.17g}"] * n)
    table = "\n".join([row] * N + [last]).format(*values)
    header = ",".join(["t"] + [f"u_{j + 1}" for j in range(m)] + [f"x_{i + 1}" for i in range(n)])
    return ("# one row per grid point t = k*delta, k = 0..N; "
            "u_* columns have N rows (blank at k = N), x_* columns have N+1 rows\n"
            f"{header}\n{table}\n")


def write_trajectory_csv(path, text: str) -> None:
    """Write a trajectory file's text (from ``trajectory_csv``)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# commands

def _run_summary(pen: Penalty, result, dp, cfg_dca: DcaConfig, seed, wall: float) -> dict:
    return {
        "penalty": penalty_label(pen),
        "kind": pen.kind,
        "iterations": result.iterations,
        "lp_solves": result.lp_solves,
        "cost_history": list(result.cost_history),
        "l0": result.l0,
        "feas_residual": result.feas_residual,
        "bob_deviation": result.bob_deviation,
        "complementarity_violation": result.complementarity_violation,
        "stop_reason": result.stop_reason,
        "max_kkt_residual": result.max_kkt_residual,
        "equivalence_constant": equivalence_constant(pen),
        "N": dp.N,
        "delta": dp.delta,
        "warm_start": cfg_dca.warm_start,
        "seed": seed,
        "wall_time_s": wall,
    }


def cmd_solve(args) -> int:
    doc = load_config(args.config)
    problem, N, _ = _problem_from_config(doc, args.seed)
    pen = _penalties_from_config(doc, args.penalty, want_list=False)
    cfg_dca = _dca_from_config(doc, args.warm_start)
    outdir = _outdir(args, doc)
    dp = build_discrete(problem, N)
    t0 = time.perf_counter()
    result = run_dca(dp, pen, cfg_dca)
    wall = time.perf_counter() - t0
    states = simulate(dp, problem.x0, result.z_star.z)
    write_trajectory_csv(outdir / "trajectory.csv", trajectory_csv(result.u_star, states))
    write_json(outdir / "summary.json", _run_summary(pen, result, dp, cfg_dca, args.seed, wall))
    print(f"solve: {penalty_label(pen)}  l0={result.l0:.6g}  "
          f"iterations={result.iterations}  lp_solves={result.lp_solves}  "
          f"stop={result.stop_reason}")
    print(f"wrote {outdir / 'trajectory.csv'} and {outdir / 'summary.json'}")
    return EXIT_OK


def _solve_l1(dp, cfg_dca: DcaConfig):
    """The plain l1 LP, min sum(z) over Phi z = -zeta, 0 <= z <= 1.

    Its ``start`` (its optimal basis) starts every ``run_dca`` of a command,
    so each run's result does not depend on the runs before it, and under
    ``warm_start: "l1"`` each run's own l1 LP makes no pivots.
    """
    return solve_lp(LpProblem(np.ones(2 * dp.m * dp.N), dp.Phi, -dp.zeta), tol=cfg_dca.lp_tol)


def _baseline_row(sol, dp, outdir, outputs):
    """The l1 row of the comparison table from the l1 LP's solution."""
    sol = checked_lp(sol, "the l1 baseline")
    z_star = SplitControl(dp.delta, dp.N, dp.m, np.clip(sol.z, 0.0, 1.0))
    u = recombine(z_star)
    text, certificate = outputs(sol.z, u)
    write_trajectory_csv(outdir / "trajectory_l1.csv", text)
    return {
        "penalty": "l1",
        "status": "ok",
        "l0": l0_measure(u),
        "J_d": sol.objective,
        "c": "",
        "iterations": 1,
        "lp_solves": 1,
        "bob_deviation": bang_off_bang_deviation(u),
        "certificate": certificate,
    }


def _comparison_table(path, rows) -> None:
    cols = ["penalty", "status", "l0", "J_d", "c", "iterations", "lp_solves",
            "bob_deviation", "certificate"]
    lines = [",".join(cols)]
    for row in rows:
        cells = []
        for col in cols:
            val = row.get(col, "")
            if isinstance(val, (int, np.integer)):
                cells.append(str(int(val)))
            elif isinstance(val, (float, np.floating)):
                cells.append(_fmt(val))
            else:
                cells.append(str(val))
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_compare(args) -> int:
    doc = load_config(args.config)
    problem, N, _ = _problem_from_config(doc, args.seed)
    penalties = _penalties_from_config(doc, args.penalty, want_list=True)
    cfg_dca = _dca_from_config(doc, args.warm_start)
    tols = _certificate_tols(doc)
    outdir = _outdir(args, doc)
    dp = build_discrete(problem, N)
    with_cert = _is_double_integrator(problem.system)
    shared: dict[bytes, tuple[str, np.ndarray]] = {}

    def outputs(z, u):
        """The trajectory CSV text and certificate verdict of the control
        with split ``z`` and samples ``u``.  Rows whose controls are equal
        bit for bit (often: many penalties stop at the l1 vertex) share one
        simulate and one format."""
        key = z.tobytes() + u.samples.tobytes()
        if key not in shared:
            states = simulate(dp, problem.x0, z)
            shared[key] = trajectory_csv(u, states), states
        text, states = shared[key]
        if not with_cert:
            return text, ""
        rep = double_integrator_certificate(u, problem.x0, dp.N * dp.delta, tols, states=states)
        return text, "pass" if rep.passed else "fail"

    rows = []
    first_error = EXIT_OK
    start = None
    try:
        sol = _solve_l1(dp, cfg_dca)
        start = sol.start
        rows.append(_baseline_row(sol, dp, outdir, outputs))
    except HandsOffError as exc:
        outcome = _outcome(exc)
        rows.append({"penalty": "l1", "status": outcome.status})
        first_error = first_error or outcome.exit_code
        print(f"l1 baseline failed: {exc}", file=sys.stderr)

    seen: dict[str, int] = {}
    for pen in penalties:
        tag = pen.kind
        seen[tag] = seen.get(tag, 0) + 1
        if seen[tag] > 1:
            tag = f"{tag}_{seen[pen.kind]}"
        row = {"penalty": penalty_label(pen), "status": "ok", "certificate": ""}
        try:
            t0 = time.perf_counter()
            result = run_dca(dp, pen, cfg_dca, start)
            wall = time.perf_counter() - t0
            text, certificate = outputs(result.z_star.z, result.u_star)
            write_trajectory_csv(outdir / f"trajectory_{tag}.csv", text)
            write_json(outdir / f"summary_{tag}.json",
                       _run_summary(pen, result, dp, cfg_dca, args.seed, wall))
            row.update({
                "l0": result.l0,
                "J_d": result.cost_history[-1],
                "c": equivalence_constant(pen),
                "iterations": result.iterations,
                "lp_solves": result.lp_solves,
                "bob_deviation": result.bob_deviation,
                "certificate": certificate,
            })
        except HandsOffError as exc:
            outcome = _outcome(exc)
            row["status"] = outcome.status
            first_error = first_error or outcome.exit_code
            print(f"{penalty_label(pen)} failed: {exc}", file=sys.stderr)
        rows.append(row)

    _comparison_table(outdir / "comparison.csv", rows)
    for row in rows:
        l0 = row.get("l0")
        l0_txt = f"{l0:.6g}" if isinstance(l0, float) else "-"
        print(f"compare: {row['penalty']:<40} status={row['status']:<12} "
              f"l0={l0_txt} certificate={row.get('certificate') or '-'}")
    print(f"wrote {outdir / 'comparison.csv'}")
    return first_error


def cmd_validate(args) -> int:
    doc = load_config(args.config) if args.config else {}
    sub = doc.get("validate", {})
    if not isinstance(sub, dict):
        raise ConfigError("config key 'validate' must be a mapping")
    if args.penalty is not None:
        pen = parse_penalty_spec(args.penalty)
    else:
        pen = _penalties_from_config(doc, None, want_list=False)
    kwargs = {}
    if "grid_size" in sub:
        kwargs["grid_size"] = int(sub["grid_size"])
    if "margin" in sub:
        kwargs["margin"] = float(sub["margin"])
    report = validate_assumption(pen, **kwargs)
    out = {"penalty": penalty_label(pen), **asdict(report)}
    print(json.dumps(_jsonable(out), indent=2, sort_keys=True))
    return EXIT_OK if report.passed else EXIT_ASSUMPTION


def cmd_oracle(args) -> int:
    doc = load_config(args.config)
    problem, N, planted = _problem_from_config(doc, args.seed)
    penalties = _penalties_from_config(doc, args.penalty, want_list=True)
    cfg_dca = _dca_from_config(doc, args.warm_start)
    outdir = _outdir(args, doc)
    dp = build_discrete(problem, N)
    sub = doc.get("oracle", {})

    report: dict = {"N": N, "delta": dp.delta, "seed": args.seed}
    if planted is not None:
        report["planted_support_measure"] = l0_measure(planted)

    if dp.m * dp.N <= 16:
        if "eps" in sub:
            eps = float(sub["eps"])
        elif planted is not None:
            eps = 1e-8
        else:
            eps = 1e-3 * max(float(np.max(np.abs(dp.zeta))), 1e-5)
        min_l0, minimizers = brute_force_l0(dp, eps=eps)
        report.update({
            "mode": "enumeration",
            "eps": eps,
            "oracle_min_l0": None if np.isinf(min_l0) else min_l0,
            "n_minimizers": len(minimizers),
            "no_feasible_grid_point": not minimizers,
        })
        oracle_min = None if np.isinf(min_l0) else min_l0
    elif _is_double_integrator(problem.system):
        report.update({
            "mode": "certificate",
            "expected_l0": -float(problem.x0[1]),
        })
        oracle_min = None
    else:
        raise SizeError(
            f"m*N = {dp.m * dp.N} exceeds the enumeration cap and the system "
            "has no analytic certificate"
        )

    tols = _certificate_tols(doc)
    runs = []
    start = _solve_l1(dp, cfg_dca).start
    for pen in penalties:
        entry: dict = {"penalty": penalty_label(pen), "status": "ok"}
        try:
            result = run_dca(dp, pen, cfg_dca, start)
            entry.update({
                "l0": result.l0,
                "iterations": result.iterations,
                "lp_solves": result.lp_solves,
                "bob_deviation": result.bob_deviation,
            })
            if report["mode"] == "enumeration":
                entry["agrees"] = (oracle_min is not None
                                   and abs(result.l0 - oracle_min) <= 1e-9)
            else:
                states = simulate(dp, problem.x0, result.z_star.z)
                rep = double_integrator_certificate(
                    result.u_star, problem.x0, dp.N * dp.delta, tols, states=states)
                entry["certificate"] = "pass" if rep.passed else "fail"
                entry["certificate_report"] = asdict(rep)
        except HandsOffError as exc:
            entry["status"] = _outcome(exc).status
            print(f"{penalty_label(pen)} failed: {exc}", file=sys.stderr)
        runs.append(entry)
    report["runs"] = runs

    write_json(outdir / "oracle.json", report)
    print(json.dumps(_jsonable(report), indent=2, sort_keys=True))
    print(f"wrote {outdir / 'oracle.json'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring

class Outcome(NamedTuple):
    """How a package error surfaces: table row status, exit code, stderr prefix."""

    status: str
    exit_code: int
    prefix: str


# Looked up along the exception's MRO, so ConfigError, ParameterError,
# DimensionError and DomainError take the HandsOffError entry.
OUTCOMES: dict[type, Outcome] = {
    InfeasibleProblemError: Outcome("infeasible", EXIT_INFEASIBLE, "infeasible"),
    NumericalError: Outcome("numerical_failure", EXIT_NUMERICAL, "numerical failure"),
    AssumptionViolationError: Outcome("assumption_violated", EXIT_ASSUMPTION,
                                      "assumption violated"),
    SizeError: Outcome("config_error", EXIT_SIZE, "instance too large"),
    HandsOffError: Outcome("config_error", EXIT_CONFIG, "configuration error"),
}


def _outcome(exc: HandsOffError) -> Outcome:
    """The entry of the nearest class of ``exc`` in ``OUTCOMES``."""
    return next(OUTCOMES[c] for c in type(exc).__mro__ if c in OUTCOMES)


def _outdir(args, doc: dict):
    out = args.output or doc.get("output_dir") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="handsoff",
        description="Minimum-support control of linear systems on a zero-order-hold grid.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        p.add_argument("--config", required=needs_config,
                       help="path to the JSON configuration")
        p.add_argument("--output", default=None, help="output directory")
        p.add_argument("--penalty", default=None,
                       help="inline penalty spec, e.g. 'l1l2 lambda=0.6' (overrides config)")
        p.add_argument("--warm-start", dest="warm_start", default=None,
                       choices=("zero", "l1"), help="override the DC warm start")
        p.add_argument("--seed", type=int, default=None,
                       help="seed for randomized instance generators")

    common(sub.add_parser("solve", help="solve one penalty and write trajectory + summary"))
    common(sub.add_parser("compare", help="run the l1 baseline and every configured penalty"))
    common(sub.add_parser("oracle", help="check solver output against ground truth"))
    common(sub.add_parser("validate", help="check a penalty's structural conditions"),
           needs_config=False)
    return parser


_COMMANDS = {
    "solve": cmd_solve,
    "compare": cmd_compare,
    "validate": cmd_validate,
    "oracle": cmd_oracle,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "validate" and args.penalty is None and args.config is None:
        print("validate needs --penalty or --config", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _COMMANDS[args.command](args)
    except HandsOffError as exc:
        outcome = _outcome(exc)
        print(f"{outcome.prefix}: {exc}", file=sys.stderr)
        return outcome.exit_code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
