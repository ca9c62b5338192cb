"""Command-line front end: JSON config in, CSV/JSON artifacts out.

Commands
    solve      run the DC iteration for one penalty, write trajectory + summary
    compare    run the plain l1 baseline and every configured penalty, write a table
    validate   check a penalty against the structural conditions
    oracle     compare solver output against exhaustive enumeration or, past
               the enumeration cap, the support certificate

Every command that solves runs one chain: one discretization, one l1 LP
(``solve_l1``), then ``run_dca(dp, pen, cfg, l1)`` for each penalty.  On
every plant, each ``compare`` row and each certificate-mode ``oracle`` run
is certified against the lower bound on the support that the l1 LP's duals
prove.

Exit codes: 0 success, 1 configuration error, 2 infeasible problem,
3 numerical failure, 4 assumption violated.  Outputs are byte-reproducible
across runs except for the wall-time field in summaries.
"""

import argparse
import dataclasses
import functools
import json
import os
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .dca import ControlSignal, DcaConfig, DcaResult, l0_measure, l1_result, run_dca, solve_l1
from .errors import (
    AssumptionViolationError,
    HandsOffError,
    InfeasibleProblemError,
    NumericalError,
    check_number,
)
from .lp import OPTIMAL, LpSolution
from .oracle import (
    MAX_ENUM_VARS,
    CertificateTolerances,
    brute_force_l0,
    certificate,
    exact_instance,
    support_lower_bound,
)
from .penalty import KINDS, Penalty, equivalence_constant, validate_assumption
from .system import ControlProblem, DiscreteProblem, LinearSystem, build_discrete, simulate

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2
EXIT_NUMERICAL = 3
EXIT_ASSUMPTION = 4


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
            check_number(f"penalty field {key!r}", doc[key], "a number", lambda v: True)
            kwargs[attr] = float(doc[key])
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
        try:
            doc[key] = float(val)
        except ValueError:
            doc[key] = val  # penalty_from_mapping reports it
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


def _dataclass_from_config(doc: dict, key: str, cls):
    """``cls`` from the optional mapping ``doc[key]``, whose keys must be
    fields of ``cls``."""
    sub = doc.get(key, {})
    if not isinstance(sub, dict):
        raise ConfigError(f"config key {key!r} must be a mapping")
    unknown = set(sub) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {key} fields {sorted(unknown)}")
    return cls(**sub)


def _number(sub: dict, key: str, section: str | None, kind=float):
    """``kind(sub[key])`` if ``check_number`` passes it (for ``int``, a whole
    number); its error names ``section.key`` (``key`` at the top level)."""
    raw = _require(sub, key)
    whole = kind is int
    check_number(key if section is None else f"{section}.{key}", raw,
                 "an integer" if whole else "a number",
                 lambda v: not whole or isinstance(v, int) or float(v).is_integer())
    return kind(raw)


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
        try:
            if any(isinstance(v, bool) for v in np.asarray(sub["planted"], dtype=object).flat):
                raise TypeError
            arr = np.asarray(sub["planted"], dtype=float)
        except (TypeError, ValueError):
            raise ConfigError("oracle.planted must be a flat or N x m array of "
                              f"numbers, got {sub['planted']!r}") from None
        if arr.ndim == 1:
            if system.m != 1 or arr.shape[0] != N:
                raise ConfigError("flat 'planted' requires m = 1 and length N")
            arr = arr.reshape(N, 1)
        return ControlSignal(delta, arr)
    if "random_planted" in sub:
        spec = sub["random_planted"]
        if not isinstance(spec, dict) or "support_size" not in spec:
            raise ConfigError("'random_planted' must be a mapping with 'support_size'")
        k = _number(spec, "support_size", "oracle.random_planted", int)
        if not 0 <= k <= N * system.m:
            raise ConfigError(f"support_size must lie in [0, {N * system.m}]")
        rng = np.random.default_rng(0 if seed is None else seed)
        flat = np.zeros(N * system.m)
        idx = rng.choice(N * system.m, size=k, replace=False)
        flat[idx] = rng.choice([-1.0, 1.0], size=k)
        return ControlSignal(delta, flat.reshape(N, system.m))
    return None


def _problem_from_config(doc: dict, seed: int | None) -> tuple[
        ControlProblem, DiscreteProblem, ControlSignal | None]:
    """The problem, its one discretization, and the planted signal (None
    without one), read in the order system, T and N, planted signal or x0."""
    sysdoc = _require(doc, "system")
    if not isinstance(sysdoc, dict) or "A" not in sysdoc or "B" not in sysdoc:
        raise ConfigError("config key 'system' must be a mapping with 'A' and 'B'")
    try:
        system = LinearSystem(np.asarray(sysdoc["A"], dtype=float),
                              np.asarray(sysdoc["B"], dtype=float))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad system matrices: {exc}") from exc
    T, N = _number(doc, "T", None), _number(doc, "N", None, int)
    if not np.isfinite(T) or T <= 0:
        raise ConfigError(f"T must be positive and finite, got {T}")
    if N < 1:
        raise ConfigError(f"N must be at least 1, got {N}")
    planted = _planted_from_config(doc, system, T, N, seed)
    if planted is not None:
        return *exact_instance(system, T, N, planted), planted
    x0doc = _require(doc, "x0")
    try:
        problem = ControlProblem(system, np.asarray(x0doc, dtype=float), T)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad x0/T: {exc}") from exc
    return problem, build_discrete(problem, N), None


# ---------------------------------------------------------------------------
# output writers

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _json_text(obj) -> str:
    # json knows neither numpy scalars nor arrays; tolist() gives Python values
    return json.dumps(obj, indent=2, sort_keys=True, default=lambda x: x.tolist())


def _write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, newlines untranslated.  An
    existing file is written over in place and cut to length, not truncated
    first, so a rewrite does not wait on the writeback that freeing its old
    blocks starts (ext4's ``auto_da_alloc``); the inode, links and a new
    file's mode are as under ``open(path, "w")``."""
    with open(path, "wb", opener=lambda p, flags: os.open(p, flags & ~os.O_TRUNC, 0o666)) as fh:
        fh.write(text.encode("utf-8"))
        fh.truncate()


def write_json(path, obj) -> str:
    """Write obj as JSON to path; return that text, less its final newline."""
    text = _json_text(obj)
    _write_text(path, text + "\n")
    return text


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
    _write_text(path, text)


# ---------------------------------------------------------------------------
# commands

class Case(NamedTuple):
    """What a command reads from its config, and the problem discretized once."""

    doc: dict
    problem: ControlProblem
    planted: ControlSignal | None
    penalties: Penalty | list[Penalty]
    cfg: DcaConfig
    tols: CertificateTolerances | None
    outdir: Path
    dp: DiscreteProblem


def _case(args, *, single: bool, tols: bool = False) -> Case:
    """Read the config in a fixed order, so a config with several faults
    reports the same one each time.  ``single``: one penalty, not a list.
    ``tols``: read the certificate tolerances (``compare``, ``oracle``)."""
    doc = load_config(args.config)
    problem, dp, planted = _problem_from_config(doc, args.seed)
    penalties = _penalties_from_config(doc, args.penalty, want_list=not single)
    cfg = _dataclass_from_config(doc, "dca", DcaConfig)
    tolerances = _dataclass_from_config(doc, "certificate", CertificateTolerances) if tols else None
    return Case(doc, problem, planted, penalties, cfg, tolerances, _outdir(args, doc), dp)


def _support_bound(case: Case, l1: LpSolution) -> float | None:
    """``support_lower_bound`` from the l1 LP's duals; None unless it verified."""
    if l1.status != OPTIMAL:
        return None
    return support_lower_bound(case.dp, l1.duals, case.cfg.l0_threshold)


def _outputs(case: Case, bound: float | None):
    """``outputs(result, text=True)`` -> (trajectory text or None, certificate
    report or None) of a result's control.  The certificate runs on each
    call, given the support bound ``bound``, on the result's own l0 and the
    terminal state of its trajectory.  Simulate and format run once per
    distinct ``z_star`` (bit for bit): many penalties often stop at one
    vertex."""
    dp, x0 = case.dp, case.problem.x0
    shared: dict[bytes, list] = {}

    def outputs(result: DcaResult, text=True):
        z = result.z_star
        entry = shared.setdefault(z.tobytes(), [None, None])
        if entry[0] is None:
            entry[0] = simulate(dp, x0, z)
        if text and entry[1] is None:
            entry[1] = trajectory_csv(result.u_star, entry[0])
        if bound is None:
            return entry[1], None
        return entry[1], certificate(result.l0, bound, entry[0][-1], dp.delta, case.tols)

    return outputs


def _verdict(report) -> str:
    return "" if report is None else "pass" if report.passed else "fail"


def _attempt(label: str, fn) -> tuple[dict, int]:
    """``({"status": "ok", **fn()}, EXIT_OK)``; if ``fn`` raises a package
    error, its row status and exit code instead, and "<label> failed: ..."
    on stderr."""
    try:
        return {"status": "ok", **fn()}, EXIT_OK
    except HandsOffError as exc:
        outcome = _outcome(exc)
        print(f"{label} failed: {exc}", file=sys.stderr)
        return {"status": outcome.status}, outcome.exit_code


def _run_fields(result: DcaResult) -> dict:
    """The fields that a comparison row, a summary and an oracle run all report."""
    return {"l0": result.l0, "iterations": result.iterations,
            "lp_solves": result.lp_solves, "bob_deviation": result.bob_deviation}


def _solve_and_write(case: Case, outputs, pen: Penalty, l1, suffix: str, seed):
    """Run the DC iteration for ``pen`` from the command's l1 solution ``l1``,
    write trajectory<suffix>.csv and summary<suffix>.json; returns the result
    and the certificate report."""
    t0 = time.perf_counter()
    result = run_dca(case.dp, pen, case.cfg, l1)
    wall = time.perf_counter() - t0
    text, report = outputs(result)
    write_trajectory_csv(case.outdir / f"trajectory{suffix}.csv", text)
    write_json(case.outdir / f"summary{suffix}.json", {
        **_run_fields(result),
        "penalty": penalty_label(pen),
        "kind": pen.kind,
        "cost_history": list(result.cost_history),
        "feas_residual": result.feas_residual,
        "complementarity_violation": result.complementarity_violation,
        "stop_reason": result.stop_reason,
        "max_kkt_residual": result.max_kkt_residual,
        "equivalence_constant": equivalence_constant(pen),
        "N": case.dp.N,
        "delta": case.dp.delta,
        "warm_start": case.cfg.warm_start,
        "seed": seed,
        "wall_time_s": wall,
    })
    return result, report


def cmd_solve(args) -> int:
    case = _case(args, single=True)
    pen, l1 = case.penalties, solve_l1(case.dp, case.cfg)
    result, _ = _solve_and_write(case, _outputs(case, None), pen, l1, "", args.seed)
    print(f"solve: {penalty_label(pen)}  l0={result.l0:.6g}  "
          f"iterations={result.iterations}  lp_solves={result.lp_solves}  "
          f"stop={result.stop_reason}")
    print(f"wrote {case.outdir / 'trajectory.csv'} and {case.outdir / 'summary.json'}")
    return EXIT_OK


def _comparison_table(path, rows) -> None:
    cols = ["penalty", "status", "l0", "J_d", "c", "iterations", "lp_solves",
            "bob_deviation", "certificate"]
    lines = [",".join(cols)]
    for row in rows:
        cells = (row.get(col, "") for col in cols)
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in cells))
    _write_text(path, "\n".join(lines) + "\n")


def cmd_compare(args) -> int:
    case = _case(args, single=False, tols=True)
    dp = case.dp
    l1 = solve_l1(dp, case.cfg)  # the baseline row, and where every run starts
    outputs = _outputs(case, _support_bound(case, l1))

    def row_fields(result, c, report):
        return {**_run_fields(result), "J_d": result.cost_history[-1], "c": c,
                "certificate": _verdict(report)}

    def baseline():
        result = l1_result(dp, case.cfg, l1)
        text, report = outputs(result)
        write_trajectory_csv(case.outdir / "trajectory_l1.csv", text)
        return row_fields(result, "", report)

    def row(pen, tag):
        result, report = _solve_and_write(case, outputs, pen, l1, f"_{tag}", args.seed)
        return row_fields(result, equivalence_constant(pen), report)

    fields, first_error = _attempt("l1 baseline", baseline)
    rows = [{"penalty": "l1", **fields}]
    seen: dict[str, int] = {}
    for pen in case.penalties:
        seen[pen.kind] = seen.get(pen.kind, 0) + 1
        tag = pen.kind if seen[pen.kind] == 1 else f"{pen.kind}_{seen[pen.kind]}"
        fields, code = _attempt(penalty_label(pen), lambda: row(pen, tag))
        rows.append({"penalty": penalty_label(pen), **fields})
        first_error = first_error or code

    _comparison_table(case.outdir / "comparison.csv", rows)
    for r in rows:
        l0 = r.get("l0")
        l0_txt = f"{l0:.6g}" if isinstance(l0, float) else "-"
        print(f"compare: {r['penalty']:<40} status={r['status']:<12} "
              f"l0={l0_txt} certificate={r.get('certificate') or '-'}")
    print(f"wrote {case.outdir / 'comparison.csv'}")
    return first_error


def cmd_validate(args) -> int:
    doc = load_config(args.config) if args.config else {}
    sub = doc.get("validate", {})
    if not isinstance(sub, dict):
        raise ConfigError("config key 'validate' must be a mapping")
    pen = _penalties_from_config(doc, args.penalty, want_list=False)
    kwargs = {key: _number(sub, key, "validate", kind)
              for key, kind in (("grid_size", int), ("margin", float)) if key in sub}
    report = validate_assumption(pen, **kwargs)
    out = {"penalty": penalty_label(pen), **dataclasses.asdict(report)}
    print(_json_text(out))
    return EXIT_OK if report.passed else EXIT_ASSUMPTION


def cmd_oracle(args) -> int:
    case = _case(args, single=False, tols=True)
    dp, planted = case.dp, case.planted
    sub = case.doc.get("oracle", {})

    report: dict = {"N": dp.N, "delta": dp.delta, "seed": args.seed}
    if planted is not None:
        report["planted_support_measure"] = l0_measure(planted)

    l1 = solve_l1(dp, case.cfg)  # where every run starts
    bound = None
    if dp.m * dp.N <= MAX_ENUM_VARS:
        if "eps" in sub:
            eps = _number(sub, "eps", "oracle")
        elif planted is not None:
            eps = 1e-8
        else:
            eps = 1e-3 * max(float(np.max(np.abs(dp.zeta))), 1e-5)
        min_l0, minimizers = brute_force_l0(dp, eps=eps)
        oracle_min = None if np.isinf(min_l0) else min_l0
        report.update({
            "mode": "enumeration",
            "eps": eps,
            "oracle_min_l0": oracle_min,
            "n_minimizers": len(minimizers),
            "no_feasible_grid_point": not minimizers,
        })
    else:
        bound = _support_bound(case, l1)
        report.update({"mode": "certificate", "lower_bound": bound})
    outputs = _outputs(case, bound)

    def run(pen):
        result = run_dca(dp, pen, case.cfg, l1)
        entry = _run_fields(result)
        if report["mode"] == "enumeration":
            entry["agrees"] = oracle_min is not None and abs(result.l0 - oracle_min) <= 1e-9
        else:
            _, rep = outputs(result, text=False)
            entry["certificate"] = _verdict(rep)
            entry["certificate_report"] = dataclasses.asdict(rep)
        return entry

    report["runs"] = [{"penalty": penalty_label(pen),
                       **_attempt(penalty_label(pen), lambda: run(pen))[0]}
                      for pen in case.penalties]

    print(write_json(case.outdir / "oracle.json", report))
    print(f"wrote {case.outdir / 'oracle.json'}")
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
    HandsOffError: Outcome("config_error", EXIT_CONFIG, "configuration error"),
}


def _outcome(exc: HandsOffError) -> Outcome:
    """The entry of the nearest class of ``exc`` in ``OUTCOMES``."""
    return next(OUTCOMES[c] for c in type(exc).__mro__ if c in OUTCOMES)


def _outdir(args, doc: dict) -> Path:
    """``--output``, else the string ``output_dir``, else "."; made if missing."""
    out = doc.get("output_dir")
    if out is not None and not isinstance(out, str):
        raise ConfigError(f"output_dir must be a string, got {out!r}")
    path = Path(args.output or out or ".")
    if not path.is_dir():
        try:
            path.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {path}: {exc}") from exc
    return path


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first ``main`` call (not at import) and shared
    by every later call in the process; ``parse_args`` keeps no state."""
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
    args = _build_parser().parse_args(argv)
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
