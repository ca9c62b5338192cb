"""Command-line front end: JSON config in, CSV/JSON artifacts out.

Commands
    solve      run the DC iteration for one penalty, write trajectory + summary
    compare    run the plain l1 baseline and every configured penalty, write a table
    validate   check a penalty against the structural conditions
    oracle     compare solver output against exhaustive enumeration or, past
               the enumeration cap, the support certificate

Every command that solves runs one chain: one discretization, one l1 LP
(``solve_l1``), then ``run_dca(dp, pen, cfg, l1)`` for each penalty; the
run's stopping rule and LP tolerance are constants, so ``dca`` takes only
``warm_start``.  On every plant, each ``compare`` row and each
certificate-mode ``oracle`` run is certified against the lower bound on the
support that the l1 LP's duals prove: it passes when its l0 is at most
n*delta above that bound.

Every config section (the root, ``system``, ``oracle``,
``oracle.random_planted``, ``dca`` and each penalty) passes one check,
``_section``: a mapping whose keys are all known.  Every number, also each
entry of an array, is a finite JSON number, not a bool or a string.  ``solve``,
``compare`` and ``oracle`` read the same sections in one order (``_case``);
an instance comes from exactly one of ``x0``, ``oracle.planted`` and
``oracle.random_planted``.

Exit codes: 0 success, 1 configuration error (a malformed config or flag),
2 infeasible problem, 3 numerical failure, 4 assumption violated; ``compare``
and ``oracle`` exit with the code of their first failed run.  Every error
that ends a command is one stderr line ``<kind>: <message>``, from ``main``.
Outputs are byte-reproducible across runs except for the wall-time field in
summaries.
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
    is_number,
)
from .lp import OPTIMAL, LpSolution
from .oracle import MAX_ENUM_VARS, brute_force_l0, certificate, exact_instance, support_lower_bound
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
# The keys of a config's root; each command reads those it needs.
_TOP_LEVEL = ("system", "x0", "T", "N", "penalty", "dca", "oracle", "output_dir")


def _section(obj, name: str | None, fields) -> dict:
    """``obj``, the config section at the dotted key ``name`` (None: the
    root), if it is a mapping whose keys all lie in ``fields``."""
    if not isinstance(obj, dict):
        raise ConfigError("config root must be a JSON object" if name is None
                          else f"config key {name!r} must be a mapping")
    unknown = set(obj) - set(fields)
    if unknown:
        raise ConfigError(f"unknown {name or 'top-level'} fields {sorted(unknown)}")
    return obj


def penalty_from_mapping(doc) -> Penalty:
    doc = _section(doc, "penalty", ("kind", *_PENALTY_FIELDS))
    kind = doc.get("kind")
    if kind not in KINDS:
        raise ConfigError(f"penalty kind must be one of {KINDS}, got {kind!r}")
    kwargs = {}
    for key, attr in _PENALTY_FIELDS.items():
        if key in doc:
            check_number(f"penalty field {key!r}", doc[key], "a number", lambda v: True)
            kwargs[attr] = float(doc[key])
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
    """The config's root mapping, whose keys must be known top-level keys."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return _section(doc, None, _TOP_LEVEL)


def _require(doc: dict, key: str, section: str | None = None):
    if key not in doc:
        name = key if section is None else f"{section}.{key}"
        raise ConfigError(f"config is missing required key {name!r}")
    return doc[key]


def _number(sub: dict, key: str, section: str | None, kind=float):
    """``kind(sub[key])`` if ``check_number`` passes it (for ``int``, a whole
    number); its error names ``section.key`` (``key`` at the top level)."""
    raw = _require(sub, key, section)
    whole = kind is int
    check_number(key if section is None else f"{section}.{key}", raw,
                 "an integer" if whole else "a number",
                 lambda v: not whole or isinstance(v, int) or float(v).is_integer())
    return kind(raw)


def _numbers(raw, what: str) -> np.ndarray:
    """``raw`` as a float array if each of its entries is a number (the rule
    of ``check_number``); else ConfigError "<what>, got <raw>"."""
    arr = np.asarray(raw, dtype=object)  # a ragged list gives entries that are lists
    if not all(is_number(v) for v in arr.flat):
        raise ConfigError(f"{what}, got {raw!r}")
    return arr.astype(float)


def _penalties_from_config(doc: dict, args) -> list[Penalty]:
    """``--penalty``, else the config's ``penalty``: for ``compare`` and
    ``oracle`` a mapping or a list of them (none when the key is absent); for
    ``solve`` and ``validate``, which run one penalty, a mapping."""
    if args.penalty is not None:
        return [parse_penalty_spec(args.penalty)]
    one = args.command in ("solve", "validate")
    pendoc = _require(doc, "penalty") if one else doc.get("penalty", [])
    if not isinstance(pendoc, list):
        return [penalty_from_mapping(pendoc)]
    if one:
        raise ConfigError("'penalty' must be a single mapping for this command")
    return [penalty_from_mapping(p) for p in pendoc]


def _planted_from_config(sub: dict, system: LinearSystem, T: float, N: int,
                         seed: int | None) -> ControlSignal | None:
    """The planted signal of the ``oracle`` section ``sub``; None without one."""
    delta = T / N
    if "planted" in sub:
        arr = _numbers(sub["planted"], "oracle.planted must be a flat or N x m array of numbers")
        if arr.ndim == 1:
            if system.m != 1 or arr.shape[0] != N:
                raise ConfigError("flat 'planted' requires m = 1 and length N")
            arr = arr.reshape(N, 1)
        return ControlSignal(delta, arr)
    if "random_planted" in sub:
        spec = _section(sub["random_planted"], "oracle.random_planted", ("support_size",))
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
    """The problem, its one discretization and the planted signal (None
    without one), read in the order system, T and N, the oracle section,
    x0.  The instance comes from exactly one of x0, oracle.planted and
    oracle.random_planted."""
    sysdoc = _section(_require(doc, "system"), "system", ("A", "B"))
    A, B = (_numbers(_require(sysdoc, key, "system"), f"system.{key} must be an array of numbers")
            for key in ("A", "B"))
    try:
        system = LinearSystem(A, B)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad system matrices: {exc}") from exc
    T, N = _number(doc, "T", None), _number(doc, "N", None, int)
    if T <= 0:  # a number passed by _number is finite
        raise ConfigError(f"T must be positive and finite, got {T}")
    if N < 1:
        raise ConfigError(f"N must be at least 1, got {N}")
    oracle = _section(doc.get("oracle", {}), "oracle", ("planted", "random_planted"))
    # each key of the oracle section names a source of the instance
    sources = (["x0"] if "x0" in doc else []) + [f"oracle.{key}" for key in oracle]
    if len(sources) > 1:
        raise ConfigError(f"config gives {' and '.join(sources)}; an instance comes from "
                          "exactly one of x0, oracle.planted and oracle.random_planted")
    planted = _planted_from_config(oracle, system, T, N, seed)
    if planted is not None:
        return *exact_instance(system, T, N, planted), planted
    x0 = _numbers(_require(doc, "x0"), "x0 must be an array of numbers")
    try:
        problem = ControlProblem(system, x0, T)
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

    problem: ControlProblem
    planted: ControlSignal | None
    penalties: list[Penalty]
    cfg: DcaConfig
    outdir: Path
    dp: DiscreteProblem
    seed: int | None


def _case(args) -> Case:
    """Read the config of ``solve``, ``compare`` or ``oracle`` in one fixed
    order, so a config with several faults reports the same one each time:
    the top level, the problem (``_problem_from_config``), then penalty,
    dca and output_dir."""
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be a nonnegative integer, got {args.seed}")
    doc = load_config(args.config)
    problem, dp, planted = _problem_from_config(doc, args.seed)
    penalties = _penalties_from_config(doc, args)
    cfg = DcaConfig(**_section(doc.get("dca", {}), "dca",
                               [f.name for f in dataclasses.fields(DcaConfig)]))
    return Case(problem, planted, penalties, cfg, _outdir(args, doc), dp, args.seed)


def _support_bound(case: Case, l1: LpSolution) -> float | None:
    """``support_lower_bound`` from the l1 LP's duals; None unless it verified."""
    if l1.status != OPTIMAL:
        return None
    return support_lower_bound(case.dp, l1.duals)


def _outputs(case: Case, bound: float | None):
    """``outputs(result, text)`` -> (trajectory text or None, certificate
    report or None) of a result's control.  The certificate runs on each
    call, given the support bound ``bound``, on the result's own l0 and the
    terminal state of its trajectory.  Simulate (for the text or the
    certificate only) and format run once per distinct ``z_star`` (bit for
    bit): many penalties often stop at one vertex."""
    dp, x0 = case.dp, case.problem.x0
    shared: dict[bytes, list] = {}

    def outputs(result: DcaResult, text: bool):
        z = result.z_star
        entry = shared.setdefault(z.tobytes(), [None, None])
        if entry[0] is None and (text or bound is not None):
            entry[0] = simulate(dp, x0, z)
        if text and entry[1] is None:
            entry[1] = trajectory_csv(result.u_star, entry[0])
        if bound is None:
            return entry[1], None
        return entry[1], certificate(result.l0, bound, entry[0][-1], dp.delta)

    return outputs


# The DcaResult fields that a run's record holds as they are; with the
# penalty, its kind and the cost history they make up a summary.
_RESULT_FIELDS = ("l0", "iterations", "lp_solves", "bob_deviation", "feas_residual",
                  "complementarity_violation", "stop_reason", "max_kkt_residual")


def _record(case: Case, outputs, l1: LpSolution, pen: Penalty | None, suffix: str | None) -> dict:
    """The record of one run: the l1 baseline (``pen`` None), measured from
    the command's l1 solution ``l1``, or the DC run for ``pen`` from ``l1``.
    It holds everything an artifact reports about the run; a summary, a
    comparison row and an oracle run each select keys of it.  With
    ``suffix``, the run writes trajectory<suffix>.csv and, for a penalty,
    summary<suffix>.json."""
    t0 = time.perf_counter()
    result = (l1_result(case.dp, l1) if pen is None
              else run_dca(case.dp, pen, case.cfg, l1))
    wall = time.perf_counter() - t0
    text, report = outputs(result, suffix is not None)
    rec = {"penalty": "l1", "kind": None, "c": ""} if pen is None else {
        "penalty": penalty_label(pen), "kind": pen.kind, "c": equivalence_constant(pen)}
    rec.update({name: getattr(result, name) for name in _RESULT_FIELDS},
               status="ok", exit_code=EXIT_OK, J_d=result.cost_history[-1],
               cost_history=list(result.cost_history),
               certificate="" if report is None else "pass" if report.passed else "fail",
               certificate_report=None if report is None else dataclasses.asdict(report))
    if suffix is not None:
        write_trajectory_csv(case.outdir / f"trajectory{suffix}.csv", text)
        if pen is not None:
            write_json(case.outdir / f"summary{suffix}.json", {
                **{k: rec[k] for k in ("penalty", "kind", "cost_history", *_RESULT_FIELDS)},
                "equivalence_constant": rec["c"], "N": case.dp.N, "delta": case.dp.delta,
                "warm_start": case.cfg.warm_start, "seed": case.seed, "wall_time_s": wall})
    return rec


def _records(case: Case, outputs, l1: LpSolution, pens: list, write: bool) -> list[dict]:
    """The record of each run of ``pens`` in order (None: the l1 baseline).
    A run that raises a package error is recorded by its label, row status
    and exit code only, with "<label> failed: ..." on stderr.  With
    ``write``, each run writes its artifacts under its tag: its kind,
    numbered from the second run of that kind on."""
    seen: dict[str, int] = {}
    records = []
    for pen in pens:
        kind = "l1" if pen is None else pen.kind
        seen[kind] = seen.get(kind, 0) + 1
        tag = kind if seen[kind] == 1 else f"{kind}_{seen[kind]}"
        try:
            records.append(_record(case, outputs, l1, pen, f"_{tag}" if write else None))
        except HandsOffError as exc:
            outcome = _outcome(exc)
            label = "l1" if pen is None else penalty_label(pen)
            print(f"{'l1 baseline' if pen is None else label} failed: {exc}", file=sys.stderr)
            records.append({"penalty": label, "status": outcome.status,
                            "exit_code": outcome.exit_code})
    return records


def _first_failure(records: list[dict]) -> int:
    """The exit code of the first run that failed; 0 when none did."""
    return next((r["exit_code"] for r in records if r["exit_code"]), EXIT_OK)


def cmd_solve(args) -> int:
    case = _case(args)
    rec = _record(case, _outputs(case, None), solve_l1(case.dp), case.penalties[0], "")
    print(f"solve: {rec['penalty']}  l0={rec['l0']:.6g}  "
          f"iterations={rec['iterations']}  lp_solves={rec['lp_solves']}  "
          f"stop={rec['stop_reason']}")
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
    case = _case(args)
    l1 = solve_l1(case.dp)  # the baseline row, and where every run starts
    records = _records(case, _outputs(case, _support_bound(case, l1)), l1,
                       [None, *case.penalties], write=True)
    _comparison_table(case.outdir / "comparison.csv", records)
    for r in records:
        l0 = r.get("l0")
        l0_txt = f"{l0:.6g}" if isinstance(l0, float) else "-"
        print(f"compare: {r['penalty']:<40} status={r['status']:<12} "
              f"l0={l0_txt} certificate={r.get('certificate') or '-'}")
    print(f"wrote {case.outdir / 'comparison.csv'}")
    return _first_failure(records)


def cmd_validate(args) -> int:
    if args.penalty is None and args.config is None:
        raise ConfigError("validate needs --penalty or --config")
    doc = load_config(args.config) if args.config else {}
    pen = _penalties_from_config(doc, args)[0]
    report = validate_assumption(pen)
    out = {"penalty": penalty_label(pen), **dataclasses.asdict(report)}
    print(_json_text(out))
    return EXIT_OK if report.passed else EXIT_ASSUMPTION


def cmd_oracle(args) -> int:
    case = _case(args)
    dp, planted = case.dp, case.planted

    report: dict = {"N": dp.N, "delta": dp.delta, "seed": args.seed}
    if planted is not None:
        report["planted_support_measure"] = l0_measure(planted)

    l1 = solve_l1(dp)  # where every run starts
    bound = None
    keys = ("penalty", "status", "l0", "iterations", "lp_solves", "bob_deviation")
    enumeration = dp.m * dp.N <= MAX_ENUM_VARS
    if enumeration:
        eps = 1e-8 if planted is not None else 1e-3 * max(float(np.max(np.abs(dp.zeta))), 1e-5)
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
        keys += ("certificate", "certificate_report")

    records = _records(case, _outputs(case, bound), l1, case.penalties, write=False)
    report["runs"] = [{k: rec[k] for k in keys if k in rec} for rec in records]
    if enumeration:
        for run in report["runs"]:
            if run["status"] == "ok":
                run["agrees"] = oracle_min is not None and abs(run["l0"] - oracle_min) <= 1e-9

    print(write_json(case.outdir / "oracle.json", report))
    print(f"wrote {case.outdir / 'oracle.json'}")
    return _first_failure(records)


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


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors (a missing ``--config``, a bad ``--seed``,
    an unknown command) raise ConfigError, so ``main`` reports them as it
    reports every configuration error."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first ``main`` call (not at import) and shared
    by every later call in the process; ``parse_args`` keeps no state."""
    parser = _Parser(
        prog="handsoff",
        description="Minimum-support control of linear systems on a zero-order-hold grid.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, solves=True):
        # validate writes no file and draws no instance
        p.add_argument("--config", required=solves, help="path to the JSON configuration")
        if solves:
            p.add_argument("--output", default=None, help="output directory")
        p.add_argument("--penalty", default=None,
                       help="inline penalty spec, e.g. 'l1l2 lambda=0.6' (overrides config)")
        if solves:
            p.add_argument("--seed", type=int, default=None,
                           help="seed for randomized instance generators")

    common(sub.add_parser("solve", help="solve one penalty and write trajectory + summary"))
    common(sub.add_parser("compare", help="run the l1 baseline and every configured penalty"))
    common(sub.add_parser("oracle", help="check solver output against ground truth"))
    common(sub.add_parser("validate", help="check a penalty's structural conditions"),
           solves=False)
    return parser


_COMMANDS = {
    "solve": cmd_solve,
    "compare": cmd_compare,
    "validate": cmd_validate,
    "oracle": cmd_oracle,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except HandsOffError as exc:
        outcome = _outcome(exc)
        print(f"{outcome.prefix}: {exc}", file=sys.stderr)
        return outcome.exit_code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
