#!/usr/bin/env python3
"""Outside-in benchmark for handsoff: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The harness writes the workload's seeded
configs and starts one worker process (``worker.py``) that runs whole
rounds of CLI operations, one at a time, for about S seconds.  Set-up is
timed in fresh interpreters before and after the worker.  Then the harness
checks the outputs against independent computations (``checks.py``) and
prints one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the worker alternates untraced and traced rounds and the metrics are the
per-layer ones.  The line before it records the environment.  Everything
the run writes goes under .perfbench_out/ in the checkout.  The exit code is
0 when every operation either passed its checks or failed the known way.
"""

import os

# Pinned before numpy loads, here and in every child process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 16  # fresh interpreters per run; setup_s is their lower quartile
CHILD_TIMEOUT_S = 150
EXIT_CODE_NUMERICAL = 3  # handsoff's exit code for a numerical failure


def _fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def _spawn_ready(plan_path, *extra):
    """Start worker.py; return (process, seconds until it printed 'ready')."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(plan_path), *extra],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not start (exit {proc.returncode})")
    return proc, ready


def _finish(proc):
    try:
        proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker timed out") from None
    proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "machine": platform.machine(),
    }


def classify(op, rc, outcome):
    """An operation's status: "ok", "known_failure" or what is wrong.

    A known failure is the one its inputs were chosen to show and nothing
    more: for ``numerical_failure`` the CLI exits 3, every failed row reports
    a numerical failure and every other row passes its checks; for
    ``cost_increase`` the run completes and the checks find exactly the
    operation's ``known_problems``."""
    failed = [f"{tag}: status {status}" for tag, status in outcome.failed_rows]
    if (op["expect"] == "numerical_failure" and rc == EXIT_CODE_NUMERICAL and failed
            and not outcome.problems
            and all(status == "numerical_failure" for _, status in outcome.failed_rows)):
        return "known_failure"
    if (op["expect"] == "cost_increase" and rc == 0 and not failed
            and outcome.problems == op["known_problems"]):
        return "known_failure"
    found = ([] if rc == 0 else [f"exit {rc}"]) + failed + outcome.problems
    return "; ".join(found) if found else "ok"


def check_round(workload, ops, run_dir):
    """Check round 1's outputs; returns {op id: (status, Outcome or None)}
    with the status from ``classify``.  A compare that exits 3 still wrote
    its table, so its successful rows are checked too."""
    import checks

    verdict = {}
    for op, rec in ops:
        outdir = run_dir / "out" / op["id"] / "r1"
        rc = rec["rc"]
        if rc != 0 and not (rc == EXIT_CODE_NUMERICAL and op["command"] == "compare"):
            verdict[op["id"]] = (f"exit {rc}", None)
            continue
        try:
            if op["command"] == "oracle":
                outcome = checks.check_oracle(op["config"], outdir)
            else:
                twin_status, twin = verdict.get(op.get("twin_of"), (None, None))
                outcome = checks.check_compare(
                    op["config"], outdir, dblint=workload == "dblint-n4000",
                    twin_controls=twin.controls if twin_status == "ok" else None)
        except Exception as exc:  # unreadable or missing outputs fail the operation
            verdict[op["id"]] = (f"check raised {type(exc).__name__}: {exc} (exit {rc})", None)
            continue
        verdict[op["id"]] = (classify(op, rc, outcome), outcome)
    return verdict


def _round_mean(recs, ok_ids):
    walls = [r["wall"] for r in recs if r["id"] in ok_ids]
    return sum(walls) / len(walls) if walls else 0.0


def _timed_setup(plan_path):
    """Seconds from spawn until a set-up-only worker is ready."""
    proc, ready = _spawn_ready(plan_path, "--setup-only")
    _finish(proc)
    return ready


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "handsoff" / "__init__.py").is_file():
        return _fail(f"no handsoff sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")

    run_dir = ROOT / ".perfbench_out" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "inputs").mkdir(parents=True)
    t0 = time.perf_counter()
    ops = WORKLOADS[args.workload](args.seed)
    generate_s = time.perf_counter() - t0
    for op in ops:
        op["config_path"] = str(run_dir / "inputs" / f"{op['id']}.json")
        Path(op["config_path"]).write_text(json.dumps(op["config"], indent=1))
    plan_path = run_dir / "plan.json"
    plan_path.write_text(json.dumps({"root": str(ROOT), "seconds": args.seconds,
                                     "trace": args.trace, "ops": ops}))

    try:
        # Half the set-up probes run before the timed loop and half after it,
        # so that one slow spell of the host does not set the figure alone.
        setup = [_timed_setup(plan_path) for _ in range(SETUP_PROBES // 2)]
        proc, _ = _spawn_ready(plan_path)
        _finish(proc)
        setup += [_timed_setup(plan_path) for _ in range(SETUP_PROBES - len(setup))]
    except RuntimeError as exc:
        return _fail(str(exc), 3)
    records = json.loads((run_dir / "records.json").read_text())
    rounds = records["rounds"]

    by_id = {op["id"]: op for op in ops}
    verdict = check_round(args.workload, [(by_id[r["id"]], r) for r in rounds[0]], run_dir)
    first = {r["id"]: r for r in rounds[0]}
    correct = records["warmup_rc"] == 0
    failed = 0
    attempted = 0
    problems = {}
    for recs in rounds:
        for r in recs:
            attempted += 1
            status = verdict[r["id"]][0]
            if (r["rc"], r["digest"]) != (first[r["id"]]["rc"], first[r["id"]]["digest"]):
                status = "outputs differ from round 1"
            if status != "ok":
                failed += 1
                if status != "known_failure":
                    correct = False
                    problems.setdefault(r["id"], status)
    ok_ids = {i for i, (s, _) in verdict.items() if s == "ok"}
    outcomes = [o for s, o in verdict.values() if s == "ok"]

    env = environment()
    means = [_round_mean(recs, ok_ids) for recs in rounds]
    env.update({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "rounds": len(rounds), "generate_s": generate_s,
                "problems": problems})
    if not args.trace:
        solved = sum(verdict[o_id][1].results for o_id in ok_ids)  # per round
        rates = [solved / sum(r["wall"] for r in recs) for recs in rounds]
        metrics = {
            "setup_s": (statistics.quantiles(setup, n=4)[0], "s"),
            "op_s": (statistics.median(means), "s"),
            "solves_per_s": (statistics.median(rates), "1/s"),
            "l0_total": (sum(o.l0_total for o in outcomes), "ctrl-s"),
            "oracle_agreements": (sum(o.agreements for o in outcomes), "count"),
            "peak_rss_mib": (records["peak_rss_kib"] / 1024.0, "MiB"),
        }
    else:
        import tracing

        spans, counts = tracing.read(run_dir / "trace.jsonl")
        traced = [r for recs in rounds for r in recs if r["traced"] and r["id"] in ok_ids]
        layer = tracing.layer_metrics(spans, counts, [r["seq"] for r in traced],
                                      [r["wall"] for r in traced])
        plain = statistics.median(m for m, recs in zip(means, rounds) if not recs[0]["traced"])
        with_trace = statistics.median(m for m, recs in zip(means, rounds) if recs[0]["traced"])
        layer["trace.overhead_pct"] = 100.0 * (with_trace / plain - 1.0) if plain else 0.0
        metrics = {k: (v, tracing.unit(k)) for k, v in layer.items()}

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (run_dir / "result.json").write_text(json.dumps({"env": env, "result": result}, indent=1))
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
