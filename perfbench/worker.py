"""The measured process: imports handsoff from the checkout and runs a plan.

    python3 perfbench/worker.py PLAN.json [--setup-only]

Prints ``ready`` once ``handsoff.cli`` is imported and every generated config
has been read through ``handsoff.cli.load_config``; with ``--setup-only`` it
exits there, which is how ``run.py`` times set-up.  Otherwise it runs one
untimed warm-up operation, then whole rounds of the plan's operations, one
at a time, for the number of rounds that comes nearest the plan's seconds.
The CLI's own output goes to /dev/null.  Results go to ``records.json`` next
to the plan.
"""

import contextlib
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path


def _import_handsoff(root):
    sys.path.insert(0, str(root / "src"))
    import handsoff.cli

    if not Path(handsoff.cli.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"handsoff was imported from {handsoff.cli.__file__}, not the checkout")
    return handsoff.cli


def digest(outdir):
    """Hash of every artifact in outdir, with the wall-time field of the
    summaries removed (it is the one field the program does not reproduce)."""
    h = hashlib.sha256()
    for path in sorted(Path(outdir).iterdir()):
        data = path.read_bytes()
        if path.name.startswith("summary"):
            doc = json.loads(data)
            doc.pop("wall_time_s", None)
            data = json.dumps(doc, sort_keys=True).encode()
        h.update(path.name.encode() + b"\0" + data)
    return h.hexdigest()


def _call(cli, argv, devnull):
    with contextlib.redirect_stdout(devnull), contextlib.redirect_stderr(devnull):
        try:
            return cli.main(argv)
        except Exception as exc:  # a crash is an operation result, not a harness failure
            return f"{type(exc).__name__}: {exc}"


def main():
    plan_path = Path(sys.argv[1]).resolve()
    plan = json.loads(plan_path.read_text())
    root = Path(plan["root"])
    cli = _import_handsoff(root)
    for op in plan["ops"]:
        cli.load_config(op["config_path"])
    print("ready", flush=True)
    if "--setup-only" in sys.argv:
        return

    run_dir = plan_path.parent
    trace = plan["trace"]
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()

    def argv(op, out):
        return [op["command"], "--config", op["config_path"], "--output", str(out)]

    with open(os.devnull, "w") as devnull:
        warm = plan["ops"][0]
        warm_rc = _call(cli, argv(warm, run_dir / "warmup"), devnull)
        rounds = []
        seq = 0
        t_start = time.perf_counter()
        while True:
            r = len(rounds) + 1
            traced = bool(trace) and r % 2 == 0
            if traced:
                tracer.install()
            recs = []
            for op in plan["ops"]:
                out = run_dir / "out" / op["id"] / ("r1" if r == 1 else "rn")
                args = argv(op, out)
                t0 = time.perf_counter()
                if traced:
                    rc = tracer.run_op(seq, _call, cli, args, devnull)
                else:
                    rc = _call(cli, args, devnull)
                wall = time.perf_counter() - t0
                recs.append({"id": op["id"], "seq": seq, "rc": rc, "wall": wall,
                             "traced": traced, "digest": digest(out) if out.exists() else None})
                seq += 1
            if traced:
                tracer.uninstall()
            rounds.append(recs)
            # Another round only if it would end nearer the plan's seconds
            # than stopping now does (by the mean round so far).
            elapsed = time.perf_counter() - t_start
            if (elapsed + elapsed / len(rounds) / 2 >= plan["seconds"]
                    and len(rounds) >= (2 if trace else 1)):
                break
    records = {
        "warmup_rc": warm_rc,
        "rounds": rounds,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.write(run_dir / "trace.jsonl")
    (run_dir / "records.json").write_text(json.dumps(records))


if __name__ == "__main__":
    main()
