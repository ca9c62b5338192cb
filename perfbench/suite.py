#!/usr/bin/env python3
"""Run every workload over several seeds and print every metric.

    python3 perfbench/suite.py --seeds 1 2 3 --out results.jsonl [--trace 1]

Runs ``run.py`` once per workload of BENCHMARK.json and seed, one run at a
time, with the run length from BENCHMARK.json.  Each run's record is
appended to --out as one JSON line.  Afterwards it prints, per workload and
metric, the median, the quartiles and the spread (interquartile distance
over the median).  Exits 1 if a run printed no result or was not correct.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import compare

HERE = Path(__file__).resolve().parent


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        sys.stderr.write(proc.stderr)
        return None
    return {"workload": workload, "seed": seed, "trace": trace, "exit": proc.returncode,
            "env": json.loads(lines[-2])["env"], "result": json.loads(lines[-1])}


def main(argv=None):
    bench = compare.load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ok = True
    runs = {}
    with open(args.out, "a", encoding="utf-8") as fh:
        for workload in (w["name"] for w in bench["workloads"]):
            for seed in args.seeds:
                rec = run_one(workload, seed, bench["run_seconds"], args.trace)
                if rec is None or not rec["result"]["correct"]:
                    ok = False
                    print(f"{workload} seed {seed}: no correct result "
                          f"{rec and rec['env'].get('problems')}", file=sys.stderr)
                if rec is None:
                    continue
                fh.write(json.dumps(rec) + "\n")
                fh.flush()
                runs.setdefault(workload, []).append(rec)

    metrics = bench["per_layer" if args.trace else "end_to_end"]
    for workload, recs in runs.items():
        failed, attempted = compare.failed_share(recs)
        print(f"\n{workload}: {len(recs)} runs, failed {failed}/{attempted}")
        print(f"  {'metric':<32} {'unit':<7} {'median':>11} {'q1':>11} {'q3':>11} "
              f"{'spread':>7} {'bound':>6}")
        for m in metrics:
            vals = compare.values(recs, m["name"])
            if not vals:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            bound = m.get("bound")
            print(f"  {m['name']:<32} {m['unit']:<7} {med:>11.5g} {q1:>11.5g} {q3:>11.5g} "
                  f"{compare.spread(vals):>7.3f} {compare.fmt(bound):>6}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
