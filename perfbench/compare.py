#!/usr/bin/env python3
"""Compare two result sets against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

A result set is a JSONL file written by ``suite.py``: one line per run with
its workload, seed and result.  For every workload and end-to-end metric the
table gives each set's median and spread (distance between the quartiles
over the median) and the change of the medians, signed so that a positive
change is a worsening, against the metric's bound.  The exit code is 1 when
a median is worse by more than its bound or the sets fail a different share
of their operations.
"""

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_benchmark():
    return json.loads(BENCHMARK.read_text())


def load_results(path):
    """{workload: [run record, ...]} from a suite JSONL file."""
    runs = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            runs.setdefault(rec["workload"], []).append(rec)
    return runs


def spread(values):
    """Interquartile distance over the median, as the acceptance rule takes it."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def values(runs, metric):
    return [r["result"]["metrics"][metric]["value"] for r in runs
            if metric in r["result"]["metrics"]]


def failed_share(runs):
    return (sum(r["result"]["failed"] for r in runs),
            sum(r["result"]["attempted"] for r in runs))


def worsening(base, new, better):
    """Relative change of the median, positive when ``new`` is worse."""
    change = (new - base) / base
    return change if better == "lower" else -change


def compare(base, new, bench):
    """Rows (workload, metric, unit, base median, new median, worsening,
    bound, verdict) and whether every pairing is within its bound."""
    rows, ok = [], True
    for workload in sorted(set(base) | set(new)):
        b_runs, n_runs = base.get(workload, []), new.get(workload, [])
        for m in bench["end_to_end"]:
            bv, nv = values(b_runs, m["name"]), values(n_runs, m["name"])
            if not bv or not nv:
                rows.append((workload, m["name"], m["unit"], None, None, None, m["bound"], "missing"))
                ok = False
                continue
            bm, nm = statistics.median(bv), statistics.median(nv)
            w = worsening(bm, nm, m["better"])
            verdict = "worse" if w > m["bound"] else "ok"
            ok &= verdict == "ok"
            rows.append((workload, m["name"], m["unit"], bm, nm, w, m["bound"], verdict))
        bf, nf = failed_share(b_runs), failed_share(n_runs)
        same = bf[0] * nf[1] == nf[0] * bf[1]
        ok &= same
        rows.append((workload, "failed/attempted", "", f"{bf[0]}/{bf[1]}", f"{nf[0]}/{nf[1]}",
                     None, None, "ok" if same else "differs"))
    return rows, ok


def fmt(x):
    if x is None:
        return "-"
    if isinstance(x, str):
        return x
    return f"{x:.4g}"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = load_benchmark()
    base, new = load_results(argv[0]), load_results(argv[1])
    rows, ok = compare(base, new, bench)
    print(f"{'workload':<20} {'metric':<18} {'unit':<7} {'base':>11} {'new':>11} "
          f"{'worse by':>9} {'bound':>6}  verdict")
    for wl, metric, unit, bm, nm, w, bound, verdict in rows:
        print(f"{wl:<20} {metric:<18} {unit:<7} {fmt(bm):>11} {fmt(nm):>11} "
              f"{fmt(w):>9} {fmt(bound):>6}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
