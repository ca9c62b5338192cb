"""Spans around the public functions of handsoff, installed from outside.

``Tracer.install`` replaces each target function, in every ``handsoff``
module that binds it, by a wrapper that records a span (operation id, span
id, parent span id, name, start, end) and the counts read off its arguments
and result.  ``uninstall`` puts the originals back, so traced and untraced
rounds can alternate in one process.  Spans stay in memory until
``write``.
"""

import json
import os
import sys
import time

import numpy as np

# (module, function, span name); the part of the name before the dot is the layer.
TARGETS = (
    ("handsoff.linalg", "zoh_discretize", "linalg.zoh_discretize"),
    ("handsoff.system", "build_discrete", "system.build_discrete"),
    ("handsoff.system", "simulate", "system.simulate"),
    ("handsoff.lp", "solve_lp", "lp.solve_lp"),
    ("handsoff.penalty", "validate_assumption", "penalty.validate_assumption"),
    ("handsoff.penalty", "phi_subgradient", "penalty.phi_subgradient"),
    ("handsoff.dca", "run_dca", "dca.run_dca"),
    ("handsoff.oracle", "brute_force_l0", "oracle.brute_force_l0"),
    ("handsoff.oracle", "make_exact_instance", "oracle.make_exact_instance"),
    ("handsoff.oracle", "double_integrator_certificate", "oracle.certificate"),
    ("handsoff.cli", "write_trajectory_csv", "cli.write_trajectory_csv"),
    ("handsoff.cli", "write_json", "cli.write_json"),
)
ROOT_SPAN = "cli.main"
LAYERS = ("linalg", "system", "lp", "penalty", "dca", "oracle", "cli")


class Tracer:
    def __init__(self):
        self.spans = []  # [op, span id, parent id, name, start ns, end ns]
        self.counts = {}  # op -> {counter: value}
        self._stack = []
        self._op = None
        self._saved = []
        self._dca_prev = []  # one entry per open run_dca span: its last LP iterate

    # -- installation -----------------------------------------------------
    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "handsoff" or name.startswith("handsoff."))]
        for modname, fname, span in TARGETS:
            orig = getattr(sys.modules[modname], fname)
            wrapper = self._wrap(orig, span)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self._saved.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    # -- recording --------------------------------------------------------
    def run_op(self, op, fn, *args):
        """Call fn(*args) as the root span of operation ``op``."""
        self._op = op
        self.counts.setdefault(op, {})
        try:
            return self._call(ROOT_SPAN, fn, args, {})
        finally:
            self._op = None

    def _count(self, key, value):
        c = self.counts[self._op]
        c[key] = c.get(key, 0) + value

    def _call(self, name, fn, args, kwargs):
        rec = [self._op, len(self.spans), self._stack[-1] if self._stack else -1, name, 0, 0]
        self.spans.append(rec)
        self._stack.append(rec[1])
        if name == "dca.run_dca":
            self._dca_prev.append(None)
        rec[4] = time.perf_counter_ns()
        try:
            out = fn(*args, **kwargs)
        finally:
            rec[5] = time.perf_counter_ns()
            self._stack.pop()
            if name == "dca.run_dca":
                self._dca_prev.pop()
        self._after(name, args, kwargs, out)
        return out

    def _wrap(self, fn, name):
        def traced(*args, **kwargs):
            if self._op is None:  # called outside an operation: not traced
                return fn(*args, **kwargs)
            return self._call(name, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def _after(self, name, args, kwargs, out):
        if name == "lp.solve_lp":
            self._count("lp.pivots", int(out.iterations))
            if self._dca_prev:
                prev = self._dca_prev[-1]
                if prev is not None:
                    self._count("lp.dca_followups", 1)
                    self._count("lp.repeat_vertices", int(np.array_equal(out.z, prev)))
                self._dca_prev[-1] = out.z
        elif name == "dca.run_dca":
            hist = np.asarray(out.cost_history)
            self._count("dca.iterations", int(out.iterations))
            self._count("dca.descents", int(np.count_nonzero(np.diff(hist) < 0)))
        elif name == "oracle.brute_force_l0":
            dp = args[0] if args else kwargs["dp"]
            self._count("oracle.grid_points", 3 ** (dp.m * dp.N))
        elif name.startswith("cli.write_"):
            path = args[0] if args else kwargs["path"]
            self._count("cli.bytes_written", os.path.getsize(path))

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for op, sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"op": op, "span": sid, "parent": parent, "name": name,
                                     "start_ns": t0, "end_ns": t1}) + "\n")
            fh.write(json.dumps({"counts": self.counts}) + "\n")


def read(path):
    """Spans and counts from a file written by ``Tracer.write``."""
    spans, counts = [], {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if "counts" in rec:
                counts = {int(k): v for k, v in rec["counts"].items()}
            else:
                spans.append([rec["op"], rec["span"], rec["parent"], rec["name"],
                              rec["start_ns"], rec["end_ns"]])
    return spans, counts


def unit(name):
    """Unit of a metric produced by ``layer_metrics`` or the overhead figure."""
    if name.endswith("_s") or name == "lp.s_per_pivot":
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    if name == "cli.bytes_written":
        return "B"
    if name == "trace.overhead_pct":
        return "%"
    return "count"


def self_times(spans):
    """Per span: duration minus the time covered by its direct children (s)."""
    dur = np.array([(s[5] - s[4]) * 1e-9 for s in spans])
    child = np.zeros(len(spans))
    for s, d in zip(spans, dur):
        if s[2] >= 0:
            child[s[2]] += d
    return dur, dur - child


def layer_metrics(spans, counts, ops, op_walls):
    """Per-layer figures per operation, over the operations ``ops``.

    ``op_walls`` are the wall times of those operations measured around the
    CLI call.  Times are in seconds, counts per operation."""
    ops = set(ops)
    n_ops = max(len(ops), 1)
    picked = [s for s in spans if s[0] in ops]
    index = {s[1]: i for i, s in enumerate(picked)}
    local = [[s[0], i, index.get(s[2], -1), s[3], s[4], s[5]] for i, s in enumerate(picked)]
    dur, own = self_times(local)
    calls, total, self_ = {}, {}, {}
    for s, d, o in zip(local, dur, own):
        calls[s[3]] = calls.get(s[3], 0) + 1
        total[s[3]] = total.get(s[3], 0.0) + d
        self_[s[3]] = self_.get(s[3], 0.0) + o
    cnt = {}
    for op in ops:
        for k, v in counts.get(op, {}).items():
            cnt[k] = cnt.get(k, 0) + v

    def per(x):
        return x / n_ops

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for _, _, span in TARGETS:
        out[f"{span}_calls"] = per(calls.get(span, 0))
        out[f"{span}_s"] = per(total.get(span, 0.0))
    for layer in LAYERS:
        out[f"{layer}.self_s"] = per(sum(v for k, v in self_.items()
                                         if k.split(".")[0] == layer
                                         and not k.startswith("cli.write_")))
    pivots = cnt.get("lp.pivots", 0)
    out["lp.pivots"] = per(pivots)
    out["lp.pivots_per_solve"] = ratio(pivots, calls.get("lp.solve_lp", 0))
    out["lp.s_per_pivot"] = ratio(total.get("lp.solve_lp", 0.0), pivots)
    out["lp.repeat_vertex_ratio"] = ratio(cnt.get("lp.repeat_vertices", 0),
                                          cnt.get("lp.dca_followups", 0))
    iters = cnt.get("dca.iterations", 0)
    out["dca.iterations"] = per(iters)
    out["dca.descent_ratio"] = ratio(cnt.get("dca.descents", 0), iters)
    out["oracle.grid_points"] = per(cnt.get("oracle.grid_points", 0))
    out["cli.bytes_written"] = per(cnt.get("cli.bytes_written", 0))
    accounted = sum(own)
    out["trace.accounted_share"] = ratio(accounted, sum(op_walls))
    out["trace.spans"] = per(len(local))
    return out
