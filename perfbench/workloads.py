"""Seeded inputs for the three benchmark workloads.

Every workload is a fixed list of operations (one round).  An operation is one
``handsoff`` CLI command on one generated config file.  The same seed gives
the same configs, byte for byte.  The penalty lists are copied here rather
than read from ``configs/`` so that editing the shipped examples cannot change
the benchmark's inputs.

Some operations are expected to fail today: ``expect`` is
``"numerical_failure"`` (the CLI exits 3 and the failed rows report a
numerical failure) or ``"cost_increase"`` (the run completes and the checks
find exactly ``known_problems``).  Their inputs never depend on the seed, so
every run fails the same share of its operations.
"""

import numpy as np

# The six penalties of configs/double_integrator.json.
DBLINT_PENALTIES = [
    {"kind": "lp", "lambda": 0.8, "p": 0.5},
    {"kind": "mcp", "lambda": 1.0, "alpha": 0.5},
    {"kind": "scad", "lambda": 0.25, "alpha": 3.0},
    {"kind": "lsp", "lambda": 0.007238240841133117, "alpha": 1e-06},
    {"kind": "capped_l1", "lambda": 0.8, "alpha": 0.5},
    {"kind": "l1l2", "lambda": 0.1},
]
MULTI_PENALTIES = [
    {"kind": "scad", "lambda": 0.25, "alpha": 3.0},
    {"kind": "l1l2", "lambda": 0.1},
    {"kind": "capped_l1", "lambda": 0.8, "alpha": 0.5},
    {"kind": "lp", "lambda": 0.8, "p": 0.5},
]
# The four penalties of configs/planted_oracle.json.
PLANTED_PENALTIES = [
    {"kind": "lp", "lambda": 0.8, "p": 0.5},
    {"kind": "mcp", "lambda": 1.0, "alpha": 0.5},
    {"kind": "scad", "lambda": 0.25, "alpha": 3.0},
    {"kind": "l1l2", "lambda": 0.1},
]
# The seed-drawn pool leaves lp out: on about 5 % of these instances its DCA
# step raises the cost by ~1e-8, so whether an operation passed would depend
# on the seed.  The fault is kept in view by one fixed instance instead.
POOL_PENALTIES = PLANTED_PENALTIES[1:]
DCA = {"warm_start": "l1"}

DBLINT_X0 = (1.0, -1.0)
DBLINT_T, DBLINT_N = 5.0, 4000
TWIN_SCALE = 1e8

MULTI_N_STATES, MULTI_M, MULTI_T, MULTI_N = 10, 3, 10.0, 500
MULTI_PLANTS = 16
MULTI_L1_TARGET = 0.6  # l1-optimal control effort (s) each plant's x0 is scaled to
CALIBRATION_N = 200

PLANTED_T = 4.0
# (m*N, repeats): six shapes (n in 1..3, m in 1..2) per repeat.  The m*N = 12
# instances take two thirds of the time, in enumeration, whose vectorized
# numpy work varies half as much with the host's speed as the per-call
# overhead of small instances does; the many m*N = 8 instances keep the
# agreement count steady from seed to seed.
PLANTED_POOL = ((12, 4), (8, 30))
# A fixed planted instance (rng key, n, m, N) on which the lp DCA step raises
# the cost by 2.6e-8 relative, 26 times the check's slack.
LP_ASCENT = ([42, 4], 3, 2, 4)
LP_ASCENT_PROBLEM = "lp lambda=0.8 p=0.5: cost_history increases"


def _op(op_id, command, config, expect="ok", **extra):
    return {"id": op_id, "command": command, "config": config, "expect": expect, **extra}


def _system(A, B):
    return {"A": np.asarray(A, dtype=float).tolist(), "B": np.asarray(B, dtype=float).tolist()}


def dblint(seed):
    """The double-integrator benchmark at N=4000, plus its coordinate-scaled
    twin (B and x0 times 1e8), which has the same optimal control.  Nothing
    here depends on the seed."""
    base = {
        "system": _system([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]]),
        "x0": list(DBLINT_X0),
        "T": DBLINT_T,
        "N": DBLINT_N,
        "penalty": DBLINT_PENALTIES,
        "dca": DCA,
    }
    twin = dict(base, system=_system([[0.0, 1.0], [0.0, 0.0]], [[0.0], [TWIN_SCALE]]),
                x0=[TWIN_SCALE * x for x in DBLINT_X0])
    return [
        _op("dblint", "compare", base),
        _op("dblint_scaled", "compare", twin, expect="numerical_failure", twin_of="dblint"),
    ]


def _stable_plant(rng, n, m, decay):
    """A = S/sqrt(n) - decay*I with S skew-symmetric, so every eigenvalue
    has real part -decay; B is standard normal."""
    S = rng.standard_normal((n, n))
    A = (S - S.T) / (2.0 * np.sqrt(n)) - decay * np.eye(n)
    return A, rng.standard_normal((n, m))


def multi_input(seed):
    """Seed-drawn stable plants with n=10, m=3; x0 points in a random
    direction and is scaled until the l1-optimal effort (found by HiGHS on a
    coarse grid) is MULTI_L1_TARGET, which puts l0 near 0.65 s.  The last
    operation is the unstable scalar plant x' = 5x + u from x0 = 0.1, which
    is feasible but fails today."""
    from reference import calibrate_scale

    rng = np.random.default_rng([seed, 2])
    ops = []
    for k in range(MULTI_PLANTS):
        A, B = _stable_plant(rng, MULTI_N_STATES, MULTI_M, decay=0.3)
        d = rng.standard_normal(MULTI_N_STATES)
        d /= np.linalg.norm(d)
        s = calibrate_scale(A, B, MULTI_T, CALIBRATION_N, d, MULTI_L1_TARGET)
        ops.append(_op(f"plant{k}", "compare", {
            "system": _system(A, B), "x0": (s * d).tolist(), "T": MULTI_T,
            "N": MULTI_N, "penalty": MULTI_PENALTIES, "dca": DCA,
        }))
    ops.append(_op("unstable", "compare", {
        "system": _system([[5.0]], [[1.0]]), "x0": [0.1], "T": 10.0, "N": MULTI_N,
        "penalty": MULTI_PENALTIES, "dca": DCA,
    }, expect="numerical_failure"))
    return ops


def _planted(rng, n, m, N, penalties):
    """A plant with n states and m inputs and a planted grid signal with 1 to
    3 nonzero samples; the CLI builds x0 from the planted signal
    (``make_exact_instance``)."""
    A, B = _stable_plant(rng, n, m, decay=rng.uniform(0.0, 0.5))
    A = A + 0.3 * rng.standard_normal((n, n))  # not always stable: T=4 keeps Ad^N tame
    k = int(rng.integers(1, 4))
    flat = np.zeros(m * N)
    idx = rng.choice(m * N, size=k, replace=False)
    flat[idx] = rng.choice([-1.0, 1.0], size=k)
    return {
        "system": _system(A, B), "T": PLANTED_T, "N": N,
        "oracle": {"planted": flat.reshape(N, m).tolist()},
        "penalty": penalties, "dca": DCA,
    }


def planted_oracle(seed):
    """Seed-drawn planted instances, one per shape and repeat, then the fixed
    instance on which the lp run raises its cost, which fails today."""
    rng = np.random.default_rng([seed, 3])
    shapes = [(n, m, mn // m, rep) for mn, repeats in PLANTED_POOL
              for rep in range(repeats) for m in (1, 2) for n in (1, 2, 3)]
    ops = [_op(f"n{n}m{m}N{N}_{rep}", "oracle", _planted(rng, n, m, N, POOL_PENALTIES))
           for n, m, N, rep in shapes]
    key, n, m, N = LP_ASCENT
    ops.append(_op("lp_ascent", "oracle",
                   _planted(np.random.default_rng(key), n, m, N, PLANTED_PENALTIES),
                   expect="cost_increase", known_problems=[LP_ASCENT_PROBLEM]))
    return ops


WORKLOADS = {
    "dblint-n4000": dblint,
    "multi-input-n10m3": multi_input,
    "planted-oracle": planted_oracle,
}
