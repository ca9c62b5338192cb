"""Inputs of the CLI tests that ``scripts/corpus.py`` also runs: the base
config the cases override, and the tables of refused configs and flags.
Data only; it imports nothing from handsoff."""

from pathlib import Path


# The base config; each case overrides some of its keys (None drops one).
BENCH = {
    "system": {"A": [[0.0, 1.0], [0.0, 0.0]], "B": [[0.0], [1.0]]},
    "x0": [1.0, -1.0],
    "T": 5.0,
    "N": 50,
    "penalty": {"kind": "l1l2", "lambda": 0.1},
    "dca": {"warm_start": "l1"},
}


def config(overrides: dict) -> dict:
    """``BENCH`` with ``overrides``; a key overridden with None is dropped."""
    return {k: v for k, v in {**BENCH, **overrides}.items() if v is not None}


BIG = 10**400  # a 401-digit integer, beyond the float range
PLANTED = {"N": 4, "T": 2.0, "x0": None, "penalty": [{"kind": "l1l2", "lambda": 0.1}]}
ONE_SOURCE = ("an instance comes from exactly one of x0, oracle.planted and "
              "oracle.random_planted")
# A case whose key is no longer read (oracle.eps, validate.*, the
# certificate section, dca.max_iter, cost_tol and lp_tol) carries the first
# word of its old message as a fourth element, so that its id stays.
BAD_VALUES = [
    ("oracle", {**PLANTED, "oracle": {"planted": [1.0, 0.0, 0.0, 0.0], "eps": "x"}},
     "unknown oracle fields ['eps']", "oracle.eps"),
    ("oracle", {**PLANTED, "oracle": {"planted": [1.0, 0.0, 0.0, 0.0], "eps": [1]}},
     "unknown oracle fields ['eps']", "oracle.eps"),
    ("validate", {"validate": {"grid_size": "x"}},
     "unknown top-level fields ['validate']", "validate.grid_size"),
    ("validate", {"validate": {"margin": "x"}},
     "unknown top-level fields ['validate']", "validate.margin"),
    ("compare", {"N": 20, "certificate": {"l0": "x"}},
     "unknown top-level fields ['certificate']", "tolerance"),
    ("compare", {"N": 20, "certificate": {"terminal": -1}},
     "unknown top-level fields ['certificate']", "tolerance"),
    ("oracle", {"N": 200, "certificate": {"l0": True}},
     "unknown top-level fields ['certificate']", "tolerance"),
    ("oracle", {"N": 200, "certificate": {"terminal": "x"}},
     "unknown top-level fields ['certificate']", "tolerance"),
    ("oracle", {**PLANTED, "oracle": {"random_planted": {"support_size": "x"}}},
     "oracle.random_planted.support_size must be an integer, got 'x'"),
    ("oracle", {**PLANTED, "oracle": {"random_planted": {"support_size": 1.5}}},
     "oracle.random_planted.support_size must be an integer, got 1.5"),
    ("oracle", {**PLANTED, "oracle": {"planted": [["x"], [0.0], [0.0], [0.0]]}},
     "oracle.planted must be a flat or N x m array of numbers, "
     "got [['x'], [0.0], [0.0], [0.0]]"),
    ("oracle", {**PLANTED, "oracle": {"planted": [[1.0], [0.0, 0.0], [0.0], [0.0]]}},
     "oracle.planted must be a flat or N x m array of numbers, "
     "got [[1.0], [0.0, 0.0], [0.0], [0.0]]"),
    ("solve", {"N": 8.7}, "N must be an integer, got 8.7"),
    ("oracle", {**PLANTED, "T": -2, "oracle": {"planted": [1.0, 0.0, 0.0, 0.0]}},
     "T must be positive and finite, got -2.0"),
    ("oracle", {**PLANTED, "T": 0, "oracle": {"planted": [1.0, 0.0, 0.0, 0.0]}},
     "T must be positive and finite, got 0.0"),
    ("solve", {"T": -2}, "T must be positive and finite, got -2.0"),
    ("compare", {"N": 20, "dca": {"max_iter": 1e3}}, "unknown dca fields ['max_iter']",
     "max_iter"),
    ("compare", {"N": 20, "dca": {"max_iter": 2.5}}, "unknown dca fields ['max_iter']",
     "max_iter"),
    ("compare", {"N": 20, "dca": {"max_iter": True}}, "unknown dca fields ['max_iter']",
     "max_iter"),
    ("compare", {"N": 20, "dca": {"cost_tol": True}}, "unknown dca fields ['cost_tol']",
     "cost_tol"),
    ("compare", {"N": 20, "dca": {"lp_tol": "1e-9"}}, "unknown dca fields ['lp_tol']", "lp_tol"),
    ("solve", {"dca": {"warm_start": "zero"}}, "warm_start must be 'l1', got 'zero'"),
    ("solve", {"N": True}, "N must be an integer, got True"),
    ("solve", {"T": True}, "T must be a number, got True"),
    ("solve", {"penalty": 3}, "config key 'penalty' must be a mapping"),
    ("solve", {"penalty": {"kind": "l1l2", "lambda": "x"}},
     "penalty field 'lambda' must be a number, got 'x'"),
    ("solve", {"system": None}, "config is missing required key 'system'"),
    ("solve", {"dca": [1]}, "config key 'dca' must be a mapping"),
    ("compare", {"N": 20, "certificate": 1}, "unknown top-level fields ['certificate']", "config"),
    ("solve", {"penalty": [{"kind": "l1l2", "lambda": 0.1}]},
     "'penalty' must be a single mapping for this command"),
    ("oracle", {**PLANTED, "oracle": []}, "config key 'oracle' must be a mapping"),
    ("oracle", {**PLANTED, "system": {"A": [[0.0]], "B": [[1.0, 1.0]]},
                "oracle": {"planted": [1.0, 0.0, 0.0, 0.0]}},
     "flat 'planted' requires m = 1 and length N"),
    ("oracle", {**PLANTED, "oracle": {"random_planted": {}}},
     "config is missing required key 'oracle.random_planted.support_size'"),
    ("oracle", {**PLANTED, "oracle": {"random_planted": {"support_size": 5}}},
     "support_size must lie in [0, 4]"),
    ("solve", {"system": [1]}, "config key 'system' must be a mapping"),
    ("solve", {"system": {"A": [[0.0, 1.0]], "B": [[0.0], [1.0]]}},
     "bad system matrices: A must be square, got (1, 2)"),
    ("solve", {"x0": [1.0]}, "bad x0/T: x0 has length 1, expected 2"),
    ("validate", {"penalty": 3}, "config key 'penalty' must be a mapping"),
    ("solve", {"penalty": {"kind": "l1l2", "lambda": True}},
     "penalty field 'lambda' must be a number, got True"),
    ("oracle", {**PLANTED, "oracle": {"planted": [True, 0.0, 0.0, 0.0]}},
     "oracle.planted must be a flat or N x m array of numbers, got [True, 0.0, 0.0, 0.0]"),
    ("oracle", {**PLANTED, "oracle": {"planted": [[1.0], [False], [0.0], [0.0]]}},
     "oracle.planted must be a flat or N x m array of numbers, "
     "got [[1.0], [False], [0.0], [0.0]]"),
    ("compare", {"N": 20, "certificate": {"dblint": 0.1}},
     "unknown top-level fields ['certificate']"),
    # one number rule: a numeric string is refused wherever a number is read
    ("solve", {"T": "5"}, "T must be a number, got '5'"),
    ("solve", {"N": "40"}, "N must be an integer, got '40'"),
    ("oracle", {**PLANTED, "oracle": {"planted": [1.0, 0.0, 0.0, 0.0], "eps": "1e-3"}},
     "unknown oracle fields ['eps']", "oracle.eps"),
    ("validate", {"validate": {"margin": "0.1"}}, "unknown top-level fields ['validate']",
     "validate.margin"),
    # a config's output_dir is checked even when --output overrides it
    ("solve", {"output_dir": 5}, "output_dir must be a string, got 5"),
    ("compare", {"N": 20, "output_dir": ["a"]}, "output_dir must be a string, got ['a']"),
    # every section is a mapping whose keys are all known, at every level
    ("compare", {"N": 20, "certficate": {"l0": 0.05}}, "unknown top-level fields ['certficate']"),
    ("solve", {"system": {**BENCH["system"], "C": [[1.0]]}}, "unknown system fields ['C']"),
    ("solve", {"system": {"A": [[0.0]]}}, "config is missing required key 'system.B'"),
    ("oracle", {**PLANTED, "oracle": {"planted": [1.0, 0.0, 0.0, 0.0], "epss": 1e-3}},
     "unknown oracle fields ['epss']"),
    ("oracle", {**PLANTED, "oracle": {"random_planted": {"support_size": 1, "seed": 3}}},
     "unknown oracle.random_planted fields ['seed']"),
    ("oracle", {**PLANTED, "oracle": {"random_planted": 2}},
     "config key 'oracle.random_planted' must be a mapping"),
    ("compare", {"N": 20, "dca": {"max_iters": 5}}, "unknown dca fields ['max_iters']"),
    ("validate", {"validate": {"gridsize": 2000}}, "unknown top-level fields ['validate']"),
    ("compare", {"N": 20, "penalty": [{"kind": "l1l2", "lambda": 0.1, "beta": 1.0}]},
     "unknown penalty fields ['beta']"),
    ("compare", {"N": 20, "penalty": [[0.1]]}, "config key 'penalty' must be a mapping"),
    # solve refuses the certificate section, and oracle the oracle section in certificate mode
    ("solve", {"certificate": {"l0": "x"}}, "unknown top-level fields ['certificate']",
     "tolerance"),
    ("oracle", {"N": 200, "oracle": {"eps": "x"}}, "unknown oracle fields ['eps']", "oracle.eps"),
    # each penalty kind takes only its own parameters
    ("solve", {"penalty": {"kind": "scad", "lambda": 0.25, "alpha": 3.0, "p": 0.5}},
     "scad: takes no p, got 0.5"),
    # an instance comes from exactly one of x0, oracle.planted and oracle.random_planted
    ("oracle", {**PLANTED, "x0": [1.0, -1.0], "oracle": {"random_planted": {"support_size": 1}}},
     f"config gives x0 and oracle.random_planted; {ONE_SOURCE}"),
    ("oracle", {**PLANTED, "oracle": {"random_planted": {"support_size": 1},
                                      "planted": [1.0, 0.0, 0.0, 0.0]}},
     f"config gives oracle.random_planted and oracle.planted; {ONE_SOURCE}"),
    ("compare", {**PLANTED, "x0": [1.0, -1.0],
                 "oracle": {"planted": [1.0, 0.0, 0.0, 0.0], "random_planted": {}}},
     f"config gives x0 and oracle.planted and oracle.random_planted; {ONE_SOURCE}"),
    ("oracle", PLANTED, "config is missing required key 'x0'"),
    # each entry of an array is a number too, not a bool or a numeric string
    ("solve", {"system": {"A": [[False, True], [False, False]], "B": [[0.0], [1.0]]}},
     "system.A must be an array of numbers, got [[False, True], [False, False]]"),
    ("solve", {"system": {"A": [[0.0, 1.0], [0.0, 0.0]], "B": [["0"], ["1"]]}},
     "system.B must be an array of numbers, got [['0'], ['1']]"),
    ("solve", {"x0": [True, -1.0]}, "x0 must be an array of numbers, got [True, -1.0]"),
    ("oracle", {**PLANTED, "oracle": {"planted": ["1", "0", "0", "0"]}},
     "oracle.planted must be a flat or N x m array of numbers, got ['1', '0', '0', '0']"),
    # an integer beyond the float range is not a number
    ("solve", {"T": BIG}, f"T must be a number, got {BIG}"),
    ("solve", {"N": BIG}, f"N must be an integer, got {BIG}"),
    ("solve", {"x0": [BIG, -1.0]}, f"x0 must be an array of numbers, got [{BIG}, -1.0]"),
    ("solve", {"system": {"A": [[0.0, BIG], [0.0, 0.0]], "B": [[0.0], [1.0]]}},
     f"system.A must be an array of numbers, got [[0.0, {BIG}], [0.0, 0.0]]"),
    ("solve", {"penalty": {"kind": "l1l2", "lambda": BIG}},
     f"penalty field 'lambda' must be a number, got {BIG}"),
    # nor is inf or NaN (JSON's Infinity and NaN, or a literal such as 1e400)
    ("solve", {"T": float("inf")}, "T must be a number, got inf"),
    ("solve", {"x0": [float("nan"), -1.0]}, "x0 must be an array of numbers, got [nan, -1.0]"),
]


# Malformed inputs that some commands used to accept: each is refused by every
# command that reads the section it is in. A case whose section is no longer
# read (oracle.eps, validate, certificate) carries, as a fourth element, the id
# it had when it was, so its results line up with earlier runs.
EVERY_READER = [
    ({"certficate": {"l0": 0.05}}, ("solve", "compare", "oracle", "validate"),
     "unknown top-level fields ['certficate']"),
    ({"certificate": {"l0": "x"}}, ("solve", "compare", "oracle", "validate"),
     "unknown top-level fields ['certificate']", "tolerance 'l0' must be a nonnegative number"),
    ({"certificate": {"l0": 0.05, "terminal": 1e-6}}, ("solve", "compare", "oracle", "validate"),
     "unknown top-level fields ['certificate']", "unknown certificate fields ['terminal']"),
    ({"oracle": {"eps": "x"}}, ("solve", "compare", "oracle"), "unknown oracle fields ['eps']",
     "oracle.eps must be a number"),
    ({"oracle": {"epss": 1e-3}}, ("solve", "compare", "oracle"), "unknown oracle fields ['epss']"),
    ({"validate": {"gridsize": 2000}}, ("solve", "compare", "oracle", "validate"),
     "unknown top-level fields ['validate']", "unknown validate fields ['gridsize']"),
    ({"N": 4, "oracle": {"planted": [1.0, 0.0, 0.0, 0.0]}}, ("solve", "compare", "oracle"),
     f"config gives x0 and oracle.planted; {ONE_SOURCE}"),
    ({"system": {**BENCH["system"], "C": [[1.0]]}}, ("solve", "compare", "oracle"),
     "unknown system fields ['C']"),
    ({"x0": None, "N": 4, "oracle": {"random_planted": {"support_size": 1, "k": 2}}},
     ("solve", "compare", "oracle"), "unknown oracle.random_planted fields ['k']"),
    ({"penalty": {"kind": "l1l2", "lambda": 0.1, "alpha": 3.0}},
     ("solve", "compare", "oracle", "validate"), "l1l2: takes no alpha, got 3.0"),
    # the l0 threshold, the certificate's slack and lp's subgradient floor are
    # constants: a config that sets one, even to its value, is refused
    ({"certificate": {"l0": 0.05}}, ("solve", "compare", "oracle", "validate"),
     "unknown top-level fields ['certificate']"),
    ({"dca": {"l0_threshold": 1e-6}}, ("solve", "compare", "oracle"),
     "unknown dca fields ['l0_threshold']"),
    ({"dca": {"lp_epsilon": 1e-8}}, ("solve", "compare", "oracle"),
     "unknown dca fields ['lp_epsilon']"),
    # so are the DC run's stopping rule and the LP tolerance
    ({"dca": {"cost_tol": 1e-8}}, ("solve", "compare", "oracle"),
     "unknown dca fields ['cost_tol']"),
    ({"dca": {"step_tol": 1e-9}}, ("solve", "compare", "oracle"),
     "unknown dca fields ['step_tol']"),
    ({"dca": {"max_iter": 50}}, ("solve", "compare", "oracle"),
     "unknown dca fields ['max_iter']"),
    ({"dca": {"lp_tol": 1e-9}}, ("solve", "compare", "oracle"),
     "unknown dca fields ['lp_tol']"),
]


FLAG_ERRORS = [
    (["solve"], "the following arguments are required: --config"),
    (["solve", "--config", "c.json", "--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
    ([], "the following arguments are required: command"),
    (["compare", "--config", "c.json", "--bogus"], "unrecognized arguments: --bogus"),
    (["validate"], "validate needs --penalty or --config"),
    (["oracle", "--config", str(Path(__file__).resolve().parents[1] / "configs"
                                / "planted_oracle.json"), "--seed", "-1"],
     "--seed must be a nonnegative integer, got -1"),
    # validate writes no file and draws no instance
    (["validate", "--penalty", "l1l2 lambda=0.1", "--output", "/nonexistent/x"],
     "unrecognized arguments: --output /nonexistent/x"),
    (["validate", "--penalty", "scad lambda=0.25 alpha=3", "--seed", "3"],
     "unrecognized arguments: --seed 3"),
]
