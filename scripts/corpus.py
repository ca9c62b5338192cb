"""Run every CLI command of a fixed input corpus and write a manifest of what
each one produced, so that two source trees can be compared byte for byte.

    python scripts/corpus.py --src SRC --output MANIFEST.jsonl

The corpus is the shipped ``configs/*.json``; every operation of seeds 1-3 of
the three benchmark workloads (``perfbench/workloads.py``); the double
integrator from x0 = (100, -1) with T = 5, N = 8, which no admissible control
steers to the origin; and the plant x' = 5x + u over T = 256, which the
configuration check refuses.  On each of these configs the script runs
``compare``, ``oracle``, and ``solve --penalty`` and ``validate --penalty``
for each of its penalties.  It then runs every refused input of the CLI
tests (``BAD_VALUES``, ``EVERY_READER`` and ``FLAG_ERRORS`` in
``tests/cli_inputs.py``), each with the commands its test runs.  Commands
run one at a time, in this process, through ``handsoff.cli.main`` imported
from SRC.  The inputs come from this checkout, whichever SRC runs.

The manifest has one JSON line per command: its id, ``<config name>/<command
index>``, its argv, its exit code, the sha256 of its stdout and of its
stderr, and the sha256 of each artifact it wrote, with the one field the
program does not reproduce, ``wall_time_s``, removed from the summaries.
Paths of the scratch directory are masked, so two manifests made on the same
machine are equal exactly when every command behaved the same;
``scripts/byte_gate.py`` compares two of them.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
CONFIG = object()  # stands for the config's path in an argv
L1L2 = {"kind": "l1l2", "lambda": 0.1}
EXTRA = {
    "infeasible": {"system": {"A": [[0.0, 1.0], [0.0, 0.0]], "B": [[0.0], [1.0]]},
                   "x0": [100.0, -1.0], "T": 5.0, "N": 8, "penalty": L1L2},
    "t256": {"system": {"A": [[5.0]], "B": [[1.0]]}, "x0": [0.1], "T": 256.0, "N": 500,
             "penalty": L1L2},
}


def corpus_configs():
    """(name, config) for every valid config of the corpus, in a fixed order."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    configs = [(path.stem, json.loads(path.read_text()))
               for path in sorted((ROOT / "configs").glob("*.json"))]
    for seed in SEEDS:
        for workload, ops in WORKLOADS.items():
            configs += [(f"{workload}-s{seed}-{op['id']}", op["config"]) for op in ops(seed)]
    return configs + list(EXTRA.items())


def commands(cli, config):
    """The argv lists run on one valid config, without ``--output``."""
    pendoc = config.get("penalty", [])
    specs = [cli.penalty_label(cli.penalty_from_mapping(p))
             for p in (pendoc if isinstance(pendoc, list) else [pendoc])]
    found = [["compare", "--config", CONFIG], ["oracle", "--config", CONFIG]]
    for spec in specs:
        found += [["solve", "--config", CONFIG, "--penalty", spec],
                  ["validate", "--penalty", spec]]
    return found


def refused_inputs():
    """(name, config or None, argv lists) for each refused input of the CLI
    tests, with the commands its test runs, in table order."""
    sys.path.insert(0, str(ROOT / "tests"))
    from cli_inputs import BAD_VALUES, EVERY_READER, FLAG_ERRORS, config

    cases = [(f"bad_values-{i}", config(case[1]), [[case[0], "--config", CONFIG]])
             for i, case in enumerate(BAD_VALUES)]
    cases += [(f"every_reader-{i}", config(case[0]), [[c, "--config", CONFIG] for c in case[1]])
              for i, case in enumerate(EVERY_READER)]
    return cases + [(f"flag_errors-{i}", None, [argv]) for i, (argv, _) in enumerate(FLAG_ERRORS)]


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def artifacts(outdir: Path) -> dict:
    """sha256 of each file in outdir; summaries without ``wall_time_s``."""
    found = {}
    for path in sorted(outdir.iterdir()):
        data = path.read_bytes()
        if path.name.startswith("summary"):
            doc = json.loads(data)
            doc.pop("wall_time_s", None)
            data = json.dumps(doc, sort_keys=True).encode()
        found[path.name] = sha(data)
    return found


def run(cli, argv, work: Path) -> dict:
    """Run one command; its manifest entry, with ``work`` masked."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash is a result to compare, not a script failure
            code = f"{type(exc).__name__}: {exc}"

    def masked(text):
        return str(text).replace(str(work), "<work>")

    entry = {"argv": [masked(a) for a in argv],
             "exit": code if isinstance(code, int) else masked(code),
             "stdout": sha(masked(out.getvalue()).encode()),
             "stderr": sha(masked(err.getvalue()).encode())}
    if "--output" in argv:
        outdir = Path(argv[argv.index("--output") + 1])
        entry["artifacts"] = artifacts(outdir) if outdir.is_dir() else None
    return entry


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the source tree whose handsoff runs the corpus")
    parser.add_argument("--output", type=Path, required=True, help="manifest to write")
    args = parser.parse_args(argv)

    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import handsoff.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"handsoff was imported from {cli.__file__}, not {src}")
    cases = [(name, config, commands(cli, config)) for name, config in corpus_configs()]
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, config, argvs in cases + refused_inputs():
            config_path = str(work / f"{name}.json")
            if config is not None:
                Path(config_path).write_text(json.dumps(config))
            for k, argv in enumerate(argvs):
                # as the tests run them: validate and a bare command take no --output
                command = [config_path if a is CONFIG else a for a in argv]
                if command[1:] and command[0] != "validate":
                    command += ["--output", str(work / "out" / name / str(k))]
                lines.append(json.dumps({"id": f"{name}/{k}", **run(cli, command, work)}))
    args.output.write_text("\n".join(lines) + "\n")
    print(f"{len(lines)} commands; manifest in {args.output}")


if __name__ == "__main__":
    main()
