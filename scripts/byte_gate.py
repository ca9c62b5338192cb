"""Check that the commands whose results moved between two corpus manifests
are exactly the intended ones.

    python scripts/byte_gate.py BASE.jsonl HEAD.jsonl [MOVES]

BASE and HEAD are manifests of ``scripts/corpus.py`` made from two source
trees on the same machine.  A command has moved when its line differs
between them, or is in one of them only.  MOVES lists the ids of the
intended moves, one ``<config name>/<command index>`` a line; blank lines
and lines that start with ``#`` are skipped.  Without MOVES no command may
move.  When the moved and the listed sets differ, the script prints both
differences and exits 1.
"""

import argparse
import json
import sys
from pathlib import Path


def lines_by_id(path: Path) -> dict:
    return {json.loads(line)["id"]: line for line in path.read_text().splitlines()}


def listed(path: Path | None) -> set:
    if path is None:
        return set()
    return {line.strip() for line in path.read_text().splitlines()
            if line.strip() and not line.startswith("#")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="manifest of the base tree")
    parser.add_argument("head", type=Path, help="manifest of the changed tree")
    parser.add_argument("moves", type=Path, nargs="?", help="ids of the intended moves")
    args = parser.parse_args(argv)

    base, head = lines_by_id(args.base), lines_by_id(args.head)
    moved = {i for i in base.keys() | head.keys() if base.get(i) != head.get(i)}
    expected = listed(args.moves)
    print(f"{len(head)} commands; {len(moved)} moved, {len(expected)} listed")
    if moved == expected:
        return 0
    for title, ids in (("moved but not listed", moved - expected),
                       ("listed but not moved", expected - moved)):
        print(f"{title} ({len(ids)}):")
        for i in sorted(ids):
            print(f"  {i}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
