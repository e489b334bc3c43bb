#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage:
    python3 bench/run.py --workload {puzzle,sweep,audit} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  The package is imported from ``src/``
of the same checkout.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The lines before it say how the numbers
were taken.  See NOTES.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOAD_NAMES = ("puzzle", "sweep", "audit")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "fractalsearch" / "__init__.py").is_file():
        print(f"no package sources at {SRC / 'fractalsearch'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    result = harness.measure(workload, args.seed, args.seconds, bool(args.trace))
    for note in result.notes:
        print(f"# {args.workload} seed={args.seed} trace={args.trace}: {note}")
    print(json.dumps(result.to_json_dict()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
