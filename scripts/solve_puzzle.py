#!/usr/bin/env python3
"""Solve the shipped word-search puzzle end to end and print the report.

Usage: python scripts/solve_puzzle.py [puzzle-file] [--json] [--cross-all]
"""

import argparse
import json
import sys
import time
from importlib import resources

from fractalsearch import load_puzzle, solve
from fractalsearch.puzzle import report_to_json_dict, report_to_text


def default_puzzle() -> str:
    return str(resources.files("fractalsearch") / "data" / "in_the_details.puzzle")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("puzzle", nargs="?", default=default_puzzle())
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--cross-all", action="store_true")
    args = parser.parse_args()

    spec = load_puzzle(args.puzzle)
    started = time.monotonic()
    report = solve(spec, cross_all=args.cross_all)
    elapsed = time.monotonic() - started
    if args.json:
        print(json.dumps(report_to_json_dict(report)))
    else:
        print(report_to_text(report))
        print(f"\nsolved {len(report.placements)} words in {elapsed:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
