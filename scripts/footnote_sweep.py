#!/usr/bin/env python3
"""Exhaustive sweep experiment: for 2-letter replacement rules in one
dimension, find the actual latest level on which any short word can first
appear, across every rule assignment for alphabets of 2, 3, and 4 letters.

The closed-form guarantee for a pair is n**2 + 1; this measures how loose
it is (the true maxima come out 4, 7, and 13 against 5, 10, and 17).

Usage: python scripts/footnote_sweep.py [--max-n 4] [--len-cap 2] [--jobs 2]
"""

import argparse
import sys
import time

from fractalsearch.bounds import w1
from fractalsearch.oracle import SWEEP_RULESET_CAP, sweep_max_latest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=4)
    parser.add_argument("--len-cap", type=int, default=2)
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args()
    # n letters with 1 x 2 blocks have n**2 blocks each: n**(2n) rule sets
    largest = max(n for n in range(2, 27) if n ** (2 * n) <= SWEEP_RULESET_CAP)
    if not 2 <= args.max_n <= largest:
        parser.error(f"--max-n must be from 2 to {largest}: more letters give "
                     f"more rule sets than the sweep cap of {SWEEP_RULESET_CAP}")
    for flag, value in (("--len-cap", args.len_cap), ("--jobs", args.jobs)):
        if value < 1:
            parser.error(f"{flag} must be at least 1, got {value}")

    print(f"{'n':>3} {'rule sets':>10} {'actual max':>11} {'pair bound':>11} "
          f"{'witness':<40} {'time':>8}")
    for n in range(2, args.max_n + 1):
        started = time.monotonic()
        report = sweep_max_latest(n, b=2, dimension=1,
                                  word_len_cap=args.len_cap, jobs=args.jobs)
        elapsed = time.monotonic() - started
        witness = (f"{report.witness_word} from {report.witness_l1} "
                   f"under {report.witness_rules}")
        print(f"{n:>3} {report.ruleset_count:>10} {report.global_max:>11} "
              f"{w1(2, n, 2):>11} {witness:<40} {elapsed:>7.1f}s")
        for length, level in report.per_length_max.items():
            print(f"      word length {length}: latest {level}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
