"""The benchmark's three workloads and their correctness gates.

A workload turns a seed into a fixed list of inputs (one *pass*), runs
one operation per input, and checks every result against the
benchmark's own golden files.  Operations call the package through its
module attributes (``puzzle.solve``, ``oracle.check_instance``, ...), so
the tracer's wrappers see them when they are installed.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from fractalsearch import oracle, puzzle

ROOT = Path(__file__).resolve().parent.parent
PUZZLE_FILE = ROOT / "src" / "fractalsearch" / "data" / "in_the_details.puzzle"
GOLDEN = Path(__file__).resolve().parent / "golden"

AUDIT_INSTANCES = 10000
AUDIT_TALLY_PREFIX = 1000
AUDIT_MAX_LEVEL = 10


class Puzzle:
    """One ``solve`` of the shipped 22 x 30 puzzle per operation.

    Inputs are fixed; the seed is only recorded.  ``solve`` builds a
    fresh searcher, so every operation pays the cold-cache cost a
    command-line user pays.
    """

    name = "puzzle"
    tail_percentile = 75.0
    run_check_ops = 0

    def __init__(self):
        self._golden = (GOLDEN / "puzzle_report.json").read_text(encoding="utf-8")

    def prepare(self, seed: int) -> list:
        return [puzzle.load_puzzle(str(PUZZLE_FILE))]

    def run(self, spec):
        return puzzle.solve(spec)

    def check(self, spec, report) -> list[str]:
        problems = []
        if report.level_counts != {1: 18, 2: 6, 3: 3, 4: 1, 6: 1, 15: 1, 17: 1, 86: 1}:
            problems.append(f"level table {report.level_counts}")
        if report.level_sum != 167:
            problems.append(f"level sum {report.level_sum}")
        if report.answer is None or report.answer.answer != "HUMPHREY":
            problems.append("answer is not HUMPHREY")
        if report.message != "SUMEACHWORDSLEVELXMARKSSPOT":
            problems.append(f"message {report.message!r}")
        text = json.dumps(puzzle.report_to_json_dict(report), indent=2) + "\n"
        if text != self._golden:
            problems.append("JSON report differs from golden/puzzle_report.json")
        return problems

    def check_run(self, seed: int, kept: list) -> list[str]:
        return []


class Sweep:
    """One exhaustive n=3 sweep (729 rule sets, 8,748 worst cases) per
    operation.  Inputs are fixed; the seed is only recorded."""

    name = "sweep"
    tail_percentile = 75.0
    run_check_ops = 0

    def __init__(self):
        golden = json.loads((GOLDEN / "sweep_n3.json").read_text(encoding="utf-8"))
        self._per_length_max = {int(k): v for k, v in golden["per_length_max"].items()}
        self._histogram = {int(k): v for k, v in golden["histogram"].items()}
        self._global_max = golden["global_max"]
        self._args = (golden["n"], golden["b"], golden["dimension"],
                      golden["word_len_cap"])

    def prepare(self, seed: int) -> list:
        return [self._args]

    def run(self, args):
        n, b, dimension, word_len_cap = args
        return oracle.sweep_max_latest(n, b=b, dimension=dimension,
                                       word_len_cap=word_len_cap)

    def check(self, args, report) -> list[str]:
        problems = []
        if report.global_max != self._global_max:
            problems.append(f"global max {report.global_max}")
        if not report.validated:
            problems.append("witness not validated")
        if report.per_length_max != self._per_length_max:
            problems.append(f"per-length maxima {report.per_length_max}")
        if report.histogram() != self._histogram:
            problems.append(f"histogram {report.histogram()}")
        return problems

    def check_run(self, seed: int, kept: list) -> list[str]:
        return []


@dataclass
class Audit:
    """One backward/forward agreement check per operation.

    The instances are drawn from the seed exactly as ``run_agreement``
    draws them, so the outcomes of the first ``run_check_ops`` operations
    must reproduce ``run_agreement(run_check_ops, seed)``.
    """

    instances: int = AUDIT_INSTANCES
    run_check_ops: int = AUDIT_TALLY_PREFIX
    name = "audit"
    tail_percentile = 99.0

    def prepare(self, seed: int) -> list:
        rng = random.Random(seed)
        return [oracle.random_instance(rng) for _ in range(self.instances)]

    def run(self, instance):
        rules, l1, word, direction = instance
        return oracle.check_instance(rules, l1, word, direction,
                                     max_level=AUDIT_MAX_LEVEL)

    def check(self, instance, got) -> list[str]:
        return [f"{kind}: {items[0]}" for kind, items in got["issues"].items() if items]

    def check_run(self, seed: int, kept: list) -> list[str]:
        """The loop's first outcomes tallied against the library audit."""
        tally = Counter(got["outcome"] for got in kept if got is not None)
        report = oracle.run_agreement(len(kept), seed, max_level=AUDIT_MAX_LEVEL)
        want = Counter(found=report.found_both, never=report.never_both,
                       beyond=report.beyond_horizon)
        problems = []
        if +tally != +want or not report.clean:
            problems.append(f"outcome tally {dict(tally)} != run_agreement "
                            f"{dict(want)} (clean={report.clean})")
        return problems


WORKLOADS = {"puzzle": Puzzle, "sweep": Sweep, "audit": Audit}
