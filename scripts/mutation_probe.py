#!/usr/bin/env python3
"""Mutation probe: which wrong programs does the tier-1 suite let through?

Each mutant is one text replacement in one file of the package.  For each,
the probe copies the repository to a temporary directory, applies the
mutant, runs the tier-1 suite there with ``-x`` and prints whether the
suite killed it (some test failed) or let it survive.  A mutant listed as
equivalent cannot change an output, only the work done, so its survival
is expected.  The probe exits 1 if any other mutant survives, and 2 if a
mutant's text is no longer found once in its file.

Each run is bounded: it is stopped after ``TIME_LIMIT_S`` seconds, and
its address space is capped at ``MEMORY_CAP`` bytes.  A mutant that
makes the suite run away is killed by one of the limits, and the probe
says which.

Usage: python scripts/mutation_probe.py [NAME ...]

With names, only those mutants run.  Each run takes from a few seconds
to the length of the whole suite.
"""

from __future__ import annotations

import argparse
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = "src/fractalsearch/"
# Limits on each mutant's suite run.  The unmutated suite takes about
# 20 s and peaks at about 65 MB resident (2 vCPUs, Python 3.11.7).
TIME_LIMIT_S = 300
MEMORY_CAP = 2 << 30

# name: (file, old text, new text, what the mutant breaks).  The forward
# walk's WINDOW_CAP x 10 is left out: it survives, as no tier-1 test walks
# past 10^6 windows, and an input that does takes seconds and about 100 MB.
MUTANTS = {
    "settle-scan-inverted": (
        PKG + "ancestry.py",
        "grounds = self._l1_index.starts_any(product)",
        "grounds = not self._l1_index.starts_any(product)",
        "a product with starts left in the grid is settled as ungrounded"),
    "band-widened": (
        PKG + "patterns.py",
        "return keys[-1] - keys[0] <= 1",
        "return keys[-1] - keys[0] <= 2",
        "the audit's diagonal band holds three diagonals"),
    "audit-w1-loosened": (
        PKG + "oracle.py",
        "else bounds.w1(rules.b, rules.n, len(word)))",
        "else bounds.w1(rules.b, rules.n, len(word)) + 1)",
        "the audit checks levels against w1 + 1"),
    "depth-cap-off-by-one": (
        PKG + "ancestry.py",
        "live[0].depth > depth_cap:",
        "live[0].depth > depth_cap + 1:",
        "a capped search runs one layer past its cap"),
    "product-cap-x10": (
        PKG + "ancestry.py",
        "PRODUCT_CAP = 10 ** 6",
        "PRODUCT_CAP = 10 ** 7",
        "the parent product cap is ten times too high"),
    "letters-at-grid-check-dropped": (
        PKG + "core.py",
        '    check_letters(l1.cells, rules, "grid")\n',
        "",
        "witness reads accept a start grid with foreign letters"),
    "grounding-tie-break-reversed": (
        PKG + "ancestry.py",
        "if best is None or key < best[0]:",
        "if best is None or key > best[0]:",
        "the witness is the largest (row, col, text) grounding of a layer"),
    "audit-column-bound-loosened": (
        PKG + "oracle.py",
        "max_cols = bounds.max_parent_len(pat.cols, rules.b)",
        "max_cols = bounds.max_parent_len(pat.cols, rules.b) + 1",
        "the audit lets a parent one column too wide through"),
    "settle-places-met-members": (
        PKG + "ancestry.py",
        "itertools.filterfalse(seen.__contains__, members(product))",
        "members(product)",
        "a settled product's members that the call already placed are "
        "listed twice"),
    "settle-offset-shifted": (
        PKG + "ancestry.py",
        "out.extend(zip(found, itertools.repeat(off)))",
        "out.extend(zip(found, itertools.repeat((off[0], off[1] + 1))))",
        "a settled product's members are listed one column off their offset"),
    "sift-drops-survivor": (
        PKG + "ancestry.py",
        "if q.cells not in alive:",
        "if True:",
        "a settled member that has parents is cached with none"),
    "sift-reads-first-offset": (
        PKG + "ancestry.py",
        "rows, cols, layout):",
        "rows, cols, layout)[:1]:",
        "the sift reads only the first offset of a settled product's plan, "
        "so a member with parents at a later offset is cached with none"),
    "sift-spells-one-letter": (
        PKG + "ancestry.py",
        "for p in self._options(parent[k])}",
        "for p in self._options(parent[k])[:1]}",
        "the sift spells each parent cell with its first fitting letter "
        "only, so a member that another letter spells is cached with no "
        "parents"),
    "sweep-witness-tie-keeps-first": (
        PKG + "oracle.py",
        "if length not in best or key < best[length]:",
        "if length not in best or key[:3] < best[length][:3]:",
        "a sweep witness tie on level, rule set and word keeps the first "
        "found, not the smaller start grid"),
    "shared-layer-read-short": (
        PKG + "oracle.py",
        "for layer in layers[:depth + 1]]",
        "for layer in layers[:depth]]",
        "a searched word's fill scan reads one layer too few of its closure"),
    "answer-box-sliced-off-center": (
        PKG + "puzzle.py",
        "rows = tuple(line[x_left - c0:x_right - c0 + 1]",
        "rows = tuple(line[x_left - c0 + 1:x_right - c0 + 2]",
        "the answer box is read one column right of the marker's center"),
    "occurs-memo-ignores-ancestor": (
        PKG + "oracle.py",
        "got = self[pat] = _occurs_in(pat, self.index)",
        "got = self[pat] = (next(iter(self.values())) if self\n"
        "                           else _occurs_in(pat, self.index))",
        "once a fill has one answer, every other ancestor asked about it "
        "gets that answer"),
    "occurs-memo-one-for-all-fills": (
        PKG + "oracle.py",
        "occurs = memo.get(fill)\n"
        "                if occurs is None:\n"
        "                    occurs = memo[fill] = _Occurs(fill)",
        "occurs = memo.get(None)\n"
        "                if occurs is None:\n"
        "                    occurs = memo[None] = _Occurs(fill)",
        "every fill of a scan's memo reads the answers of the first fill met"),
    "offset-plan-slot-transposed": (
        PKG + "ancestry.py",
        "steps.append((i, pi * pc + pj, br * b + bc))",
        "steps.append((i, pi * pc + pj, bc * b + br))",
        "a parent cell's block slot is read column-major, not row-major"),
    "offset-plan-box-one-row-taller": (
        PKG + "ancestry.py",
        "pr = (dr + rows + rh - 1) // rh",
        "pr = (dr + rows + rh) // rh",
        "every parent box is one row taller than the child needs; under "
        "1D rules the suite then runs away, and only a limit kills it"),
    "starts-shift-pattern-width": (
        PKG + "patterns.py",
        "i // pcols * cols + i % pcols",
        "i // pcols * pcols + i % pcols",
        "the matcher shifts a pattern's rows by the pattern's width, not "
        "the grid's"),
    "window-rows-one-down": (
        PKG + "puzzle.py",
        "for r in range(top, bottom + 1)",
        "for r in range(top + 1, bottom + 2)",
        "a level's window is read one row below the one asked for"),
    "window-cols-one-right": (
        PKG + "puzzle.py",
        "for c in range(left, right + 1)",
        "for c in range(left + 1, right + 2)",
        "a level's window is read one column right of the one asked for"),
    "crossed-out-floor-plus-one": (
        PKG + "puzzle.py",
        "-(-addr.row // rspan)",
        "addr.row // rspan + 1",
        "a letter on a row that is a multiple of the block span crosses "
        "out the level-one cell below its own"),
    "first-grounded-later-run-wins": (
        PKG + "ancestry.py",
        "for run in live:",
        "for run in reversed(live):",
        "a grounding tie between runs at one depth goes to the later run"),
    "closure-depths-from-one": (
        PKG + "ancestry.py",
        "for d, layer in enumerate(self.shared_layers([target]))",
        "for d, layer in enumerate(self.shared_layers([target]), 1)",
        "a closure puts the target at depth 1, and every ancestor one "
        "deeper than it is"),
}

# name: (file, old text, new text, why no output can change)
EQUIVALENT = {
    "fills-without-shortcut": (
        PKG + "oracle.py",
        "if not holes:",
        "if False:",
        "a pattern with no wildcard goes through members(), whose one "
        "member is the pattern itself: the same fills, more work"),
    "occurs-memo-per-scan": (
        PKG + "oracle.py",
        "letters, floor, memo)",
        "letters, floor, {})",
        "each of a sweep chunk's fill scans starts a fresh occurrence memo: "
        "the same answers, tested again"),
}


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def run(path: str, old: str, new: str) -> str | None:
    """How the suite ends on the mutant: "killed" if a test fails,
    "killed by the memory cap" if one fails on a MemoryError, "killed by
    the time limit" if the run is stopped, "survived" if it passes; None
    if the mutant's text is not found exactly once."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "out"))
        target = tree / path
        text = target.read_text(encoding="utf-8")
        if text.count(old) != 1:
            return None
        target.write_text(text.replace(old, new), encoding="utf-8")
        # The check that each mutant's text is found once in the package
        # fails on every mutated copy, so it does not count here.  The run
        # gets its own process group, so a stop also ends its workers.
        child = subprocess.Popen(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--continue-on-collection-errors", "--deselect",
             "tests/test_scripts.py::test_mutation_probe_texts_are_found_once"],
            cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            preexec_fn=_limit_memory, start_new_session=True)
        try:
            out, _ = child.communicate(timeout=TIME_LIMIT_S)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            return "killed by the time limit"
        if child.returncode == 0:
            return "survived"
        return "killed by the memory cap" if "MemoryError" in out else "killed"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help="mutants to run (default: all)")
    args = parser.parse_args()
    table = {**MUTANTS, **EQUIVALENT}
    unknown = [name for name in args.names if name not in table]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    status = 0
    for name in args.names or table:
        path, old, new, reason = table[name]
        start = time.perf_counter()
        outcome = run(path, old, new)
        took = time.perf_counter() - start
        if outcome is None:
            print(f"{name}: text not found once in {path}")
            status = 2
        elif outcome != "survived":
            print(f"{name}: {outcome} ({took:.0f} s)")
        elif name in EQUIVALENT:
            print(f"{name}: survived, equivalent: {reason} ({took:.0f} s)")
        else:
            print(f"{name}: SURVIVED: {reason} ({took:.0f} s)")
            status = max(status, 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
