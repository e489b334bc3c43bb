"""Host-speed reference for the end-to-end times.

The shared virtual machine this benchmark was written on runs the same
code up to 1.8 times slower in some stretches than in others, and a
stretch lasts from seconds to minutes, so two runs minutes apart differ
by more than any useful bound.  The stretches slow code of the same
kind by about the same factor.  So a run interleaves its timed
operations with a fixed reference loop (:func:`reference`, code of the
benchmark's own that no change to the package touches) and scales each
operation's time by ``REFERENCE_S`` over the reference's time measured
next to it.  The reported times are what the operation would take on a
host where the reference loop takes ``REFERENCE_S`` (about this
machine's fast stretches); the raw wall times are printed on the ``#``
lines.
"""

from __future__ import annotations

import random
from time import perf_counter

REFERENCE_S = 0.020             # nominal seconds of one reference loop

# A fixed 22 x 30 grid and twelve window patterns for the scan part.
_RNG = random.Random(7)
_GRID = ["".join(_RNG.choice("ABCD") for _ in range(30)) for _ in range(22)]
_PATTERNS = [[(r, c, _RNG.choice("ABCD")) for r in range(rows) for c in range(cols)
              if (r, c) == (0, 0) or _RNG.random() < 0.7]
             for rows, cols in [(1, 3), (2, 2), (3, 1), (2, 3), (1, 5), (3, 3)] * 2]


def _churn(rounds: int) -> int:
    """Build and drop small dicts, lists, tuples and frozensets."""
    total = 0
    for j in range(rounds):
        table = {(i, j): [i, j] for i in range(100)}
        pairs = {frozenset((i, i + 1)) for i in range(50)}
        total += len(table) + len(pairs)
    return total


def _lookups(rounds: int) -> int:
    """Integer arithmetic and lookups in a dict of 4,096 tuple keys."""
    table: dict = {}
    x, total = 12345, 0
    for i in range(rounds):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x & 255, (x >> 8) & 15)
        if key in table:
            total += table[key]
        else:
            table[key] = i
    return total


def _scan(rounds: int) -> int:
    """Match cell patterns at every window of a letter grid."""
    found = 0
    for _ in range(rounds):
        for cells in _PATTERNS:
            rows = 1 + max(r for r, _, _ in cells)
            cols = 1 + max(c for _, c, _ in cells)
            for r0 in range(len(_GRID) - rows + 1):
                for c0 in range(len(_GRID[0]) - cols + 1):
                    if all(_GRID[r0 + r][c0 + c] == ch for r, c, ch in cells):
                        found += 1
    return found


def reference() -> int:
    """A fixed pure-Python loop made of three kinds of work the package
    does: building and dropping small containers (parent enumeration),
    dict lookups on tuple keys (caches), and window scans of a letter
    grid (grounding).  Each kind alone drifted from some workload in
    some of the host's stretches; together they drift least.  Every
    structure is dropped before the loop returns, so it adds nothing to
    the peak memory of the run."""
    return _churn(230) + _lookups(14_000) + _scan(1)


def time_reference() -> float:
    """Seconds one reference loop takes now."""
    start = perf_counter()
    reference()
    return perf_counter() - start


class Clock:
    """Splits a timed loop into chunks with a reference loop between
    every two, and scales each chunk's times by the mean of the two
    reference times around it."""

    def __init__(self, chunk_s: float):
        self.chunk_s = chunk_s
        self.refs = [time_reference()]
        self.chunk_of: list[int] = []      # chunk index of every operation
        self._chunk_start = perf_counter()

    def record(self) -> None:
        """Note that one operation ended; close the chunk when it is full."""
        self.chunk_of.append(len(self.refs) - 1)
        if perf_counter() - self._chunk_start >= self.chunk_s:
            self.close()

    def close(self) -> None:
        if self.chunk_of and self.chunk_of[-1] == len(self.refs) - 1:
            self.refs.append(time_reference())
        self._chunk_start = perf_counter()

    def scales(self) -> list[float]:
        """Per operation, the factor from wall seconds to nominal seconds."""
        self.close()
        per_chunk = [2 * REFERENCE_S / (before + after)
                     for before, after in zip(self.refs, self.refs[1:])]
        return [per_chunk[k] for k in self.chunk_of]
