"""Rectangular letter-or-wildcard patterns and their matching in grids.

A pattern is the bounding box of a set of letters: a rows x cols array
whose entries are either concrete letters or the wildcard ``*``.  All
patterns handed between modules are trimmed, i.e. the first and last row
and column each contain at least one concrete cell.  Words become
patterns by orientation in one of the eight compass directions.
"""

from __future__ import annotations

import enum
from typing import Iterator, NamedTuple

from .core import Grid

WILDCARD = "*"


class Direction(enum.Enum):
    """Reading directions; the value is the (row, col) step per letter."""

    E = (0, 1)
    W = (0, -1)
    S = (1, 0)
    N = (-1, 0)
    SE = (1, 1)
    NE = (-1, 1)
    SW = (1, -1)
    NW = (-1, -1)


# Tie-break order used when several directions yield the same level.
DIRECTION_ORDER = (
    Direction.E, Direction.S, Direction.SE, Direction.W,
    Direction.N, Direction.NW, Direction.NE, Direction.SW,
)

DIAGONALS = frozenset({Direction.SE, Direction.NE, Direction.SW, Direction.NW})
ANTIDIAGONALS = frozenset({Direction.NE, Direction.SW})


class Pattern(NamedTuple):
    """Trimmed bounding box of letters; ``cells`` is row-major with ``*``
    for unconstrained entries.  NamedTuple rather than dataclass for cheap
    construction and hashing: the backward search creates these by the
    million."""

    rows: int
    cols: int
    cells: str

    def concrete_cells(self) -> Iterator[tuple[int, int, str]]:
        """Yield (row, col, letter) of every non-wildcard cell, 0-indexed,
        row-major."""
        cols = self.cols
        for i, ch in enumerate(self.cells):
            if ch != WILDCARD:
                yield i // cols, i % cols, ch

    def lines(self) -> tuple[str, ...]:
        return tuple(
            self.cells[i * self.cols:(i + 1) * self.cols] for i in range(self.rows)
        )

    def text(self) -> str:
        """Wire form: rows joined by ``/``, wildcard ``*``."""
        return "/".join(self.lines())


def pattern_from_rows(rows: list[str] | tuple[str, ...]) -> Pattern:
    if not rows:
        raise ValueError("pattern needs at least one row")
    width = len(rows[0])
    if width == 0 or any(len(r) != width for r in rows):
        raise ValueError("pattern rows must be non-empty and equal-length")
    return Pattern(len(rows), width, "".join(rows))


def parse_pattern(text: str) -> Pattern:
    """Parse the ``C**/*A*/**T`` wire form."""
    return pattern_from_rows(text.strip().split("/"))


def word_cells(word: str, direction: Direction) -> list[tuple[int, int, str]]:
    """(row, col, letter) of each letter of the word laid out along
    ``direction``, 0-indexed inside its bounding box, in reading order."""
    n = len(word)
    dr, dc = direction.value
    # Start corner such that the walk stays inside the bounding box.
    r = n - 1 if dr < 0 else 0
    c = n - 1 if dc < 0 else 0
    return [(r + i * dr, c + i * dc, ch) for i, ch in enumerate(word)]


def word_to_pattern(word: str, direction: Direction) -> Pattern:
    """Lay a word out along a compass direction and box it.

    Horizontal/vertical words give 1 x n / n x 1 patterns; diagonal words
    give n x n patterns with letters on one diagonal and wildcards
    elsewhere.
    """
    if not word:
        raise ValueError("word must be non-empty")
    if WILDCARD in word:
        raise ValueError("words cannot contain the wildcard symbol")
    n = len(word)
    dr, dc = direction.value
    rows = n if dr else 1
    cols = n if dc else 1
    cells = [WILDCARD] * (rows * cols)
    for r, c, ch in word_cells(word, direction):
        cells[r * cols + c] = ch
    return Pattern(rows, cols, "".join(cells))


def trim(pattern: Pattern) -> Pattern:
    """Strip all-wildcard border rows and columns; idempotent.

    This realizes the bounding box of the pattern's concrete cells, which
    is also the minimality criterion used for parents of patterns.
    """
    concrete = [(r, c) for r, c, _ in pattern.concrete_cells()]
    if not concrete:
        raise ValueError("cannot trim a pattern with no concrete cells")
    r0 = min(r for r, _ in concrete)
    r1 = max(r for r, _ in concrete)
    c0 = min(c for _, c in concrete)
    c1 = max(c for _, c in concrete)
    if (r0, c0) == (0, 0) and (r1, c1) == (pattern.rows - 1, pattern.cols - 1):
        return pattern
    lines = pattern.lines()
    return pattern_from_rows([line[c0:c1 + 1] for line in lines[r0:r1 + 1]])


def is_trimmed(pattern: Pattern) -> bool:
    lines = pattern.lines()
    if set(lines[0]) == {WILDCARD} or set(lines[-1]) == {WILDCARD}:
        return False
    first_col = pattern.cells[::pattern.cols]
    last_col = pattern.cells[pattern.cols - 1::pattern.cols]
    return set(first_col) != {WILDCARD} and set(last_col) != {WILDCARD}


class GridIndex:
    """Occurrence matcher for one concrete grid.

    The grid is indexed once as letter -> that letter's cells in
    row-major order.  A pattern is matched by anchoring on its concrete
    cell whose letter is rarest in the grid: only the top-left positions
    that anchor implies are tried, so a pattern using a letter the grid
    lacks costs one lookup.  Translating row-major anchor cells by a
    fixed offset keeps them row-major, so positions come out in that
    order without sorting.
    """

    def __init__(self, grid: Grid):
        self.rows = grid.rows
        self.cols = grid.cols
        self._lines = grid.lines()
        cells: dict[str, list[tuple[int, int]]] = {}
        for r, line in enumerate(self._lines):
            for c, ch in enumerate(line):
                cells.setdefault(ch, []).append((r, c))
        self._cells = cells

    def positions(self, pattern: Pattern) -> list[tuple[int, int]]:
        """All 1-indexed top-left positions where the trimmed pattern's box
        fits in the grid and every concrete cell matches, row-major."""
        rmax = self.rows - pattern.rows
        cmax = self.cols - pattern.cols
        if rmax < 0 or cmax < 0:
            return []
        index = self._cells
        concrete = list(pattern.concrete_cells())
        ar, ac, letter = min(concrete, key=lambda cell: len(index.get(cell[2], ())))
        lines = self._lines
        out: list[tuple[int, int]] = []
        for r, c in index.get(letter, ()):
            r0, c0 = r - ar, c - ac
            if (0 <= r0 <= rmax and 0 <= c0 <= cmax
                    and all(lines[r0 + pr][c0 + pc] == ch for pr, pc, ch in concrete)):
                out.append((r0 + 1, c0 + 1))
        return out


def occurrences(pattern: Pattern, grid: Grid) -> list[tuple[int, int]]:
    """All 1-indexed top-left positions where the pattern's box fits in
    the grid and every concrete cell matches, in row-major order."""
    return GridIndex(grid).positions(trim(pattern))


def two_diagonal_support(pattern: Pattern, anti: bool = False) -> bool:
    """True iff every concrete cell lies on one of two fixed adjacent
    diagonals: i-j in {d, d+1} for some d (or i+j for anti-diagonals)."""
    keys = sorted(
        {r + c if anti else r - c for r, c, _ in pattern.concrete_cells()}
    )
    return keys[-1] - keys[0] <= 1
