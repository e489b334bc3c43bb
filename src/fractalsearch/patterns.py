"""Rectangular letter-or-wildcard patterns and their matching in grids.

A pattern is the bounding box of a set of letters: a rows x cols array
whose entries are either concrete letters or the wildcard ``*``.  All
patterns handed between modules are trimmed, i.e. the first and last row
and column each contain at least one concrete cell.  Words become
patterns by orientation in one of the eight compass directions.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import fields, is_dataclass
from typing import Iterator, NamedTuple

from .core import CellAddress, Grid

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

    # Grid's text forms (rows joined by ``/``) read only rows, cols, cells.
    lines = Grid.lines
    text = Grid.text


def parse_pattern(text: str) -> Pattern:
    """Parse the ``C**/*A*/**T`` wire form as :meth:`Grid.from_text` does."""
    grid = Grid.from_text(text)
    return Pattern(grid.rows, grid.cols, grid.cells)


def word_to_pattern(word: str, direction: Direction) -> Pattern:
    """Lay a word out along a compass direction and box it.

    Horizontal/vertical words give 1 x n / n x 1 patterns; diagonal words
    give n x n patterns with letters on one diagonal and wildcards
    elsewhere.  A backwards step (W, N, NW, NE) puts the reversed word on
    the cells of the opposite direction, so row-major order reads each
    box's letters E, S, SE or SW: a main diagonal steps n + 1 cells, an
    anti-diagonal n - 1 from column n - 1.
    """
    if not word:
        raise ValueError("word must be non-empty")
    if WILDCARD in word:
        raise ValueError("words cannot contain the wildcard symbol")
    dr, dc = direction.value
    if (dr, dc) < (0, 0):
        word, dr, dc = word[::-1], -dr, -dc
    n = len(word)
    if not (dr and dc):
        return Pattern(n if dr else 1, n if dc else 1, word)
    pad = WILDCARD * (n - 1) if dc < 0 else ""
    return Pattern(n, n, pad + (WILDCARD * (n + dc - 1)).join(word) + pad)


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
    cells = "".join(line[c0:c1 + 1] for line in pattern.lines()[r0:r1 + 1])
    return Pattern(r1 - r0 + 1, c1 - c0 + 1, cells)


def is_trimmed(pattern: Pattern) -> bool:
    """True iff the pattern has a concrete cell and :func:`trim` keeps it."""
    return bool(pattern.cells.strip(WILDCARD)) and trim(pattern) is pattern


@functools.lru_cache(maxsize=4096)
def _fitting(rows: int, cols: int, prows: int, pcols: int) -> int:
    """Mask of the top-left starts ``r * cols + c`` where a prows x pcols
    box fits in a rows x cols grid; cached per grid and pattern shape, as
    the sweep builds a matcher for every throwaway fill."""
    width = cols - pcols + 1
    if prows > rows or width < 1:
        return 0
    row = (1 << width) - 1
    return sum(row << r * cols for r in range(rows - prows + 1))


class GridIndex:
    """Bit-parallel occurrence matcher for one concrete grid: a ``Grid``
    or a wildcard-free ``Pattern``, of which only ``rows``, ``cols`` and
    ``cells`` are read.

    The grid is held as one int per letter, with bit ``r * cols + c`` set
    where that letter sits.  A pattern's matches start from the mask of
    every top-left start whose box fits (:func:`_fitting`); each
    concrete cell (pr, pc, ch) then ANDs in ``bits[ch] >> (pr * cols +
    pc)``, which keeps the starts whose cell holds ``ch``.  A start's
    column plus ``pc`` stays below ``cols``, so no shift wraps a row into
    the next, and a mismatch anywhere ends the scan at once.  The bits
    left, lowest first, are the starts in row-major order.

    The same scan tests a whole product of patterns at once: a cell
    holding a tuple of letters ANDs in the union of its letters' masks
    (:meth:`index_set`) under the same shift, which keeps the starts
    whose cell holds any of them.  A start survives exactly when some
    member of the product, one letter from each tuple, matches there,
    so an empty result proves that no member occurs in the grid.
    """

    def __init__(self, grid: Grid | Pattern):
        self.rows = grid.rows
        self.cols = grid.cols
        bits: dict[str, int] = {}
        for i, ch in enumerate(grid.cells):
            bits[ch] = bits.get(ch, 0) | 1 << i
        self._bits = bits

    def starts(self, pattern: Pattern) -> int:
        """Mask of the 0-indexed starts ``r * cols + c`` where the trimmed
        pattern's box fits in the grid and every concrete cell matches:
        for a product, where some member matches, once each of its letter
        sets is indexed (:meth:`index_set`)."""
        found = _fitting(self.rows, self.cols, pattern.rows, pattern.cols)
        if not found:
            return 0
        bits = self._bits
        cols, pcols = self.cols, pattern.cols
        for i, ch in enumerate(pattern.cells):
            if ch != WILDCARD:
                found &= bits.get(ch, 0) >> (i // pcols * cols + i % pcols)
                if not found:
                    return 0
        return found

    def index_set(self, letters: tuple[str, ...]) -> None:
        """Index a tuple of letters as one more cell value, matching where
        any of its letters sits: the union of their masks."""
        self._bits[letters] = sum(self._bits.get(ch, 0) for ch in letters)

    def positions(self, pattern: Pattern) -> list[tuple[int, int]]:
        """All 1-indexed top-left positions where the trimmed pattern's box
        fits in the grid and every concrete cell matches, row-major."""
        found = self.starts(pattern)
        cols = self.cols
        out: list[tuple[int, int]] = []
        while found:
            low = found & -found
            r, c = divmod(low.bit_length() - 1, cols)
            out.append((r + 1, c + 1))
            found ^= low
        return out


def occurrences(pattern: Pattern, grid: Grid) -> list[tuple[int, int]]:
    """All 1-indexed top-left positions, row-major, where the pattern's
    trimmed box fits in the grid and every concrete cell matches."""
    return GridIndex(grid).positions(trim(pattern))


def to_json(value):
    """JSON form of a report value: dataclasses become objects in field
    order, directions their names, patterns their wire text, cell
    addresses ``[level, row, col]``, frozensets sorted lists, tuples and
    lists lists."""
    if isinstance(value, CellAddress):
        return [value.level, value.row, value.col]
    if is_dataclass(value):
        return {f.name: to_json(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, Direction):
        return value.name
    if isinstance(value, Pattern):      # a NamedTuple: before the tuple case
        return value.text()
    if isinstance(value, dict):
        return {str(k): to_json(v) for k, v in value.items()}
    if isinstance(value, frozenset):
        return sorted(to_json(v) for v in value)
    if isinstance(value, (tuple, list)):
        return [to_json(v) for v in value]
    return value


def two_diagonal_support(pattern: Pattern, anti: bool = False) -> bool:
    """True iff every concrete cell lies on one of two fixed adjacent
    diagonals: i-j in {d, d+1} for some d (or i+j for anti-diagonals);
    the paper's 3-letter corners of 2 x 2 boxes are its 2 x 2 case."""
    keys = sorted(
        {r + c if anti else r - c for r, c, _ in pattern.concrete_cells()}
    )
    return keys[-1] - keys[0] <= 1
