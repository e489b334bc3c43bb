"""Substitution grids: replacement rules, expansion and
contraction between levels, and cell resolution on levels far too large
to build.

Conventions used throughout the package:

* coordinates are 1-indexed with the origin at the top-left, row-major;
* a 1-dimensional grid is a height-1 grid, so every operation below is
  written once for both dimensionalities (a 1D rule is a 1 x b block);
* level k is the grid after k-1 replacement steps from the start grid,
  so the parent cell of (i, j) is (ceil(i/rh), ceil(j/b)).

Row and column values on deep levels exceed any fixed machine width
(level 167 of the shipped puzzle has ~2**166 columns); they are plain
Python integers everywhere, never floats.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    AddressRangeError,
    AmbiguousRulesError,
    ContractionError,
    ResourceLimitError,
    UnknownLetterError,
)

# Symbols with structural meaning in the text formats; they can never be
# alphabet letters.
RESERVED_CHARS = frozenset("*/#= \t\r\n")

EXPAND_CELL_CAP = 10 ** 7


def _check_symbol(ch: str) -> None:
    if len(ch) != 1 or not ch.isprintable() or ch in RESERVED_CHARS:
        raise UnknownLetterError(f"invalid alphabet symbol {ch!r}")


@dataclass(frozen=True, slots=True)
class RuleSet:
    """Total map from letters to replacement blocks, in letter order.

    ``rules[letter]`` is a tuple of block rows: one row of ``b`` letters
    for 1D rules, ``b`` rows of ``b`` letters for 2D rules.  Everything
    else is read off the blocks: ``letters`` are the keys in order,
    ``rule_rows`` x ``b`` is the block shape, ``dimension`` is 1 or 2 and
    ``n`` is the number of letters.
    """

    rules: dict[str, tuple[str, ...]] = field(hash=False)
    letters: tuple[str, ...] = field(init=False, repr=False)
    rule_rows: int = field(init=False, repr=False)
    b: int = field(init=False, repr=False)
    dimension: int = field(init=False, repr=False)
    n: int = field(init=False, repr=False)

    def __post_init__(self):
        if not self.rules:
            raise UnknownLetterError("a rule set needs at least one letter")
        letters = tuple(self.rules)
        for ch in letters:
            _check_symbol(ch)
        first = next(iter(self.rules.values()))
        rh, b = len(first), len(first[0]) if first else 0
        if rh not in (1, b):
            raise ValueError(f"blocks must be 1 x b or b x b, got {rh} x {b}")
        if b < 2:
            raise ValueError(f"block side must be >= 2, got {b}")
        for ch, block in self.rules.items():
            if len(block) != rh or any(len(row) != b for row in block):
                raise ValueError(f"rule for {ch!r} must be {rh} row(s) of {b} letters")
            for row in block:
                for out in row:
                    if out not in self.rules:
                        raise UnknownLetterError(
                            f"rule for {ch!r} uses unknown letter {out!r}"
                        )
        for name, value in (("letters", letters), ("rule_rows", rh), ("b", b),
                            ("dimension", 1 if rh == 1 else 2),
                            ("n", len(letters))):
            object.__setattr__(self, name, value)

    def duplicate_blocks(self) -> tuple[tuple[str, ...], ...]:
        """Groups of letters sharing an identical replacement block."""
        by_block: dict[tuple[str, ...], list[str]] = {}
        for ch, block in self.rules.items():
            by_block.setdefault(block, []).append(ch)
        return tuple(
            tuple(group) for group in by_block.values() if len(group) > 1
        )

    def text(self) -> str:
        """Canonical one-line rendering, usable as a deterministic sort key."""
        return ";".join(f"{ch}>{'/'.join(block)}" for ch, block in self.rules.items())


@dataclass(frozen=True, slots=True)
class Grid:
    """Concrete rectangular array of letters tagged with its level."""

    rows: int
    cols: int
    cells: str
    level: int = 1

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("shape must be at least 1 x 1")
        if len(self.cells) != self.rows * self.cols:
            raise ValueError(
                f"cell count {len(self.cells)} != {self.rows} x {self.cols}"
            )
        if self.level < 1:
            raise ValueError("level tag must be >= 1")

    @classmethod
    def from_rows(cls, rows: list[str] | tuple[str, ...], level: int = 1) -> "Grid":
        if not rows:
            raise ValueError("at least one row is needed")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("rows must all have the same length")
        return cls(len(rows), width, "".join(rows), level)

    @classmethod
    def from_text(cls, text: str, level: int = 1) -> "Grid":
        """Parse a ``ROW/ROW/...`` grid literal."""
        return cls.from_rows(text.strip().split("/"), level)

    def letter(self, row: int, col: int) -> str:
        """Letter at 1-indexed (row, col)."""
        if not (1 <= row <= self.rows and 1 <= col <= self.cols):
            raise AddressRangeError(
                f"({row}, {col}) outside {self.rows} x {self.cols} grid"
            )
        return self.cells[(row - 1) * self.cols + (col - 1)]

    def lines(self) -> tuple[str, ...]:
        return tuple(
            self.cells[i * self.cols:(i + 1) * self.cols] for i in range(self.rows)
        )

    def text(self) -> str:
        return "/".join(self.lines())


@dataclass(frozen=True)
class CellAddress:
    """One cell of one level; row/col may be astronomically large."""

    level: int
    row: int
    col: int

    def __post_init__(self):
        if self.level < 1:
            raise ValueError("level must be >= 1")
        if self.row < 1 or self.col < 1:
            raise AddressRangeError(f"address ({self.row}, {self.col}) not positive")


def check_letters(text: str, rules: RuleSet, what: str) -> None:
    """Raise UnknownLetterError, naming ``what``, when ``text`` uses a
    letter outside the rules' alphabet."""
    bad = set(text).difference(rules.rules)
    if bad:
        raise UnknownLetterError(f"{what} uses letters outside the alphabet: {sorted(bad)}")


# ---------------------------------------------------------------------------
# expansion / contraction
# ---------------------------------------------------------------------------

def expand(grid: Grid, rules: RuleSet, steps: int = 1) -> Grid:
    """Apply the replacement map ``steps`` times.

    Each cell becomes its rule block; every step multiplies the height by
    the block height and the width by b, and bumps the level tag.  An
    output of more than ``EXPAND_CELL_CAP`` cells raises
    ResourceLimitError before the first step, found one step at a time
    (so at most a few dozen steps) rather than from the final shape.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    check_letters(grid.cells, rules, "grid")
    rows, cols, done = grid.rows, grid.cols, 0
    while rows * cols <= EXPAND_CELL_CAP and done < steps:
        rows, cols, done = rows * rules.rule_rows, cols * rules.b, done + 1
    if rows * cols > EXPAND_CELL_CAP:
        raise ResourceLimitError(
            f"{steps} steps exceed the cap of {EXPAND_CELL_CAP} cells at step {done}")
    tables = [str.maketrans({ch: block[br] for ch, block in rules.rules.items()})
              for br in range(rules.rule_rows)]
    lines = grid.lines()
    for _ in range(steps):
        lines = [line.translate(table) for line in lines for table in tables]
    return Grid(rows, cols, "".join(lines), grid.level + steps)


def contract(grid: Grid, rules: RuleSet) -> Grid:
    """Invert one expansion step.

    Fails if two rules share a block (no unique inverse), or if some
    block of the grid is not the image of any letter; the error reports
    the first offending block position in reading order.
    """
    collisions = rules.duplicate_blocks()
    if collisions:
        raise AmbiguousRulesError(
            "identical replacement blocks make contraction ambiguous: "
            + ", ".join("=".join(group) for group in collisions),
            collisions,
        )
    rh, b = rules.rule_rows, rules.b
    if grid.rows % rh or grid.cols % b:
        raise ContractionError(
            f"grid {grid.rows} x {grid.cols} not divisible into {rh} x {b} blocks"
        )
    if grid.level < 2:
        raise ContractionError("cannot contract below level 1")
    check_letters(grid.cells, rules, "grid")
    owner = {block: ch for ch, block in rules.rules.items()}
    lines = grid.lines()
    out_rows: list[str] = []
    for bi in range(grid.rows // rh):
        row_chars: list[str] = []
        for bj in range(grid.cols // b):
            block = tuple(
                lines[bi * rh + r][bj * b:(bj + 1) * b] for r in range(rh)
            )
            ch = owner.get(block)
            if ch is None:
                raise ContractionError(
                    f"block {'/'.join(block)} at block position ({bi + 1}, {bj + 1}) "
                    "matches no rule",
                    bi + 1,
                    bj + 1,
                )
            row_chars.append(ch)
        out_rows.append("".join(row_chars))
    return Grid(grid.rows // rh, grid.cols // b, "".join(out_rows), grid.level - 1)


# ---------------------------------------------------------------------------
# implicit deep-level addressing
# ---------------------------------------------------------------------------

def level_shape(l1: Grid, rules: RuleSet, level: int) -> tuple[int, int]:
    """(rows, cols) of the given level; exact big-integer arithmetic."""
    if level < 1:
        raise ValueError("level must be >= 1")
    return (l1.rows * rules.rule_rows ** (level - 1),
            l1.cols * rules.b ** (level - 1))


def path_to_address(
    l1_cell: tuple[int, int], path: tuple[tuple[int, int], ...], rules: RuleSet
) -> CellAddress:
    """Address of the cell reached from a level-1 cell by per-level
    sub-cell digits (most significant first, each in [0, block side))."""
    rh, b = rules.rule_rows, rules.b
    r, c = l1_cell[0] - 1, l1_cell[1] - 1
    for dr, dc in path:
        if not (0 <= dr < rh and 0 <= dc < b):
            raise AddressRangeError(f"digit ({dr}, {dc}) outside block shape")
        r = r * rh + dr
        c = c * b + dc
    return CellAddress(len(path) + 1, r + 1, c + 1)


def letter_at(l1: Grid, rules: RuleSet, addr: CellAddress) -> str:
    """Letter at ``addr`` on level ``addr.level``: :func:`letters_at` of
    the one address, so a call costs O(level + rows x cols)."""
    return letters_at(l1, rules, [addr])


def letters_at(l1: Grid, rules: RuleSet, addrs: list[CellAddress]) -> str:
    """Letters at the given addresses, in order, as one string.

    Each address climbs level by level to its parent cell, (ceil(i/rh),
    ceil(j/b)), until it reaches level one or a cell this call has
    already resolved, then descends through the rule blocks, recording
    every cell it passes.  No grid beyond level 1 is ever built.  The
    start grid's letters are checked once per call, so a call costs
    O(rows x cols) once plus at most O(level) per address; neighbouring
    cells, such as a word's letters, share all but a few of their steps.
    An address outside its level raises AddressRangeError.
    """
    if l1.level != 1:
        raise ValueError("start grid must be tagged level 1")
    check_letters(l1.cells, rules, "grid")
    rh, b, blocks = rules.rule_rows, rules.b, rules.rules
    known: dict[tuple[int, int, int], str] = {}
    out: list[str] = []
    for addr in addrs:
        # (level, row, col) with 0-indexed row and col
        level, r, c = key = (addr.level, addr.row - 1, addr.col - 1)
        climbed = []
        while level > 1 and key not in known:
            climbed.append(key)
            level, r, c = key = (level - 1, r // rh, c // b)
        ch = known.get(key)
        if ch is None:
            try:
                ch = l1.letter(r + 1, c + 1)
            except AddressRangeError:
                max_rows, max_cols = level_shape(l1, rules, addr.level)
                raise AddressRangeError(
                    f"({addr.row}, {addr.col}) outside level-{addr.level} grid "
                    f"of {max_rows} x {max_cols}") from None
        for key in reversed(climbed):
            ch = known[key] = blocks[ch][key[1] % rh][key[2] % b]
        out.append(ch)
    return "".join(out)


def descendant_block_range(
    l1_cell: tuple[int, int], level: int, rules: RuleSet
) -> tuple[tuple[int, int], tuple[int, int]]:
    """Inclusive (row, col) ranges covered on ``level`` by the descendants
    of a level-1 cell: rows (r-1)*rh**(level-1)+1 .. r*rh**(level-1), and
    the column analogue with b."""
    r, c = l1_cell
    if r < 1 or c < 1:
        raise AddressRangeError(f"cell ({r}, {c}) not positive")
    if level < 1:
        raise ValueError("level must be >= 1")
    rspan = rules.rule_rows ** (level - 1)
    cspan = rules.b ** (level - 1)
    return ((r - 1) * rspan + 1, r * rspan), ((c - 1) * cspan + 1, c * cspan)
