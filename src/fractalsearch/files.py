"""Line-oriented text formats for rules, grids, and puzzles.

Shared syntax: ``[section]`` headers, ``#`` comments to end of line,
blank lines ignored.  Rule lines are ``LETTER = ROW/ROW/...`` (one row
for 1D rules, b rows of b letters for 2D).  A grid section holds an
optional ``level = k`` line followed by equal-length rows.
"""

from __future__ import annotations

import os

from .core import Grid, RuleSet
from .errors import PuzzleFormatError


def scan_sections(text: str) -> dict[str, list[tuple[int, str]]]:
    """Split file text into sections: name -> [(line number, line), ...]."""
    sections: dict[str, list[tuple[int, str]]] = {}
    current: list[tuple[int, str]] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if not name:
                raise PuzzleFormatError("empty section name", lineno)
            if name in sections:
                raise PuzzleFormatError(f"duplicate section [{name}]", lineno)
            current = sections.setdefault(name, [])
            continue
        if current is None:
            raise PuzzleFormatError(f"content before any section: {line!r}", lineno)
        current.append((lineno, line))
    return sections


def parse_rules_section(lines: list[tuple[int, str]]) -> RuleSet:
    """Build a rule set from ``LETTER = ROW/ROW`` lines.

    The letters are exactly the letters that carry a rule, in file order;
    :class:`RuleSet` reads the block shape (1 x b or b x b) off the
    blocks, and what it refuses is reported on the first rule line.
    """
    if not lines:
        raise PuzzleFormatError("empty [alphabet] section")
    rules: dict[str, tuple[str, ...]] = {}
    shape: tuple[int, int] | None = None
    for lineno, line in lines:
        if "=" not in line:
            raise PuzzleFormatError(f"expected LETTER = BLOCK, got {line!r}", lineno)
        left, right = (part.strip() for part in line.split("=", 1))
        if len(left) != 1:
            raise PuzzleFormatError(f"rule letter must be one symbol, got {left!r}",
                                    lineno)
        if left in rules:
            raise PuzzleFormatError(f"duplicate rule for {left!r}", lineno)
        block = tuple(right.split("/"))
        if not right or any(not row for row in block):
            raise PuzzleFormatError(f"empty replacement row in {line!r}", lineno)
        this_shape = (len(block), len(block[0]))
        if any(len(row) != this_shape[1] for row in block):
            raise PuzzleFormatError("replacement rows differ in length", lineno)
        if shape is None:
            shape = this_shape
        elif this_shape != shape:
            raise PuzzleFormatError(
                f"block shape {this_shape} differs from earlier {shape}", lineno)
        rules[left] = block
    try:
        return RuleSet(rules)
    except Exception as exc:
        raise PuzzleFormatError(str(exc), lines[0][0]) from exc


def parse_grid_section(lines: list[tuple[int, str]], level: int = 1) -> Grid:
    """Rows and an optional ``level = k`` line; untagged, on ``level``."""
    if not lines:
        raise PuzzleFormatError("empty [grid] section")
    tag = None
    rows: list[str] = []
    first_row_line = None
    for lineno, line in lines:
        if line.lower().startswith("level") and "=" in line:
            key, value = (part.strip() for part in line.split("=", 1))
            if key.lower() != "level":
                raise PuzzleFormatError(f"unexpected key {key!r} in [grid]", lineno)
            if tag is not None:
                raise PuzzleFormatError("repeated level line", lineno)
            try:
                tag = int(value)
            except ValueError:
                raise PuzzleFormatError(f"bad level value {value!r}", lineno) from None
            if tag < 1:
                raise PuzzleFormatError(f"level tag must be >= 1, got {tag}", lineno)
            continue
        if first_row_line is None:
            first_row_line = lineno
        rows.append(line)
    if not rows:
        raise PuzzleFormatError("grid section has no rows", lines[-1][0])
    try:
        return Grid.from_rows(rows, level if tag is None else tag)
    except Exception as exc:
        raise PuzzleFormatError(str(exc), first_row_line) from exc


def read_sections(path: str | os.PathLike,
                  *required: str) -> dict[str, list[tuple[int, str]]]:
    """Read a file's sections; each name in ``required`` must be present."""
    with open(path, encoding="utf-8") as fh:
        sections = scan_sections(fh.read())
    for name in required:
        if name not in sections:
            raise PuzzleFormatError(f"{path}: missing [{name}] section")
    return sections


def load_rules(path: str | os.PathLike) -> RuleSet:
    """Read a rules file (must contain an [alphabet] section)."""
    return parse_rules_section(read_sections(path, "alphabet")["alphabet"])


def load_grid(path: str | os.PathLike, level: int = 1) -> Grid:
    """Read a grid file's [grid] section; untagged, it is on ``level``."""
    return parse_grid_section(read_sections(path, "grid")["grid"], level)


def grid_argument(value: str, level: int = 1) -> Grid:
    """CLI helper: ``@path`` loads a grid file; anything else is an inline
    grid (``ABAC/CBBB``) on ``level``, even when a file of that name exists."""
    if value.startswith("@"):
        return load_grid(value[1:], level)
    return Grid.from_text(value, level)
