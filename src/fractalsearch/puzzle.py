"""End-to-end puzzle solving.

Pipeline: load the puzzle file, contract the printed grid down to level
one, find each listed word's earliest level and direction by backward
search, cross out the level-one ancestors of every placed letter to
reveal the hidden message, sum the levels, and read the answer out of
the marker letter's descendant block on that level.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .ancestry import (
    AncestrySearcher,
    LayeredSearch,
    SearchResult,
    first_grounded,
    witness_coordinates,
)
from .core import (CellAddress, Grid, RuleSet, check_letters, contract,
                   descendant_block_range, letters_at, level_shape)
from .errors import PuzzleFormatError, SolveError, UnknownLetterError
from .files import parse_grid_section, parse_rules_section, read_sections
from .patterns import (
    DIRECTION_ORDER,
    Direction,
    Pattern,
    occurrences,
    parse_pattern,
    to_json,
)

DEFAULT_MARKER = "X"
ANSWER_WINDOW_RADIUS = 4


@dataclass(frozen=True)
class PuzzleSpec:
    """A parsed puzzle: rules, the given grid's contraction to level
    one, the word list (raw and normalized), and the search settings."""

    rules: RuleSet
    l1: Grid
    raw_words: tuple[str, ...]
    words: tuple[str, ...]
    allowed_directions: tuple[Direction, ...]
    answer_length: int


@dataclass(frozen=True)
class Placement:
    """Where one word lives: its earliest level, direction, grounded
    ancestor on level one, and the exact letter addresses on its level."""

    raw: str
    word: str
    direction: Direction
    level: int
    ancestor: Pattern
    anchor: tuple[int, int]
    offsets: tuple[tuple[int, int], ...]
    addresses: tuple[CellAddress, ...]
    nodes_expanded: int
    patterns_seen: int


@dataclass(frozen=True)
class AnswerWindow:
    """Central window of the marker's descendant block on the answer
    level, with the marker-shaped reading when one is present."""

    level: int
    top: int
    left: int
    window: tuple[str, ...]
    found: bool
    x_top: int | None = None
    x_left: int | None = None
    x_rows: tuple[str, ...] = ()
    main_diagonal: str = ""
    anti_diagonal: str = ""
    answer: str = ""


@dataclass(frozen=True)
class SolveReport:
    placements: tuple[Placement, ...]
    level_counts: dict[int, int]
    crossed_cells: frozenset[tuple[int, int]]
    message: str
    level_sum: int
    answer: AnswerWindow | None      # None when no unique marker exists
    nodes_expanded: int
    patterns_seen: int


def normalize_word(raw: str, letters: tuple[str, ...]) -> str:
    """The word of a ``[words]`` entry over the alphabet ``letters``: its
    alphabet letters as written, any other letter or digit uppercased
    (to name a letter or fail the load), the rest dropped (``LEVY
    DRAGON`` -> ``LEVYDRAGON``, ``T-SQUARE`` -> ``TSQUARE``)."""
    word = "".join(ch if ch in letters else ch.upper()
                   for ch in raw if ch in letters or ch.isalnum())
    if not word:
        raise ValueError(f"word entry {raw!r} has no letters")
    return word


def load_puzzle(path: str) -> PuzzleSpec:
    """Parse and validate a puzzle file; contracts the given grid down
    to level one eagerly so bad transcriptions fail at load time."""
    sections = read_sections(path, "alphabet", "grid", "words")
    rules = parse_rules_section(sections["alphabet"])
    grid = parse_grid_section(sections["grid"])
    raw_words: list[str] = []
    words: list[str] = []
    for lineno, line in sections["words"]:
        try:
            word = normalize_word(line, rules.letters)
            check_letters(word, rules, f"word {word!r}")
        except (ValueError, UnknownLetterError) as exc:
            raise PuzzleFormatError(str(exc), lineno) from None
        raw_words.append(line)
        words.append(word)
    if not words:
        raise PuzzleFormatError(f"{path}: empty [words] section")
    answer_length = 0
    for i, (lineno, line) in enumerate(sections.get("answer", [])):
        key, _, value = (part.strip() for part in line.partition("="))
        if key.lower() != "length":
            raise PuzzleFormatError(f"unexpected [answer] line {line!r}", lineno)
        if i:
            raise PuzzleFormatError("repeated answer length", lineno)
        try:
            answer_length = int(value)
        except ValueError:
            raise PuzzleFormatError(f"bad answer length {value!r}", lineno) from None
        if answer_length % 2 or not 4 <= answer_length <= 4 * ANSWER_WINDOW_RADIUS:
            # the X reading of answer_window needs two diagonals of at
            # least 2 letters inside the 2 * ANSWER_WINDOW_RADIUS window
            raise PuzzleFormatError(
                f"answer length {answer_length} is not an even number from 4 "
                f"to {4 * ANSWER_WINDOW_RADIUS}", lineno)
    directions = list(DIRECTION_ORDER)
    if "directions" in sections:
        directions = []
        for lineno, line in sections["directions"]:
            for token in line.replace(",", " ").split():
                try:
                    d = Direction[token.upper()]
                except KeyError:
                    raise PuzzleFormatError(
                        f"unknown direction {token!r}", lineno) from None
                if d not in directions:
                    directions.append(d)
        if not directions:
            raise PuzzleFormatError(f"{path}: empty [directions] section")
    l1 = grid
    for _ in range(grid.level - 1):
        l1 = contract(l1, rules)
    return PuzzleSpec(
        rules=rules, l1=l1,
        raw_words=tuple(raw_words), words=tuple(words),
        allowed_directions=tuple(directions),
        answer_length=answer_length,
    )


# ---------------------------------------------------------------------------
# solving
# ---------------------------------------------------------------------------

def _placement(spec: PuzzleSpec, raw: str, result: SearchResult) -> Placement:
    addresses = witness_coordinates(result, spec.l1, spec.rules)
    return Placement(
        raw=raw, word=result.word, direction=result.direction,
        level=result.level, ancestor=result.ancestor, anchor=result.anchor,
        offsets=result.offsets, addresses=tuple(addresses),
        nodes_expanded=result.nodes_expanded, patterns_seen=result.patterns_seen,
    )


def _place_word(searcher: AncestrySearcher, spec: PuzzleSpec, raw: str,
                word: str, cross_all: bool) -> tuple[Placement, list[Placement]]:
    """Earliest placement of one word over the allowed directions.

    One search per direction, stepped in lockstep by
    :func:`first_grounded`, so the first grounded layer is the global
    minimum level and the losing directions stop there instead of
    running to their fixpoints.  Ties at the same depth go to the
    direction order, then to the in-grid witness tie-break.  Returns the
    placement and the placements to cross out: the placement alone, or
    with ``cross_all`` every grounding at the winning depth.
    """
    runs: dict[Pattern, LayeredSearch] = {}
    for d in DIRECTION_ORDER:
        if d in spec.allowed_directions:
            # a 1-letter word is the same pattern in all directions
            run = LayeredSearch(searcher, word, d)
            runs.setdefault(run.target, run)
    result = first_grounded(list(runs.values()))
    if not result.found:
        raise SolveError(
            f"word {word!r} cannot appear on any level for this start grid")
    placement = _placement(spec, raw, result)
    cross = [placement]
    if cross_all:
        # an exhausted run's frontier is empty
        for run in runs.values():
            for pat in run.frontier:
                for pos in searcher.ground_positions(pat):
                    cross.append(_placement(spec, raw, run.result((pos, pat))))
    return placement, cross


def crossed_out_l1_cells(placements, rules: RuleSet) -> frozenset[tuple[int, int]]:
    """Level-one cells whose descendants carry the placed words: cell
    (ceil(i/rh**(k-1)), ceil(j/b**(k-1))) for a letter at (i, j) on
    level k.  Only the words' own letters count, never the wildcard
    padding of a diagonal's bounding box."""
    rh, b = rules.rule_rows, rules.b
    crossed: set[tuple[int, int]] = set()
    for placement in placements:
        for addr in placement.addresses:
            rspan = rh ** (addr.level - 1)
            cspan = b ** (addr.level - 1)
            crossed.add((-(-addr.row // rspan), -(-addr.col // cspan)))
    return frozenset(crossed)


def _window(l1: Grid, rules: RuleSet, level: int, rows: tuple[int, int],
            cols: tuple[int, int]) -> tuple[str, ...]:
    """Rows of the inclusive 1-indexed rectangle ``rows`` x ``cols`` of
    ``level``, read in one :func:`letters_at` call over its cells and cut
    into rows."""
    (top, bottom), (left, right) = rows, cols
    width = right - left + 1
    cells = letters_at(l1, rules, [
        CellAddress(level, r, c)
        for r in range(top, bottom + 1) for c in range(left, right + 1)])
    return tuple(cells[i:i + width] for i in range(0, len(cells), width))


def answer_window(spec: PuzzleSpec, target_level: int) -> AnswerWindow:
    """Read the answer region on ``target_level``.

    Locates the unique marker letter on level one, takes the central
    2 * ANSWER_WINDOW_RADIUS window of its descendant block (clamped to
    the level), and reads the marker-shaped arrangement at the block's
    exact center: the two diagonals of the central (answer_length/2)-sized
    box, main diagonal top-down then anti-diagonal bottom-up.  When the
    block is too small for that box the raw window is returned unread.
    """
    marks = occurrences(parse_pattern(DEFAULT_MARKER), spec.l1)
    if len(marks) != 1:
        raise SolveError(
            f"marker {DEFAULT_MARKER!r} occurs {len(marks)} times on level one,"
            " need exactly 1")
    (rows_range, cols_range) = descendant_block_range(
        marks[0], target_level, spec.rules)
    max_rows, max_cols = level_shape(spec.l1, spec.rules, target_level)
    mid_r = rows_range[0] + (rows_range[1] - rows_range[0] + 1) // 2
    mid_c = cols_range[0] + (cols_range[1] - cols_range[0] + 1) // 2
    top = max(1, mid_r - ANSWER_WINDOW_RADIUS)
    bottom = min(max_rows, mid_r + ANSWER_WINDOW_RADIUS - 1)
    left = max(1, mid_c - ANSWER_WINDOW_RADIUS)
    right = min(max_cols, mid_c + ANSWER_WINDOW_RADIUS - 1)
    x_size = spec.answer_length // 2
    x_top, x_left = mid_r - x_size // 2, mid_c - x_size // 2
    x_bottom, x_right = x_top + x_size - 1, x_left + x_size - 1
    fits = (
        x_size >= 2 and spec.answer_length % 2 == 0
        and x_top >= rows_range[0] and x_bottom <= rows_range[1]
        and x_left >= cols_range[0] and x_right <= cols_range[1]
    )
    if not fits:
        return AnswerWindow(level=target_level, top=top, left=left, found=False,
                            window=_window(spec.l1, spec.rules, target_level,
                                           (top, bottom), (left, right)))
    # One read of the rectangle covering the window and the box, which
    # the window holds whenever answer_length <= 4 * ANSWER_WINDOW_RADIUS.
    r0, c0 = min(top, x_top), min(left, x_left)
    cover = _window(spec.l1, spec.rules, target_level,
                    (r0, max(bottom, x_bottom)), (c0, max(right, x_right)))
    window = tuple(line[left - c0:right - c0 + 1]
                   for line in cover[top - r0:bottom - r0 + 1])
    rows = tuple(line[x_left - c0:x_right - c0 + 1]
                 for line in cover[x_top - r0:x_bottom - r0 + 1])
    main = "".join(rows[i][i] for i in range(x_size))
    anti = "".join(rows[x_size - 1 - i][i] for i in range(x_size))
    return AnswerWindow(
        level=target_level, top=top, left=left, window=window, found=True,
        x_top=x_top, x_left=x_left, x_rows=rows,
        main_diagonal=main, anti_diagonal=anti, answer=main + anti,
    )


def solve(spec: PuzzleSpec, *, cross_all: bool = False) -> SolveReport:
    """Full solution: per-word placements, the crossed-out message, the
    level sum, and the answer window on the summed level.

    With ``cross_all`` every grounding found at a word's earliest level
    contributes to the crossed-out set, not just the deterministic
    witness.
    """
    searcher = AncestrySearcher(spec.rules, spec.l1)
    results = [_place_word(searcher, spec, raw, word, cross_all)
               for raw, word in zip(spec.raw_words, spec.words)]
    placements: list[Placement] = [placement for placement, _ in results]
    cross_sources: list[Placement] = [p for _, cross in results for p in cross]
    crossed = crossed_out_l1_cells(cross_sources, spec.rules)
    lines = spec.l1.lines()
    message = "".join(
        lines[r][c]
        for r in range(spec.l1.rows)
        for c in range(spec.l1.cols)
        if (r + 1, c + 1) not in crossed
    )
    level_sum = sum(p.level for p in placements)
    try:
        window = answer_window(spec, level_sum)
    except SolveError:      # no unique marker on level one
        window = None
    return SolveReport(
        placements=tuple(placements),
        level_counts=dict(sorted(Counter(p.level for p in placements).items())),
        crossed_cells=crossed,
        message=message,
        level_sum=level_sum,
        answer=window,
        nodes_expanded=sum(p.nodes_expanded for p in placements),
        patterns_seen=sum(p.patterns_seen for p in placements),
    )


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------

report_to_json_dict = to_json


def report_from_json_dict(data: dict) -> SolveReport:
    """Inverse of :func:`report_to_json_dict`; only the fields whose JSON
    type differs from the dataclass's are converted back."""
    placements = tuple(
        Placement(**dict(
            p, direction=Direction[p["direction"]],
            ancestor=parse_pattern(p["ancestor"]), anchor=tuple(p["anchor"]),
            offsets=tuple(map(tuple, p["offsets"])),
            addresses=tuple(CellAddress(*a) for a in p["addresses"])))
        for p in data["placements"]
    )
    ans = data["answer"]
    window = None if ans is None else AnswerWindow(**dict(
        ans, window=tuple(ans["window"]), x_rows=tuple(ans["x_rows"])))
    return SolveReport(**dict(
        data, placements=placements, answer=window,
        level_counts={int(k): v for k, v in data["level_counts"].items()},
        crossed_cells=frozenset(map(tuple, data["crossed_cells"]))))


def report_to_text(report: SolveReport) -> str:
    """Human-readable solve report."""
    lines = []
    width = max(len(p.raw) for p in report.placements)
    lines.append(f"{'WORD':<{width}}  {'DIR':>3}  {'LEVEL':>5}  ANCHOR/ANCESTOR")
    for p in report.placements:
        lines.append(
            f"{p.raw:<{width}}  {p.direction.name:>3}  {p.level:>5}  "
            f"{p.ancestor.text()} @ {p.anchor}"
        )
    counts = ", ".join(f"level {k}: {v}" for k, v in report.level_counts.items())
    lines.append("")
    lines.append(f"word counts by level: {counts}")
    lines.append(f"message: {report.message}")
    lines.append(f"level sum: {report.level_sum}")
    if report.answer is None:
        lines.append("no unique marker on level one; answer extraction skipped")
    elif report.answer.found:
        lines.append(f"answer block at level {report.answer.level}, "
                     f"rows from {report.answer.x_top}, cols from {report.answer.x_left}:")
        lines.extend("  " + row for row in report.answer.x_rows)
        lines.append(f"diagonals: {report.answer.main_diagonal} + "
                     f"{report.answer.anti_diagonal} -> {report.answer.answer}")
    else:
        lines.append("no marker-shaped answer found; raw window:")
        lines.extend("  " + row for row in report.answer.window)
    lines.append(f"search effort: {report.nodes_expanded} nodes expanded, "
                 f"{report.patterns_seen} distinct patterns")
    return "\n".join(lines)
