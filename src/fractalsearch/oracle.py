"""Desk-scale ground truth for the backward search.

Four instruments live here:

* the forward window fixpoint: a breadth-first walk over the distinct
  word-shaped windows of each level, exact on every level and ending in
  a fixpoint that proves "never" -- the independent route against
  which the backward search is validated;
* latest first appearance: the worst first-appearance level of a word
  over every possible start grid, computed exactly by enumerating the
  concrete fills of the word's ancestor patterns (adding letters to a
  start grid can only ground an ancestor earlier, so maximal setups are
  fills of single ancestor boxes);
* the exhaustive rule-set sweep: the latest first appearance over every
  rule assignment for a small alphabet, searched once per symmetry
  orbit of rule sets, with re-validated witnesses;
* the randomized agreement audit: random small instances run through
  both the backward search and the forward window walk, checking that
  their levels agree and that the search's ancestors keep to the
  paper's bounds and geometry.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter, or_
from typing import ClassVar

from . import bounds
from .ancestry import AncestrySearcher, LayeredSearch, lockstep, members
from .core import Grid, RuleSet, check_letters
from .errors import ResourceLimitError, WitnessError
from .patterns import (
    ANTIDIAGONALS,
    DIAGONALS,
    WILDCARD,
    Direction,
    GridIndex,
    Pattern,
    to_json,
    two_diagonal_support,
    word_to_pattern,
)

FILL_CAP = 10 ** 6
SWEEP_RULESET_CAP = 10 ** 6
# One mask bit per (word, direction) case: walk memory grows as its square.
SWEEP_CASE_CAP = 2 ** 14
# Cells of one rule block (b x rh); the audit caps its 2D block, b x b.
BLOCK_CELL_CAP = 10 ** 4
WINDOW_CAP = 10 ** 6

OUTSIDE = "#"       # cells outside the start grid; reserved, never a letter


# ---------------------------------------------------------------------------
# forward window fixpoint
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=256)
def _children(shape: tuple, rh: int, b: int) -> tuple:
    """Getters of the same-shape windows inside the expansion of a
    window, in anchor order.  The expansion is the window's cells'
    rh x b blocks joined in shape order, so the plan depends only on the
    shape and the block shape, and one plan serves every rule set."""
    # (row, col) of every expanded cell -> its index in the expansion;
    # the shape's first offset is (0, 0), so children anchor on such cells
    index = {(r * rh + i, c * b + j): k * rh * b + i * b + j
             for k, (r, c) in enumerate(shape)
             for i in range(rh) for j in range(b)}
    return tuple(itemgetter(*(index[ar + sr, ac + sc] for sr, sc in shape))
                 for ar, ac in sorted(index)
                 if all((ar + sr, ac + sc) in index for sr, sc in shape))


@functools.lru_cache(maxsize=256)
def _reader(shape: tuple, width: int) -> tuple:
    """``(start, span, getter)`` reading one placement of the shape off a
    grid of ``width`` columns flattened into one string: the placement
    anchored at flat position p is ``getter(flat[p + start:p + start +
    span])``.  Keyed by width, not grid size, so grids of one width
    share a reader."""
    flat = [sr * width + sc for sr, sc in shape]
    start = min(flat)
    return start, max(flat) - start + 1, itemgetter(*(f - start for f in flat))


def forward_first_appearance(word: str, direction: Direction, l1: Grid,
                             rules: RuleSet, max_level: int) -> int | None:
    """First level (<= max_level) containing the word; None if absent
    throughout.

    No level is built: a breadth-first walk visits the distinct windows
    of each level.  A window is the string of letters under one
    placement of a shape -- the word's line (1 x s or s x 1) or, for a
    diagonal, the band of that line and the diagonal to its right -- and
    cells outside the start grid hold ``#``, which expands to itself.  A
    window's children are the same-shape windows inside its expansion,
    its cells' blocks joined into one string.

    Closure lemma: a window of level k+1 lies inside the expansion of
    one same-shape window of level k, since a line of s cells has its
    parents on a line of at most s cells and a band's parents lie on two
    adjacent diagonals.  So breadth-first depth is the exact first level
    of a window, and as there are finitely many windows the walk ends;
    ending with no window whose line spells the word proves "never".
    Only the line is compared: a band's second diagonal is the line of
    the band one column over.  1D rules expand each row on its own, so a
    diagonal's parents drift along the rows; there the shape is the
    s x s square, which closes.  More than ``WINDOW_CAP`` distinct
    windows raise ResourceLimitError.
    """
    if max_level < 1:
        raise ValueError("max_level must be >= 1")
    if l1.level != 1:
        raise ValueError("start grid must be tagged level 1")
    check_letters(word, rules, "word")
    check_letters(l1.cells, rules, "grid")
    s = len(word)
    step = direction.value
    backwards = step < (0, 0)       # W, N, NW and NE read the line backwards
    target = word[::-1] if backwards else word
    dr, dc = (-step[0], -step[1]) if backwards else step
    shape = [(i * dr, i * dc) for i in range(s)]
    if dr and dc:
        shape += ([(r, c + 1) for r, c in shape] if rules.dimension == 2 else
                  [(i, j * dc) for i in range(s) for j in range(s) if i != j])
    shape = tuple(shape)
    # Every placement touching the start grid, read off the grid padded
    # with s OUTSIDE cells on each side and flattened into one string: no
    # offset of the shape exceeds s, so no placement wraps a row.
    width = l1.cols + 2 * s
    side = OUTSIDE * s
    edge = OUTSIDE * (width * s)
    flat = edge + side + (side + side).join(l1.lines()) + side + edge
    start, span, read = _reader(shape, width)
    rows, cols = zip(*shape)
    left, right = s - max(cols) + start, s + l1.cols - min(cols) + start
    seen = {"".join(read(flat[p:p + span]))
            for r in range(s - max(rows), s + l1.rows)
            for p in range(r * width + left, r * width + right)}
    if any(window.startswith(target) for window in seen):
        return 1
    rh, b = rules.rule_rows, rules.b
    blocks = {ord(ch): "".join(block) for ch, block in rules.rules.items()}
    blocks[ord(OUTSIDE)] = OUTSIDE * (rh * b)
    children = _children(shape, rh, b)
    frontier = list(seen)
    for level in range(2, max_level + 1):
        new = []
        for window in frontier:
            expansion = window.translate(blocks)
            for child in children:
                got = "".join(child(expansion))
                if got not in seen:
                    seen.add(got)
                    new.append(got)
            if len(seen) > WINDOW_CAP:
                raise ResourceLimitError(
                    f"forward walk exceeds {WINDOW_CAP} windows")
        if any(window.startswith(target) for window in new):
            return level
        if not new:
            return None
        frontier = new
    return None


# ---------------------------------------------------------------------------
# latest first appearance over all start grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatestResult:
    level: int | None
    l1: Grid | None          # a start grid attaining the level


def _fills(pattern: Pattern, letters: tuple[str, ...]):
    """All wildcard-free patterns obtained by filling the pattern's
    wildcards, in lexicographic fill order: the :func:`members` of the
    pattern with ``letters`` in every wildcard; more than ``FILL_CAP``
    raise.  Each is a throwaway start grid: ``GridIndex`` reads only its
    ``rows``, ``cols`` and ``cells``, so no ``Grid`` is validated per
    fill.  A pattern with no wildcard is its own only fill."""
    holes = pattern.cells.count(WILDCARD)
    if not holes:
        return (pattern,)
    if len(letters) ** holes > FILL_CAP:
        raise ResourceLimitError(
            f"{len(letters) ** holes} fills of {pattern.text()!r} "
            f"exceed cap {FILL_CAP}")
    return members(Pattern(pattern.rows, pattern.cols, tuple(
        letters if ch == WILDCARD else ch for ch in pattern.cells)))


def _occurs_in(pattern: Pattern, index: GridIndex) -> bool:
    return index.starts(pattern) != 0


def latest_with_searcher(searcher: AncestrySearcher, word: str,
                         direction: Direction) -> LatestResult:
    """Worst-case first-appearance level of a word over all start grids,
    with a start grid that reaches it: the word's ancestor closure by
    depth (:meth:`AncestrySearcher.shared_layers` of the word alone),
    handed to :func:`_fill_scan` with no floor and a fresh memo."""
    check_letters(word, searcher.rules, "word")
    layers = searcher.shared_layers([word_to_pattern(word, direction)])
    return _fill_scan([list(layer) for layer in layers],
                      searcher.rules.letters, 0, {})


class _Occurs(dict):
    """Whether each ancestor occurs in one fill: ancestor -> bool, tested
    with the fill's one ``GridIndex`` on the first ask and kept."""

    __slots__ = ("index",)

    def __init__(self, fill: Pattern):
        super().__init__()
        self.index = GridIndex(fill)

    def __missing__(self, pat: Pattern) -> bool:
        got = self[pat] = _occurs_in(pat, self.index)
        return got


def _fill_scan(by_depth: list[list[Pattern]], letters: tuple[str, ...],
               floor: int, memo: dict[Pattern, _Occurs]) -> LatestResult:
    """The latest first level over the fills of a word's ancestors, given
    as ``by_depth[d]``, the ancestors at depth d in any order, and a fill
    reaching it, if above ``floor``; else ``LatestResult(None, None)``.

    ``memo`` maps each fill met to its :class:`_Occurs`: one
    ``GridIndex`` per distinct fill, and the answers for the ancestors
    already tested in it.  Whether an ancestor occurs in a fill depends
    only on the ancestor and the fill, not on the rule set or the word,
    so one memo serves any number of scans.  It lives no longer than its
    owner: one ``latest_with_searcher`` call, or one sweep chunk.

    The candidate start grids are exactly the concrete fills of the
    word's ancestor patterns: for any start grid, restricting it to the
    box of a minimal-depth grounded ancestor preserves the first level,
    so the maximum is attained on such a fill.  A fill of a depth-d
    ancestor holds that ancestor, so its first level is at most d+1 and
    only depths 0..d-1 are scanned for an earlier one.  Deeper ancestors
    are filled first, each depth in sorted order, and the first fill
    with the highest level wins.  The best level starts at ``floor``:
    depths whose d+1 cannot beat it are never filled, and the scan stops
    once a depth-d fill reaches d+1.  The target's own fill reaches
    level 1, so with a floor of 0 there is always a result.
    """
    best, winner = floor, None
    for d in range(len(by_depth) - 1, -1, -1):
        if d + 1 <= best:
            break
        for pat in sorted(by_depth[d]):
            for fill in _fills(pat, letters):
                occurs = memo.get(fill)
                if occurs is None:
                    occurs = memo[fill] = _Occurs(fill)
                first = next((d2 + 1 for d2 in range(d) if any(
                    map(occurs.__getitem__, by_depth[d2]))), d + 1)
                if first > best:
                    if first == d + 1:
                        return LatestResult(first, Grid(*fill))
                    best, winner = first, fill
    if winner is None:
        return LatestResult(None, None)
    return LatestResult(best, Grid(*winner))


# ---------------------------------------------------------------------------
# exhaustive rule-set sweep
# ---------------------------------------------------------------------------

def _sweep_blocks(letters: tuple[str, ...], b: int, dimension: int):
    rh = 1 if dimension == 1 else b
    rows = ["".join(p) for p in itertools.product(letters, repeat=b)]
    return [tuple(block) for block in itertools.product(rows, repeat=rh)]


def _digits(index: int, n: int, base: int) -> list[int]:
    """The n base-``base`` digits of a rule-set index, most significant
    first: digit i is the block index of letter i."""
    digits = []
    for _ in range(n):
        index, d = divmod(index, base)
        digits.append(d)
    return digits[::-1]


def _ruleset_by_index(index: int, letters: tuple[str, ...], blocks) -> RuleSet:
    digits = _digits(index, len(letters), len(blocks))
    return RuleSet({ch: blocks[d] for ch, d in zip(letters, digits)})


def _sweep_orbits(letters: tuple[str, ...], blocks) -> list[int]:
    """The smallest rule-set index in the symmetry orbit of every index.

    The group is S_n x {identity, 180-degree rotation}.  A letter
    permutation relabels the rules, the start grid and the word alike.
    The rotation turns every rule block by 180 degrees (reverses the row
    order and each row) and reverses the word.  Both are exact
    symmetries of the sweep:

    * each map is a bijection on start grids and on words, and it
      commutes with expansion: under the rotation, level k of the
      rotated system from the rotated start grid is level k turned by
      180 degrees, so a word read E (or SE) maps to its reverse read E
      (or SE);
    * the sweep's word set (all words up to ``word_len_cap``) is closed
      under both maps, and both keep word length.

    So every per-length maximum, and with them the rule set's maximum,
    is constant on each orbit, in 1D and in 2D.
    """
    n, base = len(letters), len(blocks)
    position = {block: k for k, block in enumerate(blocks)}
    # One table per group element: tables[g][i][d] is what letter i's
    # block d adds to the image index.
    tables = []
    for perm in itertools.permutations(range(n)):
        relabel = str.maketrans("".join(letters),
                                "".join(letters[p] for p in perm))
        for rotate in (False, True):
            block_map = []
            for block in blocks:
                rows = [row.translate(relabel) for row in block]
                if rotate:
                    rows = [row[::-1] for row in reversed(rows)]
                block_map.append(position[tuple(rows)])
            tables.append([[block_map[d] * base ** (n - 1 - perm[i])
                            for d in range(base)] for i in range(n)])
    smallest = [-1] * base ** n
    for index in range(len(smallest)):
        if smallest[index] < 0:
            digits = _digits(index, n, base)
            for table in tables:
                smallest[sum(map(list.__getitem__, table, digits))] = index
    return smallest


def _keep_best(best: dict[int, tuple], length: int, key: tuple) -> None:
    """Keep the smaller sweep witness key (-level, rule-set index, word,
    l1 text, direction name): the latest level first, then the smallest
    rule set, word and start grid, then E before SE."""
    if length not in best or key < best[length]:
        best[length] = key


def _deepest(layers: list[dict[Pattern, int]], count: int) -> list[int]:
    """The deepest closure layer of each of ``count`` targets: the last of
    the shared walk's layers that holds the target's bit.  The layers
    are read deepest first, and each bit is placed once."""
    deepest = [0] * count
    unplaced = (1 << count) - 1
    for depth in range(len(layers) - 1, 0, -1):
        reached = functools.reduce(or_, layers[depth].values()) & unplaced
        unplaced ^= reached
        while reached:
            low = reached & -reached
            deepest[low.bit_length() - 1] = depth
            reached ^= low
        if not unplaced:
            break
    return deepest


def _groups(layers: list[dict[Pattern, int]], bit: int,
            depth: int) -> list[list[Pattern]]:
    """Depths 0..``depth`` of one target's closure, read off a shared walk
    (:meth:`AncestrySearcher.shared_layers`) by the target's bit."""
    return [[pat for pat, bits in layer.items() if bits & bit]
            for layer in layers[:depth + 1]]


def _sweep_chunk(args) -> tuple[list[int], dict]:
    """Worker: ``args`` is ``(letters, blocks, cases, indexes)``; latest
    levels for every (word, direction) case under each rising rule-set index.

    Returns the maxima of the rule sets in list order plus the best
    witness per word length, keyed for a deterministic merge.

    A search counts only if its level raises the rule set's maximum or
    wins the word length's witness, so the lower of those two levels is
    its floor.  Indexes and words rise, so a later search that ties the
    kept witness's level loses the tie, except the same word read SE
    after E, whose start grid may be smaller: then the witness floor is
    one lower.

    A word's latest level is at most its closure's deepest layer + 1,
    so a search whose deepest layer + 1 is at or below its floor would
    answer nothing and is skipped.  Every (word, direction) target's
    closure comes from one shared ancestor walk per rule set
    (:meth:`AncestrySearcher.shared_layers`): a target's deepest layer
    is the last layer that holds its bit, and a search that is not
    skipped reads its closure's depth groups off the layers by that bit
    and runs the fill scan (:func:`_fill_scan`) on them.

    Every scan of the chunk shares one occurrence memo: an ancestor's
    occurrence in a fill depends only on the ancestor and the fill, and
    the chunk's rule sets meet few distinct fills, so each gets one
    ``GridIndex`` and each (fill, ancestor) pair is tested once.  The
    memo is dropped with the chunk.
    """
    letters, blocks, cases, indexes = args
    targets = [word_to_pattern(word, direction) for word, direction in cases]
    per_ruleset: list[int] = []
    best: dict[int, tuple] = {}     # word length -> witness key
    memo: dict[Pattern, _Occurs] = {}
    for idx in indexes:
        searcher = AncestrySearcher(_ruleset_by_index(idx, letters, blocks))
        layers = searcher.shared_layers(targets)
        deepest = _deepest(layers, len(targets))
        rs_max = 0
        for t, (word, direction) in enumerate(cases):
            known = best.get(len(word))
            floor = 0 if known is None else min(
                rs_max, -known[0] - (known[1:3] == (idx, word)))
            if deepest[t] + 1 <= floor:
                continue
            got = _fill_scan(_groups(layers, 1 << t, deepest[t]), letters, floor, memo)
            if got.level is None:
                continue
            rs_max = max(rs_max, got.level)
            _keep_best(best, len(word), (-got.level, idx, word,
                                         got.l1.text(), direction.name))
        per_ruleset.append(rs_max)
    return per_ruleset, best


@dataclass(frozen=True)
class SweepReport:
    """Outcome of an exhaustive rule-set sweep; ``per_ruleset_max`` and
    :meth:`histogram` cover the searched directions only."""

    n: int
    b: int
    dimension: int
    word_len_cap: int
    global_max: int
    witness_rules: str
    witness_word: str
    witness_l1: str
    witness_direction: str
    per_length_max: dict[int, int]
    per_ruleset_max: tuple[int, ...]
    ruleset_count: int
    # A witness that fails forward re-validation raises WitnessError, so
    # every report that exists is validated.
    validated: ClassVar[bool] = True

    def histogram(self) -> dict[int, int]:
        return dict(sorted(Counter(self.per_ruleset_max).items()))

    def to_json_dict(self) -> dict:
        return {
            "n": self.n, "b": self.b, "dimension": self.dimension,
            "word_len_cap": self.word_len_cap,
            "global_max": self.global_max,
            "witness": {
                "rules": self.witness_rules,
                "word": self.witness_word,
                "l1": self.witness_l1,
                "direction": self.witness_direction,
            },
            "per_length_max": {str(k): v for k, v in sorted(self.per_length_max.items())},
            "histogram": {str(k): v for k, v in self.histogram().items()},
            "ruleset_count": self.ruleset_count,
            "validated": self.validated,
            "per_ruleset_max": list(self.per_ruleset_max),
        }


def sweep_max_latest(n: int, b: int = 2, dimension: int = 1,
                     word_len_cap: int = 2, *, jobs: int = 1) -> SweepReport:
    """Global latest first-appearance level over every rule assignment
    for an n-letter alphabet, all words up to ``word_len_cap`` read E
    (1D) or E and SE (2D).  Reversal, and transposing or mirroring every
    block, carry the per-length maxima to all eight directions, but not
    a rule set's own maximum: in 2D its S or SW words may appear later.

    Only the smallest index of each symmetry orbit (see
    :func:`_sweep_orbits`) is searched; its maximum is copied to every
    rule set of the orbit.  The witness is the same as a search of every
    rule set would pick: among the rule sets that reach a length's
    maximum it takes the smallest index, which is also the smallest
    ``rules.text()`` (blocks are fixed-width and enumerated in
    lexicographic order), so that rule set is the smallest of its orbit
    and was searched.

    Every per-length witness is re-validated by forward expansion before
    the report is returned; one that fails raises ``WitnessError``.
    Embarrassingly parallel over orbits; results merge deterministically
    whatever the chunking.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if word_len_cap < 1:
        raise ValueError("word_len_cap must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if dimension not in (1, 2):
        raise ValueError(f"dimension must be 1 or 2, not {dimension}")
    letters = tuple("ABCDEFGHIJKLMNOPQRSTUVWXYZ"[:n])
    rh = 1 if dimension == 1 else b
    # n ** (b * rh * n) rule sets, grown only up to the first count past the cap
    count, factors = 1, b * rh * n if n > 1 else 0
    while factors and count <= SWEEP_RULESET_CAP:
        count, factors = count * n, factors - 1
    if count > SWEEP_RULESET_CAP:
        raise ResourceLimitError(
            f"{n}**{b * rh * n} rule sets exceed the sweep cap {SWEEP_RULESET_CAP}")
    if b * rh > BLOCK_CELL_CAP:
        raise ResourceLimitError(
            f"{rh} x {b} blocks exceed the block cell cap {BLOCK_CELL_CAP}")
    directions = (Direction.E,) if dimension == 1 else (Direction.E, Direction.SE)
    cases = []
    for length in range(1, word_len_cap + 1):
        total = len(cases) + len(directions) * n ** length
        if total > SWEEP_CASE_CAP:
            raise ResourceLimitError(
                f"words up to length {length} give {total} (word, direction) "
                f"cases, over the sweep cap {SWEEP_CASE_CAP}")
        words = map("".join, itertools.product(letters, repeat=length))
        cases += itertools.product(words, directions)
    blocks = _sweep_blocks(letters, b, dimension)
    smallest = _sweep_orbits(letters, blocks)
    reps = [idx for idx, first in enumerate(smallest) if first == idx]
    chunk_size = max(1, len(reps) // (jobs * 8) if jobs > 1 else len(reps))
    chunks = [
        (letters, blocks, cases, reps[lo:lo + chunk_size])
        for lo in range(0, len(reps), chunk_size)
    ]
    if jobs > 1:
        import multiprocessing      # here, so that only a pooled sweep pays for it
        with multiprocessing.Pool(min(jobs, len(chunks))) as pool:
            parts = pool.map(_sweep_chunk, chunks)
    else:
        parts = [_sweep_chunk(chunk) for chunk in chunks]
    orbit_max: list[int] = []
    best: dict[int, tuple] = {}
    for chunk_max, chunk_best in parts:
        orbit_max.extend(chunk_max)
        for length, key in chunk_best.items():
            _keep_best(best, length, key)
    by_rep = dict(zip(reps, orbit_max))
    for length, (neg_level, widx, wword, wl1, wdir) in sorted(best.items()):
        wrules = _ruleset_by_index(widx, letters, blocks)
        got = forward_first_appearance(
            wword, Direction[wdir], Grid.from_text(wl1), wrules, -neg_level)
        if got != -neg_level:
            raise WitnessError(
                f"sweep witness for word length {length} failed forward "
                f"re-validation: word {wword} {wdir} from start grid {wl1} "
                f"under {wrules.text()}: expected level {-neg_level}, forward "
                f"expansion gave {got}")
    # A 1-letter word reaches level 1 from its own fill, so there is
    # always a witness of length 1.
    neg_level, idx, word, l1_text, direction_name = min(best.values())
    return SweepReport(
        n=n, b=b, dimension=dimension, word_len_cap=word_len_cap,
        global_max=-neg_level,
        witness_rules=_ruleset_by_index(idx, letters, blocks).text(),
        witness_word=word, witness_l1=l1_text, witness_direction=direction_name,
        per_length_max={length: -key[0] for length, key in sorted(best.items())},
        per_ruleset_max=tuple(by_rep[first] for first in smallest),
        ruleset_count=count,
    )


# ---------------------------------------------------------------------------
# randomized backward/forward agreement harness
# ---------------------------------------------------------------------------

# Shape of the audit's random instances: up to AUDIT_MAX_N letters with
# b = AUDIT_B unless asked otherwise, start grids up to AUDIT_MAX_SIDE on
# a side, and words of up to AUDIT_MAX_WORD letters.
AUDIT_MAX_N = 4
AUDIT_B = 2
AUDIT_MAX_SIDE = 4
AUDIT_MAX_WORD = 4

# Each kind of audit issue, as :func:`check_instance` keys it, and the
# :class:`AgreementReport` field that collects it.
ISSUE_FIELDS = {"mismatch": "mismatches", "bound": "bound_violations",
                "geometry": "geometry_violations",
                "confinement": "confinement_violations"}


@dataclass(frozen=True)
class AgreementReport:
    """Tally of randomized backward-vs-forward comparison runs."""

    instances: int
    found_both: int
    never_both: int
    beyond_horizon: int          # backward found deeper than max_level
    mismatches: tuple[str, ...]
    bound_violations: tuple[str, ...]
    geometry_violations: tuple[str, ...]
    confinement_violations: tuple[str, ...]

    @property
    def clean(self) -> bool:
        return not any(getattr(self, name) for name in ISSUE_FIELDS.values())

    def to_json_dict(self) -> dict:
        return {**to_json(self), "clean": self.clean}


def random_instance(rng, b: int = AUDIT_B):
    """One random (rules, l1, word, direction) quadruple with block side
    ``b``."""
    dimension = rng.choice((1, 2))
    n = rng.randint(1, AUDIT_MAX_N)
    letters = tuple("ABCD"[:n])
    rh = 1 if dimension == 1 else b
    rules = RuleSet({ch: tuple("".join(rng.choice(letters) for _ in range(b))
                               for _ in range(rh))
                     for ch in letters})
    rows = 1 if dimension == 1 else rng.randint(1, AUDIT_MAX_SIDE)
    cols = rng.randint(1, AUDIT_MAX_SIDE)
    l1 = Grid(rows, cols,
              "".join(rng.choice(letters) for _ in range(rows * cols)), 1)
    word = "".join(rng.choice(letters)
                   for _ in range(rng.randint(1, AUDIT_MAX_WORD)))
    direction = rng.choice(
        (Direction.E, Direction.W) if dimension == 1 else tuple(Direction))
    return rules, l1, word, direction


def check_instance(rules: RuleSet, l1: Grid, word: str, direction: Direction,
                   *, max_level: int = 10) -> dict:
    """Run both search routes on one instance and audit the invariants.

    Returns a dict of issue lists (empty when everything agrees) plus the
    outcome classification.  A backward level past ``max_level`` is
    still checked exactly: the forward route then runs to that level.
    Under 2D rules a parent's sides keep to :func:`bounds.max_parent_len`
    and a diagonal word's ancestors to :func:`two_diagonal_support` alone
    (the paper's 3-letter corners of 2 x 2 boxes are its 2 x 2 case).
    Under 1 x b blocks a parent has its child's rows and a diagonal's
    parents drift along the rows, so only the columns are bounded.
    """
    searcher = AncestrySearcher(rules, l1)
    run, grounded = lockstep([LayeredSearch(searcher, word, direction)])
    # the grounded depth gives the level: the witness chain goes unread
    level = None if grounded is None else run.depth + 1
    horizon = max(max_level, level or 0)
    fwd = forward_first_appearance(word, direction, l1, rules, horizon)

    def desc() -> str:      # built only for an issue: most instances have none
        return (f"dim={rules.dimension} n={rules.n} rules={rules.text()} "
                f"l1={l1.text()} word={word} dir={direction.name}")

    issues: dict[str, list[str]] = {kind: [] for kind in ISSUE_FIELDS}
    if fwd != level:
        issues["mismatch"].append(
            f"{desc()}: backward {level or 'never'}, forward {fwd}")
    outcome = "never"
    if level is not None:
        outcome = "found" if level <= max_level else "beyond"
        limit = (bounds.w2(rules.b, rules.n, len(word)) if direction in DIAGONALS
                 else bounds.w1(rules.b, rules.n, len(word)))
        if level > limit:
            issues["bound"].append(f"{desc()}: level {level} > bound {limit}")
    anti = direction in ANTIDIAGONALS
    banded = rules.dimension == 2 and direction in DIAGONALS
    # Both rules read a pattern's shape and layout alone, so each is
    # checked once per product the run walked; a product that breaks one
    # gives lines for the members the run first met in it, each once.
    reported: set[Pattern] = set()
    for depth, layer in enumerate(run.layers):
        for pat, layout in layer:
            max_rows = (bounds.max_parent_len(pat.rows, rules.b)
                        if rules.dimension == 2 else pat.rows)
            max_cols = bounds.max_parent_len(pat.cols, rules.b)
            oversized = False
            for q, _ in searcher.parent_products(pat, layout):
                oversized |= q.rows > max_rows or q.cols > max_cols
            off_band = banded and not two_diagonal_support(pat, anti=anti)
            if not (oversized or off_band):
                continue
            met = run.met[pat[:2]]
            for member in members(pat):
                if met[member.cells] != depth or member in reported:
                    continue
                reported.add(member)
                if oversized:
                    issues["geometry"].extend(
                        f"{desc()}: parent {q.text()} of {member.text()} too large"
                        for q, _ in searcher.parents(member)
                        if q.rows > max_rows or q.cols > max_cols)
                if off_band:
                    issues["confinement"].append(
                        f"{desc()}: ancestor {member.text()} off the diagonal band")
    return {"outcome": outcome, "issues": issues}


def run_agreement(instances: int = 1000, seed: int = 2013, *,
                  max_level: int = 10, b: int = AUDIT_B) -> AgreementReport:
    """Randomized backward/forward equivalence audit over rules of block
    side ``b``; deterministic for a given seed and ``b``.  An audit of no
    instances, or of b x b blocks over ``BLOCK_CELL_CAP`` cells, is refused."""
    import random

    if instances < 1:
        raise ValueError("instances must be >= 1")
    if b * b > BLOCK_CELL_CAP:
        raise ResourceLimitError(
            f"{b} x {b} blocks exceed the block cell cap {BLOCK_CELL_CAP}")

    rng = random.Random(seed)
    tallies = Counter()
    issue_lists: dict[str, list[str]] = {kind: [] for kind in ISSUE_FIELDS}
    for _ in range(instances):
        rules, l1, word, direction = random_instance(rng, b)
        got = check_instance(rules, l1, word, direction, max_level=max_level)
        tallies[got["outcome"]] += 1
        for kind, items in got["issues"].items():
            issue_lists[kind].extend(items)
    return AgreementReport(
        instances=instances,
        found_both=tallies["found"],
        never_both=tallies["never"],
        beyond_horizon=tallies["beyond"],
        **{name: tuple(issue_lists[kind]) for kind, name in ISSUE_FIELDS.items()},
    )
