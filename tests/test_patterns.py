from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fractalsearch.core import Grid, expand
from fractalsearch.patterns import (
    Direction,
    GridIndex,
    Pattern,
    WILDCARD,
    is_trimmed,
    occurrences,
    parse_pattern,
    trim,
    two_diagonal_support,
    word_to_pattern,
)
from tests.conftest import grids_for, rule_sets, scan_occurrences

WORDS = st.text(alphabet="ABCD", min_size=1, max_size=5)


def word_cells(word: str, direction: Direction) -> list[tuple[int, int, str]]:
    """Reference layout: (row, col, letter) of each letter of the word
    walked along ``direction`` from the corner that keeps the walk
    inside its bounding box, 0-indexed, in reading order."""
    n = len(word)
    dr, dc = direction.value
    r = n - 1 if dr < 0 else 0
    c = n - 1 if dc < 0 else 0
    return [(r + i * dr, c + i * dc, ch) for i, ch in enumerate(word)]


def boxed_word(word: str, direction: Direction) -> Pattern:
    """Reference ``word_to_pattern``: the word's cells written into an
    all-wildcard box."""
    n = len(word)
    rows = n if direction.value[0] else 1
    cols = n if direction.value[1] else 1
    cells = [WILDCARD] * (rows * cols)
    for r, c, ch in word_cells(word, direction):
        cells[r * cols + c] = ch
    return Pattern(rows, cols, "".join(cells))


@st.composite
def grid_and_pattern(draw):
    """A 1D or 2D grid over ABC with sides up to 6, and an untrimmed
    pattern that may use the absent letter D, be taller or wider than the
    grid, or be cut from the grid itself so that it matches somewhere."""
    rows = 1 if draw(st.booleans()) else draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    grid = Grid(rows, cols, draw(st.text(alphabet="ABC", min_size=rows * cols,
                                         max_size=rows * cols)))
    prows = draw(st.integers(1, rows + 1))
    pcols = draw(st.integers(1, cols + 1))
    if prows <= rows and pcols <= cols and draw(st.booleans()):
        r0 = draw(st.integers(0, rows - prows))
        c0 = draw(st.integers(0, cols - pcols))
        letters = "".join(line[c0:c0 + pcols]
                          for line in grid.lines()[r0:r0 + prows])
    else:
        letters = draw(st.text(alphabet="ABCD", min_size=prows * pcols,
                               max_size=prows * pcols))
    mask = draw(st.lists(st.booleans(), min_size=prows * pcols,
                         max_size=prows * pcols))
    cells = "".join(WILDCARD if hide else ch for ch, hide in zip(letters, mask))
    assume(cells.count(WILDCARD) < len(cells))
    return grid, Pattern(prows, pcols, cells)


class TestWordToPattern:
    def test_east_is_flat(self):
        assert word_to_pattern("CACABA", Direction.E).text() == "CACABA"

    def test_west_reverses(self):
        assert word_to_pattern("AB", Direction.W).text() == "BA"

    def test_south_is_column(self):
        assert word_to_pattern("CAT", Direction.S).text() == "C/A/T"

    def test_southeast_is_main_diagonal(self):
        assert word_to_pattern("CAT", Direction.SE).text() == "C**/*A*/**T"

    def test_northeast_climbs(self):
        assert word_to_pattern("CAT", Direction.NE).text() == "**T/*A*/C**"

    def test_rejects_empty_word(self):
        with pytest.raises(ValueError):
            word_to_pattern("", Direction.E)

    @given(word=WORDS)
    def test_single_cell_for_any_direction(self, word):
        for direction in Direction:
            pat = word_to_pattern(word[0], direction)
            assert (pat.rows, pat.cols) == (1, 1)

    @given(word=WORDS)
    def test_opposite_directions_mirror(self, word):
        rev = word[::-1]
        assert word_to_pattern(word, Direction.W) == word_to_pattern(rev, Direction.E)
        assert word_to_pattern(word, Direction.N) == word_to_pattern(rev, Direction.S)
        assert word_to_pattern(word, Direction.NW) == word_to_pattern(rev, Direction.SE)
        assert word_to_pattern(word, Direction.SW) == word_to_pattern(rev, Direction.NE)

    @given(word=st.text(alphabet="ABCD", min_size=1, max_size=8))
    def test_always_trimmed(self, word):
        # LayeredSearch skips its trim check for a laid-out word on this.
        for direction in Direction:
            assert is_trimmed(word_to_pattern(word, direction))


class TestTrim:
    def test_strips_wildcard_border(self):
        pat = parse_pattern("****/*A**/**B*/****")
        assert trim(pat).text() == "A*/*B"

    def test_idempotent_on_trimmed(self):
        pat = parse_pattern("C**/*A*/**T")
        assert trim(pat) == pat

    def test_rejects_all_wildcards(self):
        with pytest.raises(ValueError):
            trim(parse_pattern("**/**"))

    def test_is_trimmed_agrees_with_a_border_scan(self):
        """``is_trimmed`` asks whether ``trim`` keeps the pattern; the
        reference scans the border instead: a pattern is trimmed when its
        first and last rows and columns each hold a concrete cell."""
        def border_scan(pattern):
            lines = pattern.lines()
            columns = ["".join(line[c] for line in lines)
                       for c in (0, pattern.cols - 1)]
            return all(set(side) != {WILDCARD}
                       for side in (lines[0], lines[-1], *columns))

        count = 0
        for rows, cols in itertools.product((1, 2, 3), repeat=2):
            for cells in itertools.product(("A", "B", WILDCARD),
                                           repeat=rows * cols):
                pattern = Pattern(rows, cols, "".join(cells))
                assert is_trimmed(pattern) == border_scan(pattern), pattern
                count += 1
        assert count == 21297

    def test_preserves_concrete_offsets(self):
        pat = parse_pattern("****/*AB*/***C/****")
        cells = {(r, c): ch for r, c, ch in pat.concrete_cells()}
        trimmed = trim(pat)
        shifted = {(r, c): ch for r, c, ch in trimmed.concrete_cells()}
        assert shifted == {(r - 1, c - 1): ch for (r, c), ch in cells.items()}


class TestOccurrences:
    def test_counts_single_letters(self):
        g = Grid.from_text("ABAC/CBBB")
        assert occurrences(parse_pattern("B"), g) == [(1, 2), (2, 2), (2, 3), (2, 4)]

    def test_absent_pair(self, abc_1d):
        g = expand(Grid.from_text("A"), abc_1d, 3)
        assert occurrences(word_to_pattern("AA", Direction.E), g) == []

    def test_wildcards_match_anything(self):
        g = Grid.from_text("ABAC/CBBB")
        pat = parse_pattern("A*/*B")
        assert occurrences(pat, g) == [(1, 1), (1, 3)]

    def test_marker_letter_unique_in_shipped_grid(self, puzzle_path):
        from fractalsearch.puzzle import load_puzzle

        spec = load_puzzle(puzzle_path)
        assert occurrences(parse_pattern("X"), spec.l1) == [(9, 12)]

    def test_box_must_fit_entirely(self):
        # Interior wildcards cannot be trimmed away, so the 1 x 3 box
        # never fits a 2 x 2 grid even though only two cells are concrete.
        g = Grid.from_text("AB/CD")
        assert occurrences(parse_pattern("A*B"), g) == []
        # An all-wildcard border does get trimmed before matching.
        assert occurrences(parse_pattern("A**"), g) == [(1, 1)]

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_one_by_one_count_equals_letter_count(self, data):
        rules = data.draw(rule_sets())
        grid = data.draw(grids_for(rules))
        letter = data.draw(st.sampled_from(rules.letters))
        got = occurrences(parse_pattern(letter), grid)
        assert len(got) == grid.cells.count(letter)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_orientation_duality(self, data):
        rules = data.draw(rule_sets(dims=(2,)))
        grid = data.draw(grids_for(rules))
        word = data.draw(st.text(alphabet=rules.letters,
                                 min_size=1, max_size=4))
        for fwd, back in ((Direction.E, Direction.W), (Direction.S, Direction.N),
                          (Direction.SE, Direction.NW), (Direction.NE, Direction.SW)):
            assert occurrences(word_to_pattern(word, back), grid) == \
                occurrences(word_to_pattern(word[::-1], fwd), grid)

    @settings(max_examples=300, deadline=None)
    @given(case=grid_and_pattern())
    def test_indexed_matcher_equals_window_scan(self, case):
        grid, pattern = case
        assert occurrences(pattern, grid) == scan_occurrences(pattern, grid)

    @settings(max_examples=200, deadline=None)
    @given(case=grid_and_pattern(), data=st.data())
    def test_product_scan_is_the_union_of_its_members_scans(self, case, data):
        """Each concrete cell widens to a set of letters that holds it;
        the letter-set scan keeps exactly the starts where some member
        of the product matches."""
        grid, pattern = case
        sets = tuple(
            ch if ch == WILDCARD else tuple(sorted(
                {ch} | set(data.draw(st.text(alphabet="ABCD", max_size=3)))))
            for ch in pattern.cells)
        index = GridIndex(grid)
        got = index.starts_any(Pattern(pattern.rows, pattern.cols, sets))
        # A start matches some member exactly when every concrete cell's
        # grid letter is in that cell's set.
        lines = grid.lines()
        want = 0
        for r in range(grid.rows - pattern.rows + 1):
            for c in range(grid.cols - pattern.cols + 1):
                if all(key == WILDCARD
                       or lines[r + i // pattern.cols][c + i % pattern.cols] in key
                       for i, key in enumerate(sets)):
                    want |= 1 << r * grid.cols + c
        assert got == want
        # Small products are also checked member by member.
        if math.prod(map(len, sets)) <= 4096:
            members = 0
            for combo in itertools.product(*sets):
                members |= index.starts(
                    Pattern(pattern.rows, pattern.cols, "".join(combo)))
            assert got == members
        assert index.starts(pattern) == GridIndex(grid).starts(pattern)


class TestWordCells:
    @settings(max_examples=200, deadline=None)
    @given(word=st.text(alphabet="ABCD", min_size=1, max_size=6),
           direction=st.sampled_from(list(Direction)))
    def test_cells_spell_the_word_on_its_box(self, word, direction):
        pattern = word_to_pattern(word, direction)
        cells = word_cells(word, direction)
        assert "".join(ch for _, _, ch in cells) == word
        assert all(pattern.cells[r * pattern.cols + c] == ch for r, c, ch in cells)
        on_word = {(r, c) for r, c, _ in cells}
        assert all(pattern.cells[r * pattern.cols + c] == WILDCARD
                   for r in range(pattern.rows) for c in range(pattern.cols)
                   if (r, c) not in on_word)

    @pytest.mark.parametrize("direction", list(Direction), ids=lambda d: d.name)
    def test_layout_equals_the_walked_box(self, direction):
        for n in range(1, 13):
            word = "ABCDEFGHIJKL"[:n]
            assert word_to_pattern(word, direction) == boxed_word(word, direction)


class TestTwoDiagonalSupport:
    def test_single_diagonal(self):
        assert two_diagonal_support(parse_pattern("C**/*A*/**T"))

    def test_l_shapes(self):
        assert two_diagonal_support(parse_pattern("A*/BC"))
        assert two_diagonal_support(parse_pattern("AB/*C"))

    def test_far_cells_fail(self):
        assert not two_diagonal_support(parse_pattern("A*B"))

    def test_anti_orientation(self):
        pat = word_to_pattern("CAT", Direction.NE)
        assert two_diagonal_support(pat, anti=True)
        assert not two_diagonal_support(pat)

    @pytest.mark.parametrize("anti", [False, True])
    def test_rejects_every_layout_the_corner_rule_flags(self, anti):
        """The paper's 2 x 2 rule, kept here as a reference: an ancestor
        in a box of at most 2 x 2 cells holds at most three letters, and
        three only as one of the two corners along the box's diagonal.
        Every non-empty layout of a 1 x 1 to 2 x 2 box that this rule
        flags is off the two-diagonal band as well."""
        corners = (({(0, 1), (1, 0), (1, 1)}, {(0, 0), (0, 1), (1, 0)}) if anti
                   else ({(0, 0), (1, 0), (1, 1)}, {(0, 0), (0, 1), (1, 1)}))
        flagged = []
        for rows, cols in itertools.product((1, 2), repeat=2):
            for cells in itertools.product(("A", WILDCARD), repeat=rows * cols):
                pattern = Pattern(rows, cols, "".join(cells))
                concrete = {(r, c) for r, c, _ in pattern.concrete_cells()}
                if len(concrete) > 3 or (len(concrete) == 3
                                         and concrete not in corners):
                    flagged.append(pattern)
        assert len(flagged) == 3
        assert [p.text() for p in flagged
                if two_diagonal_support(p, anti=anti)] == []


class TestWireFormat:
    def test_round_trip(self):
        text = "C**/*A*/**T"
        assert parse_pattern(text).text() == text

    def test_concrete_count(self):
        assert len(list(parse_pattern("C**/*A*/**T").concrete_cells())) == 3

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError, match="rows must all have the same length"):
            parse_pattern("AB/A")

    @pytest.mark.parametrize("text", ["A//B", "", "/"])
    def test_rejects_exactly_what_a_grid_rejects(self, text):
        with pytest.raises(ValueError) as grid_error:
            Grid.from_text(text)
        with pytest.raises(ValueError) as pattern_error:
            parse_pattern(text)
        assert str(pattern_error.value) == str(grid_error.value)

    def test_pattern_is_hashable_value(self):
        assert parse_pattern("AB") == Pattern(1, 2, "AB")
        assert len({parse_pattern("AB"), Pattern(1, 2, "AB")}) == 1
