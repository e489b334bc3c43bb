from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fractalsearch import core
from fractalsearch.ancestry import AncestrySearcher
from fractalsearch.core import CellAddress, expand, letter_at, level_shape
from fractalsearch.errors import PuzzleFormatError, SolveError
from fractalsearch.files import load_grid
from fractalsearch.patterns import Direction, parse_pattern
from fractalsearch.puzzle import (
    ANSWER_WINDOW_RADIUS,
    Placement,
    PuzzleSpec,
    _place_word,
    _placement,
    _window,
    answer_window,
    crossed_out_l1_cells,
    load_puzzle,
    normalize_word,
    report_from_json_dict,
    report_to_json_dict,
    report_to_text,
    solve,
)

from tests.conftest import grids_for, rule_sets


def write_puzzle(tmp_path, body: str) -> str:
    path = tmp_path / "demo.puzzle"
    path.write_text(body)
    return str(path)


ABC_2D_PUZZLE = """
[alphabet]
A = AB/CB
B = AC/BB
C = BB/CC
[grid]
level = 1
ABAC
CBBB
BBAC
CCBB
[words]
AB
[answer]
length = 8
[directions]
E
"""

ABC_1D_HEADER = """
[alphabet]
A = AB
B = AC
C = BB
"""


AZ = tuple("ABCDEFGHIJKLMNOPQRSTUVWXYZ")


class TestNormalizeWord:
    def test_strips_spaces(self):
        assert normalize_word("LEVY DRAGON", AZ) == "LEVYDRAGON"

    def test_strips_hyphens(self):
        assert normalize_word("T-SQUARE", AZ) == "TSQUARE"

    def test_uppercases(self):
        assert normalize_word("abc", AZ) == "ABC"

    def test_rejects_letterless_entries(self):
        with pytest.raises(ValueError):
            normalize_word("-- !? .", AZ)

    def test_keeps_alphabet_letters_as_written(self):
        assert normalize_word("a1-b", ("a", "1", "b")) == "a1b"


class TestLoadPuzzle:
    def test_shipped_puzzle(self, puzzle_path):
        spec = load_puzzle(puzzle_path)
        given = load_grid(puzzle_path)
        assert spec.rules.n == 26 and spec.rules.b == 2
        assert (given.rows, given.cols) == (22, 30)
        assert given.level == 2
        assert len(spec.words) == 32
        assert spec.answer_length == 8
        assert len(spec.allowed_directions) == 8
        assert spec.l1.lines()[0] == "LEVELONESSUPYPM"
        assert spec.l1.lines()[-1] == "TSQUARESSBPOCTF"

    def test_word_normalization_happens_at_load(self, puzzle_path):
        spec = load_puzzle(puzzle_path)
        assert "LEVYDRAGON" in spec.words
        assert "LEVY DRAGON" in spec.raw_words

    def test_odd_sized_level_two_grid_fails(self, tmp_path):
        path = write_puzzle(tmp_path, ABC_1D_HEADER + """
[grid]
level = 2
ABA
[words]
A
""")
        with pytest.raises(Exception) as err:
            load_puzzle(path)
        assert "divisible" in str(err.value)

    def test_word_with_digits_fails_with_its_line(self, tmp_path):
        body = ABC_1D_HEADER + "[grid]\nAB\n[words]\nAB\nBA 22\n"
        with pytest.raises(PuzzleFormatError) as err:
            load_puzzle(write_puzzle(tmp_path, body))
        assert err.value.line == body.splitlines().index("BA 22") + 1

    def test_digit_letters_of_the_alphabet_stay_in_words(self, tmp_path):
        path = write_puzzle(tmp_path, """
[alphabet]
A = A1
1 = BA
B = 1B
[grid]
A1B
[words]
A1B
""")
        spec = load_puzzle(path)
        assert spec.words == ("A1B",)
        (placement,) = solve(spec).placements
        assert (placement.level, placement.direction) == (1, Direction.E)

    def test_word_outside_alphabet_fails_with_line(self, tmp_path):
        path = write_puzzle(tmp_path, ABC_1D_HEADER + """
[grid]
AB
[words]
ABQ
""")
        with pytest.raises(PuzzleFormatError) as err:
            load_puzzle(path)
        assert err.value.line is not None

    @pytest.mark.parametrize("answer, bad_line, message", [
        ("length = -4", "length = -4",
         "answer length -4 is not an even number from 4 to 16"),
        ("length = 8\nlength = 6", "length = 6", "repeated answer length"),
        ("length = 0", "length = 0",
         "answer length 0 is not an even number from 4 to 16"),
        ("length = 2", "length = 2",
         "answer length 2 is not an even number from 4 to 16"),
        ("length = 7", "length = 7",
         "answer length 7 is not an even number from 4 to 16"),
        ("length = 18", "length = 18",
         "answer length 18 is not an even number from 4 to 16"),
        ("size = 8", "size = 8", "unexpected [answer] line 'size = 8'"),
        ("length = eight", "length = eight", "bad answer length 'eight'"),
    ], ids=["negative", "repeated", "zero", "two", "odd", "too-long", "other-key",
            "not-a-number"])
    def test_bad_answer_length_fails_with_line(self, tmp_path, answer, bad_line,
                                               message):
        body = ABC_1D_HEADER + "[grid]\nAB\n[words]\nAB\n[answer]\n" + answer + "\n"
        path = write_puzzle(tmp_path, body)
        with pytest.raises(PuzzleFormatError) as err:
            load_puzzle(path)
        assert err.value.line == body.splitlines().index(bad_line) + 1
        assert str(err.value) == f"line {err.value.line}: {message}"

    @pytest.mark.parametrize("tail, section", [
        ("", "[words]"),
        ("AB\n[directions]\n,\n", "[directions]"),
    ], ids=["words", "directions"])
    def test_empty_section_fails_naming_it(self, tmp_path, tail, section):
        path = write_puzzle(tmp_path, ABC_1D_HEADER + "[grid]\nAB\n[words]\n" + tail)
        with pytest.raises(PuzzleFormatError) as err:
            load_puzzle(path)
        assert str(err.value) == f"{path}: empty {section} section"

    def test_unknown_direction_fails_with_line(self, tmp_path):
        body = ABC_1D_HEADER + "[grid]\nAB\n[words]\nAB\n[directions]\nE, UP\n"
        with pytest.raises(PuzzleFormatError) as err:
            load_puzzle(write_puzzle(tmp_path, body))
        assert err.value.line == body.splitlines().index("E, UP") + 1
        assert str(err.value) == f"line {err.value.line}: unknown direction 'UP'"

    @pytest.mark.parametrize("length", [4, 16])
    def test_answer_length_range_ends_load(self, tmp_path, length):
        body = ABC_1D_HEADER + f"[grid]\nAB\n[words]\nAB\n[answer]\nlength = {length}\n"
        assert load_puzzle(write_puzzle(tmp_path, body)).answer_length == length

    def test_missing_sections_fail(self, tmp_path):
        path = write_puzzle(tmp_path, "[alphabet]\nA = AB\nB = AA\n")
        with pytest.raises(PuzzleFormatError):
            load_puzzle(path)


def reference_crossed_out(placements, rules) -> frozenset[tuple[int, int]]:
    """The crossed-out cells worked out from the placed letters' own
    addresses: cell (ceil(i / rh ** (k-1)), ceil(j / b ** (k-1))) for a
    letter at (i, j) on level k."""
    rh, b = rules.rule_rows, rules.b
    return frozenset((-(-addr.row // rh ** (addr.level - 1)),
                      -(-addr.col // b ** (addr.level - 1)))
                     for placement in placements for addr in placement.addresses)


class TestCrossedOut:
    """A placement crosses out its grounded ancestor's letters, placed at
    the ancestor's anchor; the ancestor's wildcards cross out nothing."""

    @staticmethod
    def placement(ancestor: str, anchor: tuple[int, int], level: int) -> Placement:
        return Placement(
            raw="x", word="x", direction=Direction.E, level=level,
            ancestor=parse_pattern(ancestor), anchor=anchor, offsets=(),
            addresses=(), nodes_expanded=0, patterns_seen=0)

    def test_deep_cell_maps_to_ancestor(self):
        assert crossed_out_l1_cells([self.placement("B*/*A", (2, 2), 3)]) == {
            (2, 2), (3, 3)}

    def test_level_one_placement_crosses_itself(self):
        assert crossed_out_l1_cells([self.placement("AB", (2, 3), 1)]) == {
            (2, 3), (2, 4)}

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_equals_the_cells_above_the_placed_letters(self, data):
        """Over random found searches, the ancestor's letters are the
        level-one cells above the word's letters on its level."""
        rules = data.draw(rule_sets(bs=(2, 3)))
        l1 = data.draw(grids_for(rules))
        word = data.draw(st.text(alphabet=rules.letters, min_size=1, max_size=4))
        direction = data.draw(st.sampled_from(
            tuple(Direction) if rules.dimension == 2 else (Direction.E, Direction.W)))
        result = AncestrySearcher(rules, l1).search(word, direction)
        assume(result.found)
        placement = _placement(PuzzleSpec(rules, l1, (), (), (), 0), word, result)
        assert crossed_out_l1_cells([placement]) == reference_crossed_out(
            [placement], rules)

    def test_equals_the_cells_above_every_grounding_of_the_puzzle(self, puzzle_path):
        """With ``cross_all``, every grounding at each word's earliest
        level of the shipped puzzle."""
        spec = load_puzzle(puzzle_path)
        searcher = AncestrySearcher(spec.rules, spec.l1)
        cross = [p for raw, word in zip(spec.raw_words, spec.words)
                 for p in _place_word(searcher, spec, raw, word, True)[1]]
        assert len(cross) > len(spec.words)
        crossed = crossed_out_l1_cells(cross)
        assert crossed == reference_crossed_out(cross, spec.rules)
        assert crossed == solve(spec, cross_all=True).crossed_cells


class TestSolveSmall:
    def test_one_word_puzzle(self, tmp_path):
        spec = load_puzzle(write_puzzle(tmp_path, ABC_2D_PUZZLE))
        report = solve(spec)
        assert report.level_sum == 1
        assert report.level_counts == {1: 1}
        assert report.crossed_cells == {(1, 1), (1, 2)}
        assert report.message == "ACCBBBBBACCCBB"
        assert report.answer is None  # no marker letter in this alphabet

    def test_repeated_marker_skips_the_answer(self, tmp_path):
        path = write_puzzle(tmp_path, """
[alphabet]
A = AX
X = XA
[grid]
XAX
[words]
AX
[directions]
E
""")
        report = solve(load_puzzle(path))
        assert report.level_sum == 1
        assert report.answer is None  # the marker X occurs twice on level one

    def test_level_two_word_counts_as_level_two(self, tmp_path):
        # The word is visible on the printed level-2 grid but not on level
        # one, so its first-appearance level is 2.
        path = write_puzzle(tmp_path, ABC_1D_HEADER + """
[grid]
level = 2
AB
[words]
AB
[directions]
E
""")
        report = solve(load_puzzle(path))
        assert report.placements[0].level == 2
        assert report.level_sum == 2

    def test_unfindable_word_is_a_solve_error(self, tmp_path):
        path = write_puzzle(tmp_path, ABC_1D_HEADER + """
[grid]
AB
[words]
CC
[directions]
E
""")
        with pytest.raises(SolveError) as err:
            solve(load_puzzle(path))
        assert "CC" in str(err.value)

    def test_cross_all_includes_every_occurrence(self, tmp_path):
        path = write_puzzle(tmp_path, ABC_1D_HEADER + """
[grid]
ABAB
[words]
B
[directions]
E
""")
        spec = load_puzzle(path)
        assert solve(spec).message == "AAB"
        assert solve(spec, cross_all=True).message == "AA"

    def test_text_report_prints_the_raw_window(self, tmp_path):
        # The level sum is 1, so the marker's block is the marker cell
        # alone: too small for a marker-shaped reading.
        path = write_puzzle(tmp_path, """
[alphabet]
A = AX
X = XA
[grid]
AXA
[words]
AX
[directions]
E
""")
        report = solve(load_puzzle(path))
        assert report.answer is not None and not report.answer.found
        assert "\nno marker-shaped answer found; raw window:\n  AXA\n" in \
            report_to_text(report)

    def test_placements_self_verify(self, tmp_path):
        spec = load_puzzle(write_puzzle(tmp_path, ABC_2D_PUZZLE))
        report = solve(spec)
        for placement in report.placements:
            spelled = "".join(
                letter_at(spec.l1, spec.rules, a) for a in placement.addresses)
            assert spelled == placement.word

    def test_start_grid_letters_are_checked_once_per_read(self, puzzle_path,
                                                           monkeypatch):
        """Once for the searcher, once per placed word's witness and once
        per answer-window rectangle; each letter read checking the grid
        again made 236 checks."""
        spec = load_puzzle(puzzle_path)
        real = core.check_letters
        checks = []

        def counted(text, rules, what):
            if text == spec.l1.cells:
                checks.append(what)
            return real(text, rules, what)

        patched = [name for name, module in sorted(sys.modules.items())
                   if name.split(".")[0] == "fractalsearch"
                   and vars(module).get("check_letters") is real]
        for name in patched:
            monkeypatch.setattr(sys.modules[name], "check_letters", counted)
        assert {"fractalsearch.ancestry", "fractalsearch.core",
                "fractalsearch.puzzle"} <= set(patched)
        report = solve(spec)
        assert report.answer.answer == "HUMPHREY"
        assert 1 <= len(checks) <= 1 + len(spec.words) + 2 == 35


class TestAnswerWindow:
    def test_answer_block_matches_independent_center_recursion(self, puzzle_path):
        """The central 2 x 2 of a cell's descendant block evolves by the
        inner-corner recursion, giving the level-167 center without digit
        paths; it must agree with the letter_at-based extraction."""
        spec = load_puzzle(puzzle_path)
        blocks = spec.rules.rules
        center = [[blocks["X"][0][0], blocks["X"][0][1]],
                  [blocks["X"][1][0], blocks["X"][1][1]]]
        for _ in range(164):   # walk the center from level 2 up to level 166
            center = [
                [blocks[center[0][0]][1][1], blocks[center[0][1]][1][0]],
                [blocks[center[1][0]][0][1], blocks[center[1][1]][0][0]],
            ]
        rows = []
        for i in range(2):
            for br in range(2):
                rows.append(blocks[center[i][0]][br] + blocks[center[i][1]][br])
        window = answer_window(spec, 167)
        assert window.found
        assert tuple(rows) == window.x_rows

    def test_level_one_window_is_raw_neighborhood(self, puzzle_path):
        spec = load_puzzle(puzzle_path)
        got = answer_window(spec, 1)
        assert not got.found
        lines = spec.l1.lines()
        assert got.window == tuple(
            line[got.left - 1:got.left - 1 + len(got.window[0])]
            for line in lines[got.top - 1:got.top - 1 + len(got.window)]
        )

    def test_requires_unique_marker(self, tmp_path):
        spec = load_puzzle(write_puzzle(tmp_path, ABC_2D_PUZZLE))
        with pytest.raises(SolveError):
            answer_window(spec, 3)

    def test_marker_window_at_level_three(self, puzzle_path):
        spec = load_puzzle(puzzle_path)
        got = answer_window(spec, 3)
        # Block of the level-1 X spans a 4 x 4 region on level 3; the
        # central box is exactly the marker's expansion there.
        assert got.found
        assert got.answer == got.main_diagonal + got.anti_diagonal
        from fractalsearch.core import expand

        level3 = expand(spec.l1, spec.rules, 2)
        rows = [line[got.x_left - 1:got.x_left + 3]
                for line in level3.lines()[got.x_top - 1:got.x_top + 3]]
        assert tuple(rows) == got.x_rows

    @staticmethod
    def assert_window_reads_letter_at(spec, level):
        got = answer_window(spec, level)
        assert got.window == tuple(
            "".join(letter_at(spec.l1, spec.rules,
                              CellAddress(level, got.top + i, got.left + j))
                    for j in range(len(got.window[0])))
            for i in range(len(got.window)))
        return got

    def test_window_equals_letter_at_on_the_shipped_puzzle(self, puzzle_path):
        got = self.assert_window_reads_letter_at(load_puzzle(puzzle_path), 167)
        assert (len(got.window), len(got.window[0])) == (8, 8)

    @pytest.mark.parametrize("level, answer_length", [
        (3, 8), (4, 8), (9, 8), (60, 8), (164, 8), (167, 8), (6, 20), (167, 20)])
    def test_box_and_window_equal_direct_reads(self, puzzle_path, level,
                                               answer_length):
        """One read covers the window and the box; each slice equals a
        read of its own rectangle, also for a box wider than the window
        (an answer length the puzzle format refuses)."""
        spec = dataclasses.replace(load_puzzle(puzzle_path),
                                   answer_length=answer_length)
        got = answer_window(spec, level)
        assert got.found
        size = answer_length // 2
        assert got.x_rows == _window(spec.l1, spec.rules, level,
                                     (got.x_top, got.x_top + size - 1),
                                     (got.x_left, got.x_left + size - 1))
        assert got.window == _window(
            spec.l1, spec.rules, level,
            (got.top, got.top + len(got.window) - 1),
            (got.left, got.left + len(got.window[0]) - 1))

    @pytest.mark.parametrize("body", [
        # 1D: the marker is the last cell, so the window is cut at the
        # right edge on the early levels and is one row throughout.
        "[alphabet]\nA = AX\nX = XA\n[grid]\nAAX\n",
        # 2D: the marker is in the top-right corner of a 2 x 3 grid.
        "[alphabet]\nA = AX/XA\nX = XX/AA\n[grid]\nAAX\nAAA\n",
    ], ids=["1d", "2d"])
    def test_window_equals_letter_at_at_the_level_edge(self, tmp_path, body):
        spec = load_puzzle(write_puzzle(tmp_path, body + "[words]\nA\n"))
        clamped = set()
        for level in range(1, 9):
            got = self.assert_window_reads_letter_at(spec, level)
            clamped.add(len(got.window[0]) < 2 * ANSWER_WINDOW_RADIUS)
        assert clamped == {True, False}

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_window_is_a_slice_of_the_expanded_level(self, data):
        rules = data.draw(rule_sets(dims=(1, 2), bs=(2, 3)))
        l1 = data.draw(grids_for(rules))
        level = data.draw(st.integers(1, 7 if rules.b == 2 else 5))
        max_rows, max_cols = level_shape(l1, rules, level)

        def span(size):
            side = data.draw(st.integers(1, min(8, size)))
            first = data.draw(st.sampled_from([1, size - side + 1])
                              | st.integers(1, size - side + 1))
            return first, first + side - 1

        (top, bottom), (left, right) = span(max_rows), span(max_cols)
        lines = expand(l1, rules, level - 1).lines()
        assert _window(l1, rules, level, (top, bottom), (left, right)) == \
            tuple(line[left - 1:right] for line in lines[top - 1:bottom])


class TestSolveInvariants:
    def test_given_grid_round_trips_through_level_one(self, puzzle_path):
        from fractalsearch.core import expand

        spec = load_puzzle(puzzle_path)
        given = load_grid(puzzle_path)
        assert expand(spec.l1, spec.rules, given.level - 1) == given

    def test_cross_all_on_shipped_puzzle_keeps_message(self, puzzle_path):
        # Every extra grounding at a word's winning depth falls on a cell
        # the default witnesses already cross out.
        spec = load_puzzle(puzzle_path)
        base = solve(spec)
        every = solve(spec, cross_all=True)
        assert every.message == "SUMEACHWORDSLEVELXMARKSSPOT"
        assert len(every.crossed_cells) == 138
        assert every.crossed_cells == base.crossed_cells

    def test_direction_order_cannot_change_levels(self, puzzle_path):
        import dataclasses

        spec = load_puzzle(puzzle_path)
        reordered = dataclasses.replace(
            spec, allowed_directions=tuple(reversed(spec.allowed_directions)))
        base = solve(spec)
        other = solve(reordered)
        assert [p.level for p in base.placements] == \
            [p.level for p in other.placements]
        assert base.level_sum == other.level_sum


class TestReportSerialization:
    def test_json_round_trip(self, tmp_path):
        spec = load_puzzle(write_puzzle(tmp_path, ABC_2D_PUZZLE))
        report = solve(spec)
        data = json.loads(json.dumps(report_to_json_dict(report)))
        assert report_from_json_dict(data) == report

    def test_shipped_puzzle_report_matches_golden(self, puzzle_path):
        # The benchmark's golden report, pinned byte for byte: indent,
        # key order and the trailing newline included.
        golden = (Path(__file__).resolve().parent.parent / "bench" / "golden"
                  / "puzzle_report.json").read_text(encoding="utf-8")
        report = solve(load_puzzle(puzzle_path))
        assert json.dumps(report_to_json_dict(report), indent=2) + "\n" == golden
        assert report_from_json_dict(json.loads(golden)) == report

    def test_shipped_puzzle_cross_all_report_is_pinned(self, puzzle_path):
        # The cross-out path asks for the groundings of every pattern on
        # each word's winning layer, settled products included.  sha256
        # of json.dumps(report_to_json_dict(report), indent=2) + "\n".
        report = solve(load_puzzle(puzzle_path), cross_all=True)
        text = json.dumps(report_to_json_dict(report), indent=2) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "04f0ad512a29d8e68d89182f85e1a03e338401391d344d25d0374224a6297fdf")

    def test_text_rendering_mentions_the_essentials(self, tmp_path):
        spec = load_puzzle(write_puzzle(tmp_path, ABC_2D_PUZZLE))
        text = report_to_text(solve(spec))
        assert "level sum: 1" in text
        assert "message: ACCBBBBBACCCBB" in text
