from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalsearch.core import Grid
from fractalsearch.errors import PuzzleFormatError
from fractalsearch.files import (
    grid_argument,
    load_grid,
    load_rules,
    parse_grid_section,
    parse_rules_section,
    scan_sections,
)
from fractalsearch.puzzle import load_puzzle
from tests.conftest import rule_sets


class TestScanSections:
    def test_sections_with_comments_and_blanks(self):
        text = "# header\n[alphabet]\nA = AB  # trailing\n\n[grid]\nlevel = 2\nAB\n"
        got = scan_sections(text)
        assert set(got) == {"alphabet", "grid"}
        assert got["alphabet"] == [(3, "A = AB")]
        assert got["grid"] == [(6, "level = 2"), (7, "AB")]

    def test_content_before_section_is_an_error(self):
        with pytest.raises(PuzzleFormatError) as err:
            scan_sections("A = AB\n[alphabet]\n")
        assert err.value.line == 1

    def test_empty_section_name_is_an_error(self):
        with pytest.raises(PuzzleFormatError, match="empty section name") as err:
            scan_sections("[alphabet]\nA = AB\n[]\n")
        assert err.value.line == 3

    def test_duplicate_section_is_an_error(self):
        with pytest.raises(PuzzleFormatError) as err:
            scan_sections("[grid]\nAB\n[grid]\nCD\n")
        assert err.value.line == 3


class TestParseRules:
    def test_one_dimensional(self):
        rules = parse_rules_section([(1, "A = AB"), (2, "B = AA")])
        assert rules.dimension == 1 and rules.b == 2
        assert rules.rules["A"] == ("AB",)

    def test_two_dimensional(self):
        rules = parse_rules_section([(1, "A = AB/BA"), (2, "B = AA/BB")])
        assert rules.dimension == 2 and rules.b == 2

    def test_mixed_shapes_rejected(self):
        with pytest.raises(PuzzleFormatError) as err:
            parse_rules_section([(1, "A = AB"), (2, "B = AA/BB")])
        assert err.value.line == 2

    def test_non_square_blocks_rejected(self):
        for block in ("ABA/AAB", "A", "AA/AA/AA"):
            with pytest.raises(PuzzleFormatError) as err:
                parse_rules_section([(3, f"A = {block}"), (5, f"B = {block}")])
            assert err.value.line == 3

    @settings(max_examples=100, deadline=None)
    @given(rules=rule_sets(bs=(2, 3)))
    def test_round_trip_through_the_text_format(self, rules):
        lines = [(lineno, f"{ch} = {'/'.join(block)}")
                 for lineno, (ch, block) in enumerate(rules.rules.items(), start=1)]
        got = parse_rules_section(lines)
        assert got == rules
        assert (got.letters, got.b, got.dimension) == \
            (rules.letters, rules.b, rules.dimension)

    @pytest.mark.parametrize("line", ["A =", "A = AB//BA", "A = AB/"])
    def test_empty_replacement_row_rejected_with_line(self, line):
        with pytest.raises(PuzzleFormatError, match="empty replacement row") as err:
            parse_rules_section([(1, "B = BA"), (2, line)])
        assert err.value.line == 2

    def test_duplicate_letter_rejected(self):
        with pytest.raises(PuzzleFormatError) as err:
            parse_rules_section([(1, "A = AB"), (2, "A = BA")])
        assert err.value.line == 2

    def test_ragged_block_rejected_on_its_line(self):
        with pytest.raises(PuzzleFormatError) as err:
            parse_rules_section([(3, "B = BA/AB"), (4, "A = AB/C")])
        assert str(err.value) == "line 4: replacement rows differ in length"

    def test_rule_using_unknown_letter_rejected(self):
        with pytest.raises(PuzzleFormatError):
            parse_rules_section([(1, "A = AZ")])


class TestParseGrid:
    def test_level_and_rows(self):
        grid = parse_grid_section([(1, "level = 3"), (2, "AB"), (3, "BA")])
        assert grid == Grid(2, 2, "ABBA", 3)

    def test_level_defaults_to_one(self):
        assert parse_grid_section([(1, "ABC")]).level == 1

    def test_ragged_rows_rejected_with_line(self):
        with pytest.raises(PuzzleFormatError) as err:
            parse_grid_section([(4, "AB"), (5, "A")])
        assert err.value.line == 4
        assert str(err.value) == "line 4: rows must all have the same length"

    def test_level_line_alone_has_no_rows(self):
        with pytest.raises(PuzzleFormatError, match="no rows") as err:
            parse_grid_section([(7, "level = 2")])
        assert err.value.line == 7

    def test_unexpected_key_rejected_on_its_line(self):
        with pytest.raises(PuzzleFormatError) as err:
            parse_grid_section([(5, "AB"), (6, "levels = 2")])
        assert str(err.value) == "line 6: unexpected key 'levels' in [grid]"

    def test_bad_level_value(self):
        with pytest.raises(PuzzleFormatError):
            parse_grid_section([(1, "level = two"), (2, "AB")])

    def test_repeated_level_line_rejected_on_that_line(self):
        with pytest.raises(PuzzleFormatError, match="repeated level") as err:
            parse_grid_section([(1, "level = 2"), (2, "AB"), (3, "level = 3")])
        assert err.value.line == 3

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_level_below_one_rejected_on_the_level_line(self, value):
        with pytest.raises(PuzzleFormatError, match=">= 1") as err:
            parse_grid_section([(2, f"level = {value}"), (3, "AB")])
        assert err.value.line == 2


class TestLoaders:
    def test_load_rules_file(self, tmp_path):
        path = tmp_path / "demo.rules"
        path.write_text("[alphabet]\nA = AB\nB = BA\n")
        assert load_rules(path).n == 2

    def test_load_rules_requires_alphabet_section(self, tmp_path):
        path = tmp_path / "demo.rules"
        path.write_text("[grid]\nAB\n")
        with pytest.raises(PuzzleFormatError):
            load_rules(path)

    @pytest.mark.parametrize("loader, text, section", [
        (load_rules, "[grid]\nAB\n", "[alphabet]"),
        (load_grid, "[alphabet]\nA = AB\nB = BA\n", "[grid]"),
        (load_puzzle, "[alphabet]\nA = AB\nB = BA\n[grid]\nAB\n", "[words]"),
    ], ids=["rules", "grid", "puzzle"])
    def test_missing_section_names_the_path_and_section(self, tmp_path, loader,
                                                        text, section):
        path = tmp_path / "demo.txt"
        path.write_text(text)
        with pytest.raises(PuzzleFormatError) as err:
            loader(str(path))
        assert str(path) in str(err.value) and section in str(err.value)

    def test_load_grid_file(self, tmp_path):
        path = tmp_path / "demo.grid"
        path.write_text("[grid]\nlevel = 2\nABAB\n")
        assert load_grid(path) == Grid(1, 4, "ABAB", 2)

    def test_grid_argument_inline_or_path(self, tmp_path):
        assert grid_argument("AB/BA") == Grid(2, 2, "ABBA", 1)
        path = tmp_path / "demo.grid"
        path.write_text("[grid]\nAB\n")
        assert grid_argument(f"@{path}") == Grid(1, 2, "AB", 1)

    @pytest.mark.parametrize("tag, level", [("", 4), ("level = 1\n", 1)],
                             ids=["untagged", "tagged-level-1"])
    def test_the_caller_sets_an_untagged_grid_level(self, tmp_path, tag, level):
        assert grid_argument("AB", 4) == Grid(1, 2, "AB", 4)
        path = tmp_path / "demo.grid"
        path.write_text(f"[grid]\n{tag}AB\n")
        assert grid_argument(f"@{path}", 4) == Grid(1, 2, "AB", level)
        assert load_grid(path, 4) == Grid(1, 2, "AB", level)

    def test_inline_grid_never_reads_a_file(self, tmp_path, monkeypatch):
        (tmp_path / "A").write_text("[grid]\nBB\n")
        monkeypatch.chdir(tmp_path)
        assert grid_argument("A") == Grid(1, 1, "A", 1)

    def test_shipped_rules_files_load(self):
        for name, n, dim in (("abc_1d.rules", 3, 1), ("abc_2d.rules", 3, 2),
                             ("thue_morse.rules", 2, 1)):
            rules = load_rules(f"src/fractalsearch/data/{name}")
            assert rules.n == n and rules.dimension == dim


# Section syntax, rule and grid symbols, digits, whitespace, one
# non-ASCII letter.
_FUZZ_TOKENS = ("[", "]", "=", "/", "#", "*", " ", "\t", "\n", "level",
                "alphabet", "grid", "A", "B", "é", *"0123456789")


class TestParserFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(_FUZZ_TOKENS), max_size=40).map("".join))
    def test_only_format_errors_escape(self, text):
        try:
            sections = scan_sections(text)
        except PuzzleFormatError:
            sections = {}
        raw_lines = list(enumerate(text.splitlines(), start=1))
        for parse in (parse_rules_section, parse_grid_section):
            for lines in (raw_lines, *sections.values()):
                try:
                    parse(lines)
                except PuzzleFormatError:
                    pass
