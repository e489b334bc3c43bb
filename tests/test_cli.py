from __future__ import annotations

import hashlib
import json
import re
import shlex
from pathlib import Path

import pytest

from fractalsearch import ancestry, cli, core, oracle
from fractalsearch.cli import main
from fractalsearch.files import load_rules
from fractalsearch.patterns import Direction, to_json

RULES_1D = "src/fractalsearch/data/abc_1d.rules"
RULES_2D = "src/fractalsearch/data/abc_2d.rules"


ROOT = Path(__file__).resolve().parent.parent


def readme_commands() -> list[list[str]]:
    """The ``fractalsearch`` lines of README's "Command line" block, with
    continuation lines joined and comments dropped."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    argvs = [shlex.split(line, comments=True)
             for line in block.replace("\\\n", " ").splitlines()]
    assert all(argv[0] == "fractalsearch" for argv in argvs)
    return [argv[1:] for argv in argvs]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSearch:
    def test_finds_cacaba_level(self, capsys):
        code, out, _ = run(capsys, "search", "--rules", RULES_1D, "--l1", "A",
                           "--word", "CACABA", "--direction", "E")
        assert code == 0
        assert out.strip() == "level 6"

    def test_never_appears_message(self, capsys):
        code, out, _ = run(capsys, "search", "--rules", RULES_1D, "--l1", "A",
                           "--word", "CC")
        assert code == 0
        assert out.startswith("never appears")

    def test_expect_found_fails_on_never(self, capsys):
        code, _, _ = run(capsys, "search", "--rules", RULES_1D, "--l1", "A",
                         "--word", "CC", "--expect-found")
        assert code == 1

    def test_json_payload_has_witness(self, capsys):
        code, out, _ = run(capsys, "search", "--rules", RULES_1D, "--l1", "A",
                           "--word", "CAB", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["level"] == 4
        assert [a[0] for a in data["addresses"]] == [4, 4, 4]

    def test_json_payload_of_a_never_word(self, capsys):
        code, out, _ = run(capsys, "search", "--rules", RULES_1D, "--l1", "A",
                           "--word", "CC", "--format", "json")
        assert code == 0
        assert json.loads(out) == {
            "word": "CC", "direction": "E", "found": False, "level": None,
            "nodes_expanded": 1, "patterns_seen": 1, "fixpoint_depth": 0}

    # exact stdout of a found word and of a raw pattern (no direction)
    @pytest.mark.parametrize("rules, target, expected", [
        (RULES_1D, ("--word", "CACABA"),
         '{"word": "CACABA", "direction": "E", "found": true, "level": 6, '
         '"nodes_expanded": 12, "patterns_seen": 15, "ancestor": "A", '
         '"anchor": [1, 1], "addresses": [[6, 1, 14], [6, 1, 15], [6, 1, 16], '
         '[6, 1, 17], [6, 1, 18], [6, 1, 19]]}\n'),
        (RULES_2D, ("--pattern", "*B*/**B"),
         '{"word": "B*/*B", "direction": null, "found": true, "level": 3, '
         '"nodes_expanded": 7, "patterns_seen": 16, "ancestor": "A", '
         '"anchor": [1, 1], "addresses": [[3, 1, 2], [3, 2, 3]]}\n'),
    ], ids=["word", "pattern"])
    def test_json_stdout_is_pinned(self, capsys, rules, target, expected):
        code, out, _ = run(capsys, "search", "--rules", rules, "--l1", "A",
                           *target, "--format", "json")
        assert (code, out) == (0, expected)

    def test_depth_cap_exit_code_is_resource(self, capsys):
        code, _, err = run(capsys, "search", "--rules", RULES_1D, "--l1", "A",
                           "--word", "CACABA", "--depth-cap", "1")
        assert code == 2
        assert "resource" in err

    def test_pattern_form(self, capsys):
        code, out, _ = run(capsys, "search", "--rules", RULES_2D, "--l1", "A",
                           "--pattern", "B*/*B")
        assert code == 0
        assert out.strip() == "level 3"

    @pytest.mark.parametrize("rules", [RULES_2D, "missing.rules"],
                             ids=["rules", "missing-rules"])
    def test_direction_with_pattern_is_usage_error(self, capsys, rules):
        # refused before any file is read, as bounds --len-max is
        code, out, err = run(capsys, "search", "--rules", rules, "--l1", "A",
                             "--pattern", "B*/*B", "--direction", "NW")
        assert code == 64
        assert out == "" and "--direction" in err

    @pytest.mark.parametrize("flag, target, message", [
        ("--pattern", "AB/C", "rows must all have the same length"),
        ("--word", "A*", "words cannot contain the wildcard symbol"),
        ("--pattern", "AZ", "pattern 'AZ' uses letters outside the alphabet"),
        ("--pattern", "A#", "pattern 'A#' uses letters outside the alphabet"),
        ("--pattern", "Ax", "pattern 'Ax' uses letters outside the alphabet"),
        ("--word", "AZ", "word uses letters outside the alphabet: ['Z']"),
    ], ids=["ragged-pattern", "wildcard-word", "foreign-letter", "hash",
            "layout-mark", "foreign-letter-in-word"])
    def test_bad_target_is_a_one_line_error(self, capsys, flag, target, message):
        code, out, err = run(capsys, "search", "--rules", RULES_2D, "--l1", "A",
                             flag, target)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_word_and_pattern_conflict_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["search", "--rules", RULES_1D, "--l1", "A",
                  "--word", "AB", "--pattern", "AB"])
        assert err.value.code == 64


class TestExpandContract:
    def test_expand_prints_rows(self, capsys):
        code, out, _ = run(capsys, "expand", "--rules", RULES_2D,
                           "--grid", "A", "--steps", "2")
        assert code == 0
        assert out.splitlines() == ["ABAC", "CBBB", "BBAC", "CCBB"]

    def test_contract_round_trip(self, capsys):
        code, out, _ = run(capsys, "contract", "--rules", RULES_2D,
                           "--grid", "ABAC/CBBB/BBAC/CCBB", "--steps", "2")
        assert code == 0
        assert out.strip() == "A"

    @pytest.mark.parametrize("tag, level", [("level = 3\n", 2), ("", 1),
                                            ("level = 1\n", None)],
                             ids=["tagged", "untagged", "tagged-level-1"])
    def test_contract_takes_the_level_from_the_grid_file(self, capsys, tmp_path,
                                                         tag, level):
        path = tmp_path / "demo.grid"
        path.write_text(f"[grid]\n{tag}ABAC\nCBBB\nBBAC\nCCBB\n")
        code, out, err = run(capsys, "contract", "--rules", RULES_2D,
                             "--grid", f"@{path}", "--steps", "1", "--format", "json")
        if level is None:
            assert (code, out, err) == (1, "", "error: cannot contract below level 1\n")
        else:
            assert code == 0
            assert json.loads(out) == {"rows": 2, "cols": 2, "level": level,
                                       "lines": ["AB", "CB"]}

    def test_contract_error_exits_one(self, capsys):
        code, _, err = run(capsys, "contract", "--rules", RULES_1D,
                           "--grid", "CCCC")
        assert code == 1 and "error" in err

    def test_expand_json_format(self, capsys):
        code, out, _ = run(capsys, "expand", "--rules", RULES_1D,
                           "--grid", "A", "--steps", "3", "--format", "json")
        data = json.loads(out)
        assert data["lines"] == ["ABACABBB"] and data["level"] == 4


class TestBounds:
    def test_single_length_summary(self, capsys):
        code, out, _ = run(capsys, "bounds", "--b", "2", "--n", "3", "--len", "2")
        assert code == 0
        assert out.strip() == "w1=10, w2=19"

    def test_range_as_csv(self, capsys):
        code, out, _ = run(capsys, "bounds", "--b", "2", "--n", "3",
                           "--len", "1", "--len-max", "3", "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0] == "len,w1,w2,max_parent_len"
        assert lines[1] == "1,3,3,1"
        assert lines[2] == "2,10,19,2"

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    @pytest.mark.parametrize("argv, same", [
        (["--len", "4"], ["--len", "4", "--len-max", "4"]),
        (["--len-max", "3"], ["--len", "1", "--len-max", "3"]),
    ], ids=["one-length", "default-low-end"])
    def test_equivalent_ranges_print_the_same(self, capsys, argv, same, fmt):
        base = ["bounds", "--b", "2", "--n", "3", "--format", fmt]
        assert run(capsys, *base, *argv) == run(capsys, *base, *same)

    def test_more_lengths_than_the_cap_are_refused(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "BOUNDS_LEN_CAP", 3)
        code, out, _ = run(capsys, "bounds", "--b", "2", "--n", "3",
                           "--len", "2", "--len-max", "4", "--format", "csv")
        assert code == 0 and len(out.splitlines()) == 4
        assert run(capsys, "bounds", "--b", "2", "--n", "3",
                   "--len", "2", "--len-max", "5") == (
            2, "", "resource limit: lengths 2..5 exceed the cap of 3 rows\n")

    def test_a_huge_range_is_refused_before_any_row(self, capsys):
        assert run(capsys, "bounds", "--b", "2", "--n", "3",
                   "--len", "1", "--len-max", "100000000000") == (
            2, "", "resource limit: lengths 1..100000000000 exceed the cap "
                   "of 100000 rows\n")

    def test_len_max_below_len_is_usage_error(self, capsys):
        code, out, err = run(capsys, "bounds", "--b", "2", "--n", "3",
                             "--len", "5", "--len-max", "3")
        assert code == 64
        assert out == "" and "--len-max" in err

    def test_json_rows(self, capsys):
        code, out, _ = run(capsys, "bounds", "--b", "2", "--n", "26",
                           "--len", "5", "--format", "json")
        data = json.loads(out)
        assert data["rows"][0]["w1"] == 3 + 26 * 26


class TestOracle:
    def test_sweep_text(self, capsys):
        code, out, _ = run(capsys, "oracle", "sweep", "--n", "2")
        assert code == 0
        assert "global max latest first appearance: 4" in out

    def test_sweep_json(self, capsys):
        code, out, _ = run(capsys, "oracle", "sweep", "--n", "2",
                           "--format", "json")
        assert json.loads(out)["global_max"] == 4

    def test_sweep_csv(self, capsys):
        code, out, _ = run(capsys, "oracle", "sweep", "--n", "2",
                           "--format", "csv")
        assert code == 0
        header, *rows = out.splitlines()
        assert header == "ruleset_index,max_level"
        levels = oracle.sweep_max_latest(2).per_ruleset_max
        assert rows == [f"{idx},{level}" for idx, level in enumerate(levels)]
        assert len(rows) == 16 and max(levels) == 4

    def test_failed_revalidation_exits_one(self, capsys, monkeypatch):
        real = oracle.forward_first_appearance
        monkeypatch.setattr(oracle, "forward_first_appearance",
                            lambda *args: real(*args) + 1)
        code, out, err = run(capsys, "oracle", "sweep", "--n", "2")
        assert code == 1 and out == ""
        assert err.startswith("error: sweep witness for word length 1 ")

    def test_agree_small(self, capsys):
        code, out, _ = run(capsys, "oracle", "agree", "--instances", "20",
                           "--seed", "9", "--format", "json")
        assert code == 0
        assert json.loads(out)["clean"] is True

    def test_agree_at_b_3(self, capsys):
        code, out, _ = run(capsys, "oracle", "agree", "--instances", "100",
                           "--b", "3", "--format", "json")
        assert code == 0
        assert json.loads(out)["clean"] is True


class TestSolve:
    def test_small_puzzle_text_and_trees(self, capsys, tmp_path):
        puzzle = tmp_path / "demo.puzzle"
        puzzle.write_text("""
[alphabet]
A = AB
B = AC
C = BB
[grid]
ABAB
[words]
BA
[directions]
E
""")
        tree_dir = tmp_path / "trees"
        code, out, _ = run(capsys, "solve", str(puzzle),
                           "--tree-dir", str(tree_dir))
        assert code == 0
        assert "level sum: 1" in out
        assert (tree_dir / "BA.json").exists()
        assert (tree_dir / "BA.dot").exists()

    def test_json_report_round_trips(self, capsys, tmp_path):
        from fractalsearch.puzzle import report_from_json_dict

        puzzle = tmp_path / "demo.puzzle"
        puzzle.write_text("[alphabet]\nA = AB\nB = AC\nC = BB\n"
                          "[grid]\nABAB\n[words]\nBA\n[directions]\nE\n")
        code, out, _ = run(capsys, "solve", str(puzzle), "--format", "json")
        assert code == 0
        report = report_from_json_dict(json.loads(out))
        assert report.level_sum == 1

    def test_parse_error_exits_one(self, capsys, tmp_path):
        puzzle = tmp_path / "broken.puzzle"
        puzzle.write_text("[alphabet]\nA = AB\n[grid]\nA\n[words]\nZZ\n")
        code, _, err = run(capsys, "solve", str(puzzle))
        assert code == 1 and "error" in err

    def test_identical_runs_are_byte_identical(self, capsys, tmp_path):
        puzzle = tmp_path / "demo.puzzle"
        puzzle.write_text("[alphabet]\nA = AB\nB = AC\nC = BB\n"
                          "[grid]\nABAB\n[words]\nBA\nCAB\n")
        outputs = {run(capsys, "solve", str(puzzle), "--format", "json")[1]
                   for _ in range(3)}
        assert len(outputs) == 1


class TestTree:
    def test_dot_output(self, capsys):
        code, out, _ = run(capsys, "tree", "--rules", RULES_1D,
                           "--word", "CAB", "--format", "dot")
        assert code == 0
        assert out.startswith("digraph") and '"BA"' in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "tree", "--rules", RULES_2D, "--l1", "AB/CA",
                           "--word", "BBAC", "--format", "json")
        assert code == 0
        tree = json.loads(out)
        assert tree == to_json(ancestry.ancestor_tree(
            "BBAC", Direction.E, load_rules(RULES_2D),
            core.Grid.from_text("AB/CA")))
        assert (tree["pattern"], tree["depth"], tree["status"]) == \
            ("BBAC", 0, "interior")
        assert [child["pattern"] for child in tree["children"]] == ["CB"]

    # sha256 of the stdout, as TestSweepSymmetry pins its sweep reports
    @pytest.mark.parametrize("argv, digest", [
        (("--rules", RULES_2D, "--l1", "AB/CA", "--word", "BBAC"),
         "e502d425cf1f8870cb88eb0abaaef098fcae059ec6647e31898d478b5ccfb8ef"),
        (("--rules", RULES_1D, "--word", "CAB"),
         "354a21251a59ab21b779bd3ff056976bb0ec41628b374eac8497585d0821eda3"),
    ], ids=["l1", "no-l1"])
    def test_json_stdout_is_pinned(self, capsys, argv, digest):
        code, out, _ = run(capsys, "tree", *argv, "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_foreign_letter_in_word_names_the_word(self, capsys):
        code, out, err = run(capsys, "tree", "--rules", RULES_2D, "--l1", "AB/CA",
                             "--word", "AZ", "--direction", "NW")
        assert (code, out, err) == (
            1, "", "error: word uses letters outside the alphabet: ['Z']\n")

    @pytest.mark.parametrize("command", ["tree", "search"])
    def test_an_empty_start_grid_is_a_one_line_error(self, capsys, command):
        code, out, err = run(capsys, command, "--rules", RULES_2D, "--l1", "",
                             "--word", "AB")
        assert (code, out, err) == (1, "", "error: shape must be at least 1 x 1\n")

    def test_text_output_shows_statuses(self, capsys):
        code, out, _ = run(capsys, "tree", "--rules", RULES_1D,
                           "--word", "CACABA")
        assert code == 0
        assert "[no-parents]" in out and "BBAA" in out


class TestUsageErrors:
    def test_unknown_flag_exits_64(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["search", "--nope"])
        assert err.value.code == 64

    def test_missing_subcommand_exits_64(self, capsys):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 64

    @pytest.mark.parametrize("argv", [
        ["search", "--rules", RULES_1D, "--l1", "A", "--word", "CAB",
         "--depth-cap", "-1"],
        ["oracle", "sweep", "--n", "2", "--jobs", "0"],
        ["oracle", "sweep", "--n", "0"],
        ["oracle", "sweep", "--n", "2", "--len-cap", "0"],
        # the parent product cap is a constant, so no subcommand takes it
        ["search", "--rules", RULES_1D, "--l1", "A", "--word", "CAB",
         "--product-cap", "5"],
        ["tree", "--rules", RULES_1D, "--word", "CAB", "--product-cap", "5"],
        ["expand", "--rules", RULES_1D, "--grid", "A", "--product-cap", "5"],
        # removed options: --format json replaces --json, --len replaces --len-min
        ["solve", "src/fractalsearch/data/in_the_details.puzzle", "--json"],
        ["bounds", "--b", "2", "--n", "3", "--len-min", "1"],
        # the input level is the grid file's level line, or --steps + 1
        ["contract", "--rules", RULES_1D, "--grid", "AB", "--level", "7"],
        # an audit of nothing is not a clean audit
        ["oracle", "agree", "--instances", "-1", "--format", "json"],
        ["oracle", "agree", "--instances", "0"],
        ["oracle", "agree", "--instances", "5", "--max-level", "0"],
        # the minimums the library enforces: b >= 2, n >= 1, len >= 1,
        # steps >= 0
        ["bounds", "--b", "1", "--n", "3"],
        ["bounds", "--b", "2", "--n", "0"],
        ["bounds", "--b", "2", "--n", "3", "--len", "0"],
        ["oracle", "sweep", "--n", "2", "--b", "1"],
        ["expand", "--rules", RULES_1D, "--grid", "A", "--steps", "-1"],
        ["contract", "--rules", RULES_1D, "--grid", "AB", "--steps", "-1"],
        ["oracle", "agree", "--instances", "5", "--b", "1"],
        # search takes exactly one of --word and --pattern
        ["search", "--rules", RULES_1D, "--l1", "A"],
    ], ids=["depth-cap", "sweep-jobs", "sweep-n", "sweep-len-cap",
            "search-product-cap", "tree-product-cap", "expand-product-cap",
            "solve-json", "bounds-len-min", "contract-level",
            "agree-instances-negative", "agree-instances-zero",
            "agree-max-level", "bounds-b", "bounds-n", "bounds-len", "sweep-b",
            "expand-steps", "contract-steps", "agree-b", "search-no-target"])
    def test_bad_value_exits_64(self, capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 64

    @pytest.mark.parametrize("argv", [
        ["solve", "nonexistent.puzzle"],
        ["search", "--rules", "missing.rules", "--l1", "A", "--word", "AB"],
        ["search", "--rules", RULES_1D, "--l1", "@missing.grid", "--word", "AB"],
    ], ids=["puzzle", "rules", "grid"])
    def test_missing_input_file_is_a_one_line_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err and out == ""

    def test_tiny_product_cap_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(ancestry, "PRODUCT_CAP", 1)
        code, _, err = run(capsys, "search", "--rules", RULES_2D,
                           "--l1", "C", "--word", "BB", "--direction", "SE")
        assert code == 2
        assert "resource" in err

    def test_oversized_sweep_is_refused_before_building_blocks(
            self, capsys, monkeypatch):
        def fail(*args):
            raise AssertionError("blocks built before the cap check")

        monkeypatch.setattr(oracle, "_sweep_blocks", fail)
        code, out, err = run(capsys, "oracle", "sweep", "--n", "3", "--b", "4",
                             "--dim", "2")
        assert code == 2 and out == ""
        assert err.startswith("resource limit: ") and err.count("\n") == 1

    def test_oversized_expand_is_refused_before_the_first_step(
            self, capsys, monkeypatch):
        def fail(*args):
            raise AssertionError("expanded before the cap check")

        monkeypatch.setattr(core.Grid, "lines", fail)
        code, out, err = run(capsys, "expand", "--rules", RULES_1D,
                             "--grid", "A", "--steps", "40")
        assert code == 2 and out == ""
        assert err.startswith("resource limit: ") and err.count("\n") == 1

    def test_a_huge_expand_stops_at_the_first_step_over_the_cap(self, capsys):
        """The cap is checked one step at a time, so 15,000 steps are
        refused at step 24, with no 4,500-digit cell count."""
        assert run(capsys, "expand", "--rules", RULES_1D, "--grid", "A",
                   "--steps", "15000") == (
            2, "", "resource limit: 15000 steps exceed the cap of 10000000 "
                   "cells at step 24\n")

    def test_a_sweep_over_the_case_cap_is_refused(self, capsys):
        """Words up to length 16 over two letters are 131,070 cases, one
        mask bit each in the shared walk; the sweep is refused at length
        14, the first over 2 ** 14 cases."""
        assert run(capsys, "oracle", "sweep", "--n", "2", "--len-cap", "16") == (
            2, "", "resource limit: words up to length 14 give 32766 (word, "
                   "direction) cases, over the sweep cap 16384\n")

    def test_a_huge_block_side_is_refused_with_no_huge_number(self, capsys):
        assert run(capsys, "oracle", "sweep", "--n", "2", "--b", "10000") == (
            2, "", "resource limit: 2**20000 rule sets exceed the sweep cap "
                   "1000000\n")


class TestReadmeCommands:
    @pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
    def test_exits_zero(self, capsys, monkeypatch, argv):
        monkeypatch.chdir(ROOT)
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        assert out

    def test_cacaba_search_prints_level_6(self, capsys, monkeypatch):
        [argv] = [a for a in readme_commands() if "CACABA" in a and a[0] == "search"]
        monkeypatch.chdir(ROOT)
        assert run(capsys, *argv) == (0, "level 6\n", "")
