"""Acceptance suite: one test per release criterion, each printing a
PASS line with its headline numbers (run with ``pytest -s`` to see them
as they complete)."""

from __future__ import annotations

import random
import time

import pytest

from fractalsearch.ancestry import AncestrySearcher, first_appearance
from fractalsearch.core import Grid, RuleSet, contract
from fractalsearch.files import load_grid
from fractalsearch.oracle import run_agreement, sweep_max_latest
from fractalsearch.patterns import (
    DIAGONALS,
    Direction,
    occurrences,
    parse_pattern,
    word_to_pattern,
)
from fractalsearch.puzzle import answer_window, load_puzzle, solve

PUZZLE = "src/fractalsearch/data/in_the_details.puzzle"

LEVEL_ONE_GRID = (
    "LEVELONESSUPYPM",
    "EPATETATIMSAORQ",
    "SKFAICRDPCAWHWH",
    "CONKBAHEAUEHRUA",
    "IYMANDELBROTRDU",
    "NTRGIHIYLLARSES",
    "OLEIZNEAHIIZKVD",
    "TFHRGVWCVCLHHLO",
    "CHPSAELOAUUXTMR",
    "EBGWATRNREJAKPF",
    "TSQUARESSBPOCTF",
)

SECRET_MESSAGE = "SUMEACHWORDSLEVELXMARKSSPOT"


@pytest.fixture(scope="module")
def spec():
    return load_puzzle(PUZZLE)


@pytest.fixture(scope="module")
def report(spec):
    started = time.monotonic()
    result = solve(spec)
    result_elapsed = time.monotonic() - started
    return result, result_elapsed


def test_criterion_1_contraction_golden(spec):
    started = time.monotonic()
    l1 = contract(load_grid(PUZZLE), spec.rules)
    elapsed = time.monotonic() - started
    assert l1.lines() == LEVEL_ONE_GRID
    assert l1.lines()[0] == "LEVELONESSUPYPM"
    assert l1.lines()[-1] == "TSQUARESSBPOCTF"
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: level-2 grid contracts byte-exact to the "
          f"level-1 grid in {elapsed:.3f}s")


def test_criterion_2_word_level_table(report):
    result, elapsed = report
    assert elapsed < 600.0
    levels = {p.word: p for p in result.placements}
    assert result.level_counts == {1: 18, 2: 6, 3: 3, 4: 1,
                                   6: 1, 15: 1, 17: 1, 86: 1}
    assert levels["LEVYDRAGON"].level == 6
    assert levels["LEVYDRAGON"].direction in (Direction.E, Direction.W)
    for word, expected in (("ESCAPE", 15), ("DIMENSION", 17), ("RAUZY", 86)):
        assert levels[word].level == expected
        assert levels[word].direction in DIAGONALS
    assert result.nodes_expanded > 0
    assert all(p.patterns_seen > 0 for p in result.placements)
    print(f"\nACCEPTANCE 2 PASS: 18/6/3/1 words on levels 1-4, "
          f"LEVYDRAGON@6 ESCAPE@15 DIMENSION@17 RAUZY@86, "
          f"solved in {elapsed:.1f}s with {result.nodes_expanded} nodes expanded")


def test_criterion_3_level_sum_and_answer(spec, report):
    result, _ = report
    assert result.level_sum == 167
    started = time.monotonic()
    window = answer_window(spec, result.level_sum)
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    window_grid = Grid.from_rows(list(window.window))
    assert occurrences(parse_pattern("H**Y/*UE*/*RM*/H**P"), window_grid)
    assert window.found
    assert (window.main_diagonal, window.anti_diagonal) == ("HUMP", "HREY")
    assert window.answer == "HUMPHREY"
    assert len(window.answer) == spec.answer_length
    print(f"\nACCEPTANCE 3 PASS: level sum 167; central block at level 167 "
          f"reads {window.answer} in {elapsed:.3f}s")


def test_criterion_4_secret_message(report):
    result, _ = report
    assert result.message == SECRET_MESSAGE, (
        f"raw uncrossed letters: {result.message!r}")
    print(f"\nACCEPTANCE 4 PASS: uncrossed letters read {result.message}")


@pytest.mark.parametrize("n,expected,budget", [(2, 4, 60.0), (3, 7, 60.0),
                                               (4, 13, 1800.0)])
def test_criterion_5_footnote_sweep(n, expected, budget):
    started = time.monotonic()
    sweep = sweep_max_latest(n, b=2, dimension=1, word_len_cap=2,
                             jobs=2 if n == 4 else 1)
    elapsed = time.monotonic() - started
    assert sweep.global_max == expected
    assert sweep.validated
    assert elapsed < budget
    print(f"\nACCEPTANCE 5 PASS: exhaustive sweep n={n} gives max latest "
          f"first appearance {sweep.global_max} in {elapsed:.1f}s "
          f"({sweep.ruleset_count} rule sets)")


@pytest.fixture(scope="module")
def agreement():
    started = time.monotonic()
    result = run_agreement(instances=1000, seed=20130118, max_level=10)
    return result, time.monotonic() - started


def test_criterion_6_backward_forward_equivalence(agreement):
    result, elapsed = agreement
    assert result.instances >= 1000
    assert result.mismatches == ()
    assert result.found_both + result.never_both + result.beyond_horizon == \
        result.instances
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 6 PASS: {result.instances} random instances agree "
          f"(found {result.found_both}, never {result.never_both}, "
          f"beyond level 10 {result.beyond_horizon}) in {elapsed:.1f}s")


def test_criterion_7_bound_dominance_and_geometry(agreement):
    result, _ = agreement
    assert result.bound_violations == ()
    assert result.geometry_violations == ()
    assert result.confinement_violations == ()
    print(f"\nACCEPTANCE 7 PASS: zero bound/parent-size/diagonal-confinement "
          f"violations over {result.instances} instances")


def test_criterion_8_identical_rows_isomorphism():
    rng = random.Random(1213)
    checked = 0
    while checked < 100:
        n = rng.randint(1, 4)
        b = 2
        letters = tuple("ABCD"[:n])
        rows_1d = {ch: "".join(rng.choice(letters) for _ in range(b))
                   for ch in letters}
        rules_1d = RuleSet({ch: (row,) for ch, row in rows_1d.items()})
        rules_2d = RuleSet({ch: (row,) * b for ch, row in rows_1d.items()})
        width = rng.randint(1, 4)
        height = rng.randint(1, 4)
        row = "".join(rng.choice(letters) for _ in range(width))
        l1_1d = Grid(1, width, row, 1)
        l1_2d = Grid(height, width, row * height, 1)
        word = "".join(rng.choice(letters)
                       for _ in range(rng.randint(1, 4)))
        got_1d = first_appearance(word, Direction.E, l1_1d, rules_1d)
        got_2d = first_appearance(word, Direction.E, l1_2d, rules_2d)
        assert got_1d.found == got_2d.found, (rows_1d, row, word)
        assert got_1d.level == got_2d.level, (rows_1d, row, word)
        checked += 1
    print(f"\nACCEPTANCE 8 PASS: 2D rules with identical rows reproduce the "
          f"1D horizontal first-appearance level on {checked} random cases")


def test_criterion_9_micro_examples():
    started = time.monotonic()
    abc_1d = RuleSet({"A": ("AB",), "B": ("AC",), "C": ("BB",)})
    abc_2d = RuleSet({"A": ("AB", "CB"), "B": ("AC", "BB"), "C": ("BB", "CC")})

    def parents(word, rules, direction=Direction.E):
        return {p.text() for p, _ in AncestrySearcher(rules).parents(
            word_to_pattern(word, direction))}

    assert parents("CAB", abc_1d) == {"BA"}
    assert parents("BA", abc_1d) == {"AA", "AB", "CA", "CB"}
    assert parents("CACABA", abc_1d) == {"BBAA", "BBAB"}
    assert first_appearance("CACABA", Direction.E, Grid.from_text("A"),
                            abc_1d).level == 6
    assert first_appearance("BB", Direction.SE, Grid.from_text("A"),
                            abc_2d).level == 3
    assert not first_appearance("AA", Direction.SE, Grid.from_text("A"),
                                abc_2d).found
    assert first_appearance("A", Direction.E, Grid.from_text("CCC"),
                            abc_1d).level == 3
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 9 PASS: all worked micro-examples reproduced "
          f"in {elapsed:.3f}s")
