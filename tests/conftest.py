from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from fractalsearch.core import Grid, RuleSet
from fractalsearch.patterns import Pattern, trim

PUZZLE_PATH = "src/fractalsearch/data/in_the_details.puzzle"


@pytest.fixture(scope="session")
def abc_1d() -> RuleSet:
    """A -> AB, B -> AC, C -> BB; from "A": A, AB, ABAC, ABACABBB, ..."""
    return RuleSet({"A": ("AB",), "B": ("AC",), "C": ("BB",)})


@pytest.fixture(scope="session")
def abc_2d() -> RuleSet:
    """Three letters with 2 x 2 blocks; from "A" level 3 is
    ABAC/CBBB/BBAC/CCBB."""
    return RuleSet({"A": ("AB", "CB"), "B": ("AC", "BB"), "C": ("BB", "CC")})


@pytest.fixture(scope="session")
def puzzle_path() -> str:
    return PUZZLE_PATH


def scan_occurrences(pattern: Pattern, grid: Grid) -> list[tuple[int, int]]:
    """Reference matcher: try every top-left window of the grid in
    row-major order."""
    boxed = trim(pattern)
    cells = list(boxed.concrete_cells())
    lines = grid.lines()
    return [
        (r0 + 1, c0 + 1)
        for r0 in range(grid.rows - boxed.rows + 1)
        for c0 in range(grid.cols - boxed.cols + 1)
        if all(lines[r0 + r][c0 + c] == ch for r, c, ch in cells)
    ]


# ---------------------------------------------------------------------------
# hypothesis strategies for random instances
# ---------------------------------------------------------------------------

def letter_sets(max_n: int = 4):
    return st.integers(1, max_n).map(lambda n: tuple("ABCD"[:n]))


@st.composite
def rule_sets(draw, dims=(1, 2), max_n: int = 4, bs=(2,)):
    dimension = draw(st.sampled_from(dims))
    b = draw(st.sampled_from(bs))
    letters = draw(letter_sets(max_n))
    rh = 1 if dimension == 1 else b
    row = st.text(alphabet=letters, min_size=b, max_size=b)
    rules = {
        ch: tuple(draw(row) for _ in range(rh))
        for ch in letters
    }
    return RuleSet(rules)


@st.composite
def grids_for(draw, rules: RuleSet, max_side: int = 4):
    rows = 1 if rules.dimension == 1 else draw(st.integers(1, max_side))
    cols = draw(st.integers(1, max_side))
    cells = draw(st.text(alphabet=rules.letters,
                         min_size=rows * cols, max_size=rows * cols))
    return Grid(rows, cols, cells, 1)


@st.composite
def instances(draw, dims=(1, 2), max_n: int = 4, bs=(2,), max_side: int = 4,
              max_word: int = 4):
    """(rules, l1, word) triples for randomized route comparisons."""
    rules = draw(rule_sets(dims=dims, max_n=max_n, bs=bs))
    l1 = draw(grids_for(rules, max_side=max_side))
    word = draw(st.text(alphabet=rules.letters,
                        min_size=1, max_size=max_word))
    return rules, l1, word


def seeded_rng(seed: int) -> random.Random:
    return random.Random(seed)
