from __future__ import annotations

import hashlib
import itertools
import json
import multiprocessing
from collections import Counter, defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalsearch import ancestry, oracle
from fractalsearch.ancestry import AncestrySearcher
from fractalsearch.bounds import w1
from fractalsearch.core import Grid, RuleSet, expand
from fractalsearch.errors import (
    ResourceLimitError,
    UnknownLetterError,
    WitnessError,
)
from fractalsearch.oracle import (
    check_instance,
    forward_first_appearance,
    latest_with_searcher,
    random_instance,
    run_agreement,
    sweep_max_latest,
)
from fractalsearch.patterns import (
    Direction,
    GridIndex,
    Pattern,
    parse_pattern,
    word_to_pattern,
)
from tests.conftest import rule_sets, scan_occurrences, seeded_rng
from tests.test_ancestry import reference_closure


def lines_along(grid: Grid, direction: Direction) -> list[str]:
    """Every maximal line of the grid read along ``direction``, one from
    each cell whose predecessor on the line lies off the grid; a word
    reads along ``direction`` exactly where it is a substring of one."""
    dr, dc = direction.value

    def inside(r, c):
        return 0 <= r < grid.rows and 0 <= c < grid.cols

    lines = []
    for r0, c0 in itertools.product(range(grid.rows), range(grid.cols)):
        if inside(r0 - dr, c0 - dc):
            continue
        chars, r, c = [], r0, c0
        while inside(r, c):
            chars.append(grid.cells[r * grid.cols + c])
            r, c = r + dr, c + dc
        lines.append("".join(chars))
    return lines


def first_level(word: str, lines_by_level) -> int | None:
    """First level (1-based) whose lines contain the word, else None."""
    return next((level for level, lines in enumerate(lines_by_level, 1)
                 if any(word in line for line in lines)), None)


def expand_levels(l1, rules, max_level):
    """Levels 1..max_level built with ``core.expand``, one at a time."""
    grid = l1
    for _ in range(max_level - 1):
        yield grid
        grid = expand(grid, rules)
    yield grid


def scan_levels(word, direction, l1, rules, max_level):
    """First level up to ``max_level`` of ``core.expand``'s grids on which
    the word reads along ``direction``; None if absent throughout."""
    return first_level(word, (lines_along(grid, direction) for grid in
                              expand_levels(l1, rules, max_level)))


class TestForwardFirstAppearance:
    def test_finds_cab_on_level_four(self, abc_1d):
        got = forward_first_appearance("CAB", Direction.E, Grid.from_text("A"),
                                       abc_1d, 6)
        assert got == 4

    def test_absent_word_returns_none(self, abc_1d):
        got = forward_first_appearance("CC", Direction.E, Grid.from_text("A"),
                                       abc_1d, 10)
        assert got is None

    def test_level_one_hit(self, abc_1d):
        got = forward_first_appearance("BA", Direction.E, Grid.from_text("ABA"),
                                       abc_1d, 3)
        assert got == 1

    def test_diagonal_in_two_dimensions(self, abc_2d):
        got = forward_first_appearance("BB", Direction.SE, Grid.from_text("A"),
                                       abc_2d, 5)
        assert got == 3

    def test_shipped_puzzle_first_row_word(self, puzzle_path):
        from fractalsearch.puzzle import load_puzzle

        spec = load_puzzle(puzzle_path)
        got = forward_first_appearance("LEVELONE", Direction.E, spec.l1,
                                       spec.rules, 1)
        assert got == 1

    def test_rejects_a_max_level_below_one(self, abc_1d):
        with pytest.raises(ValueError, match="max_level must be >= 1"):
            forward_first_appearance("AB", Direction.E, Grid.from_text("A"),
                                     abc_1d, 0)

    def test_rejects_foreign_letters(self, abc_1d):
        with pytest.raises(UnknownLetterError):
            forward_first_appearance("AX", Direction.E, Grid.from_text("A"),
                                     abc_1d, 3)

    def test_rejects_foreign_grid_letters(self, abc_1d):
        with pytest.raises(UnknownLetterError):
            forward_first_appearance("AB", Direction.E, Grid.from_text("AX"),
                                     abc_1d, 3)

    def test_window_cap_is_enforced(self, abc_2d, monkeypatch):
        # AA never reads SE here; the fixpoint proving it needs more than
        # 40 distinct windows (and fewer than 100)
        monkeypatch.setattr(oracle, "WINDOW_CAP", 40)
        with pytest.raises(ResourceLimitError):
            forward_first_appearance("AA", Direction.SE, Grid.from_text("A"),
                                     abc_2d, 30)

    def test_cap_not_hit_when_found_early(self, abc_2d, monkeypatch):
        monkeypatch.setattr(oracle, "WINDOW_CAP", 40)
        got = forward_first_appearance("BB", Direction.SE, Grid.from_text("A"),
                                       abc_2d, 30)
        assert got == 3

    def test_placed_levels_are_first_levels_forward(self, puzzle_path):
        """The forward walk proves the solver's level of the 28 words it
        places on levels 1-4 and of RAUZY on level 86: read in some
        direction by that level, and in none before it.  LEVYDRAGON (6),
        ESCAPE (15) and DIMENSION (17) are left out: their walks take
        seconds each."""
        from fractalsearch.puzzle import load_puzzle, solve

        spec = load_puzzle(puzzle_path)
        placed = {p.word: p.level for p in solve(spec).placements
                  if p.level <= 4 or p.word == "RAUZY"}
        assert len(placed) == 29 and placed["RAUZY"] == 86
        for word, level in placed.items():
            got = (forward_first_appearance(word, d, spec.l1, spec.rules, level)
                   for d in Direction)
            assert min((g for g in got if g is not None), default=None) == level, word

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_agrees_with_expand_and_scan(self, data):
        """The window walk against building every level with
        ``core.expand`` and reading the word off it: 1D and 2D rules,
        b = 2 and 3, every direction, start grids of up to 3 x 3 (1D
        rules too, where rows expand on their own)."""
        rules = data.draw(rule_sets(bs=(2, 3)))
        rows, cols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        letters = rules.letters
        cells = data.draw(st.text(alphabet=letters, min_size=rows * cols,
                                  max_size=rows * cols))
        l1 = Grid(rows, cols, cells, 1)
        word = data.draw(st.text(alphabet=letters, min_size=1, max_size=4))
        direction = data.draw(st.sampled_from(list(Direction)))
        # keep the built levels small: at most 6 for b = 2, 4 for b = 3
        max_level = 6 if rules.b == 2 else 4
        assert (forward_first_appearance(word, direction, l1, rules, max_level)
                == scan_levels(word, direction, l1, rules, max_level))

    def test_warm_plans_agree_with_expand_and_scan(self):
        """One process, shapes shared across start grids of 1-5 rows and
        1-6 columns, so cached children plans and level-1 readers are
        reused across many padded widths and block shapes: 1D and 2D
        rules, b = 2 and 3, every direction, words of 1-5 letters, one
        random and one read off the deepest level built where it fits.
        The word length cycles with the grid size, so each (direction,
        length) pair meets six grid sizes."""
        oracle._children.cache_clear()
        oracle._reader.cache_clear()
        rng = seeded_rng(17)
        for dimension, b in itertools.product((1, 2), (2, 3)):
            rh = 1 if dimension == 1 else b
            rules = RuleSet({ch: tuple("".join(rng.choice("ABC") for _ in range(b))
                                       for _ in range(rh)) for ch in "ABC"})
            max_level = 4 if b == 2 else 3
            for rows, cols in itertools.product(range(1, 6), range(1, 7)):
                l1 = Grid(rows, cols, "".join(rng.choice("ABC")
                                              for _ in range(rows * cols)))
                levels = list(expand_levels(l1, rules, max_level))
                length = 1 + (rows * 6 + cols) % 5
                for direction in Direction:
                    lines = [lines_along(grid, direction) for grid in levels]
                    words = ["".join(rng.choice("ABC") for _ in range(length))]
                    long = [line for line in lines[-1] if len(line) >= length]
                    if long:
                        line = rng.choice(long)
                        at = rng.randrange(len(line) - length + 1)
                        words.append(line[at:at + length])
                    for word in words:
                        assert forward_first_appearance(
                            word, direction, l1, rules, max_level) == (
                            first_level(word, lines)), (rules, l1, word, direction)
        for cache in (oracle._children, oracle._reader):
            info = cache.cache_info()
            assert 0 < info.currsize <= info.maxsize and info.hits > 0


def pair_family(n: int) -> RuleSet:
    """A>AB, each middle letter -> the next letter doubled, the last
    letter -> BA."""
    letters = "ABCDEFG"[:n]
    rules = {"A": ("AB",)}
    rules.update((ch, (nxt * 2,)) for ch, nxt in zip(letters[1:-1], letters[2:]))
    rules[letters[-1]] = ("BA",)
    return RuleSet(rules)


def latest_level(word, direction, rules):
    return latest_with_searcher(AncestrySearcher(rules), word, direction).level


def floored_latest(searcher, word, direction, floor):
    """The fill scan of one word's closure, by depth, above ``floor``:
    ``latest_with_searcher`` with the floor a sweep chunk passes."""
    layers = searcher.shared_layers([word_to_pattern(word, direction)])
    return oracle._fill_scan([list(layer) for layer in layers],
                             searcher.rules.letters, floor, {})


def sweep_words(letters, word_len_cap):
    """The sweep's words: by length, then in alphabet order."""
    return ["".join(word) for length in range(1, word_len_cap + 1)
            for word in itertools.product(letters, repeat=length)]


def sweep_cases(letters, word_len_cap, directions):
    """The sweep's (word, direction) cases, each word read along every
    direction in turn."""
    return [(word, direction) for word in sweep_words(letters, word_len_cap)
            for direction in directions]


class TestLatestFirstAppearance:
    def test_single_letter_worst_case(self, abc_1d):
        assert latest_level("A", Direction.E, abc_1d) == 3

    def test_parentless_word_is_level_one_only(self, abc_1d):
        assert latest_level("CC", Direction.E, abc_1d) == 1

    def test_single_letter_alphabet(self):
        rules = RuleSet({"A": ("AA",)})
        assert latest_level("A", Direction.E, rules) == 1
        # A pair cannot sit inside a one-cell start grid, so the
        # adversarial setup delays it to level 2 (= the pair bound n*n+1).
        assert latest_level("AA", Direction.E, rules) == 2

    def test_fill_cap_is_enforced(self, abc_2d, monkeypatch):
        # AA read SE has the ancestor A*/*A, whose two holes take 9 fills.
        monkeypatch.setattr(oracle, "FILL_CAP", 8)
        with pytest.raises(ResourceLimitError,
                           match=r"9 fills of 'A\*/\*A' exceed cap 8"):
            latest_with_searcher(AncestrySearcher(abc_2d), "AA", Direction.SE)

    def test_respects_straight_bound(self, abc_1d):
        for word in ("A", "B", "AB", "CA", "CAB"):
            got = latest_level(word, Direction.E, abc_1d)
            assert got <= w1(abc_1d.b, abc_1d.n, len(word))

    @pytest.mark.parametrize("n", range(3, 8))
    def test_pair_family_reaches_n_squared_minus_n_plus_one(self, n):
        """BB first appears on level n*n - n + 1 from the start grid B,
        the latest level of BB under the pair family's rules, n below
        the paper's pair bound w1 = n*n + 1."""
        rules = pair_family(n)
        got = latest_with_searcher(AncestrySearcher(rules), "BB", Direction.E)
        assert got.level == n * n - n + 1
        assert got.l1 == Grid.from_text("B")
        assert forward_first_appearance("BB", Direction.E, got.l1, rules,
                                        got.level) == got.level
        assert got.level < w1(2, n, 2)

    @pytest.mark.parametrize("length", range(2, 5))
    @pytest.mark.parametrize("n", range(3, 6))
    def test_pair_family_meets_the_measured_law(self, n, length):
        """Over every word of a length L >= 2 read E, the latest level
        under the pair family's rules is n*n - n + 1 + floor(log2(L - 1)),
        the law the sweeps measured for n = 3 and 4; the forward route
        confirms it from the returned start grid, and it stays below
        the paper's bound w1."""
        rules = pair_family(n)
        searcher = AncestrySearcher(rules)
        level, word, l1 = 0, None, None
        for candidate in map("".join, itertools.product(rules.letters,
                                                        repeat=length)):
            got = floored_latest(searcher, candidate, Direction.E, level)
            if got.level is not None:
                level, word, l1 = got.level, candidate, got.l1
        assert level == n * n - n + 1 + (length - 1).bit_length() - 1
        assert forward_first_appearance(word, Direction.E, l1, rules,
                                        level) == level
        assert level < w1(2, n, length)

    @pytest.mark.parametrize("rules_name, directions", [
        ("abc_1d", (Direction.E,)), ("abc_2d", (Direction.E, Direction.SE))])
    def test_floor_hides_only_levels_at_or_below_it(self, request, rules_name,
                                                    directions):
        """A floored fill scan returns the floorless result, start grid
        included, when its level is above the floor, and answers nothing
        at or below it."""
        rules = request.getfixturevalue(rules_name)
        searcher = AncestrySearcher(rules)
        for length in (1, 2):
            for word in map("".join, itertools.product(rules.letters, repeat=length)):
                for direction in directions:
                    full = latest_with_searcher(searcher, word, direction)
                    for floor in range(full.level + 2):
                        got = floored_latest(searcher, word, direction, floor)
                        want = (full if full.level > floor
                                else oracle.LatestResult(None, None))
                        assert got == want, (word, direction.name, floor)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_witnessed_by_forward_search(self, data):
        """The claimed worst-case start grid really has that first level."""
        from fractalsearch.oracle import latest_with_searcher
        from fractalsearch.ancestry import AncestrySearcher

        rules = data.draw(rule_sets(dims=(1,), max_n=3))
        word = data.draw(st.text(alphabet=rules.letters,
                                 min_size=1, max_size=2))
        got = latest_with_searcher(AncestrySearcher(rules), word, Direction.E)
        assert got.level is not None
        assert forward_first_appearance(word, Direction.E, got.l1, rules,
                                        got.level) == got.level

    @pytest.mark.parametrize(
        "n, dimension, word_len_cap, max_rows, max_cols, every_ruleset", [
            (2, 1, 3, 1, 4, True), (3, 1, 2, 1, 3, False), (2, 2, 2, 2, 2, False)],
        ids=["1d-n2", "1d-n3-orbits", "2d-n2-orbits"])
    def test_equals_the_latest_level_over_every_start_grid(
            self, n, dimension, word_len_cap, max_rows, max_cols, every_ruleset):
        """No start grid up to the given size gives a later first level
        than the one claimed, and one gives exactly that level: the
        maximum of the forward route, run to its fixpoint, over every
        grid.  The larger cases check only the sweep's orbit
        representatives; both sides are constant on an orbit."""
        letters = tuple("ABC"[:n])
        blocks = oracle._sweep_blocks(letters, 2, dimension)
        indexes = [idx for idx, first in
                   enumerate(oracle._sweep_orbits(letters, blocks))
                   if every_ruleset or first == idx]
        grids = [Grid(rows, cols, "".join(cells), 1)
                 for rows in range(1, max_rows + 1)
                 for cols in range(1, max_cols + 1)
                 for cells in itertools.product(letters, repeat=rows * cols)]
        words = sweep_words(letters, word_len_cap)
        directions = (Direction.E,) if dimension == 1 else (Direction.E, Direction.SE)
        mismatches = []
        for idx in indexes:
            rules = oracle._ruleset_by_index(idx, letters, blocks)
            searcher = AncestrySearcher(rules)
            for word in words:
                for direction in directions:
                    claimed = latest_with_searcher(searcher, word, direction).level
                    brute = max(filter(None, (
                        forward_first_appearance(word, direction, l1, rules,
                                                 max_level=10 ** 9)
                        for l1 in grids)))
                    if claimed != brute:
                        mismatches.append((rules.text(), word, direction.name,
                                           claimed, brute))
        assert mismatches == []


    @pytest.mark.parametrize("rules, direction", [
        (RuleSet({"A": ("AB",), "B": ("BC",), "C": ("CA",)}), Direction.E),
        (RuleSet({"A": ("AB", "CB"), "B": ("AC", "BB"), "C": ("BB", "CC")}),
         Direction.SE),
    ])
    def test_fill_scan_equals_window_scan(self, rules, direction):
        """Every (closure pattern, fill) check that ``latest_with_searcher``
        can make, for every word up to length 2, against the brute-force
        scan; the SE closures carry wildcards."""
        searcher = AncestrySearcher(rules)
        checks = 0
        for length in (1, 2):
            for word in map("".join, itertools.product(rules.letters, repeat=length)):
                closure = sorted(searcher.closure(word_to_pattern(word, direction)))
                for pat in closure:
                    for fill in oracle._fills(pat, rules.letters):
                        index = GridIndex(fill)
                        for p in closure:
                            assert oracle._occurs_in(p, index) == \
                                bool(scan_occurrences(p, fill)), (p.text(), fill.text())
                            checks += 1
        assert checks == (351 if direction is Direction.E else 5457)


class TestSweep:
    def test_two_letter_alphabet_maximum(self):
        report = sweep_max_latest(2, 2, 1, 2)
        assert report.global_max == 4
        assert report.ruleset_count == 16
        assert report.validated
        assert max(report.per_ruleset_max) == report.global_max

    def test_histogram_counts_every_ruleset(self):
        report = sweep_max_latest(2, 2, 1, 2)
        assert sum(report.histogram().values()) == 16

    def test_parallel_run_is_identical(self):
        serial = sweep_max_latest(2, 2, 1, 2, jobs=1)
        parallel = sweep_max_latest(2, 2, 1, 2, jobs=2)
        assert serial == parallel

    @pytest.mark.parametrize("jobs, workers", [(16, 7), (2, 2)])
    def test_pool_starts_no_more_workers_than_chunks(self, monkeypatch, jobs,
                                                     workers):
        # n=2 has 7 orbit representatives, one chunk each when jobs > 1
        started = []

        class InProcessPool:
            def __init__(self, processes):
                started.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return [fn(item) for item in items]

        serial = sweep_max_latest(2, 2, 1, 2, jobs=1)
        monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
        assert sweep_max_latest(2, 2, 1, 2, jobs=jobs) == serial
        assert started == [workers]

    @pytest.mark.parametrize("word_len_cap", [2, 3])
    def test_floors_keep_every_one_rule_set_chunk(self, word_len_cap):
        """Each 2D n=2 rule set alone in a chunk gives the maxima and
        witness keys of a search of every (word, direction) with no
        floor.  In rule set 21, AA read SE only ties AA read E on level
        3 but wins on its smaller start grid, so the SE search must not
        be floored at the E witness's level."""
        letters = ("A", "B")
        blocks = oracle._sweep_blocks(letters, 2, 2)
        cases = sweep_cases(letters, word_len_cap, (Direction.E, Direction.SE))
        mismatches = []
        for idx in range(len(blocks) ** len(letters)):
            searcher = AncestrySearcher(oracle._ruleset_by_index(idx, letters, blocks))
            rs_max, best = 0, {}
            for word, direction in cases:
                got = latest_with_searcher(searcher, word, direction)
                rs_max = max(rs_max, got.level)
                oracle._keep_best(best, len(word), (
                    -got.level, idx, word, got.l1.text(), direction.name))
            if idx == 21:
                assert best[2] == (-3, 21, "AA", "A", "SE")
            chunk = oracle._sweep_chunk((letters, blocks, cases, [idx]))
            if chunk != ([rs_max], best):
                mismatches.append(idx)
        assert mismatches == []

    @pytest.mark.parametrize("word_len_cap", [2, 3])
    def test_one_chunk_of_every_representative_equals_one_rule_set_chunks(
            self, word_len_cap):
        """One 2D n=2 chunk over every orbit representative, whose scans
        share one occurrence memo and whose floors carry over from rule
        set to rule set, gives the maxima and witness keys of one chunk
        per representative put together."""
        letters = ("A", "B")
        blocks = oracle._sweep_blocks(letters, 2, 2)
        cases = sweep_cases(letters, word_len_cap, (Direction.E, Direction.SE))
        reps = [idx for idx, first in enumerate(oracle._sweep_orbits(letters, blocks))
                if first == idx]
        maxima, best = [], {}
        for idx in reps:
            (rs_max,), chunk_best = oracle._sweep_chunk(
                (letters, blocks, cases, [idx]))
            maxima.append(rs_max)
            for length, key in chunk_best.items():
                oracle._keep_best(best, length, key)
        assert len(reps) == 76
        assert oracle._sweep_chunk((letters, blocks, cases, reps)) == (maxima, best)

    @pytest.mark.parametrize("n, dimension", [(2, 1), (3, 1), (2, 2)],
                             ids=["1d-n2", "1d-n3", "2d-n2"])
    def test_scan_of_shared_groups_equals_latest_with_searcher(self, n, dimension):
        """For every case the sweep searches (each orbit representative,
        every word up to length 2 and direction) and every floor from 0
        up to the case's level, the fill scan over the groups read off
        the shared walk gives the scan of the case's own closure, which
        at floor 0 is ``latest_with_searcher``; each
        case's deepest shared layer is its closure's deepest layer.  One
        occurrence memo serves every scan of the sweep, so an answer that
        leaks between fills or between ancestors shows here."""
        letters = tuple("ABC"[:n])
        blocks = oracle._sweep_blocks(letters, 2, dimension)
        directions = (Direction.E,) if dimension == 1 else (Direction.E, Direction.SE)
        cases = sweep_cases(letters, 2, directions)
        targets = [word_to_pattern(word, direction) for word, direction in cases]
        mismatches, checks, memo = [], 0, {}
        for idx, first in enumerate(oracle._sweep_orbits(letters, blocks)):
            if first != idx:
                continue
            searcher = AncestrySearcher(oracle._ruleset_by_index(idx, letters, blocks))
            layers = searcher.shared_layers(targets)
            deepest = oracle._deepest(layers, len(targets))
            for t, (word, direction) in enumerate(cases):
                assert deepest[t] == max(reference_closure(searcher, targets[t]).values())
                groups = oracle._groups(layers, 1 << t, deepest[t])
                full = latest_with_searcher(searcher, word, direction)
                for floor in range(full.level + 1):
                    want = floored_latest(searcher, word, direction, floor)
                    checks += 1
                    if oracle._fill_scan(groups, letters, floor, memo) != want:
                        mismatches.append((idx, word, direction.name, floor))
        assert mismatches == []
        assert checks == {(2, 1): 126, (3, 1): 2975, (2, 2): 3109}[n, dimension]

    def test_2d_maxima_hold_for_every_direction_but_not_per_rule_set(self):
        """A 2D sweep searches words read E and SE.  Its per-length maxima
        hold for all eight directions: a word read W, N, NW or NE is its
        reverse read E, S, SE or SW, transposing every block maps S to E
        and mirroring it maps SW to SE, and the enumeration is closed
        under both maps.  Its per-rule-set maxima do not: a rule set's S
        or SW words may first appear later than its E and SE words."""
        report = sweep_max_latest(2, 2, 2, 2)
        letters = ("A", "B")
        blocks = oracle._sweep_blocks(letters, 2, 2)
        words = sweep_words(letters, 2)
        per_length = {direction: Counter() for direction in Direction}
        later = 0
        for idx, reported in enumerate(report.per_ruleset_max):
            searcher = AncestrySearcher(oracle._ruleset_by_index(idx, letters, blocks))
            latest = {direction: 0 for direction in Direction}
            for direction in Direction:
                for word in words:
                    level = latest_with_searcher(searcher, word, direction).level or 0
                    latest[direction] = max(latest[direction], level)
                    per_length[direction][len(word)] = max(
                        per_length[direction][len(word)], level)
            assert max(latest[Direction.E], latest[Direction.SE]) == reported
            for forward, backward in (("E", "W"), ("S", "N"), ("SE", "NW"),
                                      ("SW", "NE")):
                assert latest[Direction[forward]] == latest[Direction[backward]]
            later += max(latest[Direction.S], latest[Direction.SW]) > reported
        assert report.per_length_max == {1: 2, 2: 4}
        assert all(maxima == report.per_length_max
                   for maxima in per_length.values())
        assert later == 42

    def test_per_length_maxima_are_reported(self):
        report = sweep_max_latest(2, 2, 1, 2)
        assert set(report.per_length_max) == {1, 2}
        assert report.per_length_max[1] == 2   # one-letter bound n

    def test_sweep_maxima_respect_closed_form_bounds(self):
        for n in (2, 3):
            report = sweep_max_latest(n, 2, 1, 2)
            for length, level in report.per_length_max.items():
                assert level <= w1(2, n, length)

    @pytest.mark.parametrize("n, word_len_cap, jobs, name", [
        (0, 2, 1, "n"), (2, 0, 1, "word_len_cap"), (2, 2, 0, "jobs"),
        (2, 2, -3, "jobs")], ids=["n", "word-len-cap", "jobs-0", "jobs-negative"])
    def test_rejects_an_empty_sweep(self, n, word_len_cap, jobs, name):
        with pytest.raises(ValueError, match=f"^{name} must be >= 1$"):
            sweep_max_latest(n, 2, 1, word_len_cap, jobs=jobs)

    @pytest.mark.parametrize("dimension, length, cases", [(1, 3, 14), (2, 2, 12)])
    def test_case_cap_is_checked_before_any_walk(self, monkeypatch, dimension,
                                                 length, cases):
        """2 + 4 = 6 cases of words up to length 2 pass a cap of 6 in 1D;
        read E and SE in 2D they are 12, and in 1D length 3 adds 8."""
        monkeypatch.setattr(oracle, "SWEEP_CASE_CAP", 6)
        assert sweep_max_latest(2, 2, 1, 2).per_length_max == {1: 2, 2: 4}

        def fail(*args):
            raise AssertionError("walked before the case cap check")

        monkeypatch.setattr(oracle, "_sweep_blocks", fail)
        with pytest.raises(ResourceLimitError, match=(
                f"^words up to length {length} give {cases} .* cap 6$")):
            sweep_max_latest(2, 2, dimension, 3)

    @pytest.mark.parametrize("dimension", [0, 3])
    def test_rejects_a_dimension_other_than_1_or_2(self, dimension):
        with pytest.raises(ValueError, match="dimension"):
            sweep_max_latest(2, 2, dimension, 1)

    def test_failed_revalidation_names_the_witness(self, monkeypatch):
        real = oracle.forward_first_appearance
        monkeypatch.setattr(oracle, "forward_first_appearance",
                            lambda *args: real(*args) + 1)
        with pytest.raises(WitnessError) as err:
            sweep_max_latest(2, 2, 1, 2)
        assert str(err.value) == (
            "sweep witness for word length 1 failed forward re-validation: "
            "word A E from start grid B under A>AA;B>AA: expected level 2, "
            "forward expansion gave 3")

    def test_ruleset_count_guard(self):
        with pytest.raises(ResourceLimitError):
            sweep_max_latest(5, 2, 1, 2)

    def test_ruleset_cap_admits_its_own_count(self, monkeypatch):
        """Two letters with 1 x 2 blocks make 2 ** 4 = 16 rule sets."""
        monkeypatch.setattr(oracle, "SWEEP_RULESET_CAP", 16)
        assert sweep_max_latest(2, 2, 1, 1).ruleset_count == 16
        monkeypatch.setattr(oracle, "SWEEP_RULESET_CAP", 15)
        with pytest.raises(ResourceLimitError,
                           match=r"^2\*\*4 rule sets exceed the sweep cap 15$"):
            sweep_max_latest(2, 2, 1, 1)

    def test_a_huge_block_side_stops_at_the_first_count_over_the_cap(self):
        """2 ** 20,000 rule sets are refused at 2 ** 20, with no
        6,000-digit count built or printed."""
        with pytest.raises(ResourceLimitError, match=(
                r"^2\*\*20000 rule sets exceed the sweep cap 1000000$")):
            sweep_max_latest(2, b=10000)

    def test_one_letter_passes_the_count_check_at_once(self, monkeypatch):
        """One letter makes one rule set whatever the block: the count
        is not grown one factor per block cell."""
        class Counted(Exception):
            pass

        def stop(*args):
            raise Counted

        monkeypatch.setattr(oracle, "_sweep_blocks", stop)
        monkeypatch.setattr(oracle, "BLOCK_CELL_CAP", 10 ** 12)
        with pytest.raises(Counted):
            sweep_max_latest(1, b=10 ** 6, dimension=2)

    def test_block_cell_cap_is_checked_before_any_block(self, monkeypatch):
        """1 x 3 blocks pass a cap of 3 cells; 2 x 2 blocks are refused
        before any block is built."""
        monkeypatch.setattr(oracle, "BLOCK_CELL_CAP", 3)
        assert sweep_max_latest(1, 3, 1, 1).ruleset_count == 1

        def fail(*args):
            raise AssertionError("built blocks before the block cell cap check")

        monkeypatch.setattr(oracle, "_sweep_blocks", fail)
        with pytest.raises(ResourceLimitError,
                           match="^2 x 2 blocks exceed the block cell cap 3$"):
            sweep_max_latest(1, 2, 2, 1)

    def test_rule_set_count_is_refused_before_the_block(self, monkeypatch):
        monkeypatch.setattr(oracle, "BLOCK_CELL_CAP", 3)
        with pytest.raises(ResourceLimitError, match="rule sets exceed"):
            sweep_max_latest(4, 2, 2, 1)

    def test_a_one_letter_huge_block_is_refused_at_once(self):
        """One letter passes the rule-set and case caps; 10 ** 10 block
        cells do not pass the block cell cap."""
        with pytest.raises(ResourceLimitError, match=(
                "^100000 x 100000 blocks exceed the block cell cap 10000$")):
            sweep_max_latest(1, b=100000, dimension=2)

    def test_closure_cap_refuses_the_sweep(self, monkeypatch):
        monkeypatch.setattr(ancestry, "CLOSURE_CAP", 3)
        with pytest.raises(ResourceLimitError, match="exceed 3 patterns"):
            sweep_max_latest(2, 2, 1, 2)

    def test_json_dict_is_serializable(self):
        import json

        report = sweep_max_latest(2, 2, 1, 2)
        data = json.loads(json.dumps(report.to_json_dict()))
        assert data["global_max"] == 4


def relabeled(rules: RuleSet, perm: dict[str, str]) -> RuleSet:
    """The rule set with every letter renamed by ``perm``: the rule of
    perm[x] is the rule of x, renamed.  The letters keep their order."""
    table = str.maketrans(perm)
    renamed = {perm[ch]: tuple(row.translate(table) for row in block)
               for ch, block in rules.rules.items()}
    return RuleSet({ch: renamed[ch] for ch in rules.letters})


def rotated(rules: RuleSet) -> RuleSet:
    """The rule set with every block turned by 180 degrees."""
    return RuleSet({ch: tuple(row[::-1] for row in reversed(block))
                     for ch, block in rules.rules.items()})


class TestSweepSymmetry:
    """The sweep searches one rule set per orbit of letter relabeling x
    180-degree rotation; these pin that down from outside."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_latest_level_is_invariant(self, data):
        rules = data.draw(rule_sets(max_n=3))
        letters = rules.letters
        word = data.draw(st.text(alphabet=letters, min_size=1, max_size=2))
        perm = dict(zip(letters, data.draw(st.permutations(letters))))
        images = [(relabeled(rules, perm), "".join(perm[ch] for ch in word)),
                  (rotated(rules), word[::-1])]
        directions = ((Direction.E,) if rules.dimension == 1
                      else (Direction.E, Direction.SE))
        for direction in directions:
            level = latest_with_searcher(
                AncestrySearcher(rules), word, direction).level
            for image_rules, image_word in images:
                got = latest_with_searcher(AncestrySearcher(image_rules),
                                           image_word, direction)
                assert got.level == level

    @pytest.mark.parametrize("n, dimension, count", [
        (3, 1, 74), (4, 1, 1474), (2, 2, 76)], ids=["1d-n3", "1d-n4", "2d-n2"])
    def test_orbits_cover_every_index_once(self, n, dimension, count):
        letters = tuple("ABCD"[:n])
        blocks = oracle._sweep_blocks(letters, 2, dimension)
        smallest = oracle._sweep_orbits(letters, blocks)
        assert len(smallest) == len(blocks) ** n
        orbits = defaultdict(list)
        for idx, first in enumerate(smallest):
            orbits[first].append(idx)
        assert len(orbits) == count
        assert all(members[0] == first for first, members in orbits.items())

    @pytest.mark.parametrize("n, dimension", [(3, 1), (2, 2)],
                             ids=["1d-n3", "2d-n2"])
    def test_orbits_are_closed_under_the_generators(self, n, dimension):
        letters = tuple("ABCD"[:n])
        blocks = oracle._sweep_blocks(letters, 2, dimension)
        smallest = oracle._sweep_orbits(letters, blocks)
        everything = [oracle._ruleset_by_index(idx, letters, blocks)
                      for idx in range(len(smallest))]
        index = {rules.text(): idx for idx, rules in enumerate(everything)}
        swap = dict(zip(letters, letters[1::-1] + letters[2:]))
        cycle = dict(zip(letters, letters[1:] + letters[:1]))
        for idx, rules in enumerate(everything):
            for image in (relabeled(rules, swap), relabeled(rules, cycle),
                          rotated(rules)):
                assert smallest[index[image.text()]] == smallest[idx]

    @pytest.mark.parametrize("n, dimension, b", [(3, 1, 2), (2, 2, 2), (2, 1, 3)])
    def test_text_order_is_index_order(self, n, dimension, b):
        """So the witness's smallest rules text is its orbit's smallest
        index, the one the sweep searches."""
        letters = tuple("ABCD"[:n])
        blocks = oracle._sweep_blocks(letters, b, dimension)
        texts = [oracle._ruleset_by_index(idx, letters, blocks).text()
                 for idx in range(len(blocks) ** n)]
        assert texts == sorted(texts)

    # sha256 of json.dumps(report.to_json_dict(), sort_keys=True), as the
    # sweep gave when it searched every rule set
    @pytest.mark.parametrize("n, b, dimension, word_len_cap, jobs, digest", [
        (2, 2, 1, 2, 1, "178ef08ad040abc39816c7a672b853c9bc4ec5eac5b0f31874d72bea12fdd19b"),
        (3, 2, 1, 2, 1, "f53e81a4f23323644976b0d54dbfcca11c728336d6a977448c9ab21fa139cdc4"),
        (2, 2, 1, 3, 1, "f7a336835fc4d6587b8a1cbbc0b9f7152a2370b805a385beef4744fb0c2050f5"),
        (3, 2, 1, 3, 1, "755e65f84d87af9255662522ac4b92fa3d0bc25988666f2d0bef302dc3529848"),
        (4, 2, 1, 2, 1, "c9ea2bd6f91a0d6da6ed6e773188dd5dd611e34ea1853d3e9b379795bce563ef"),
        (2, 2, 2, 2, 1, "c829506fff1f19131291c7f703d58e84aa2e000d733ba663b5a86ab73c71fbc5"),
        (2, 2, 2, 3, 2, "d58965828aea5b7bb1fa5ee71af8a31e4fbc81f16092469d0efe4110df0fd108"),
        (2, 3, 1, 2, 1, "02f3a08c7aa564031fc60e333a7726d3a11eabd41164651ecef51797cba98e77"),
        (3, 3, 1, 2, 1, "35837eee0af079b9222d26288969e5a29cbf9fa289cd704ad263a3f71abafe4f"),
    ], ids=["1d-n2-len2", "1d-n3-len2", "1d-n2-len3", "1d-n3-len3",
            "1d-n4-len2", "2d-n2-len2", "2d-n2-len3-jobs2", "1d-n2-b3-len2",
            "1d-n3-b3-len2"])
    def test_report_matches_the_full_search(self, n, b, dimension, word_len_cap,
                                            jobs, digest):
        report = sweep_max_latest(n, b, dimension, word_len_cap, jobs=jobs)
        text = json.dumps(report.to_json_dict(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestAgreementHarness:
    def test_small_run_is_clean(self):
        report = run_agreement(60, seed=11)
        assert report.instances == 60
        assert report.clean, report.to_json_dict()
        assert report.found_both + report.never_both + report.beyond_horizon == 60

    # The n=4 sweep's worst case: BB first appears on level 13, past the
    # audit's level-10 horizon.
    DEEP_RULES = RuleSet({"A": ("AB",), "B": ("CC",), "C": ("DD",), "D": ("BA",)})

    def test_beyond_horizon_instance(self):
        l1 = Grid.from_text("B")
        got = check_instance(self.DEEP_RULES, l1, "BB", Direction.E, max_level=10)
        assert got["outcome"] == "beyond"
        assert not any(got["issues"].values())
        from fractalsearch.ancestry import first_appearance

        assert first_appearance("BB", Direction.E, l1, self.DEEP_RULES).level == 13
        assert forward_first_appearance("BB", Direction.E, l1, self.DEEP_RULES,
                                        10) is None
        assert forward_first_appearance("BB", Direction.E, l1, self.DEEP_RULES,
                                        13) == 13

    def test_beyond_horizon_level_is_checked_exactly(self, monkeypatch):
        """A deep level is checked to the level itself, not only for
        absence up to the horizon: a forward route one level late past
        the horizon is a mismatch."""
        real = oracle.forward_first_appearance
        monkeypatch.setattr(
            oracle, "forward_first_appearance",
            lambda word, direction, l1, rules, max_level: real(
                word, direction, l1, rules, max_level - 1))
        got = check_instance(self.DEEP_RULES, Grid.from_text("B"), "BB",
                             Direction.E, max_level=10)
        assert got["outcome"] == "beyond"
        assert got["issues"]["mismatch"] == [
            "dim=1 n=4 rules=A>AB;B>CC;C>DD;D>BA l1=B word=BB dir=E: "
            "backward 13, forward None"]

    def test_forward_level_for_a_never_word_is_a_mismatch(self, abc_1d,
                                                          monkeypatch):
        monkeypatch.setattr(oracle, "forward_first_appearance",
                            lambda *args: 1)
        got = check_instance(abc_1d, Grid.from_text("A"), "CC", Direction.E)
        assert got["outcome"] == "never"
        assert got["issues"]["mismatch"] == [
            f"dim=1 n=3 rules={abc_1d.text()} l1=A word=CC dir=E: "
            "backward never, forward 1"]

    @pytest.mark.parametrize("bound, dimension, word, direction, level", [
        ("w1", 1, "CAB", Direction.E, 4),
        ("w2", 2, "BB", Direction.SE, 3),
    ])
    def test_level_over_its_bound_is_a_bound_issue(
            self, abc_1d, abc_2d, monkeypatch, bound, dimension, word,
            direction, level):
        rules = abc_1d if dimension == 1 else abc_2d
        monkeypatch.setattr(oracle.bounds, bound, lambda b, n, length: level - 1)
        got = check_instance(rules, Grid.from_text("A"), word, direction)
        desc = (f"dim={dimension} n=3 rules={rules.text()} l1=A word={word} "
                f"dir={direction.name}")
        assert got["outcome"] == "found"
        assert got["issues"]["bound"] == [
            f"{desc}: level {level} > bound {level - 1}"]
        assert not got["issues"]["mismatch"]

    @staticmethod
    def parents_are(monkeypatch, parent):
        """Every pattern's one parent, and every product's one parent
        product, is ``parent``: the audit checks the shape of each parent
        product and names the too-large parents of each member."""
        layout = "".join("*" if ch == "*" else "x" for ch in parent.cells)
        monkeypatch.setattr(AncestrySearcher, "parent_products",
                            lambda self, product, product_layout: ((parent, layout),))
        monkeypatch.setattr(AncestrySearcher, "parents",
                            lambda self, pattern: ((parent, (0, 0)),))

    def test_oversized_parent_is_a_geometry_issue(self, abc_2d, monkeypatch):
        # AB is in the start grid, so the search stops at depth 0 and the
        # audit walks the target alone.
        self.parents_are(monkeypatch, Pattern(3, 3, "A" * 9))
        got = check_instance(abc_2d, Grid.from_text("AB"), "AB", Direction.E)
        desc = f"dim=2 n=3 rules={abc_2d.text()} l1=AB word=AB dir=E"
        assert got["issues"] == {
            "mismatch": [], "bound": [], "confinement": [],
            "geometry": [f"{desc}: parent AAA/AAA/AAA of AB too large"]}

    @pytest.mark.parametrize("cols, too_large", [(3, True), (2, False)])
    def test_parent_one_column_over_the_bound(self, abc_2d, monkeypatch,
                                              cols, too_large):
        # max_parent_len(2, 2) == 2: a 1 x 3 parent of AB is one column
        # too wide, a 1 x 2 parent is not.
        parent = Pattern(1, cols, "A" * cols)
        self.parents_are(monkeypatch, parent)
        got = check_instance(abc_2d, Grid.from_text("AB"), "AB", Direction.E)
        desc = f"dim=2 n=3 rules={abc_2d.text()} l1=AB word=AB dir=E"
        assert got["issues"]["geometry"] == (
            [f"{desc}: parent {parent.text()} of AB too large"] if too_large else [])

    @pytest.mark.parametrize("ancestor, issues", [
        ("*A/A*", ["ancestor *A/A* off the diagonal band"]),
        ("AA/AA", ["ancestor AA/AA off the diagonal band"]),
    ])
    def test_off_band_ancestor_is_a_confinement_issue(self, abc_2d, monkeypatch,
                                                      ancestor, issues):
        # Every pattern's only parent is the off-band one, so it is the
        # search's one ancestor; it cannot ground in a 1 x 1 start grid.
        self.parents_are(monkeypatch, parse_pattern(ancestor))
        got = check_instance(abc_2d, Grid.from_text("A"), "ABA", Direction.SE)
        desc = f"dim=2 n=3 rules={abc_2d.text()} l1=A word=ABA dir=SE"
        assert got["issues"]["confinement"] == [f"{desc}: {issue}"
                                                for issue in issues]
        assert got["issues"]["geometry"] == []

    @staticmethod
    def dead_ancestors():
        """BBBBB read NE never appears from A/B: the target's 192
        parents are the members of three products, one per offset, none
        of whose members has parents."""
        rules = RuleSet({"A": ("BB", "BB"), "B": ("BB", "AA"), "C": ("BB", "BB")})
        l1 = Grid.from_text("A/B")
        target = word_to_pattern("BBBBB", Direction.NE)
        searcher = AncestrySearcher(rules, l1)
        ancestors = [q for q, _ in searcher.parents(target)]
        assert len(ancestors) == len(set(ancestors)) == 192
        assert all(searcher.parents(q) == () for q in ancestors)
        desc = f"dim=2 n=3 rules={rules.text()} l1=A/B word=BBBBB dir=NE"
        return rules, l1, ancestors, desc

    def test_each_member_of_an_off_band_dead_product_is_an_issue(self, monkeypatch):
        """One line per pattern the search met, in the order met: the
        target, then its parents."""
        rules, l1, ancestors, desc = self.dead_ancestors()
        monkeypatch.setattr(oracle, "two_diagonal_support",
                            lambda pattern, anti=False: False)
        got = check_instance(rules, l1, "BBBBB", Direction.NE)
        target = word_to_pattern("BBBBB", Direction.NE)
        assert got["issues"]["confinement"] == [
            f"{desc}: ancestor {q.text()} off the diagonal band"
            for q in [target, *ancestors]]
        assert got["issues"]["geometry"] == []

    def test_each_member_of_an_oversized_dead_product_is_an_issue(self, monkeypatch):
        rules, l1, ancestors, desc = self.dead_ancestors()
        monkeypatch.setattr(oracle.bounds, "max_parent_len", lambda side, b: 1)
        got = check_instance(rules, l1, "BBBBB", Direction.NE)
        target = word_to_pattern("BBBBB", Direction.NE).text()
        assert got["issues"]["geometry"] == [
            f"{desc}: parent {q.text()} of {target} too large" for q in ancestors]
        assert got["issues"]["confinement"] == []

    @pytest.mark.parametrize("instances", [0, -1])
    def test_an_empty_audit_is_refused(self, instances):
        with pytest.raises(ValueError):
            run_agreement(instances)

    def test_block_cell_cap_is_checked_before_any_draw(self, monkeypatch):
        """b = 2 makes 2 x 2 blocks of 4 cells, within a cap of 4; b = 3
        is refused before any instance is drawn."""
        monkeypatch.setattr(oracle, "BLOCK_CELL_CAP", 4)
        assert run_agreement(3, b=2).instances == 3

        def fail(*args):
            raise AssertionError("drew an instance before the block cell cap check")

        monkeypatch.setattr(oracle, "random_instance", fail)
        with pytest.raises(ResourceLimitError,
                           match="^3 x 3 blocks exceed the block cell cap 4$"):
            run_agreement(3, b=3)

    def test_the_largest_admitted_block_side_runs(self):
        """b = 100 is the largest side whose 2D block keeps to the cap."""
        assert oracle.BLOCK_CELL_CAP == 100 * 100
        assert run_agreement(1, b=100).instances == 1
        with pytest.raises(ResourceLimitError):
            run_agreement(1, b=101)

    def test_clean_on_the_puzzle_rules(self, puzzle_path, monkeypatch):
        """The random audit draws at most AUDIT_MAX_N letters; these
        instances use the shipped puzzle's 26 letters, whose parent
        products of many members the search walks and the audit checks
        whole."""
        from fractalsearch.puzzle import load_puzzle

        rules = load_puzzle(puzzle_path).rules
        settled = []
        real = AncestrySearcher.parent_products

        def counted(self, product, layout):
            got = real(self, product, layout)
            settled.extend(q for q, _ in got if not isinstance(q.cells, str))
            return got

        monkeypatch.setattr(AncestrySearcher, "parent_products", counted)
        rng = seeded_rng(11)
        outcomes = Counter()
        for _ in range(150):
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            l1 = Grid(rows, cols, "".join(rng.choice(rules.letters)
                                          for _ in range(rows * cols)), 1)
            word = "".join(rng.choice(rules.letters)
                           for _ in range(rng.randint(1, 3)))
            got = check_instance(rules, l1, word, rng.choice(tuple(Direction)),
                                 max_level=20)
            assert not any(got["issues"].values()), got["issues"]
            outcomes[got["outcome"]] += 1
        assert outcomes["found"] and outcomes["never"], outcomes
        assert settled

    @pytest.mark.parametrize("b", [2, 3])
    def test_clean_under_1d_rules_on_multi_row_grids(self, b):
        """random_instance draws 1D rules only with one-row start grids read
        E or W.  Here the start grids have several rows and the words any
        direction: a parent keeps its child's rows, and a diagonal's
        parents drift along the rows, off any two-diagonal band."""
        rng = seeded_rng(25)
        outcomes = Counter()
        for _ in range(1000):
            letters = "ABC"[:rng.randint(1, 3)]
            rules = RuleSet({ch: ("".join(rng.choice(letters) for _ in range(b)),)
                             for ch in letters})
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            l1 = Grid(rows, cols, "".join(rng.choice(letters)
                                          for _ in range(rows * cols)), 1)
            word = "".join(rng.choice(letters) for _ in range(rng.randint(1, 4)))
            got = check_instance(rules, l1, word, rng.choice(tuple(Direction)),
                                 max_level=8)
            assert not any(got["issues"].values()), got["issues"]
            outcomes[got["outcome"]] += 1
        assert outcomes["found"] and outcomes["never"], outcomes

    def test_clean_at_b_3(self):
        """Rules of 1 x 3 and 3 x 3 blocks."""
        rng = seeded_rng(4)
        assert {random_instance(rng, 3)[0].b for _ in range(20)} == {3}
        report = run_agreement(400, seed=4, b=3)
        assert report.clean, report.to_json_dict()
        assert report.found_both and report.never_both

    def test_deterministic_for_a_seed(self):
        assert run_agreement(25, seed=3) == run_agreement(25, seed=3)

    def test_single_instance_audit_shape(self):
        rng = seeded_rng(5)
        rules, l1, word, direction = random_instance(rng)
        got = check_instance(rules, l1, word, direction)
        assert got["outcome"] in {"found", "never", "beyond"}
        assert set(got["issues"]) == {"mismatch", "bound", "geometry", "confinement"}
