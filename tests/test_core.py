from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalsearch import core
from fractalsearch.ancestry import AncestrySearcher
from fractalsearch.core import (
    CellAddress,
    Grid,
    RuleSet,
    contract,
    descendant_block_range,
    expand,
    letter_at,
    letters_at,
    level_shape,
    path_to_address,
)
from fractalsearch.errors import (
    AddressRangeError,
    AmbiguousRulesError,
    ContractionError,
    PuzzleFormatError,
    ResourceLimitError,
    UnknownLetterError,
)
from fractalsearch.oracle import (
    _ruleset_by_index,
    _sweep_blocks,
    forward_first_appearance,
    latest_with_searcher,
)
from fractalsearch.patterns import Direction
from fractalsearch.puzzle import load_puzzle
from tests.conftest import grids_for, rule_sets


def address_to_path(addr: CellAddress, rules: RuleSet):
    """Reference digit walk: the address's level-1 ancestor cell and its
    per-level sub-cell digits, most significant first."""
    rh, b = rules.rule_rows, rules.b
    r, c = addr.row - 1, addr.col - 1
    rdigits: list[int] = []
    cdigits: list[int] = []
    for _ in range(addr.level - 1):
        r, dr = divmod(r, rh)
        c, dc = divmod(c, b)
        rdigits.append(dr)
        cdigits.append(dc)
    return (r + 1, c + 1), tuple(zip(reversed(rdigits), reversed(cdigits)))


def walked_letter(l1: Grid, rules: RuleSet, addr: CellAddress) -> str:
    """Letter at ``addr`` by the reference digit walk, one address alone."""
    (r1, c1), path = address_to_path(addr, rules)
    ch = l1.letter(r1, c1)
    for dr, dc in path:
        ch = rules.rules[ch][dr][dc]
    return ch


class TestTypes:
    def test_ruleset_rejects_reserved_symbols(self):
        for bad in ("*", "/", "#", " ", "="):
            with pytest.raises(UnknownLetterError):
                RuleSet({"A": ("AA",), bad: ("AA",)})

    def test_ruleset_allows_digits(self):
        assert RuleSet({"0": ("01",), "1": ("10",)}).n == 2

    def test_ruleset_needs_a_letter(self):
        with pytest.raises(UnknownLetterError):
            RuleSet({})

    def test_ruleset_requires_total_map(self):
        with pytest.raises(UnknownLetterError):
            RuleSet({"A": ("AB",)})

    def test_ruleset_rejects_bad_shape(self):
        for rules in ({"A": ("A",)}, {"A": ("A", "A")}, {"A": ("AA", "AA", "AA")},
                      {"A": ("AA",), "B": ("AB", "BA")},
                      {"A": ("AA",), "B": ("ABA",)}, {"A": ("AB", "A")}):
            with pytest.raises(ValueError):
                RuleSet(rules)

    @pytest.mark.parametrize("rules, shape", [
        ({"A": ("AB",), "B": ("BA",)}, (1, 2, 1)),
        ({"A": ("ABA",), "B": ("BAB",)}, (1, 3, 1)),
        ({"A": ("AB", "BA"), "B": ("BA", "AB")}, (2, 2, 2)),
        ({"A": ("AAA", "AAA", "AAA")}, (3, 3, 2)),
    ])
    def test_ruleset_reads_the_shape_off_the_blocks(self, rules, shape):
        got = RuleSet(rules)
        assert (got.rule_rows, got.b, got.dimension) == shape
        assert got.letters == tuple(rules) and got.n == len(rules)

    def test_ruleset_equality_compares_the_rules(self):
        swap = RuleSet({"A": ("AB",), "B": ("BA",)})
        same = RuleSet({"A": ("AA",), "B": ("BB",)})
        assert swap != same
        assert len({swap, same}) == 2

    def test_equal_rulesets_hash_equal(self):
        first = RuleSet({"A": ("AB",), "B": ("BA",)})
        second = RuleSet({"A": ("AB",), "B": ("BA",)})
        assert first == second
        assert hash(first) == hash(second)

    def test_letter_order_is_part_of_the_rule_set(self):
        first = RuleSet({"A": ("AB",), "B": ("BA",)})
        second = RuleSet({"B": ("BA",), "A": ("AB",)})
        assert first.letters == ("A", "B") and second.letters == ("B", "A")
        assert first != second
        assert first.text() != second.text()

    def test_value_types_are_slotted_and_still_pickle_compare_and_hash(self):
        rules = RuleSet({"A": ("AB", "BA"), "B": ("BA", "AB")})
        grid = Grid.from_text("AB/BA")
        for value in (rules, grid):
            assert not hasattr(value, "__dict__")
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                back = pickle.loads(pickle.dumps(value, protocol))
                assert back == value and hash(back) == hash(value)
                assert back is not value
        back = pickle.loads(pickle.dumps(rules))
        assert (back.letters, back.rule_rows, back.b, back.dimension, back.n) == (
            ("A", "B"), 2, 2, 2, 2)
        assert grid != Grid.from_text("AB/BA", level=2)
        assert len({grid, Grid.from_text("AB/BA"), Grid.from_text("BA/AB")}) == 2

    def test_grid_shape_must_match_cells(self):
        with pytest.raises(ValueError):
            Grid(2, 2, "ABC")

    def test_grid_letter_is_one_indexed(self):
        g = Grid.from_text("AB/CD")
        assert g.letter(1, 1) == "A"
        assert g.letter(2, 1) == "C"
        with pytest.raises(AddressRangeError):
            g.letter(0, 1)

    def test_cell_address_must_be_positive(self):
        with pytest.raises(AddressRangeError):
            CellAddress(1, 0, 1)


def _load_puzzle_listing_axe(rules, tmp_path):
    path = tmp_path / "demo.puzzle"
    path.write_text("[alphabet]\nA = AB\nB = AC\nC = BB\n[grid]\nAB\n"
                    "[words]\nAB\nAXE\n")
    load_puzzle(str(path))


class TestCheckLetters:
    @pytest.mark.parametrize("call, error, message", [
        (lambda rules, _: expand(Grid.from_text("AYX"), rules),
         UnknownLetterError, "grid uses letters outside the alphabet: ['X', 'Y']"),
        (lambda rules, _: contract(Grid(1, 4, "AYXB", 2), rules),
         UnknownLetterError, "grid uses letters outside the alphabet: ['X', 'Y']"),
        (lambda rules, _: letter_at(Grid.from_text("AYX"), rules,
                                    CellAddress(1, 1, 1)),
         UnknownLetterError, "grid uses letters outside the alphabet: ['X', 'Y']"),
        (lambda rules, _: AncestrySearcher(rules, Grid.from_text("AYX")),
         UnknownLetterError,
         "start grid uses letters outside the alphabet: ['X', 'Y']"),
        (lambda rules, _: forward_first_appearance(
            "AYX", Direction.E, Grid.from_text("A"), rules, 3),
         UnknownLetterError, "word uses letters outside the alphabet: ['X', 'Y']"),
        (lambda rules, _: latest_with_searcher(AncestrySearcher(rules), "AYX",
                                               Direction.E),
         UnknownLetterError, "word uses letters outside the alphabet: ['X', 'Y']"),
        (_load_puzzle_listing_axe, PuzzleFormatError,
         "line 9: word 'AXE' uses letters outside the alphabet: ['E', 'X']"),
    ], ids=["expand", "contract", "letter_at", "searcher", "forward", "latest",
            "load_puzzle"])
    def test_message_names_the_input_and_the_letters(self, abc_1d, tmp_path,
                                                     call, error, message):
        with pytest.raises(error) as err:
            call(abc_1d, tmp_path)
        assert str(err.value) == message


class TestExpand:
    def test_three_steps_from_a(self, abc_1d):
        assert expand(Grid.from_text("A"), abc_1d, 3).cells == "ABACABBB"

    def test_zero_steps_is_identity(self, abc_1d):
        g = Grid.from_text("ABAC", level=3)
        assert expand(g, abc_1d, 0) == g

    def test_two_steps_2d(self, abc_2d):
        got = expand(Grid.from_text("A"), abc_2d, 2)
        assert got.lines() == ("ABAC", "CBBB", "BBAC", "CCBB")
        assert got.level == 3

    def test_rejects_unknown_letters(self, abc_1d):
        with pytest.raises(UnknownLetterError):
            expand(Grid.from_text("AXB"), abc_1d, 1)

    def test_cell_cap_is_checked_up_front(self, abc_2d, monkeypatch):
        monkeypatch.setattr(core, "EXPAND_CELL_CAP", 64)
        assert expand(Grid.from_text("A"), abc_2d, 3).rows == 8
        with pytest.raises(ResourceLimitError):
            expand(Grid.from_text("AB"), abc_2d, 3)

    def test_sides_multiply_per_step(self, abc_2d):
        g = Grid.from_text("AB/CA")
        out = expand(g, abc_2d, 3)
        assert (out.rows, out.cols) == (2 * 8, 2 * 8)


class TestContract:
    def test_inverts_expand(self, abc_1d):
        assert contract(expand(Grid.from_text("A"), abc_1d, 3), abc_1d).cells == "ABAC"

    def test_reports_first_bad_block(self, abc_1d):
        # CC is no rule's image; first bad block is the second one.
        grid = Grid(1, 4, "ABCC", level=2)
        with pytest.raises(ContractionError) as err:
            contract(grid, abc_1d)
        assert (err.value.block_row, err.value.block_col) == (1, 2)

    def test_rejects_indivisible_grid(self, abc_1d):
        with pytest.raises(ContractionError):
            contract(Grid(1, 3, "ABA", level=2), abc_1d)

    def test_rejects_duplicate_rules(self):
        rules = RuleSet({"A": ("AB",), "B": ("AB",)})
        with pytest.raises(AmbiguousRulesError) as err:
            contract(Grid(1, 2, "AB", level=2), rules)
        assert ("A", "B") in err.value.collisions

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_round_trip_on_random_grids(self, data):
        rules = data.draw(rule_sets())
        grid = data.draw(grids_for(rules))
        if rules.duplicate_blocks():
            with pytest.raises(AmbiguousRulesError):
                contract(expand(grid, rules, 1), rules)
        else:
            assert contract(expand(grid, rules, 1), rules) == grid

    def test_round_trip_needs_unique_blocks(self, abc_1d):
        grid = Grid.from_text("BACA")
        assert contract(expand(grid, abc_1d, 1), abc_1d) == grid


class TestLetterAt:
    def test_example_string_column(self, abc_1d):
        g = Grid.from_text("A")
        assert letter_at(g, abc_1d, CellAddress(4, 1, 5)) == "A"
        word = "".join(letter_at(g, abc_1d, CellAddress(4, 1, c))
                       for c in range(1, 9))
        assert word == "ABACABBB"

    def test_level_one_is_identity(self, abc_2d):
        g = Grid.from_text("AB/CA")
        for r in range(1, 3):
            for c in range(1, 3):
                assert letter_at(g, abc_2d, CellAddress(1, r, c)) == g.letter(r, c)

    def test_out_of_range_address(self, abc_1d):
        g = Grid.from_text("A")
        with pytest.raises(AddressRangeError):
            letter_at(g, abc_1d, CellAddress(3, 1, 5))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_agrees_with_expansion(self, data):
        """Cell-by-cell coherence with the materializing route, levels <= 8."""
        rules = data.draw(rule_sets(max_n=4, bs=(2, 3)))
        l1 = data.draw(grids_for(rules, max_side=2))
        level = data.draw(st.integers(1, 8 if rules.b == 2 else 5))
        full = expand(l1, rules, level - 1)
        rows, cols = full.rows, full.cols
        r = data.draw(st.integers(1, rows))
        c = data.draw(st.integers(1, cols))
        assert letter_at(l1, rules, CellAddress(level, r, c)) == full.letter(r, c)


class TestLettersAt:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_batch_equals_the_digit_walk(self, data):
        """Up to level 200, a batch of cells, with repeats and each
        drawn cell's right and lower neighbours, reads what the
        reference digit walk reads for each address alone."""
        rules = data.draw(rule_sets(bs=(2, 3)))
        l1 = data.draw(grids_for(rules, max_side=3))
        level = data.draw(st.integers(1, 200))
        rows = l1.rows * rules.rule_rows ** (level - 1)
        cols = l1.cols * rules.b ** (level - 1)
        cells = data.draw(st.lists(
            st.tuples(st.integers(1, rows), st.integers(1, cols)),
            min_size=1, max_size=6))
        addrs = []
        for r, c in cells:
            addrs += [CellAddress(level, *cell) for cell in
                      ((r, c), (r, min(c + 1, cols)), (min(r + 1, rows), c))]
        addrs += data.draw(st.lists(st.sampled_from(addrs), max_size=4))
        assert letters_at(l1, rules, addrs) == "".join(
            walked_letter(l1, rules, a) for a in addrs)

    def test_mixed_levels_in_one_batch(self, abc_2d):
        l1 = Grid.from_text("AB/CA")
        addrs = [CellAddress(level, r, c) for level in (4, 1, 3, 4, 2)
                 for r, c in ((1, 1), (2, 2), (2, 1))]
        assert letters_at(l1, abc_2d, addrs) == "".join(
            walked_letter(l1, abc_2d, a) for a in addrs)

    def test_out_of_range_in_mid_batch(self, abc_1d):
        g = Grid.from_text("AB")
        ok = [CellAddress(3, 1, 8), CellAddress(3, 1, 7)]
        assert letters_at(g, abc_1d, ok) == "BB"
        with pytest.raises(AddressRangeError, match=r"\(1, 9\) outside level-3 "
                           r"grid of 1 x 8"):
            letters_at(g, abc_1d, [ok[0], CellAddress(3, 1, 9), ok[1]])

    def test_empty_batch_still_checks_the_start_grid(self, abc_1d):
        assert letters_at(Grid.from_text("AB"), abc_1d, []) == ""
        with pytest.raises(UnknownLetterError):
            letters_at(Grid.from_text("AZ"), abc_1d, [])


@pytest.mark.parametrize("use", [
    lambda l1, rules: AncestrySearcher(rules, l1),
    lambda l1, rules: letter_at(l1, rules, CellAddress(2, 1, 1)),
    lambda l1, rules: forward_first_appearance("A", Direction.E, l1, rules, 2),
], ids=["searcher", "letter_at", "forward_first_appearance"])
def test_start_grid_must_be_tagged_level_one(abc_1d, use):
    with pytest.raises(ValueError, match="start grid must be tagged level 1"):
        use(Grid.from_text("AB", level=2), abc_1d)


class TestAddressing:
    def test_block_range_small(self, abc_2d):
        assert descendant_block_range((1, 1), 2, abc_2d) == ((1, 2), (1, 2))
        assert descendant_block_range((2, 3), 3, abc_2d) == ((5, 8), (9, 12))

    def test_block_range_deep(self, abc_2d):
        (rlo, rhi), (clo, chi) = descendant_block_range((9, 12), 167, abc_2d)
        assert rlo == 8 * 2 ** 166 + 1 and rhi == 9 * 2 ** 166
        assert clo == 11 * 2 ** 166 + 1 and chi == 12 * 2 ** 166

    def test_block_range_1d_keeps_height(self, abc_1d):
        assert descendant_block_range((1, 2), 3, abc_1d) == ((1, 1), (5, 8))

    def test_level_shape(self, abc_2d):
        g = Grid.from_rows(["ABC", "ABC"])
        assert level_shape(g, abc_2d, 4) == (16, 24)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_digit_path_round_trip(self, data):
        rules = data.draw(rule_sets())
        level = data.draw(st.integers(1, 200))
        max_r = 3 * rules.rule_rows ** (level - 1)
        max_c = 3 * rules.b ** (level - 1)
        addr = CellAddress(level,
                           data.draw(st.integers(1, max_r)),
                           data.draw(st.integers(1, max_c)))
        cell, path = address_to_path(addr, rules)
        assert len(path) == level - 1
        assert path_to_address(cell, path, rules) == addr

    def test_addresses_never_pushed_through_floats(self, abc_2d):
        # A level-200 column index with full integer precision survives
        # the round trip bit-for-bit.
        addr = CellAddress(200, 7 * 2 ** 199 + 12345, 11 * 2 ** 199 + 54321)
        cell, path = address_to_path(addr, abc_2d)
        assert path_to_address(cell, path, abc_2d) == addr


class TestThueMorse:
    def test_levels_are_prefixes_with_doubling_length(self):
        rules = RuleSet({"0": ("01",), "1": ("10",)})
        level = Grid.from_text("0")
        seen = ["0"]
        for _ in range(8):
            level = expand(level, rules, 1)
            seen.append(level.cells)
        for k, cells in enumerate(seen, start=1):
            assert len(cells) == 2 ** (k - 1)
        for earlier, later in zip(seen, seen[1:]):
            assert later.startswith(earlier)
        assert seen[3] == "01101001"


def test_all_rule_sets_enumeration_count():
    letters = ("A", "B")
    blocks = _sweep_blocks(letters, 2, 1)
    texts = [_ruleset_by_index(i, letters, blocks).text()
             for i in range(len(blocks) ** len(letters))]
    assert len(set(texts)) == 2 ** 4
    assert texts == sorted(texts)
