from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalsearch import oracle
from fractalsearch.bounds import w1
from fractalsearch.core import Alphabet, Grid, RuleSet, expand
from fractalsearch.errors import (
    ResourceLimitError,
    UnknownLetterError,
    WitnessError,
)
from fractalsearch.oracle import (
    check_instance,
    forward_first_appearance,
    latest_first_appearance,
    materialize,
    random_instance,
    run_agreement,
    sweep_max_latest,
)
from fractalsearch.patterns import Direction
from tests.conftest import grids_for, rule_sets, seeded_rng


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

    def test_rejects_foreign_letters(self, abc_1d):
        with pytest.raises(UnknownLetterError):
            forward_first_appearance("AX", Direction.E, Grid.from_text("A"),
                                     abc_1d, 3)

    def test_cell_cap_guards_materialization(self, abc_2d, monkeypatch):
        monkeypatch.setattr(oracle, "CELL_CAP", 10 ** 4)
        with pytest.raises(ResourceLimitError):
            forward_first_appearance("AA", Direction.SE, Grid.from_text("A"),
                                     abc_2d, 30)

    def test_cap_not_hit_when_found_early(self, abc_2d, monkeypatch):
        monkeypatch.setattr(oracle, "CELL_CAP", 10 ** 4)
        got = forward_first_appearance("BB", Direction.SE, Grid.from_text("A"),
                                       abc_2d, 30)
        assert got == 3


class TestMaterialize:
    def test_matches_string_expansion(self, abc_1d):
        assert materialize(Grid.from_text("A"), abc_1d, 4).cells == "ABACABBB"

    def test_level_one_is_the_start_grid(self, abc_2d):
        l1 = Grid.from_text("AB/CA")
        assert materialize(l1, abc_2d, 1) == l1

    def test_refuses_a_level_over_the_cap(self, abc_2d, monkeypatch):
        monkeypatch.setattr(oracle, "CELL_CAP", 10 ** 4)
        # level 7 of a 1 x 1 start grid has 4**6 = 4096 cells, level 8 16384
        assert materialize(Grid.from_text("A"), abc_2d, 7).rows == 64
        with pytest.raises(ResourceLimitError):
            materialize(Grid.from_text("A"), abc_2d, 8)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_agrees_with_core_expand(self, data):
        """The vectorized expansion and the string expansion are
        independent implementations; they must coincide."""
        rules = data.draw(rule_sets(bs=(2, 3)))
        grid = data.draw(grids_for(rules, max_side=3))
        level = data.draw(st.integers(1, 5))
        assert materialize(grid, rules, level) == expand(grid, rules, level - 1)


class TestLatestFirstAppearance:
    def test_single_letter_worst_case(self, abc_1d):
        assert latest_first_appearance("A", Direction.E, abc_1d) == 3

    def test_parentless_word_is_level_one_only(self, abc_1d):
        assert latest_first_appearance("CC", Direction.E, abc_1d) == 1

    def test_single_letter_alphabet(self):
        rules = RuleSet(Alphabet.from_string("A"), 1, 2, {"A": ("AA",)})
        assert latest_first_appearance("A", Direction.E, rules) == 1
        # A pair cannot sit inside a one-cell start grid, so the
        # adversarial setup delays it to level 2 (= the pair bound n*n+1).
        assert latest_first_appearance("AA", Direction.E, rules) == 2

    def test_respects_straight_bound(self, abc_1d):
        for word in ("A", "B", "AB", "CA", "CAB"):
            got = latest_first_appearance(word, Direction.E, abc_1d)
            assert got <= w1(abc_1d.b, abc_1d.n, len(word))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_witnessed_by_forward_search(self, data):
        """The claimed worst-case start grid really has that first level."""
        from fractalsearch.oracle import latest_with_searcher
        from fractalsearch.ancestry import AncestrySearcher

        rules = data.draw(rule_sets(dims=(1,), max_n=3))
        word = data.draw(st.text(alphabet=rules.alphabet.letters,
                                 min_size=1, max_size=2))
        got = latest_with_searcher(AncestrySearcher(rules), word, Direction.E)
        assert got.level is not None
        assert forward_first_appearance(word, Direction.E, got.l1, rules,
                                        got.level) == got.level


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

    def test_per_length_maxima_are_reported(self):
        report = sweep_max_latest(2, 2, 1, 2)
        assert set(report.per_length_max) == {1, 2}
        assert report.per_length_max[1] == 2   # one-letter bound n

    def test_sweep_maxima_respect_closed_form_bounds(self):
        for n in (2, 3):
            report = sweep_max_latest(n, 2, 1, 2)
            for length, level in report.per_length_max.items():
                assert level <= w1(2, n, length)

    @pytest.mark.parametrize("n, word_len_cap", [(0, 2), (2, 0)],
                             ids=["n", "word-len-cap"])
    def test_rejects_an_empty_sweep(self, n, word_len_cap):
        with pytest.raises(ValueError):
            sweep_max_latest(n, 2, 1, word_len_cap)

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

    def test_json_dict_is_serializable(self):
        import json

        report = sweep_max_latest(2, 2, 1, 2)
        data = json.loads(json.dumps(report.to_json_dict()))
        assert data["global_max"] == 4


class TestAgreementHarness:
    def test_small_run_is_clean(self):
        report = run_agreement(60, seed=11)
        assert report.instances == 60
        assert report.clean, report.to_json_dict()
        assert report.found_both + report.never_both + report.beyond_horizon == 60

    def test_beyond_horizon_instance(self):
        # The n=4 sweep's worst case first appears on level 13, past the
        # level-10 materialization horizon: the backward route must still
        # resolve it and the forward route must come up empty.
        rules = RuleSet(
            Alphabet.from_string("ABCD"), 1, 2,
            {"A": ("AB",), "B": ("CC",), "C": ("DD",), "D": ("BA",)})
        l1 = Grid.from_text("B")
        got = check_instance(rules, l1, "BB", Direction.E, max_level=10)
        assert got["outcome"] == "beyond"
        assert not any(got["issues"].values())
        from fractalsearch.ancestry import first_appearance

        assert first_appearance("BB", Direction.E, l1, rules).level == 13
        assert forward_first_appearance("BB", Direction.E, l1, rules, 10) is None

    def test_deterministic_for_a_seed(self):
        assert run_agreement(25, seed=3) == run_agreement(25, seed=3)

    def test_single_instance_audit_shape(self):
        rng = seeded_rng(5)
        rules, l1, word, direction = random_instance(rng)
        got = check_instance(rules, l1, word, direction)
        assert got["outcome"] in {"found", "never", "beyond"}
        assert set(got["issues"]) == {"mismatch", "bound", "geometry", "confinement"}
