from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fractalsearch.bounds import ceil_log, max_parent_len, w1, w2

BS = st.integers(2, 5)
NS = st.integers(1, 30)
LENS = st.integers(1, 200)


class TestCeilLog:
    @given(base=BS, x=st.integers(1, 10 ** 9))
    def test_definition(self, base, x):
        e = ceil_log(base, x)
        assert base ** e >= x
        assert e == 0 or base ** (e - 1) < x

    def test_exact_at_powers(self):
        for k in range(20):
            assert ceil_log(2, 2 ** k) == k
            assert ceil_log(2, 2 ** k + 1) == k + 1

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            ceil_log(1, 4)
        with pytest.raises(ValueError):
            ceil_log(2, 0)


class TestW1:
    def test_pair_over_three_letters(self):
        assert w1(2, 3, 2) == 10

    def test_six_letter_word(self):
        assert w1(2, 3, 6) == 13

    @given(b=BS, n=NS)
    def test_single_letter_is_alphabet_size(self, b, n):
        assert w1(b, n, 1) == n

    @given(b=BS, n=NS)
    def test_pair_value_independent_of_b(self, b, n):
        assert w1(b, n, 2) == n * n + 1

    @given(b=BS, n=NS, c=st.integers(0, 12))
    def test_power_step_recurrence(self, b, n, c):
        assert w1(b, n, b ** c + 1) + 1 == w1(b, n, b ** (c + 1) + 1)

    @given(b=BS, n=NS, length=st.integers(1, 199))
    def test_monotone_in_length(self, b, n, length):
        assert w1(b, n, length) <= w1(b, n, length + 1)

    @given(b=BS, n=st.integers(1, 29), length=LENS)
    def test_monotone_in_n(self, b, n, length):
        assert w1(b, n, length) <= w1(b, n + 1, length)


class TestW2:
    def test_pair_over_three_letters(self):
        assert w2(2, 3, 2) == 19

    @given(b=BS, n=NS)
    def test_single_letter_is_alphabet_size(self, b, n):
        assert w2(b, n, 1) == n

    def test_five_letter_word(self):
        assert w2(2, 3, 5) == 3 + 9 + 27

    @given(b=BS, n=NS, length=st.integers(1, 199))
    def test_monotone_in_length(self, b, n, length):
        assert w2(b, n, length) <= w2(b, n, length + 1)

    @given(b=BS, n=st.integers(1, 29), length=LENS)
    def test_monotone_in_n(self, b, n, length):
        assert w2(b, n, length) <= w2(b, n + 1, length)

    @given(b=BS, n=NS, length=LENS)
    def test_dominates_straight_bound(self, b, n, length):
        assert w2(b, n, length) >= w1(b, n, length)


class TestMaxParentLen:
    def test_examples(self):
        assert max_parent_len(4, 2) == 3
        assert max_parent_len(1, 7) == 1
        assert max_parent_len(2, 2) == 2

    @given(length=LENS, b=BS)
    def test_never_grows(self, length, b):
        assert max_parent_len(length, b) <= length

    @given(length=st.integers(2, 200), b=BS)
    def test_strictly_shrinks_above_two(self, length, b):
        if length > 2:
            assert max_parent_len(length, b) < length


@pytest.mark.parametrize("call, message", [
    (lambda: w1(1, 3, 2), "block side b must be >= 2"),
    (lambda: w1(2, 0, 2), "alphabet size n must be >= 1"),
    (lambda: w1(2, 3, 0), "word length must be >= 1"),
    (lambda: w2(1, 3, 2), "block side b must be >= 2"),
    (lambda: w2(2, 0, 2), "alphabet size n must be >= 1"),
    (lambda: w2(2, 3, 0), "word length must be >= 1"),
    (lambda: max_parent_len(0, 2), "length must be >= 1"),
    (lambda: max_parent_len(3, 1), "block side b must be >= 2"),
], ids=["w1-b", "w1-n", "w1-len", "w2-b", "w2-n", "w2-len", "parent-len",
        "parent-b"])
def test_rejects_arguments_below_their_minimum(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestBaseBounds:
    """The base shapes' bounds, whatever the block side: a single letter
    n, a straight pair n**2 + 1 and a diagonal pair 2*n**2 + 1."""

    @staticmethod
    def base(b, n):
        return w1(b, n, 1), w1(b, n, 2), w2(b, n, 2)

    def test_three_letters(self):
        assert self.base(2, 3) == (3, 10, 19)

    def test_single_letter_alphabet(self):
        assert self.base(2, 1) == (1, 2, 3)

    def test_puzzle_alphabet(self):
        assert self.base(2, 26) == (26, 677, 1353)

    @given(n=NS, b=BS)
    def test_agrees_with_w_functions(self, n, b):
        assert self.base(b, n) == (n, n * n + 1, 2 * n * n + 1)
        assert w2(b, n, 1) == n
