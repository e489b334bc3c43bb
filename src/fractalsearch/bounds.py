"""Closed-form upper bounds on first-appearance levels.

These are the worst-case guarantees used as search cross-checks and
diagnostics: a word of length L over an n-letter alphabet with block
side b can first appear no later than ``w1(b, n, L)`` when read in a
straight line (any 1D word, or a horizontal/vertical word in 2D), and no
later than ``w2(b, n, L)`` when read diagonally in 2D.

All arithmetic is exact integer arithmetic.  Floating-point logarithms
are deliberately not used anywhere: an off-by-one in the ceiling of
log_b silently corrupts a bound.
"""

from __future__ import annotations


def ceil_log(base: int, x: int) -> int:
    """Smallest e >= 0 with base**e >= x, computed exactly."""
    if base < 2:
        raise ValueError("base must be >= 2")
    if x < 1:
        raise ValueError("x must be >= 1")
    e, p = 0, 1
    while p < x:
        p *= base
        e += 1
    return e


def _check(b: int, n: int, length: int) -> None:
    if b < 2:
        raise ValueError("block side b must be >= 2")
    if n < 1:
        raise ValueError("alphabet size n must be >= 1")
    if length < 1:
        raise ValueError("word length must be >= 1")


def w1(b: int, n: int, length: int) -> int:
    """Latest possible first appearance of a straight-line word.

    n for single letters, otherwise ceil(log_b(b*length - b)) + n**2.
    For length 2 this is always n**2 + 1, whatever b.
    """
    _check(b, n, length)
    if length == 1:
        return n
    return ceil_log(b, b * length - b) + n * n


def w2(b: int, n: int, length: int) -> int:
    """Latest possible first appearance of a diagonal word in 2D.

    A diagonal pair can descend from straight pairs, and longer diagonal
    words funnel through 3-letter corners of 2 x 2 boxes, hence the
    n**2 and n**3 terms.  For length 2 the conservative value 2*n**2 + 1
    (a full diagonal phase followed by a full straight phase) is used.
    """
    _check(b, n, length)
    if length == 1:
        return n
    if length == 2:
        return 2 * n * n + 1
    return ceil_log(b, b * length - b) + n * n + n ** 3


def max_parent_len(length: int, b: int) -> int:
    """Upper bound on a parent's side given the child's side:
    ceil((length + b - 1) / b)."""
    if length < 1:
        raise ValueError("length must be >= 1")
    if b < 2:
        raise ValueError("block side b must be >= 2")
    return (length + b - 1 + b - 1) // b

