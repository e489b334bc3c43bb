"""Exception types shared across the package.

The CLI maps these onto exit codes: resource-limit errors exit 2,
every other domain error exits 1.
"""

from __future__ import annotations


class FractalSearchError(Exception):
    """Base class for all domain errors raised by this package."""


class UnknownLetterError(FractalSearchError):
    """A grid, word, or rule uses a symbol outside the alphabet."""


class AddressRangeError(FractalSearchError):
    """A cell address lies outside the grid of its level."""


class ContractionError(FractalSearchError):
    """A block of the grid matches no replacement rule.

    Carries the 1-indexed block coordinates of the first offending block.
    """

    def __init__(self, message: str, block_row: int = 0, block_col: int = 0):
        super().__init__(message)
        self.block_row = block_row
        self.block_col = block_col


class AmbiguousRulesError(FractalSearchError):
    """Two letters share an identical replacement block, so contraction
    has no unique inverse.  Carries the colliding letter groups."""

    def __init__(self, message: str, collisions: tuple[tuple[str, ...], ...] = ()):
        super().__init__(message)
        self.collisions = collisions


class ResourceLimitError(FractalSearchError):
    """A resource guard was exceeded: ``PRODUCT_CAP``, ``CLOSURE_CAP``,
    ``WINDOW_CAP``, ``FILL_CAP``, ``SWEEP_RULESET_CAP``,
    ``SWEEP_CASE_CAP``, ``EXPAND_CELL_CAP`` or ``BOUNDS_LEN_CAP``."""


class UnresolvedSearchError(FractalSearchError):
    """A depth-capped search ran out of budget with a non-empty frontier.

    Distinct from a never-appears result: the question is left open.
    """

    def __init__(self, message: str, depth: int = 0, nodes_expanded: int = 0,
                 patterns_seen: int = 0):
        super().__init__(message)
        self.depth = depth
        self.nodes_expanded = nodes_expanded
        self.patterns_seen = patterns_seen


class WitnessError(FractalSearchError):
    """Internal inconsistency: a reconstructed witness cell disagrees with
    the coordinate oracle.  Indicates a bug, never bad user input."""


class PuzzleFormatError(FractalSearchError):
    """Malformed rules/grid/puzzle file.  Carries a 1-indexed line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class SolveError(FractalSearchError):
    """A puzzle word cannot appear on any level for the given start grid."""
