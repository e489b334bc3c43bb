"""Fractal word search: earliest-appearance search over letter
substitution grids without materializing exponentially large levels."""

from .ancestry import (
    AncestrySearcher,
    SearchResult,
    SearchStats,
    TreeNode,
    ancestor_tree,
    enumerate_parents,
    first_appearance,
    tree_to_dot,
    tree_to_json,
    witness_coordinates,
)
from .bounds import BaseBounds, base_bounds, ceil_log, max_parent_len, w1, w2
from .core import (
    Alphabet,
    CellAddress,
    Grid,
    RuleSet,
    address_to_path,
    contract,
    descendant_block_range,
    expand,
    letter_at,
    level_shape,
    path_to_address,
)
from .errors import (
    AddressRangeError,
    AmbiguousRulesError,
    ContractionError,
    FractalSearchError,
    PuzzleFormatError,
    ResourceLimitError,
    SolveError,
    UnknownLetterError,
    UnresolvedSearchError,
    WitnessError,
)
from .files import grid_argument, load_grid, load_rules
from .oracle import (
    AgreementReport,
    LatestResult,
    SweepReport,
    forward_first_appearance,
    latest_first_appearance,
    materialize,
    run_agreement,
    sweep_max_latest,
)
from .patterns import (
    DIRECTION_ORDER,
    WILDCARD,
    Direction,
    Pattern,
    is_trimmed,
    occurrences,
    parse_pattern,
    pattern_from_rows,
    trim,
    two_diagonal_support,
    word_to_pattern,
)
from .puzzle import (
    AnswerWindow,
    Placement,
    PuzzleSpec,
    SolveReport,
    answer_window,
    crossed_out_l1_cells,
    load_puzzle,
    normalize_word,
    solve,
)

__version__ = "1.0.0"

__all__ = [name for name in dir() if not name.startswith("_")]
