"""Backward search: who could have produced this pattern?

The replacement map sends level k to level k+1, so instead of growing
levels until a word shows up (they grow exponentially), we enumerate the
patterns on level k-1 whose expansion can contain the word -- its
*parents* -- and walk that relation breadth-first.  A pattern occurring
in the concrete start grid at depth d proves the word appears on level
d+1; an exhausted frontier proves it never appears.

The parents at one offset form a *product* of one letter set per cell,
and so do the parents of all the members of a product: the grounded
search walks products, counting and stopping by their members.

Termination needs no depth cap: parent bounding boxes never grow
(each side shrinks to ceil((s+b-1)/b)), so the set of reachable trimmed
patterns is finite and the memoized frontier must eventually empty.

Everything here is deterministic: candidate letters come in alphabet
order, and the reported witness is the smallest (depth, start-grid row,
start-grid col, pattern text).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass, field
from typing import Iterator

from .core import CellAddress, Grid, RuleSet, check_letters, letters_at, path_to_address
from .errors import (
    ResourceLimitError,
    UnknownLetterError,
    UnresolvedSearchError,
    WitnessError,
)
from .patterns import (
    WILDCARD,
    Direction,
    GridIndex,
    Pattern,
    is_trimmed,
    parse_pattern,
    to_json,
    word_to_pattern,
)

PRODUCT_CAP = 10 ** 6
CLOSURE_CAP = 10 ** 6
TREE_JSON_INDENT = 2
_LAYOUT_MARK = "x"
# Builds a Pattern without the NamedTuple's generated Python __new__.
_new_pattern = functools.partial(tuple.__new__, Pattern)


@functools.lru_cache(maxsize=4096)
def _offset_plan(rh: int, b: int, rows: int, cols: int, layout: str) -> tuple | None:
    """Where the concrete cells of a rows x cols pattern land under rh x b
    blocks: per offset (dr, dc), row-major, ``((dr, dc), pr, pc, steps,
    parent)`` with a pr x pc parent box, ``steps`` the ``(cell index,
    parent cell pi * pc + pj, block slot br * b + bc)`` of each concrete
    cell, in cell order, and ``parent`` the box's own layout.
    ``layout`` is the pattern with every letter, or letter set, as
    ``_LAYOUT_MARK``: the plan depends on where the wildcards sit, not on
    the letters, so one plan serves every searcher of a block shape.
    A layout holding any other symbol than the mark and the wildcard
    has no plan (None): the pattern uses a letter outside the alphabet,
    and this cached lookup is where :class:`AncestrySearcher` finds
    that out."""
    if not {WILDCARD, _LAYOUT_MARK}.issuperset(layout):
        return None
    concrete = [(i, *divmod(i, cols))
                for i, ch in enumerate(layout) if ch != WILDCARD]
    plan = []
    for dr in range(rh):
        pr = (dr + rows + rh - 1) // rh
        for dc in range(b):
            pc = (dc + cols + b - 1) // b
            steps = []
            parent = [WILDCARD] * (pr * pc)
            for i, r, c in concrete:
                pi, br = divmod(r + dr, rh)
                pj, bc = divmod(c + dc, b)
                steps.append((i, pi * pc + pj, br * b + bc))
                parent[pi * pc + pj] = _LAYOUT_MARK
            plan.append(((dr, dc), pr, pc, tuple(steps), "".join(parent)))
    return tuple(plan)


def members(product: Pattern) -> Iterator[Pattern]:
    """The patterns a letter-set product (per cell ``*``, a letter or a
    tuple of letters) stands for, in order, without a Python loop."""
    rows, cols, cells = product
    return map(_new_pattern, zip(itertools.repeat(rows), itertools.repeat(cols),
                                 map("".join, itertools.product(*cells))))


def _text(product: Pattern) -> str:
    """Wire form of a product, a letter set of two or more in brackets."""
    cells = ["".join(c) if len(c) == 1 else f"[{''.join(c)}]" for c in product.cells]
    return "/".join("".join(cells[i:i + product.cols])
                    for i in range(0, len(cells), product.cols))


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one backward search.

    A found result carries the ancestor pattern grounded in the start
    grid, its 1-indexed anchor position there, and the per-step alignment
    offsets from the ancestor down to the target (enough to reconstruct
    exact coordinates on any level); its level is read off that chain.
    A result with no ancestor means the frontier reached a fixpoint: the
    word can never appear for this start grid.  Its effort counts are
    summed over every run stepped with it: ``nodes_expanded`` counts the
    patterns expanded and ``patterns_seen`` the patterns met, which each
    run keeps in its ``met`` (:class:`LayeredSearch`).
    """

    word: str
    direction: Direction | None      # None for raw pattern searches
    ancestor: Pattern | None
    anchor: tuple[int, int] | None
    offsets: tuple[tuple[int, int], ...]
    target: Pattern
    max_depth: int
    nodes_expanded: int
    patterns_seen: int

    @property
    def found(self) -> bool:
        return self.ancestor is not None

    @property
    def level(self) -> int | None:
        """Level one plus one per offset in the chain; None if never."""
        return len(self.offsets) + 1 if self.found else None


class AncestrySearcher:
    """Parent enumeration and backward search for one rule set.

    Caches the parents of each pattern and the parent products of each
    product, so reuse one instance when searching many words against
    the same rules: the sweep, the audit's geometry re-check and the
    puzzle's directions ask for the same parents again and again.

    :meth:`parents` lists patterns, for the sweep's closures and the
    ancestor trees; :meth:`parent_products` keeps products, for the
    grounded search, which in a puzzle solve expands 252 products where
    a walk over their members expands 2,193 patterns.  Groundings are
    not cached: a search seldom grounds a pattern twice.
    """

    def __init__(self, rules: RuleSet, l1: Grid | None = None):
        if l1 is not None:
            if l1.level != 1:
                raise ValueError("start grid must be tagged level 1")
            check_letters(l1.cells, rules, "start grid")
        self.rules = rules
        self.l1 = l1
        self._letters = rules.letters
        # table[key][br * b + bc]: bitmask of the parent letters whose
        # block has a letter of `key` at (br, bc): one list per letter,
        # and per letter set once expanded.  Candidate sets intersect via &.
        b = rules.b
        table = {ch: [0] * (rules.rule_rows * b) for ch in self._letters}
        for bi, parent in enumerate(self._letters):
            for br, row in enumerate(rules.rules[parent]):
                for bc, ch in enumerate(row):
                    table[ch][br * b + bc] |= 1 << bi
        self._table = table
        # Sends every letter to _LAYOUT_MARK: a pattern's offset-plan key.
        # The mark itself, unless a letter, goes to a reserved symbol, so
        # a pattern holding it has no plan.
        self._layout = str.maketrans({_LAYOUT_MARK: "#",
                                      **dict.fromkeys(self._letters, _LAYOUT_MARK)})
        self._mask_options: dict[int, tuple[str, ...]] = {}
        self._parents: dict[Pattern, tuple[tuple[Pattern, tuple[int, int]], ...]] = {}
        self._products: dict[Pattern, tuple[tuple[Pattern, str], ...]] = {}
        self._l1_index = GridIndex(l1) if l1 is not None else None

    # -- parent enumeration -------------------------------------------------

    def _options(self, mask: int) -> tuple[str, ...]:
        """The letters of ``mask``, also indexed as a set in the start grid,
        if any, for the scans of the products that hold it."""
        opts = self._mask_options.get(mask)
        if opts is None:
            opts = tuple(
                ch for i, ch in enumerate(self._letters) if mask >> i & 1
            )
            self._mask_options[mask] = opts
            if self._l1_index is not None:
                self._l1_index.index_set(opts)
        return opts

    def parents(self, pattern: Pattern) -> tuple[tuple[Pattern, tuple[int, int]], ...]:
        """All (parent, offset) pairs, deduplicated on the parent pattern:
        the members of each offset's parent product (:meth:`_walk`), in
        order.

        The offset (dr, dc) locates the child's top-left corner inside
        the expansion of the parent's box.  For each offset the parent
        box is ceil((dr+rows)/rh) x ceil((dc+cols)/b); a parent cell
        overlapping concrete child cells ranges over exactly the letters
        whose block matches them all, and a cell overlapping only
        wildcards stays a wildcard.  Outputs are trimmed by construction
        (every border row/column of the box meets a concrete child cell).
        """
        cached = self._parents.get(pattern)
        if cached is None:
            cached = self._parents[pattern] = self._walk(
                pattern, pattern.cells.translate(self._layout), True)
        return cached

    def parent_products(self, product: Pattern,
                        layout: str) -> tuple[tuple[Pattern, str], ...]:
        """The parents of every member of a product (``layout`` as
        :func:`_offset_plan` takes it), as one (product, layout) pair per
        fitting offset, a product of one member kept as that pattern.  A
        letter set's parent letters at a block slot are the union of its
        letters' (``_table``), so each parent product is the union of the
        members' parent products at that offset, and can pass
        ``PRODUCT_CAP`` where none of theirs does."""
        cached = self._products.get(product)
        if cached is None:
            table = self._table
            for key in product.cells:
                if key not in table and isinstance(key, tuple):
                    table[key] = table[key[0]] if len(key) == 1 else [
                        functools.reduce(operator.or_, slot)
                        for slot in zip(*map(table.__getitem__, key))]
            cached = self._products[product] = self._walk(product, layout, False)
        return cached

    def _walk(self, pattern: Pattern, layout: str, listed: bool) -> tuple:
        """Each fitting offset's parent product, once its size passes
        ``PRODUCT_CAP``: listed member by member (:meth:`parents`) or kept
        whole (:meth:`parent_products`).  Per offset each concrete cell
        ANDs the parent letters of its letter set at its block slot into
        its parent cell, and the offset dies on the first empty
        intersection; wildcards are never visited.  Which cell and slot
        each concrete cell meets comes from a plan cached per layout
        (:func:`_offset_plan`)."""
        rows, cols, cells = pattern
        table = self._table
        plan = _offset_plan(self.rules.rule_rows, self.rules.b, rows, cols, layout)
        if plan is None:
            raise UnknownLetterError(
                f"pattern {_text(pattern)!r} uses letters outside the alphabet")
        out: list[tuple[Pattern, tuple[int, int] | str]] = []
        seen: set[Pattern] = set()
        for off, pr, pc, steps, parent in plan:
            masks = [-1] * (pr * pc)
            for i, k, s in steps:
                mask = masks[k] & table[cells[i]][s]
                if not mask:
                    break
                masks[k] = mask
            else:
                options = [WILDCARD if m == -1 else self._options(m) for m in masks]
                total = math.prod(map(len, options))
                if total > PRODUCT_CAP:
                    raise ResourceLimitError(
                        f"parent product {total} exceeds cap {PRODUCT_CAP} "
                        f"for pattern {_text(pattern)!r} at offset {off}")
                if not listed:
                    out.append((_new_pattern((pr, pc, "".join([o[0] for o in options])
                                              if total == 1 else tuple(options))), parent))
                    continue
                for combo in itertools.product(*options):
                    q = _new_pattern((pr, pc, "".join(combo)))
                    if q not in seen:
                        seen.add(q)
                        out.append((q, off))
        return tuple(out)

    # -- grounding -----------------------------------------------------------

    def ground_positions(self, pattern: Pattern) -> tuple[tuple[int, int], ...]:
        """1-indexed positions where the trimmed pattern occurs in the start
        grid, row-major; matched against the start grid's per-letter bit
        masks (:class:`GridIndex`), built once per searcher."""
        if self._l1_index is None:
            raise ValueError("searcher was built without a start grid")
        return tuple(self._l1_index.positions(pattern))

    def groundings(self, product: Pattern) -> list[tuple[tuple[int, int], Pattern]]:
        """Every start of a product in the start grid, row-major
        (:meth:`GridIndex.starts`), as :meth:`_grounded` reads it."""
        if self._l1_index is None:
            raise ValueError("searcher was built without a start grid")
        found = self._l1_index.starts(product)
        out = []
        while found:
            out.append(self._grounded(product, found))
            found &= found - 1
        return out

    def _grounded(self, product: Pattern, found: int) -> tuple[tuple[int, int], Pattern]:
        """The 1-indexed anchor of the lowest start in ``found``, and the
        one member of the product that matches there: the grid's letters
        under its concrete cells (a pattern is its own one member)."""
        rows, cols, cells = product
        width = self.l1.cols
        r, c = divmod((found & -found).bit_length() - 1, width)
        if type(cells) is not str:
            letters = self.l1.cells
            product = _new_pattern((rows, cols, "".join(
                WILDCARD if cell == WILDCARD
                else letters[(r + i // cols) * width + c + i % cols]
                for i, cell in enumerate(cells))))
        return (r + 1, c + 1), product

    # -- search ---------------------------------------------------------------

    def search(self, word: str, direction: Direction | None, *,
               depth_cap: int | None = None) -> SearchResult:
        """Earliest level on which the word appears for the start grid;
        with ``direction`` None, ``word`` is a trimmed letter/wildcard
        pattern in its wire form (``B*/*B``).  A word's ValueError (empty,
        or with a wildcard) comes before its foreign letters'
        UnknownLetterError; a pattern's letters are checked with its parents."""
        run = LayeredSearch(self, word, direction)
        if direction is not None:
            check_letters(word, self.rules, "word")
        return first_grounded([run], depth_cap)

    def closure(self, target: Pattern) -> dict[Pattern, int]:
        """Minimal depth of every ancestor pattern reachable from the
        target, target included at depth 0: the one-target case of
        :meth:`shared_layers`, and capped as it is."""
        return {q: d for d, layer in enumerate(self.shared_layers([target]))
                for q in layer}

    def shared_layers(self, targets: list[Pattern]) -> list[dict[Pattern, int]]:
        """The closures of all the targets, from one breadth-first walk
        over their ancestors at once, layer by layer.  Layer d maps each
        pattern it holds to the bits of the targets whose closure holds
        that pattern at depth d: bit t of ``layers[d][q]`` is set iff
        ``self.closure(targets[t])[q] == d``.  So a target's closure,
        grouped by depth, is read off the layers by its bit, and its
        deepest layer is the last one that holds the bit.

        A layer passes on to each parent only the bits new to that
        parent, so bit t spreads exactly as the closure of target t does.
        The walk holds the union of the closures; more than
        ``CLOSURE_CAP`` patterns raise ResourceLimitError as soon as one
        pattern's parents push the count past it."""
        masks: dict[Pattern, int] = {}
        for t, target in enumerate(targets):
            masks[target] = masks.get(target, 0) | 1 << t
        layers = [dict(masks)]
        while True:
            nxt: dict[Pattern, int] = {}
            for pat, bits in layers[-1].items():
                for q, _ in self.parents(pat):
                    had = masks.get(q, 0)
                    new = bits & ~had
                    if new:
                        masks[q] = had | new
                        nxt[q] = nxt.get(q, 0) | new
                if len(masks) > CLOSURE_CAP:
                    raise ResourceLimitError(
                        f"ancestor closures exceed {CLOSURE_CAP} patterns"
                    )
            if not nxt:
                return layers
            layers.append(nxt)


class LayeredSearch:
    """One backward search, advanced a depth layer at a time.

    :func:`first_grounded` steps one or more of these in lockstep, so the
    puzzle solver gets the minimum level over directions without
    exhausting the losers, and a plain search is the one-run case.

    The run walks products: ``layers[d]`` holds the (product, layout)
    pairs of depth d, from the target alone at depth 0.  A parent
    product joins the next layer only if it holds a member the run has
    not met.  ``met`` maps each shape to the cells of every member met,
    with the depth first met on, so the effort counts members and the
    walk empties where a walk over the members does.  A member met
    before never grounds: its own layer was checked.
    """

    def __init__(self, searcher: AncestrySearcher, word: str,
                 direction: Direction | None):
        """Search ``word`` read along ``direction``; with ``direction``
        None, ``word`` is a raw pattern in its wire form, which must be
        trimmed.  A laid-out word is trimmed by construction."""
        if direction is not None:
            target = word_to_pattern(word, direction)
        else:
            target = parse_pattern(word)
            if not is_trimmed(target):
                raise ValueError(f"target pattern {target.text()!r} is not trimmed")
        self.searcher = searcher
        self.word = word
        self.direction = direction
        self.target = target
        self.layers: list[list[tuple[Pattern, str]]] = [
            [(target, target.cells.translate(searcher._layout))]]
        self.met: dict[tuple[int, int], dict[str, int]] = {target[:2]: {target.cells: 0}}
        self.depth = 0
        self.open = 1           # members first met on the current layer
        self.nodes_expanded = 0
        self.patterns_seen = 1

    @property
    def frontier(self) -> list[Pattern]:
        """The products of the current layer."""
        return [product for product, _ in self.layers[-1]]

    def check_grounding(self) -> tuple[tuple[int, int], Pattern] | None:
        """Smallest (row, col, pattern text) grounding of a member of the
        current layer in the start grid, or None: a product's first
        start and the member grounded there."""
        searcher = self.searcher
        if searcher._l1_index is None:
            raise ValueError("searcher was built without a start grid")
        best: tuple[tuple[int, int, str], tuple[int, int], Pattern] | None = None
        for product, _ in self.layers[-1]:
            found = searcher._l1_index.starts(product)
            if found:
                pos, pat = searcher._grounded(product, found)
                key = (pos[0], pos[1], pat.text())
                if best is None or key < best[0]:
                    best = (key, pos, pat)
        if best is None:
            return None
        return best[1], best[2]

    def advance(self) -> bool:
        """Expand the current layer one level up; False once exhausted,
        which leaves ``depth`` at the last non-empty layer."""
        depth = self.depth + 1
        met = self.met
        layer: list[tuple[Pattern, str]] = []
        opened = 0
        for product, layout in self.layers[-1]:
            for parent, parent_layout in self.searcher.parent_products(product, layout):
                seen = met.get(parent[:2])
                if seen is None:
                    seen = met[parent[:2]] = {}
                if type(parent.cells) is str:   # one member, read as is
                    new = () if parent.cells in seen else (parent.cells,)
                else:
                    new = set(map("".join, itertools.product(*parent.cells))).difference(seen)
                if new:
                    seen.update(dict.fromkeys(new, depth))
                    opened += len(new)
                    layer.append((parent, parent_layout))
        self.nodes_expanded += self.open
        self.patterns_seen += opened
        self.open = opened
        self.layers.append(layer)
        if not layer:
            return False
        self.depth = depth
        return True

    def chain(self, member: Pattern, depth: int) -> tuple[tuple[int, int], ...]:
        """Offsets from a member first met on layer ``depth`` down to the
        target.  Each step goes to the smallest child (in ``Pattern``
        order) first met one layer down that the ancestor's blocks spell
        at some offset of the child's plan, at the first such offset in
        plan order: the link a walk over the members, expanding each
        layer in sorted order, would have recorded."""
        if not depth:
            return ()
        rules, to_layout = self.searcher.rules, self.searcher._layout
        rh, b = rules.rule_rows, rules.b
        blocks = dict(zip(rules.rules, map("".join, rules.rules.values())))
        offsets: list[tuple[int, int]] = []
        rows, cols, letters = member
        for d in range(depth - 1, -1, -1):
            box = (rows, cols, letters.translate(to_layout))
            best = None
            for child_rows, child_cols, child in {(*q[:2], lay) for q, lay in self.layers[d]}:
                met = self.met[child_rows, child_cols]
                # (dr, dc) offsets sort in plan order: the key keeps the first
                for off, pr, pc, steps, parent in _offset_plan(
                        rh, b, child_rows, child_cols, child):
                    if (pr, pc, parent) == box:
                        chars = list(child)
                        for i, k, s in steps:
                            chars[i] = blocks[letters[k]][s]
                        key = (child_rows, child_cols, "".join(chars), off)
                        if (best is None or key < best) and met.get(key[2]) == d:
                            best = key
            if best is None:
                raise WitnessError("offset chain does not reach the target pattern")
            rows, cols, letters, off = best
            offsets.append(off)
        return tuple(offsets)

    def result(self, grounded: tuple[tuple[int, int], Pattern] | None = None,
               runs: list[LayeredSearch] | None = None) -> SearchResult:
        """This run's answer: found when given its grounding (anchor,
        ancestor) on the current layer, else never.  Its effort is summed
        over ``runs``, the runs stepped in lockstep with it (by default
        this run alone)."""
        anchor, ancestor = grounded or (None, None)
        return SearchResult(
            word=self.word, direction=self.direction,
            ancestor=ancestor, anchor=anchor,
            offsets=() if grounded is None else self.chain(ancestor, self.depth),
            target=self.target, max_depth=self.depth,
            **_effort(runs or [self]),
        )


def first_grounded(runs: list[LayeredSearch],
                   depth_cap: int | None = None) -> SearchResult:
    """The winning run's result from :func:`lockstep` or, once every run
    is exhausted, the first run's never-result; either way its effort is
    summed over all the runs."""
    run, grounded = lockstep(runs, depth_cap)
    return run.result(grounded, runs)


def lockstep(runs: list[LayeredSearch], depth_cap: int | None = None
             ) -> tuple[LayeredSearch, tuple[tuple[int, int], Pattern] | None]:
    """Step the runs in lockstep until one grounds in the start grid:
    the one ending of every backward search.

    Every live run's frontier is checked before any run advances, so the
    first grounded layer is the minimum depth over all runs; ties at
    that depth go to the earlier run in the list.  A run whose frontier
    empties stops advancing.  Returns the winning run and its grounding,
    or the first run and None once every run is exhausted.  Advancing
    past ``depth_cap`` raises UnresolvedSearchError with the effort
    summed over all the runs, counting as open the members first met on
    the live runs' last layers.
    """
    live = list(runs)
    while live:
        for run in live:
            grounded = run.check_grounding()
            if grounded is not None:
                return run, grounded
        live = [run for run in live if run.advance()]
        if depth_cap is not None and live and live[0].depth > depth_cap:
            raise UnresolvedSearchError(
                f"depth cap {depth_cap} reached with "
                f"{sum(run.open for run in live)} open patterns "
                f"for {runs[0].word!r}",
                depth=live[0].depth, **_effort(runs))
    return runs[0], None


def _effort(runs: list[LayeredSearch]) -> dict[str, int]:
    return {"nodes_expanded": sum(run.nodes_expanded for run in runs),
            "patterns_seen": sum(run.patterns_seen for run in runs)}


# ---------------------------------------------------------------------------
# module-level convenience wrappers
# ---------------------------------------------------------------------------

def first_appearance(word: str, direction: Direction | None, l1: Grid,
                     rules: RuleSet, depth_cap: int | None = None) -> SearchResult:
    """Earliest level on which ``word`` (read along ``direction``, or a
    trimmed pattern in its wire form when ``direction`` is None) appears
    when starting from ``l1``, found without materializing any level:
    :meth:`AncestrySearcher.search` on a fresh searcher."""
    return AncestrySearcher(rules, l1).search(word, direction, depth_cap=depth_cap)


def witness_coordinates(result: SearchResult, l1: Grid,
                        rules: RuleSet) -> list[CellAddress]:
    """Absolute addresses of the word's letters on its level, in word
    order.  The word's corner is the grounded anchor followed by the
    offset chain read as a digit path.  The letters at all the addresses
    are read back in one :func:`letters_at` call and re-checked against
    the word (a raw pattern's concrete cells in reading order); a
    mismatch is a bug, not bad input."""
    if not result.found:
        raise ValueError("witness coordinates exist only for found results")
    corner = path_to_address(result.anchor, result.offsets, rules)
    cells = list(result.target.concrete_cells())
    if result.direction is None:
        want = "".join(ch for _, _, ch in cells)
    else:
        want = result.word
        if result.direction.value < (0, 0):
            cells.reverse()     # the word lies backwards on its box
    addrs = [CellAddress(corner.level, corner.row + rr, corner.col + cc)
             for rr, cc, _ in cells]
    for addr, got, ch in zip(addrs, letters_at(l1, rules, addrs), want):
        if got != ch:
            raise WitnessError(
                f"coordinate oracle says {got!r} at {addr}, witness says {ch!r}"
            )
    return addrs


# ---------------------------------------------------------------------------
# ancestor trees
# ---------------------------------------------------------------------------

@dataclass
class TreeNode:
    """Node of an exploration tree; ``children`` are the pattern's parents.

    Statuses: ``interior`` (has fresh parents), ``no-parents`` (can only
    occur on level 1), ``repeat`` (everything above it was already
    charted), ``grounded`` (occurs in the start grid, search stops).
    """

    pattern: Pattern
    depth: int
    status: str = "interior"
    children: list["TreeNode"] = field(default_factory=list)


def ancestor_tree(word: str, direction: Direction, rules: RuleSet,
                  l1: Grid | None = None) -> TreeNode:
    """Full backward exploration tree for a word.

    A parent already seen on a strictly shallower layer is ignored
    (whatever lies above it is already charted there); a parent first
    seen on the same layer is shown once more as a ``repeat`` leaf.
    Grounded and parentless patterns stop their branch.

    This walk cannot be read off a :class:`LayeredSearch` link map: the
    tree stops only the grounded branch and draws every same-layer edge
    as a ``repeat`` leaf, while the search stops the whole walk at the
    first grounded layer and keeps one link per pattern.
    """
    searcher = AncestrySearcher(rules, l1)
    root = TreeNode(word_to_pattern(word, direction), 0)
    check_letters(word, rules, "word")
    seen: dict[Pattern, int] = {root.pattern: 0}
    layer = [root]
    while layer:
        nxt: list[TreeNode] = []
        for node in sorted(layer, key=lambda nd: nd.pattern):
            if l1 is not None and searcher.ground_positions(node.pattern):
                node.status = "grounded"
                continue
            parents = searcher.parents(node.pattern)
            if not parents:
                node.status = "no-parents"
                continue
            for q, _ in parents:
                prior = seen.get(q)
                if prior is not None and prior <= node.depth:
                    continue
                if prior == node.depth + 1:
                    node.children.append(TreeNode(q, prior, "repeat"))
                else:
                    seen[q] = node.depth + 1
                    child = TreeNode(q, node.depth + 1)
                    node.children.append(child)
                    nxt.append(child)
            if not node.children:
                node.status = "repeat"
        layer = nxt
    return root


def tree_to_json(root: TreeNode) -> str:
    return json.dumps(to_json(root), indent=TREE_JSON_INDENT)


def tree_to_dot(root: TreeNode) -> str:
    """Edge-list rendering for graphviz dot."""
    lines = ["digraph ancestors {", '  rankdir="BT";',
             '  node [shape=box, fontname="monospace"];']
    counter = itertools.count()

    def emit(node: TreeNode) -> str:
        name = f"n{next(counter)}"
        shape = {"grounded": "doubleoctagon", "no-parents": "octagon"}.get(
            node.status)
        attrs = f'label="{node.pattern.text()}"'
        if shape:
            attrs += f", shape={shape}"
        if node.status == "repeat":
            attrs += ", style=dashed"
        lines.append(f"  {name} [{attrs}];")
        for child in node.children:
            cname = emit(child)
            lines.append(f"  {name} -> {cname};")
        return name

    emit(root)
    lines.append("}")
    return "\n".join(lines)
