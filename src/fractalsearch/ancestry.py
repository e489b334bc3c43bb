"""Backward search: who could have produced this pattern?

The replacement map sends level k to level k+1, so instead of growing
levels until a word shows up (they grow exponentially), we enumerate the
patterns on level k-1 whose expansion can contain the word -- its
*parents* -- and walk that relation breadth-first.  A pattern occurring
in the concrete start grid at depth d proves the word appears on level
d+1; an exhausted frontier proves it never appears.

Termination needs no depth cap: parent bounding boxes never grow
(each side shrinks to ceil((s+b-1)/b)), so the set of reachable trimmed
patterns is finite and the memoized frontier must eventually empty.

Everything here is deterministic: frontiers are expanded in sorted
order, candidate letters in alphabet order, and the reported witness is
the smallest (depth, start-grid row, start-grid col, pattern text).
"""

from __future__ import annotations

import functools
import itertools
import json
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
    blocks: per offset (dr, dc), row-major, ``((dr, dc), pr, pc, steps)``
    with a pr x pc parent box and ``steps`` the ``(cell index, parent
    cell pi * pc + pj, block slot br * b + bc)`` of each concrete cell,
    in cell order.  ``layout`` is the pattern with every letter as
    ``_LAYOUT_MARK``: the plan depends on where the wildcards sit, not on
    the letters, so one plan serves every searcher of a block shape.
    A layout holding any other symbol than the mark and the wildcard
    has no plan (None): the pattern uses a letter outside the alphabet,
    and this cached lookup is where :meth:`AncestrySearcher.parents`
    finds that out."""
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
            for i, r, c in concrete:
                pi, br = divmod(r + dr, rh)
                pj, bc = divmod(c + dc, b)
                steps.append((i, pi * pc + pj, br * b + bc))
            plan.append(((dr, dc), pr, pc, tuple(steps)))
    return tuple(plan)


def members(product: Pattern) -> Iterator[Pattern]:
    """The patterns a letter-set product (a tuple of letters per cell, or
    ``*``) stands for, in order and built without a Python loop."""
    rows, cols, cells = product
    return map(_new_pattern, zip(itertools.repeat(rows), itertools.repeat(cols),
                                 map("".join, itertools.product(*cells))))


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one backward search.

    A found result carries the ancestor pattern grounded in the start
    grid, its 1-indexed anchor position there, and the per-step alignment
    offsets from the ancestor down to the target (enough to reconstruct
    exact coordinates on any level); its level is read off that chain.
    A result with no ancestor means the frontier reached a fixpoint: the
    word can never appear for this start grid.  The search's effort is
    summed over every run stepped with it: ``nodes_expanded`` counts the
    patterns expanded, ``patterns_seen`` those met, the runs' ``links``
    (:class:`LayeredSearch`), which a caller needing them drives directly.
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

    Caches the parents of each pattern, so reuse one instance when
    searching many words against the same rules: the sweep and the
    audit's geometry re-check ask for the same parents again and again.

    With a start grid, :meth:`parents` also settles each large product
    of parent letter sets as a whole (:meth:`_settle`) as it builds the
    members: of the 2,184 members of the 42 products a puzzle solve
    settles, 2,106 are cached with no groundings and 2,137 with no
    parents, so only the other 47 can be enumerated; the 27 *dead*
    products (no start left, no member with parents) hold 1,171.  Groundings are not
    otherwise cached: a search seldom grounds a pattern twice.  A
    grid-free searcher, as the sweep uses, settles nothing.
    """

    def __init__(self, rules: RuleSet, l1: Grid | None = None):
        if l1 is not None:
            if l1.level != 1:
                raise ValueError("start grid must be tagged level 1")
            check_letters(l1.cells, rules, "start grid")
        self.rules = rules
        self.l1 = l1
        self._letters = rules.letters
        # table[ch][br * b + bc]: bitmask of the parent letters whose
        # block has `ch` at (br, bc), one list per letter; candidate sets
        # intersect via &.
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
        self._mask_unions: dict[int, list[int]] = {}
        self._parents: dict[Pattern, tuple[tuple[Pattern, tuple[int, int]], ...]] = {}
        self._l1_index = GridIndex(l1) if l1 is not None else None
        self._ungrounded: set[Pattern] = set()

    # -- parent enumeration -------------------------------------------------

    def _options(self, mask: int) -> tuple[str, ...]:
        opts = self._mask_options.get(mask)
        if opts is None:
            opts = tuple(
                ch for i, ch in enumerate(self._letters) if mask >> i & 1
            )
            self._mask_options[mask] = opts
        return opts

    def _unions(self, mask: int) -> list[int]:
        """Per block slot, the union of the parent-letter masks of every
        letter in ``mask``."""
        unions = self._mask_unions.get(mask)
        if unions is None:
            unions = [functools.reduce(operator.or_, slot) for slot in
                      zip(*(self._table[ch] for ch in self._options(mask)))]
            self._mask_unions[mask] = unions
        return unions

    def parents(self, pattern: Pattern) -> tuple[tuple[Pattern, tuple[int, int]], ...]:
        """All (parent, offset) pairs, deduplicated on the parent pattern.

        The offset (dr, dc) locates the child's top-left corner inside
        the expansion of the parent's box.  For each offset the parent
        box is ceil((dr+rows)/rh) x ceil((dc+cols)/b); a parent cell
        overlapping concrete child cells ranges over exactly the letters
        whose block matches them all, and a cell overlapping only
        wildcards stays a wildcard.  Outputs are trimmed by construction
        (every border row/column of the box meets a concrete child cell).

        The candidate masks come from the concrete cells alone: per
        offset, each concrete cell ANDs the mask of its letter at its
        block slot into its parent cell, and the offset dies on the first
        empty intersection.  Wildcards are never visited.  Which parent
        cell and slot each concrete cell meets depends only on the block
        shape and the pattern's layout, so it is read from a plan cached
        per layout (:func:`_offset_plan`), shared across calls and
        searchers.

        A searcher with a start grid settles a product of more patterns
        than the plan has offsets as a whole (:meth:`_settle`), caching
        both exact answers for its members, so no parentless member is
        enumerated.  Every parent is a pattern whose cells are a string.
        """
        cached = self._parents.get(pattern)
        if cached is None:
            cached = self._enumerate(pattern)
        return cached

    def _enumerate(self, pattern: Pattern) -> tuple[tuple[Pattern, tuple[int, int]], ...]:
        """:meth:`parents` on a miss."""
        rows, cols, cells = pattern
        table = self._table
        plan = _offset_plan(self.rules.rule_rows, self.rules.b, rows, cols,
                            cells.translate(self._layout))
        if plan is None:
            raise UnknownLetterError(
                f"pattern {pattern.text()!r} uses letters outside the alphabet"
            )
        # Larger products are settled whole; a grid-free searcher settles none.
        settle_over = len(plan) if self._l1_index is not None else PRODUCT_CAP
        out: list[tuple[Pattern, tuple[int, int]]] = []
        seen: set[Pattern] = set()
        for off, pr, pc, steps in plan:
            masks = [-1] * (pr * pc)
            for i, k, s in steps:
                mask = masks[k] & table[cells[i]][s]
                if not mask:
                    break
                masks[k] = mask
            else:
                options = [(WILDCARD,) if m == -1 else self._options(m)
                           for m in masks]
                total = 1
                for opt in options:
                    total *= len(opt)
                if total > PRODUCT_CAP:
                    raise ResourceLimitError(
                        f"parent product {total} exceeds cap {PRODUCT_CAP} "
                        f"for pattern {pattern.text()!r} at offset {off}"
                    )
                if total > settle_over:
                    self._settle(pr, pc, masks, off, out, seen)
                    continue
                for combo in itertools.product(*options):
                    q = _new_pattern((pr, pc, "".join(combo)))
                    if q not in seen:
                        seen.add(q)
                        out.append((q, off))
        result = tuple(out)
        self._parents[pattern] = result
        return result

    def _settle(self, rows: int, cols: int, masks: list[int],
                off: tuple[int, int],
                out: list[tuple[Pattern, tuple[int, int]]], seen: set[Pattern]) -> None:
        """Place the members of a large product of parent letter sets
        (``masks``, -1 for a free cell) that are new to an enumeration
        into its ``out``, and cache both exact answers for them: no
        groundings if no start is left (:meth:`GridIndex.starts_any`); no
        parents unless, at some offset, the blocks of one fitting letter
        per parent cell spell the member, a letter fitting if its block
        fits the product at each concrete cell (:meth:`_unions`)."""
        product = Pattern(rows, cols, tuple(
            WILDCARD if m == -1 else self._options(m) for m in masks))
        found = list(itertools.filterfalse(seen.__contains__, members(product)))
        seen.update(found)
        out.extend(zip(found, itertools.repeat(off)))
        grounds = self._l1_index.starts_any(product)
        if not grounds:
            self._ungrounded.update(found)
        layout = "".join(WILDCARD if m == -1 else _LAYOUT_MARK for m in masks)
        alive: set[str] = set()
        for _, pr, pc, steps in _offset_plan(self.rules.rule_rows, self.rules.b,
                                             rows, cols, layout):
            parent = [-1] * (pr * pc)
            for i, k, s in steps:
                mask = parent[k] & self._unions(masks[i])[s]
                if not mask:
                    break
                parent[k] = mask
            else:
                by_cell: dict[int, list[tuple[int, int]]] = {}
                for i, k, s in steps:
                    by_cell.setdefault(k, []).append((i, s))
                spellings = []
                for k, pairs in by_cell.items():
                    spell = operator.itemgetter(*(s for _, s in pairs))
                    spellings.append({spell("".join(self.rules.rules[p]))
                                      for p in self._options(parent[k])})
                chars = [WILDCARD] * len(masks)
                for combo in itertools.product(*spellings):
                    for pairs, spelled in zip(by_cell.values(), combo):
                        for (i, _), ch in zip(pairs, spelled):
                            chars[i] = ch
                    alive.add("".join(chars))
        for q in found:
            if q.cells not in alive:
                self._parents[q] = ()

    # -- grounding -----------------------------------------------------------

    def ground_positions(self, pattern: Pattern) -> tuple[tuple[int, int], ...]:
        """1-indexed positions where the trimmed pattern occurs in the start
        grid, row-major; matched against the start grid's per-letter bit
        masks (:class:`GridIndex`), built once per searcher.  A member of
        a product that :meth:`parents` settled as ungrounded is answered
        without a scan."""
        if self._l1_index is None:
            raise ValueError("searcher was built without a start grid")
        if pattern in self._ungrounded:
            return ()
        return tuple(self._l1_index.positions(pattern))

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

    ``links`` is the run's one record: each pattern met, in order, with
    the (child, offset) it was met from.  Every pattern met is expanded
    once; a member of a dead product is answered from the searcher's
    cache, with no groundings and no parents.
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
        self.links: dict[Pattern, tuple[Pattern, tuple[int, int]] | None] = {
            target: None
        }
        self.frontier: list[Pattern] = [target]
        self.depth = 0
        self.nodes_expanded = 0

    def check_grounding(self) -> tuple[tuple[int, int], Pattern] | None:
        """Smallest (row, col, pattern text) grounding of the current
        frontier in the start grid, or None."""
        best: tuple[tuple[int, int, str], tuple[int, int], Pattern] | None = None
        for pat in self.frontier:
            pos = self.searcher.ground_positions(pat)
            if pos:
                key = (pos[0][0], pos[0][1], pat.text())
                if best is None or key < best[0]:
                    best = (key, pos[0], pat)
        if best is None:
            return None
        return best[1], best[2]

    def advance(self) -> bool:
        """Expand the frontier one level up; False once exhausted, which
        leaves ``depth`` at the last non-empty layer."""
        links = self.links
        nxt: list[Pattern] = []
        for pat in sorted(self.frontier):
            for q, off in self.searcher.parents(pat):
                if q not in links:
                    links[q] = (pat, off)
                    nxt.append(q)
        self.nodes_expanded += len(self.frontier)
        self.frontier = nxt
        if not nxt:
            return False
        self.depth += 1
        return True

    def _chain(self, ancestor: Pattern) -> tuple[tuple[int, int], ...]:
        offsets: list[tuple[int, int]] = []
        cur = ancestor
        while True:
            link = self.links[cur]
            if link is None:
                break
            child, off = link
            offsets.append(off)
            cur = child
        if cur != self.target:
            raise WitnessError("offset chain does not reach the target pattern")
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
            offsets=() if grounded is None else self._chain(ancestor),
            target=self.target, max_depth=self.depth,
            **_effort(runs or [self]),
        )


def first_grounded(runs: list[LayeredSearch],
                   depth_cap: int | None = None) -> SearchResult:
    """Step the runs in lockstep until one grounds in the start grid:
    the one ending of every backward search.

    Every live run's frontier is checked before any run advances, so the
    first grounded layer is the minimum depth over all runs; ties at
    that depth go to the earlier run in the list.  A run whose frontier
    empties stops advancing.  Returns the winning run's result or, once
    every run is exhausted, the first run's never-result; either way its
    effort is summed over all the runs.  Advancing past ``depth_cap``
    raises UnresolvedSearchError with the same sums.
    """
    live = list(runs)
    while live:
        for run in live:
            grounded = run.check_grounding()
            if grounded is not None:
                return run.result(grounded, runs)
        live = [run for run in live if run.advance()]
        if depth_cap is not None and live and live[0].depth > depth_cap:
            raise UnresolvedSearchError(
                f"depth cap {depth_cap} reached with "
                f"{sum(len(run.frontier) for run in live)} open patterns "
                f"for {runs[0].word!r}",
                depth=live[0].depth, **_effort(runs))
    return runs[0].result(runs=runs)


def _effort(runs: list[LayeredSearch]) -> dict[str, int]:
    return {"nodes_expanded": sum(run.nodes_expanded for run in runs),
            "patterns_seen": sum(len(run.links) for run in runs)}


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
