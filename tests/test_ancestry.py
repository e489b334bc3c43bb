from __future__ import annotations

import functools
import itertools
import json
import math
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fractalsearch import ancestry
from fractalsearch.ancestry import (
    AncestrySearcher,
    LayeredSearch,
    ancestor_tree,
    first_appearance,
    first_grounded,
    members,
    tree_to_dot,
    tree_to_json,
    witness_coordinates,
)
from fractalsearch.ancestry import _text
from fractalsearch.bounds import max_parent_len
from fractalsearch.core import (
    Grid,
    RuleSet,
    descendant_block_range,
    expand,
)
from fractalsearch.errors import (
    ResourceLimitError,
    UnknownLetterError,
    UnresolvedSearchError,
)
from fractalsearch.patterns import (
    Direction,
    GridIndex,
    Pattern,
    WILDCARD,
    is_trimmed,
    occurrences,
    parse_pattern,
    trim,
    word_to_pattern,
)
from fractalsearch.oracle import run_agreement
from fractalsearch.puzzle import load_puzzle, solve
from tests.conftest import (
    PUZZLE_PATH,
    grids_for,
    rule_sets,
    scan_occurrences,
    seeded_rng,
)


def parents_of(word_or_pattern, rules, direction=Direction.E):
    if isinstance(word_or_pattern, str):
        word_or_pattern = word_to_pattern(word_or_pattern, direction)
    return {p.text() for p, _ in AncestrySearcher(rules).parents(word_or_pattern)}


class TestEnumerateParents:
    def test_cab_has_unique_parent(self, abc_1d):
        assert parents_of("CAB", abc_1d) == {"BA"}

    def test_ba_has_four_parents(self, abc_1d):
        assert parents_of("BA", abc_1d) == {"AA", "AB", "CA", "CB"}

    def test_cacaba_has_two_parents(self, abc_1d):
        assert parents_of("CACABA", abc_1d) == {"BBAA", "BBAB"}

    def test_parentless_pairs(self, abc_1d):
        assert parents_of("CC", abc_1d) == set()
        assert parents_of("AA", abc_1d) == set()

    def test_diagonal_pair_includes_straight_parent(self, abc_2d):
        got = parents_of("BB", abc_2d, Direction.SE)
        assert "AB" in got

    def test_diagonal_word_gets_bent_parent(self, abc_2d):
        # CBBC read down-diagonally can come from a 3 x 2 bent shape.
        got = parents_of("CBBC", abc_2d, Direction.SE)
        assert "A*/CB/*B" in got

    def test_requires_trimmed_input(self, abc_1d):
        with pytest.raises(ValueError):
            LayeredSearch(AncestrySearcher(abc_1d), "A*", None)

    def test_product_cap_is_enforced(self, abc_2d, monkeypatch):
        monkeypatch.setattr(ancestry, "PRODUCT_CAP", 1)
        with pytest.raises(ResourceLimitError):
            AncestrySearcher(abc_2d).parents(word_to_pattern("BB", Direction.SE))

    def test_product_cap_fires_before_a_product_is_settled(self):
        """A product over the cap is refused even where it would stay
        unbuilt: B to T all expand to AU, so A*A*A*A*A has 19**5
        parents at offset (0, 0), none of them in the start grid U and
        none with parents of its own."""
        rules = RuleSet({"A": ("UU",), "U": ("UU",),
                         **dict.fromkeys("BCDEFGHIJKLMNOPQRST", ("AU",))})
        searcher = AncestrySearcher(rules, Grid.from_text("U"))
        with pytest.raises(ResourceLimitError) as err:
            searcher.parents(parse_pattern("A*A*A*A*A"))
        assert str(err.value) == ("parent product 2476099 exceeds cap 1000000 "
                                  "for pattern 'A*A*A*A*A' at offset (0, 0)")

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_outputs_trimmed_and_within_size_bound(self, data):
        rules = data.draw(rule_sets())
        word = data.draw(st.text(alphabet=rules.letters,
                                 min_size=1, max_size=4))
        direction = data.draw(st.sampled_from(
            (Direction.E,) if rules.dimension == 1 else tuple(Direction)))
        child = word_to_pattern(word, direction)
        for parent, _ in AncestrySearcher(rules).parents(child):
            assert is_trimmed(parent)
            assert parent.rows <= max_parent_len(child.rows, rules.b)
            assert parent.cols <= max_parent_len(child.cols, rules.b)


def reference_boxes(rules, pattern: Pattern):
    """Per fitting offset, in plan order, ``(offset, pr, pc, options)``:
    the letter set of every parent cell from a walk over every cell of
    every parent cell's box, wildcards included, intersecting one mask
    per (block row, block col, letter) key.  A product over the cap
    raises as ``AncestrySearcher.parents`` does."""
    letters = rules.letters
    if not (set(letters) | {WILDCARD}).issuperset(pattern.cells):
        raise UnknownLetterError(
            f"pattern {pattern.text()!r} uses letters outside the alphabet")
    table: dict[tuple[int, int, str], int] = {}
    for bi, parent in enumerate(letters):
        for br, row in enumerate(rules.rules[parent]):
            for bc, ch in enumerate(row):
                table[br, bc, ch] = table.get((br, bc, ch), 0) | (1 << bi)
    rows, cols, cells = pattern
    rh, b = rules.rule_rows, rules.b
    for dr in range(rh):
        pr = (dr + rows + rh - 1) // rh
        for dc in range(b):
            pc = (dc + cols + b - 1) // b
            options = []
            for pi in range(pr):
                rlo = pi * rh - dr
                for pj in range(pc):
                    clo = pj * b - dc
                    mask = -1
                    for r in range(max(0, rlo), min(rows, rlo + rh)):
                        for c in range(max(0, clo), min(cols, clo + b)):
                            ch = cells[r * cols + c]
                            if ch != WILDCARD:
                                mask &= table.get((r - rlo, c - clo, ch), 0)
                    options.append(
                        (WILDCARD,) if mask == -1 else
                        tuple(ch for i, ch in enumerate(letters) if mask >> i & 1))
            if not all(options):
                continue
            total = 1
            for opt in options:
                total *= len(opt)
            if total > ancestry.PRODUCT_CAP:
                raise ResourceLimitError(
                    f"parent product {total} exceeds cap {ancestry.PRODUCT_CAP} "
                    f"for pattern {pattern.text()!r} at offset ({dr}, {dc})")
            yield (dr, dc), pr, pc, options


def reference_parents(rules, pattern: Pattern):
    """Reference enumerator over :func:`reference_boxes`: same output
    order, offsets and cap message as ``AncestrySearcher.parents``."""
    out = []
    seen = set()
    for off, pr, pc, options in reference_boxes(rules, pattern):
        for combo in itertools.product(*options):
            q = Pattern(pr, pc, "".join(combo))
            if q not in seen:
                seen.add(q)
                out.append((q, off))
    return tuple(out)


def reference_parent_products(rules, product: Pattern):
    """The parents of every member of a product, member by member: one
    set per offset at which some member has parents, in plan order."""
    by_offset: dict[tuple[int, int], set[Pattern]] = {}
    for member in members(product):
        for off, pr, pc, options in reference_boxes(rules, member):
            by_offset.setdefault(off, set()).update(
                Pattern(pr, pc, "".join(combo)) for combo in itertools.product(*options))
    return [by_offset[off] for off in sorted(by_offset)]


def parent_product_members(searcher, product, layout):
    """The members of each of a product's parent products, in order."""
    return [set(members(q)) for q, _ in searcher.parent_products(product, layout)]


def layout_of(product: Pattern) -> str:
    return "".join(WILDCARD if cell == WILDCARD else ancestry._LAYOUT_MARK
                   for cell in product.cells)


def reference_closure(searcher: AncestrySearcher, target: Pattern) -> dict[Pattern, int]:
    """Reference ancestor closure, one pattern at a time: minimal depth of
    every ancestor of the target, target at depth 0, from a breadth-first
    walk that expands each layer in sorted order over the searcher's
    parents."""
    depths = {target: 0}
    frontier = [target]
    while frontier:
        nxt = []
        for pat in sorted(frontier):
            for q, _ in searcher.parents(pat):
                if q not in depths:
                    depths[q] = depths[pat] + 1
                    nxt.append(q)
        frontier = nxt
    return depths


def reference_search(rules, l1, cases, depth_cap=None, links=None):
    """Reference backward search, member by member: runs stepped in
    lockstep over ``cases`` of (word, direction or None for a raw
    pattern), each advancing over ``reference_parents``
    and grounding each pattern with ``occurrences``.  The same result,
    effort counts and depth-cap error as ``first_grounded``.  ``links``,
    if given, receives each run's link map, in the order it links."""
    runs = []
    for word, direction in cases:
        target = (parse_pattern(word) if direction is None
                  else word_to_pattern(word, direction))
        runs.append({"word": word, "direction": direction, "target": target,
                     "links": {target: None}, "frontier": [target],
                     "depth": 0, "nodes": 0})
        if links is not None:
            links.append(runs[-1]["links"])

    def effort():
        return {"nodes_expanded": sum(run["nodes"] for run in runs),
                "patterns_seen": sum(len(run["links"]) for run in runs)}

    def result(run, grounded=None):
        anchor, ancestor = grounded or (None, None)
        offsets = []
        cur = ancestor
        while grounded is not None and run["links"][cur] is not None:
            cur, off = run["links"][cur]
            offsets.append(off)
        return ancestry.SearchResult(
            word=run["word"], direction=run["direction"], ancestor=ancestor,
            anchor=anchor, offsets=tuple(offsets), target=run["target"],
            max_depth=run["depth"], **effort())

    live = list(runs)
    while live:
        for run in live:
            best = None
            for pat in run["frontier"]:
                pos = occurrences(pat, l1)
                if pos and (best is None or (*pos[0], pat.text()) < best[0]):
                    best = ((*pos[0], pat.text()), pos[0], pat)
            if best is not None:
                return result(run, best[1:])
        still = []
        for run in live:
            nxt = []
            for pat in sorted(run["frontier"]):
                for q, off in reference_parents(rules, pat):
                    if q not in run["links"]:
                        run["links"][q] = (pat, off)
                        nxt.append(q)
            run["nodes"] += len(run["frontier"])
            run["frontier"] = nxt
            if nxt:
                run["depth"] += 1
                still.append(run)
        live = still
        if depth_cap is not None and live and live[0]["depth"] > depth_cap:
            raise UnresolvedSearchError(
                f"depth cap {depth_cap} reached with "
                f"{sum(len(run['frontier']) for run in live)} open patterns "
                f"for {runs[0]['word']!r}", depth=live[0]["depth"], **effort())
    return result(runs[0])


def reference_chains(links) -> dict[Pattern, tuple[tuple[int, int], ...]]:
    """Each pattern of a reference link map with its offset chain down to
    the target; the chain's length is the depth it was met on."""
    chains: dict[Pattern, tuple[tuple[int, int], ...]] = {}
    for q, link in links.items():       # a child is linked before its parents
        chains[q] = () if link is None else (link[1], *chains[link[0]])
    return chains


def met_by_depth(run) -> dict[int, set[Pattern]]:
    """The members a run met, grouped by the depth it first met each on."""
    groups: dict[int, set[Pattern]] = {}
    for (rows, cols), cells in run.met.items():
        for text, depth in cells.items():
            groups.setdefault(depth, set()).add(Pattern(rows, cols, text))
    return groups


def assert_walk_is_the_reference(run, links):
    """A run met, depth by depth, exactly the patterns the member-by-member
    reference linked; its effort counts them; each one's recovered chain
    is its reference chain; and every product it expanded has, offset by
    offset, its members' reference parents as parent products."""
    chains = reference_chains(links)
    want: dict[int, set[Pattern]] = {}
    for q, chain in chains.items():
        want.setdefault(len(chain), set()).add(q)
    got = met_by_depth(run)
    assert got == want
    assert run.patterns_seen == len(links)
    for depth, group in got.items():
        for q in group:
            assert run.chain(q, depth) == chains[q], q.text()
    for layer in run.layers[:-1]:       # the last layer is not expanded
        for product, layout in layer:
            assert layout == layout_of(product)
            assert parent_product_members(run.searcher, product, layout) == \
                reference_parent_products(run.searcher.rules, product)


@st.composite
def rules_and_pattern(draw):
    """1D or 2D rules with b in {2, 3} over up to three letters, and a
    trimmed pattern up to 5 x 5 (one row for 1D rules) whose wildcards
    may sit anywhere, interior included."""
    rules = draw(rule_sets(max_n=3, bs=(2, 3)))
    rows = 1 if rules.dimension == 1 else draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    cells = draw(st.text(alphabet=rules.letters + (WILDCARD,),
                         min_size=rows * cols, max_size=rows * cols))
    assume(cells.count(WILDCARD) < len(cells))
    return rules, trim(Pattern(rows, cols, cells))


def _outcome(enumerate_once):
    try:
        return enumerate_once()
    except ResourceLimitError as err:
        return str(err)


class TestParentsMatchReference:
    """``AncestrySearcher.parents`` visits only a pattern's letters; the
    box walk above is the definition it must reproduce exactly."""

    @settings(max_examples=300, deadline=None)
    @given(case=rules_and_pattern())
    def test_same_tuple_order_and_offsets(self, case):
        rules, pattern = case
        assert AncestrySearcher(rules).parents(pattern) == \
            reference_parents(rules, pattern)

    @settings(max_examples=150, deadline=None)
    @given(case=rules_and_pattern(), cap=st.integers(0, 12))
    def test_product_cap_fires_at_the_same_first_offset(self, case, cap):
        rules, pattern = case
        with mock.patch.object(ancestry, "PRODUCT_CAP", cap):
            got = _outcome(lambda: AncestrySearcher(rules).parents(pattern))
            want = _outcome(lambda: reference_parents(rules, pattern))
        assert got == want

    @pytest.mark.parametrize("rules_name,text", [
        ("abc_1d", "AD"), ("abc_1d", "Z*A"), ("abc_2d", "A*/*D"), ("abc_2d", "Z")])
    def test_letter_outside_the_alphabet(self, request, rules_name, text):
        rules = request.getfixturevalue(rules_name)
        with pytest.raises(UnknownLetterError):
            AncestrySearcher(rules).parents(parse_pattern(text))

    @pytest.mark.parametrize("cells", ["AZ", "A" + ancestry._LAYOUT_MARK, "A#", "A/"],
                             ids=["foreign", "layout-mark", "hash", "slash"])
    def test_symbol_outside_the_alphabet_is_refused_by_name(self, abc_2d, cells):
        # The offset-plan lookup refuses them; the mark and "#" are what
        # the layout translation itself writes.
        pattern = Pattern(1, 2, cells)
        for searcher in (AncestrySearcher(abc_2d),
                         AncestrySearcher(abc_2d, Grid.from_text("AB"))):
            with pytest.raises(UnknownLetterError) as err:
                searcher.parents(pattern)
            assert str(err.value) == (
                f"pattern {cells!r} uses letters outside the alphabet")


class TestOffsetPlan:
    """The offset plan is cached per layout and shared across searchers,
    so it must hold for any alphabet: checked against the box walk on
    every product a 26-letter solve expands, and on every member of
    them, and across two alphabets that share a block shape."""

    def test_every_enumeration_of_a_puzzle_solve(self, puzzle_path):
        spec = load_puzzle(puzzle_path)
        expanded = {}
        real = AncestrySearcher.parent_products

        def spy(searcher, product, layout):
            got = real(searcher, product, layout)
            expanded.setdefault(product, (layout, got))
            return got

        with mock.patch.object(AncestrySearcher, "parent_products", spy):
            solve(spec)
        assert len(spec.rules.letters) == 26
        patterns = {q for product in expanded for q in members(product)}
        assert (len(expanded), len(patterns)) == (252, 2193)
        # 5 x 5 patterns: DIMENSION's depth-1 frontiers read NE and SW.
        assert sum(p.rows == p.cols == 5 for p in patterns) == 1200
        searcher = AncestrySearcher(spec.rules, spec.l1)
        for product, (layout, got) in expanded.items():
            assert layout == layout_of(product)
            assert [set(members(q)) for q, _ in got] == \
                reference_parent_products(spec.rules, product), _text(product)
        for pattern in patterns:
            assert searcher.parents(pattern) == reference_parents(spec.rules, pattern)

    @pytest.mark.parametrize("first,second", [
        (RuleSet({"A": ("AB",), "B": ("AC",), "C": ("BB",)}),
         RuleSet({"x": ("xy",), "y": ("yx",)})),
        (RuleSet({"A": ("AB", "CB"), "B": ("AC", "BB"), "C": ("BB", "CC")}),
         RuleSet({"x": ("xy", "yy"), "y": ("yx", "xx")})),
    ])
    def test_alphabets_sharing_a_block_shape_share_plans(self, first, second):
        shape = (1, 4) if first.dimension == 1 else (2, 3)

        def check(rules):
            searcher = AncestrySearcher(rules)
            for pattern in _all_trimmed_patterns(*shape, rules.letters):
                assert searcher.parents(pattern) == reference_parents(rules, pattern)

        check(first)
        before = ancestry._offset_plan.cache_info()
        check(second)       # "x", the layout marker, is one of its letters
        after = ancestry._offset_plan.cache_info()
        assert after.misses == before.misses     # every plan came from `first`
        assert after.maxsize is not None


class TestClosureCap:
    """``CLOSURE_CAP`` is checked after each pattern's parents are merged,
    so a layer is refused before it is fully enumerated."""

    @staticmethod
    def counting_searcher(rules):
        searcher = AncestrySearcher(rules)
        calls = []
        enumerate_once = searcher.parents

        def parents(pattern):
            calls.append(pattern)
            return enumerate_once(pattern)

        searcher.parents = parents
        return searcher, calls

    def test_raises_inside_a_layer(self, abc_1d, monkeypatch):
        # BA has four parents (AA, AB, CA, CB); AA has none, and AB's
        # parent A makes the sixth pattern, past a cap of five.
        target = word_to_pattern("BA", Direction.E)
        full = AncestrySearcher(abc_1d).closure(target)
        layer_one = sorted(q for q, d in full.items() if d == 1)
        assert [q.text() for q in layer_one] == ["AA", "AB", "CA", "CB"]
        monkeypatch.setattr(ancestry, "CLOSURE_CAP", 5)
        searcher, calls = self.counting_searcher(abc_1d)
        with pytest.raises(ResourceLimitError, match="exceed 5 patterns"):
            searcher.closure(target)
        assert calls == [target] + layer_one[:2]

    @pytest.mark.parametrize("word", ["BA", "CACABA", "B"])
    def test_the_same_sizes_raise(self, abc_1d, monkeypatch, word):
        target = word_to_pattern(word, Direction.E)
        full = AncestrySearcher(abc_1d).closure(target)
        monkeypatch.setattr(ancestry, "CLOSURE_CAP", len(full))
        assert AncestrySearcher(abc_1d).closure(target) == full
        monkeypatch.setattr(ancestry, "CLOSURE_CAP", len(full) - 1)
        with pytest.raises(ResourceLimitError):
            AncestrySearcher(abc_1d).closure(target)

    def test_shared_walk_is_capped_at_the_union(self, abc_2d, monkeypatch):
        """The shared walk holds the union of the targets' closures, so a
        cap that every single closure fits under can still refuse it."""
        targets = [word_to_pattern(w, Direction.SE) for w in ("AA", "BB", "CC")]
        closures = [reference_closure(AncestrySearcher(abc_2d), t) for t in targets]
        union = set().union(*closures)
        assert [len(c) for c in closures] == [1, 21, 19] and len(union) == 26
        monkeypatch.setattr(ancestry, "CLOSURE_CAP", len(union))
        layers = AncestrySearcher(abc_2d).shared_layers(targets)
        assert [closure_of(layers, t) for t in range(3)] == closures
        monkeypatch.setattr(ancestry, "CLOSURE_CAP", len(union) - 1)
        with pytest.raises(ResourceLimitError, match="exceed 25 patterns"):
            AncestrySearcher(abc_2d).shared_layers(targets)


def closure_of(layers, t):
    """Target t's closure, read off shared layers by its bit."""
    return {q: d for d, layer in enumerate(layers)
            for q, bits in layer.items() if bits >> t & 1}


class TestSharedLayers:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_each_targets_groups_are_its_closure_by_depth(self, data):
        """One shared walk gives every target its own closure grouped by
        depth, duplicate targets included, and no layer is empty; its
        one-target case, ``closure``, is the reference closure, with and
        without a start grid."""
        rules = data.draw(rule_sets(max_n=3, bs=(2, 3)))
        settled = AncestrySearcher(rules, data.draw(grids_for(rules, max_side=3)))
        cases = data.draw(st.lists(st.tuples(
            st.text(alphabet=rules.letters, min_size=1, max_size=3),
            st.sampled_from((Direction.E, Direction.SE))), min_size=1, max_size=6))
        cases += cases[:data.draw(st.integers(0, len(cases)))]
        targets = [word_to_pattern(word, direction) for word, direction in cases]
        searcher = AncestrySearcher(rules)
        layers = AncestrySearcher(rules).shared_layers(targets)
        assert all(layers)
        deepest = 0
        for t, target in enumerate(targets):
            closure = reference_closure(searcher, target)
            assert searcher.closure(target) == settled.closure(target) == closure
            assert reference_closure(settled, target) == closure
            groups = [{q for q, bits in layer.items() if bits >> t & 1}
                      for layer in layers]
            depth = max(closure.values())
            assert groups[:depth + 1] == [
                {q for q, d in closure.items() if d == k} for k in range(depth + 1)]
            assert not any(groups[depth + 1:])
            deepest = max(deepest, depth)
        assert len(layers) == deepest + 1

    def test_a_start_grid_changes_no_closure(self):
        """A searcher with a start grid settles the first target's 192
        parents as three dead products; its closures hold the same
        patterns as a grid-free one's."""
        rules = RuleSet({"A": ("BB", "BB"), "B": ("BB", "AA"), "C": ("BB", "BB")})
        targets = [word_to_pattern("BBBBB", Direction.NE),
                   word_to_pattern("BB", Direction.SE)]
        settled = AncestrySearcher(rules, Grid.from_text("A/B"))
        assert settled.parents(targets[0]) == AncestrySearcher(rules).parents(targets[0])
        assert all(settled.parents(q) == () for q, _ in settled.parents(targets[0]))
        assert [len(settled.closure(t)) for t in targets] == [193, 30]
        for target in targets:
            assert settled.closure(target) == reference_closure(settled, target) \
                == reference_closure(AncestrySearcher(rules), target)
        assert settled.shared_layers(targets) == \
            AncestrySearcher(rules).shared_layers(targets)

    def test_a_one_letter_target_of_two_directions_carries_both(self, abc_2d):
        targets = [word_to_pattern("A", Direction.E),
                   word_to_pattern("A", Direction.SE)]
        assert targets[0] == targets[1]
        closure = reference_closure(AncestrySearcher(abc_2d), targets[0])
        layers = AncestrySearcher(abc_2d).shared_layers(targets)
        assert layers[0] == {targets[0]: 0b11}
        assert closure_of(layers, 0) == closure_of(layers, 1) == closure


@st.composite
def crowded_rule_sets(draw):
    """1D or 2D rules with b in {2, 3} over up to four letters whose
    blocks use only some of them: many parents share a block letter, so
    parent products run large, and a letter no block uses has no
    parents."""
    letters = "ABCD"[:draw(st.integers(1, 4))]
    used = draw(st.text(alphabet=letters, min_size=1, max_size=2))
    b = draw(st.sampled_from((2, 3)))
    rh = 1 if draw(st.sampled_from((1, 2))) == 1 else b
    row = st.text(alphabet=used, min_size=b, max_size=b)
    return RuleSet({ch: tuple(draw(row) for _ in range(rh)) for ch in letters})


class TestSettledProducts:
    """The grounded search walks parent products whole; each product must
    still stand for exactly its members: its parent products hold its
    members' parents, offset by offset, and its groundings are its
    members' groundings."""

    @staticmethod
    def _check(searcher, pairs):
        for product, layout in pairs:
            assert parent_product_members(searcher, product, layout) == \
                reference_parent_products(searcher.rules, product), _text(product)
            assert searcher.groundings(product) == sorted(
                (pos, q) for q in members(product) for pos in occurrences(q, searcher.l1))

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_every_linked_pattern_and_its_parents(self, data):
        rules = data.draw(st.one_of(rule_sets(max_n=4, bs=(2, 3)),
                                    crowded_rule_sets()))
        l1 = data.draw(grids_for(rules, max_side=4))
        directions = ((Direction.E, Direction.W) if rules.dimension == 1
                      else tuple(Direction))
        searcher = AncestrySearcher(rules, l1)
        pairs = set()
        for _ in range(data.draw(st.integers(1, 2))):
            word = data.draw(st.text(alphabet=rules.letters,
                                     min_size=1, max_size=4))
            run = LayeredSearch(searcher, word, data.draw(st.sampled_from(directions)))
            first_grounded([run])
            pairs.update(pair for layer in run.layers for pair in layer)
        self._check(searcher, pairs)
        # The last layer's parent products are built here for the first time.
        self._check(searcher, {pair for product, layout in pairs
                               for pair in searcher.parent_products(product, layout)})

    def test_dimension_diagonals_on_the_shipped_puzzle(self, puzzle_path):
        """DIMENSION read NE or SW has 592 parents, none grounded; every
        SW parent is parentless.  Each direction holds them as 2
        products, which are grounded without a grid scan per member, and
        the SW run is exhausted by expanding its 2 products."""
        spec = load_puzzle(puzzle_path)
        searcher = AncestrySearcher(spec.rules, spec.l1)
        runs = [LayeredSearch(searcher, "DIMENSION", d)
                for d in (Direction.NE, Direction.SW)]
        for run in runs:
            assert run.check_grounding() is None
            run.advance()
        assert [(run.open, len(run.frontier)) for run in runs] == [(592, 2), (592, 2)]
        with mock.patch.object(GridIndex, "positions",
                               side_effect=AssertionError("grid scanned")):
            assert all(run.check_grounding() is None for run in runs)
        assert all(searcher.parents(q) == ()
                   for product in runs[1].frontier for q in members(product))
        assert not runs[1].advance() and runs[1].open == 0
        assert runs[0].advance()
        self._check(searcher, {pair for run in runs for layer in run.layers
                               for pair in layer})

    def test_every_parent_is_a_pattern(self, puzzle_path):
        """``parents`` lists patterns, for the sweep's closures and the
        trees, and the walk keeps products: a parent product is a pattern
        exactly when it has one member, and otherwise holds a non-empty
        tuple of letters or the wildcard per cell.  Checked on every
        parent product that a puzzle solve or 500 audit instances build,
        and on the parents of every member of the products they expand."""
        kinds, expanded = set(), []
        real = AncestrySearcher.parent_products

        def spy(searcher, product, layout):
            got = real(searcher, product, layout)
            expanded.append((searcher.rules, product))
            for q, _ in got:
                one = math.prod(map(len, q.cells)) == 1
                assert isinstance(q.cells, str) == one, _text(q)
                assert one or all(cell == WILDCARD or isinstance(cell, tuple) and cell
                                  for cell in q.cells), _text(q)
            return got

        with mock.patch.object(AncestrySearcher, "parent_products", spy):
            solve(load_puzzle(puzzle_path))
            run_agreement(500)
        for rules, product in expanded:
            searcher = AncestrySearcher(rules)
            for q in members(product):
                kinds.update(type(parent.cells) for parent, _ in searcher.parents(q))
        assert kinds == {str}

    def test_no_parentless_member_is_enumerated(self, puzzle_path):
        """A solve lists no member's parents: a product whose members have
        no parents has no parent products, so of the 252 products a
        puzzle solve expands, the 95 with none hold 1,044 parentless
        members, and none of them is enumerated."""
        expanded = {}
        real = AncestrySearcher.parent_products

        def spy(searcher, product, layout):
            got = real(searcher, product, layout)
            expanded.setdefault(product, got)
            return got

        spec = load_puzzle(puzzle_path)
        with mock.patch.object(AncestrySearcher, "parent_products", spy), \
                mock.patch.object(AncestrySearcher, "parents",
                                  side_effect=AssertionError("member enumerated")):
            solve(spec)
        dead = {q for product, got in expanded.items() if not got
                for q in members(product)}
        assert (len(expanded), sum(not got for got in expanded.values()),
                len(dead)) == (252, 95, 1044)
        assert all(reference_parents(spec.rules, q) == () for q in dead)


def rules_from(text: str) -> RuleSet:
    """Rules in their one-line text form, ``A>AB/CB;B>...``."""
    return RuleSet({ch: tuple(block.split("/")) for ch, block in
                    (item.split(">") for item in text.split(";"))})


@functools.cache
def puzzle_rules() -> RuleSet:
    return load_puzzle(PUZZLE_PATH).rules


@st.composite
def search_cases(draw, rules):
    """One search target: a word of up to four letters read in any
    direction, or a raw trimmed pattern of up to 3 x 3 cells."""
    if draw(st.booleans()):
        word = draw(st.text(alphabet=rules.letters, min_size=1, max_size=4))
        return word, draw(st.sampled_from(tuple(Direction)))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    cells = draw(st.text(alphabet=rules.letters + (WILDCARD,),
                         min_size=rows * cols, max_size=rows * cols))
    assume(cells.strip(WILDCARD))
    return trim(Pattern(rows, cols, cells)).text(), None


def _search_outcome(search):
    try:
        return search()
    except UnresolvedSearchError as err:
        return str(err), err.depth, err.nodes_expanded, err.patterns_seen


# Small searches, found by random search while large parent products
# were settled inside the enumeration, whose counts depend on members
# shared between parent products being met, counted and expanded once
# each.  Each is (rules, start grid, target, direction or None for a raw
# pattern).
DEDUPE_CASES = {
    # A later offset's one-member product is a member of an earlier
    # offset's product.
    "later-member-in-dead": ("A>DA;B>DD;C>CA;D>DA", "D", "DDD", Direction.E),
    # Two offsets' products of one child share a member.
    "dead-after-built": ("A>CC;B>BC;C>CB;D>CB", "AD", "C*C*C", None),
    # ... and so do two parentless ones.
    "dead-after-dead": ("A>CA;B>AA;C>CA;D>AA", "C", "CACA", Direction.W),
    # A parentless product holds a member that another child's parents
    # already met.
    "pattern-in-dead": ("A>AA;B>CC;C>AC;D>AA", "C", "C*A", None),
    # The products of two children share members: the later child's
    # product joins the layer only for the members the earlier one did
    # not hold.
    "dead-meets-dead": ("A>CC;B>CA;C>AC;D>CA", "D", "C**C", None),
    # A parentless product with more members than the run had met.
    "counted-from-links": ("A>CA/CA;B>AA/CC;C>CC/AA;D>AA/AA;E>AC/CA;F>AC/AA",
                           "FD", "A*/CA/*A", None),
}


class TestSearchMatchesReference:
    """``first_grounded`` walks letter-set products; it must still give
    every ``SearchResult`` field, and every depth-cap error, that the
    member-by-member reference gives, and meet the members it links."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_every_result_field(self, data):
        rules = data.draw(st.one_of(rule_sets(bs=(2, 3)), crowded_rule_sets(),
                                    st.builds(puzzle_rules)))
        l1 = data.draw(grids_for(rules, max_side=3))
        cases = data.draw(st.lists(search_cases(rules), min_size=1, max_size=2))
        cap = data.draw(st.none() | st.integers(0, 3))
        searcher = AncestrySearcher(rules, l1)
        got = _search_outcome(lambda: first_grounded(
            [LayeredSearch(searcher, word, d) for word, d in cases], cap))
        assert got == _search_outcome(lambda: reference_search(rules, l1, cases, cap))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_parent_lists_expand_to_the_reference(self, data):
        rules = data.draw(st.one_of(rule_sets(bs=(2, 3)), crowded_rule_sets()))
        l1 = data.draw(grids_for(rules, max_side=3))
        searcher = AncestrySearcher(rules, l1)
        case = data.draw(search_cases(rules))
        run = LayeredSearch(searcher, *case)
        links = []
        assert _search_outcome(lambda: first_grounded([run], 4)) == _search_outcome(
            lambda: reference_search(rules, l1, [case], 4, links))
        assert_walk_is_the_reference(run, links[0])

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_every_grounding_at_the_winning_depth(self, data):
        """What ``solve --cross-all`` crosses out: each run's groundings at
        the depth the lockstep stops on, read off its products' starts,
        are the reference's, member by member, with each member's chain."""
        rules = data.draw(st.one_of(rule_sets(bs=(2, 3)), crowded_rule_sets(),
                                    st.builds(puzzle_rules)))
        l1 = data.draw(grids_for(rules, max_side=3))
        cases = data.draw(st.lists(search_cases(rules), min_size=1, max_size=2))
        searcher = AncestrySearcher(rules, l1)
        runs = [LayeredSearch(searcher, word, d) for word, d in cases]
        links = []
        res = first_grounded(runs)
        assert res == reference_search(rules, l1, cases, links=links)
        for run, run_links in zip(runs, links):
            got = {(pos, q, run.chain(q, run.depth))
                   for product in run.frontier
                   for pos, q in searcher.groundings(product)}
            want = {(pos, q, chain) for q, chain in reference_chains(run_links).items()
                    if len(chain) == res.max_depth for pos in occurrences(q, l1)}
            assert got == want
            assert not got or res.found

    @pytest.mark.parametrize("case", DEDUPE_CASES.values(), ids=DEDUPE_CASES)
    def test_dedupe_case(self, case):
        text, grid, word, direction = case
        rules, l1 = rules_from(text), Grid.from_text(grid)
        searcher = AncestrySearcher(rules, l1)
        run = LayeredSearch(searcher, word, direction)
        links = []
        assert first_grounded([run]) == reference_search(rules, l1, [(word, direction)],
                                                         links=links)
        assert_walk_is_the_reference(run, links[0])

    def test_a_dead_product_stands_for_its_members(self):
        """DDD read E never appears from D.  Its parents at offset 0 are
        the product B x {A, B, D}, whose members have no parents and no
        groundings, and BB at offset 1 is one of them: the walk keeps the
        one product, and 4 patterns are seen and expanded, not 5."""
        rules = rules_from("A>DA;B>DD;C>CA;D>DA")
        searcher = AncestrySearcher(rules, Grid.from_text("D"))
        run = LayeredSearch(searcher, "DDD", Direction.E)
        parents = searcher.parent_products(run.target, "xxx")
        assert [(_text(q), layout) for q, layout in parents] == [
            ("B[ABD]", "xx"), ("BB", "xx")]
        assert [q.text() for q in members(parents[0][0])] == ["BA", "BB", "BD"]
        assert run.check_grounding() is None and run.advance()
        assert (run.frontier, run.open) == ([parents[0][0]], 3)
        with mock.patch.object(GridIndex, "positions",
                               side_effect=AssertionError("grid scanned")):
            assert run.check_grounding() is None
        assert searcher.parent_products(*run.layers[1][0]) == ()
        assert not run.advance()
        res = searcher.search("DDD", Direction.E)
        assert (res.found, res.nodes_expanded, res.patterns_seen) == (False, 4, 4)
        assert (run.nodes_expanded, run.patterns_seen) == (4, 4)

    def test_depth_cap_counts_open_dead_members(self, puzzle_path):
        """The error counts the members open on the last layer: BOUNDARY
        read NE has 16 parents, held in one product."""
        spec = load_puzzle(puzzle_path)
        with pytest.raises(UnresolvedSearchError) as err:
            first_appearance("BOUNDARY", Direction.NE, spec.l1, spec.rules,
                             depth_cap=0)
        assert str(err.value) == \
            "depth cap 0 reached with 16 open patterns for 'BOUNDARY'"
        assert (err.value.depth, err.value.nodes_expanded,
                err.value.patterns_seen) == (1, 1, 17)
        run = LayeredSearch(AncestrySearcher(spec.rules, spec.l1), "BOUNDARY",
                            Direction.NE)
        run.advance()
        assert (run.open, len(run.frontier)) == (16, 1)
        assert sum(1 for _ in members(run.frontier[0])) == 16


def _fills(pattern: Pattern, letters):
    holes = [i for i, ch in enumerate(pattern.cells) if ch == WILDCARD]
    chars = list(pattern.cells)
    for combo in itertools.product(letters, repeat=len(holes)):
        for i, ch in zip(holes, combo):
            chars[i] = ch
        yield Grid(pattern.rows, pattern.cols, "".join(chars), 1)


def _is_parent_by_definition(q: Pattern, p: Pattern, rules) -> bool:
    """Brute-force parenthood, restated from the definition: at some
    alignment, p's box spans q's whole box (no smaller box suffices),
    every q cell covering concrete p cells is a concrete letter whose
    block reproduces them, and every other q cell is a wildcard (no
    redundant constraint)."""
    rh, b = rules.rule_rows, rules.b
    cells = list(p.concrete_cells())
    for dr in range(rh):
        if (dr + p.rows + rh - 1) // rh != q.rows:
            continue
        for dc in range(b):
            if (dc + p.cols + b - 1) // b != q.cols:
                continue
            ok = True
            for pi in range(q.rows):
                for pj in range(q.cols):
                    covered = [(r, c, ch) for r, c, ch in cells
                               if (r + dr) // rh == pi and (c + dc) // b == pj]
                    cell = q.cells[pi * q.cols + pj]
                    if not covered:
                        if cell != WILDCARD:
                            ok = False
                    elif cell == WILDCARD:
                        ok = False
                    else:
                        block = rules.rules[cell]
                        if any(block[(r + dr) % rh][(c + dc) % b] != ch
                               for r, c, ch in covered):
                            ok = False
                    if not ok:
                        break
                if not ok:
                    break
            if ok:
                return True
    return False


def _all_trimmed_patterns(max_rows, max_cols, letters):
    symbols = tuple(letters) + (WILDCARD,)
    for rows in range(1, max_rows + 1):
        for cols in range(1, max_cols + 1):
            for combo in itertools.product(symbols, repeat=rows * cols):
                pat = Pattern(rows, cols, "".join(combo))
                if is_trimmed(pat):     # so not all wildcards
                    yield pat


class TestParentSoundnessCompleteness:
    """Exhaustive cross-check of the parent construction on tiny alphabets:
    the enumerated set must exactly equal the definitional set."""

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_exhaustive_1d(self, data):
        rules = data.draw(rule_sets(dims=(1,), max_n=3))
        word = data.draw(st.text(alphabet=rules.letters,
                                 min_size=1, max_size=3))
        child = word_to_pattern(word, Direction.E)
        got = {q for q, _ in AncestrySearcher(rules).parents(child)}
        brute = {
            q for q in _all_trimmed_patterns(
                max_parent_len(child.rows, rules.b),
                max_parent_len(child.cols, rules.b),
                rules.letters)
            if _is_parent_by_definition(q, child, rules)
        }
        assert got == brute

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_exhaustive_2d_diagonal_pairs(self, data):
        rules = data.draw(rule_sets(dims=(2,), max_n=2))
        word = data.draw(st.text(alphabet=rules.letters,
                                 min_size=2, max_size=2))
        child = word_to_pattern(word, Direction.SE)
        got = {q for q, _ in AncestrySearcher(rules).parents(child)}
        brute = {
            q for q in _all_trimmed_patterns(2, 2, rules.letters)
            if _is_parent_by_definition(q, child, rules)
        }
        assert got == brute

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_every_completion_of_a_parent_reproduces_the_child(self, data):
        rules = data.draw(rule_sets(max_n=3))
        word = data.draw(st.text(alphabet=rules.letters,
                                 min_size=1, max_size=3))
        direction = data.draw(st.sampled_from(
            (Direction.E,) if rules.dimension == 1 else (Direction.E, Direction.SE)))
        child = word_to_pattern(word, direction)
        for parent, _ in AncestrySearcher(rules).parents(child):
            for completion in _fills(parent, rules.letters):
                assert occurrences(child, expand(completion, rules, 1))


class TestFirstAppearance:
    def test_cacaba_from_single_a(self, abc_1d):
        res = first_appearance("CACABA", Direction.E, Grid.from_text("A"), abc_1d)
        assert res.found and res.level == 6

    def test_diagonal_pair_found_on_three(self, abc_2d):
        res = first_appearance("BB", Direction.SE, Grid.from_text("A"), abc_2d)
        assert res.found and res.level == 3

    def test_diagonal_pair_never_appears(self, abc_2d):
        res = first_appearance("AA", Direction.SE, Grid.from_text("A"), abc_2d)
        assert not res.found and res.level is None

    def test_single_letter_worst_case(self, abc_1d):
        res = first_appearance("A", Direction.E, Grid.from_text("CCC"), abc_1d)
        assert res.level == 3

    def test_level_equals_chain_length_plus_one(self, abc_1d):
        res = first_appearance("CACABA", Direction.E, Grid.from_text("A"), abc_1d)
        assert res.level == len(res.offsets) + 1

    def test_word_in_start_grid_is_level_one(self, abc_1d):
        res = first_appearance("BA", Direction.E, Grid.from_text("ABAB"), abc_1d)
        assert res.level == 1 and res.anchor == (1, 2)
        assert res.offsets == ()

    def test_witness_tie_break_is_row_major(self, abc_1d):
        res = first_appearance("B", Direction.E, Grid.from_text("ABAB"), abc_1d)
        assert res.anchor == (1, 2)

    def test_witness_tie_break_across_patterns_of_a_layer(self, abc_1d):
        # BA's parents AA and AB both ground in AAB, at (1, 1) and (1, 2):
        # the smaller (row, col, text) key wins.
        l1 = Grid.from_text("AAB")
        searcher = AncestrySearcher(abc_1d, l1)
        grounded = {p.text(): searcher.ground_positions(p)
                    for p, _ in searcher.parents(word_to_pattern("BA", Direction.E))}
        assert {text: pos for text, pos in grounded.items() if pos} == {
            "AA": ((1, 1),), "AB": ((1, 2),)}
        res = first_appearance("BA", Direction.E, l1, abc_1d)
        assert (res.level, res.ancestor, res.anchor) == (2, parse_pattern("AA"), (1, 1))

    def test_never_appears_is_a_fixpoint_not_a_cap(self, abc_1d):
        res = first_appearance("CC", Direction.E, Grid.from_text("A"), abc_1d)
        assert not res.found
        assert res.patterns_seen >= 1

    def test_a_raw_target_must_be_trimmed(self, abc_1d):
        searcher = AncestrySearcher(abc_1d, Grid.from_text("A"))
        with pytest.raises(ValueError, match="not trimmed"):
            LayeredSearch(searcher, "*AB", None)
        assert LayeredSearch(searcher, "A*B", None).target == parse_pattern("A*B")

    def test_depth_cap_raises_unresolved(self, abc_1d):
        with pytest.raises(UnresolvedSearchError) as err:
            first_appearance("CACABA", Direction.E, Grid.from_text("A"), abc_1d,
                             depth_cap=2)
        assert err.value.depth == 3
        assert err.value.patterns_seen > 0

    def test_depth_cap_still_finds_shallow_words(self, abc_1d):
        res = first_appearance("CAB", Direction.E, Grid.from_text("A"), abc_1d,
                               depth_cap=3)
        assert res.level == 4

    def test_deterministic_across_runs(self, abc_2d):
        runs = [
            first_appearance("BB", Direction.SE, Grid.from_text("A"), abc_2d)
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_searcher_reuse_matches_fresh_runs(self, abc_1d):
        searcher = AncestrySearcher(abc_1d, Grid.from_text("A"))
        first = searcher.search("CACABA", Direction.E)
        fresh = first_appearance("CACABA", Direction.E, Grid.from_text("A"), abc_1d)
        assert (first.level, first.ancestor, first.anchor, first.offsets) == \
            (fresh.level, fresh.ancestor, fresh.anchor, fresh.offsets)

    @pytest.mark.parametrize("entry", [
        lambda rules, l1, word: AncestrySearcher(rules, l1).search(
            word, Direction.SE),
        lambda rules, l1, word: first_appearance(word, Direction.SE, l1, rules),
    ], ids=["search", "first_appearance"])
    def test_both_entries_name_a_foreign_letter_alike(self, abc_2d, entry):
        """A word's own ValueError comes first, then its foreign letters."""
        l1 = Grid.from_text("A")
        with pytest.raises(UnknownLetterError) as err:
            entry(abc_2d, l1, "AZ")
        assert str(err.value) == "word uses letters outside the alphabet: ['Z']"
        with pytest.raises(ValueError, match="non-empty"):
            entry(abc_2d, l1, "")
        with pytest.raises(ValueError, match="wildcard"):
            entry(abc_2d, l1, "Z*")

    def test_raw_pattern_search(self, abc_2d):
        searcher = AncestrySearcher(abc_2d, Grid.from_text("A"))
        res = searcher.search("B*/*B", None)
        assert res.direction is None
        assert res.level == 3
        assert res.level == searcher.search("BB", Direction.SE).level
        addrs = witness_coordinates(res, Grid.from_text("A"), abc_2d)
        assert len(addrs) == 2


class TestGrounding:
    """The bit-parallel matcher against the brute-force window scan."""

    @staticmethod
    def assert_scan(rules, l1, patterns):
        searcher = AncestrySearcher(rules, l1)
        for pattern in patterns:
            assert list(searcher.ground_positions(pattern)) == \
                scan_occurrences(pattern, l1), pattern.text()

    @staticmethod
    def cut(rng, grid, rows, cols):
        """A rows x cols piece of the grid at a random place, about a
        third of its cells turned to wildcards, trimmed."""
        r0 = rng.randrange(grid.rows - rows + 1)
        c0 = rng.randrange(grid.cols - cols + 1)
        cells = [WILDCARD if rng.random() < 1 / 3 else ch
                 for line in grid.lines()[r0:r0 + rows]
                 for ch in line[c0:c0 + cols]]
        if set(cells) == {WILDCARD}:
            cells[0] = grid.lines()[r0][c0]
        return trim(Pattern(rows, cols, "".join(cells)))

    @staticmethod
    def random_grid(rng, rows, cols, letters="ABC"):
        return Grid(rows, cols,
                    "".join(rng.choice(letters) for _ in range(rows * cols)), 1)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_ground_positions_equal_occurrences(self, data):
        rules = data.draw(rule_sets())
        l1 = data.draw(grids_for(rules, max_side=6))
        rows = data.draw(st.integers(1, 3))
        cols = data.draw(st.integers(1, 3))
        cells = data.draw(st.text(alphabet=rules.letters + (WILDCARD,),
                                  min_size=rows * cols, max_size=rows * cols))
        assume(cells.count(WILDCARD) < len(cells))
        self.assert_scan(rules, l1, [trim(Pattern(rows, cols, cells))])

    def test_dimension_anti_diagonal_frontiers(self, puzzle_path):
        # The 5 x 5 parents of DIMENSION read NE and SW: most of a puzzle
        # solve's grounding calls, on the shipped 11 x 15 start grid.
        spec = load_puzzle(puzzle_path)
        searcher = AncestrySearcher(spec.rules, spec.l1)
        patterns = []
        for direction in (Direction.NE, Direction.SW):
            run = LayeredSearch(searcher, "DIMENSION", direction)
            assert run.advance()
            patterns += {q for product in run.frontier for q in members(product)
                         if (q.rows, q.cols) == (5, 5)}
            # each product's starts are its members' occurrences
            assert all(searcher.groundings(product) == [] for product in run.frontier)
        assert len(patterns) == 1184
        self.assert_scan(spec.rules, spec.l1, patterns)

    def test_grid_wider_than_a_machine_word(self, abc_2d):
        # 900-bit masks; a piece cut from the grid at every size up to
        # 6 x 6, which matches at least once, plus random pieces up to
        # 3 x 3, which mostly miss.
        rng = seeded_rng(30)
        l1 = self.random_grid(rng, 30, 30)
        patterns = [self.cut(rng, l1, rows, cols)
                    for rows in range(1, 7) for cols in range(1, 7)]
        patterns += [self.cut(rng, self.random_grid(rng, rows, cols), rows, cols)
                     for rows in range(1, 4) for cols in range(1, 4)]
        self.assert_scan(abc_2d, l1, patterns)

    @pytest.mark.parametrize("rows, cols", [(1, 17), (17, 1)])
    def test_one_row_and_one_column_grids(self, abc_2d, rows, cols):
        rng = seeded_rng(rows)
        l1 = self.random_grid(rng, rows, cols)
        patterns = [self.cut(rng, l1, min(rows, side), min(cols, side))
                    for side in range(1, 18) for _ in range(3)]
        patterns += [parse_pattern("A/A"), parse_pattern("AA"), parse_pattern("A*A")]
        self.assert_scan(abc_2d, l1, patterns)

    def test_pattern_as_large_as_the_grid(self, abc_2d):
        l1 = Grid.from_text("ABC/CAB/BCA")
        hit = [parse_pattern("ABC/CAB/BCA"), parse_pattern("A*C/***/B*A")]
        miss = [parse_pattern("ABC/CAB/BCB"), parse_pattern("A**/***/**B"),
                parse_pattern("ABCA/CABC/BCAB")]
        self.assert_scan(abc_2d, l1, hit + miss)
        searcher = AncestrySearcher(abc_2d, l1)
        assert [searcher.ground_positions(p) for p in hit] == [((1, 1),)] * 2
        assert not any(searcher.ground_positions(p) for p in miss)

    def test_pattern_letter_missing_from_the_grid(self, abc_2d):
        l1 = Grid.from_text("ABAB/BABA")
        patterns = [parse_pattern(text)
                    for text in ("C", "AC", "A*/*C", "C*/*B", "AB/BC")]
        self.assert_scan(abc_2d, l1, patterns)
        searcher = AncestrySearcher(abc_2d, l1)
        assert not any(searcher.ground_positions(p) for p in patterns)

    def test_ground_positions_need_a_start_grid(self, abc_1d):
        with pytest.raises(ValueError):
            AncestrySearcher(abc_1d).ground_positions(parse_pattern("A"))


class TestLockstep:
    """The one search loop shared by ``search`` and the puzzle solver."""

    @staticmethod
    def runs(rules, l1, *words):
        searcher = AncestrySearcher(rules, Grid.from_text(l1))
        return [LayeredSearch(searcher, w, Direction.E) for w in words]

    @pytest.mark.parametrize("words", [("BA", "AC"), ("AC", "BA")])
    def test_tie_at_the_same_depth_goes_to_the_earlier_run(self, abc_1d, words):
        # From "A": A, AB, ABAC -- both words first appear on level 3.
        runs = self.runs(abc_1d, "A", *words)
        res = first_grounded(runs)
        assert res is not None
        assert (res.word, res.direction, res.level) == (words[0], Direction.E, 3)
        assert res.target == runs[0].target
        assert [r.depth for r in runs] == [2, 2]

    def test_exhausted_run_stops_while_the_other_continues(self, abc_1d):
        # CC never appears (its frontier empties at once); CACABA is on level 6.
        never, found = self.runs(abc_1d, "A", "CC", "CACABA")
        res = first_grounded([never, found])
        assert res.word == "CACABA" and res.level == 6 and found.depth == 5
        assert never.frontier == [] and never.depth == 0
        assert never.nodes_expanded == 1

    def test_all_runs_exhausted_gives_none(self, abc_1d):
        """No run grounds: the answer is the first run's never-result."""
        runs = self.runs(abc_1d, "A", "CC", "BBAC")
        res = first_grounded(runs)
        assert not res.found and res.level is None and res.ancestor is None
        assert (res.word, res.target, res.max_depth) == \
            ("CC", runs[0].target, runs[0].depth)
        assert res.nodes_expanded == sum(r.nodes_expanded for r in runs)
        assert res.patterns_seen == sum(len(met) for r in runs for met in r.met.values())
        assert res.nodes_expanded > runs[0].nodes_expanded

    def test_depth_cap_raises_with_the_search_effort(self, abc_1d):
        runs = self.runs(abc_1d, "A", "CACABA", "CC")
        with pytest.raises(UnresolvedSearchError) as err:
            first_grounded(runs, depth_cap=2)
        assert err.value.depth == 3
        assert err.value.nodes_expanded == sum(r.nodes_expanded for r in runs) > 0
        assert err.value.patterns_seen == sum(
            len(met) for r in runs for met in r.met.values()) > 0
        assert "depth cap 2" in str(err.value)
        assert "for 'CACABA'" in str(err.value)

    def test_result_counts_the_effort_the_depth_cap_reports(self, abc_1d):
        # CACABA grounds at depth 5; capping the same runs at depth 4
        # stops them after the same expansions, one layer short.
        words = ("BBAC", "CACABA", "CC")
        res = first_grounded(self.runs(abc_1d, "A", *words))
        with pytest.raises(UnresolvedSearchError) as err:
            first_grounded(self.runs(abc_1d, "A", *words), depth_cap=4)
        assert err.value.depth == 5
        assert (res.nodes_expanded, res.patterns_seen) == \
            (err.value.nodes_expanded, err.value.patterns_seen)
        # the sums cover every run, not only the winner
        alone = first_grounded(self.runs(abc_1d, "A", "CACABA"))
        assert res.nodes_expanded > alone.nodes_expanded
        assert res.patterns_seen > alone.patterns_seen

    @pytest.mark.parametrize("word,found,max_depth", [
        ("CACABA", True, 5), ("BBAC", False, 2)])
    def test_search_agrees_with_driving_one_run(self, abc_1d, word, found,
                                                max_depth):
        searcher = AncestrySearcher(abc_1d, Grid.from_text("A"))
        run = LayeredSearch(searcher, word, Direction.E)
        while True:
            grounded = run.check_grounding()
            if grounded is not None or not run.advance():
                break
        direct = run.result(grounded)
        res = searcher.search(word, Direction.E)
        assert res == direct
        assert (res.found, res.max_depth) == (found, max_depth)
        assert run.layers[0] == [(res.target, layout_of(res.target))]
        assert res.patterns_seen == sum(map(len, run.met.values()))
        assert res.nodes_expanded == run.nodes_expanded

class TestParentLevelShift:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_some_parent_occurs_one_level_earlier(self, data):
        """If a word first appears on level k > 1 of a materialized run,
        one of its parents occurs on level k-1."""
        rules = data.draw(rule_sets(max_n=3))
        l1 = data.draw(grids_for(rules, max_side=3))
        word = data.draw(st.text(alphabet=rules.letters,
                                 min_size=1, max_size=3))
        direction = data.draw(st.sampled_from(
            (Direction.E,) if rules.dimension == 1 else (Direction.E, Direction.SE)))
        target = word_to_pattern(word, direction)
        levels = [l1]
        for _ in range(5):
            levels.append(expand(levels[-1], rules, 1))
        first = next((k for k, g in enumerate(levels, start=1)
                      if occurrences(target, g)), None)
        if first is None or first == 1:
            return
        parents = AncestrySearcher(rules).parents(target)
        assert any(occurrences(p, levels[first - 2]) for p, _ in parents)


class TestWitnessCoordinates:
    def test_level_one_witness_is_the_occurrence(self, abc_1d):
        res = first_appearance("BA", Direction.E, Grid.from_text("ABAB"), abc_1d)
        addrs = witness_coordinates(res, Grid.from_text("ABAB"), abc_1d)
        assert [(a.level, a.row, a.col) for a in addrs] == [(1, 1, 2), (1, 1, 3)]

    def test_cacaba_column_span(self, abc_1d):
        l1 = Grid.from_text("A")
        res = first_appearance("CACABA", Direction.E, l1, abc_1d)
        addrs = witness_coordinates(res, l1, abc_1d)
        cols = [a.col for a in addrs]
        assert all(a.level == 6 for a in addrs)
        assert all(1 <= c <= 32 for c in cols)
        level6 = expand(l1, abc_1d, 5)
        assert "".join(level6.letter(1, c) for c in cols) == "CACABA"

    def test_addresses_stay_inside_ancestor_block(self, abc_2d):
        l1 = Grid.from_text("A")
        res = first_appearance("BB", Direction.SE, l1, abc_2d)
        addrs = witness_coordinates(res, l1, abc_2d)
        (rlo, rhi), (clo, chi) = descendant_block_range((1, 1), res.level, abc_2d)
        for a in addrs:
            assert rlo <= a.row <= rhi and clo <= a.col <= chi

    def test_reversed_direction_spells_word_in_order(self, abc_1d):
        l1 = Grid.from_text("ABAB")
        res = first_appearance("AB", Direction.W, l1, abc_1d)
        addrs = witness_coordinates(res, l1, abc_1d)
        assert res.level == 1
        # The box anchors at column 2; the word itself reads right to left.
        assert [a.col for a in addrs] == [3, 2]

    def test_rejects_never_results(self, abc_1d):
        res = first_appearance("CC", Direction.E, Grid.from_text("A"), abc_1d)
        with pytest.raises(ValueError):
            witness_coordinates(res, Grid.from_text("A"), abc_1d)

    def test_oracle_disagreement_is_trapped(self, abc_1d):
        import dataclasses

        from fractalsearch.errors import WitnessError

        l1 = Grid.from_text("ABAB")
        res = first_appearance("BA", Direction.E, l1, abc_1d)
        doctored = dataclasses.replace(res, anchor=(1, 1))
        with pytest.raises(WitnessError):
            witness_coordinates(doctored, l1, abc_1d)

    def test_doctored_raw_pattern_result_is_trapped(self, abc_2d):
        import dataclasses

        from fractalsearch.errors import WitnessError

        # B*/*B grounds in the A of AC; moved onto the C, its letters
        # are no longer B and B.
        l1 = Grid.from_text("AC")
        res = first_appearance("B*/*B", None, l1, abc_2d)
        assert (res.ancestor, res.anchor) == (parse_pattern("A"), (1, 1))
        assert len(witness_coordinates(res, l1, abc_2d)) == 2
        doctored = dataclasses.replace(res, anchor=(1, 2))
        with pytest.raises(WitnessError):
            witness_coordinates(doctored, l1, abc_2d)

    def test_inconsistent_chain_is_rejected_at_construction(self, abc_1d):
        import dataclasses

        res = first_appearance("CAB", Direction.E, Grid.from_text("A"), abc_1d)
        # The level is read off the chain, so no result can disagree with it.
        with pytest.raises(TypeError):
            dataclasses.replace(res, level=2)
        assert res.level == len(res.offsets) + 1


class TestAncestorTree:
    def test_cacaba_tree_shape(self, abc_1d):
        tree = ancestor_tree("CACABA", Direction.E, abc_1d)
        assert tree.pattern.text() == "CACABA"
        assert [c.pattern.text() for c in tree.children] == ["BBAA", "BBAB"]
        bbaa, bbab = tree.children
        assert bbaa.status == "no-parents" and not bbaa.children
        assert [c.pattern.text() for c in bbab.children] == ["CA"]
        ca = bbab.children[0]
        assert sorted(c.pattern.text() for c in ca.children) == ["BA", "BB"]

    def test_cacaba_tree_depth_and_leaves(self, abc_1d):
        tree = ancestor_tree("CACABA", Direction.E, abc_1d)
        assert max(node.depth for node in _walk(tree)) == 5
        leaves = sorted(node.pattern.text() for node in _walk(tree)
                        if not node.children)
        assert leaves == ["A", "AA", "B", "B", "BBAA", "BC", "CC"]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_equals_the_member_by_member_tree(self, data):
        """Parents settled in products give the same tree that
        member-by-member parents and groundings give."""
        rules = data.draw(crowded_rule_sets())
        l1 = data.draw(grids_for(rules, max_side=3))
        word = data.draw(st.text(alphabet=rules.letters, min_size=1, max_size=3))
        direction = data.draw(st.sampled_from(tuple(Direction)))
        self._check_tree(word, direction, rules, l1)

    def test_a_tree_of_dead_products(self):
        # BBBBB read NE never appears from A/B: its 192 parents are the
        # members of three dead products, one per offset, each member a
        # no-parents leaf.
        rules = rules_from("A>BB/BB;B>BB/AA;C>BB/BB")
        l1 = Grid.from_text("A/B")
        target = word_to_pattern("BBBBB", Direction.NE)
        parents = AncestrySearcher(rules, l1).parents(target)
        assert [sum(1 for _, off in parents if off == at)
                for at in ((0, 0), (0, 1), (1, 1))] == [108, 12, 72]
        tree = self._check_tree("BBBBB", Direction.NE, rules, l1)
        assert len(tree.children) == 192
        assert {child.status for child in tree.children} == {"no-parents"}

    @staticmethod
    def _check_tree(word, direction, rules, l1):
        tree = ancestor_tree(word, direction, rules, l1)
        with mock.patch.object(AncestrySearcher, "parents",
                               lambda self, p: reference_parents(self.rules, p)), \
                mock.patch.object(AncestrySearcher, "ground_positions",
                                  lambda self, p: tuple(occurrences(p, self.l1))):
            assert tree_to_json(tree) == tree_to_json(
                ancestor_tree(word, direction, rules, l1))
        return tree

    def test_unproducible_letter_gives_root_only_tree(self):
        rules = RuleSet({"A": ("BB",), "B": ("BB",)})
        tree = ancestor_tree("A", Direction.E, rules)
        assert tree.status == "no-parents" and not tree.children

    def test_grounded_status_with_start_grid(self, abc_1d):
        tree = ancestor_tree("CACABA", Direction.E, abc_1d, Grid.from_text("A"))
        grounded = [n for n in _walk(tree) if n.status == "grounded"]
        assert grounded and all(n.pattern.text() == "A" for n in grounded)

    def test_json_export_round_trips_structure(self, abc_1d):
        tree = ancestor_tree("CAB", Direction.E, abc_1d)
        data = json.loads(tree_to_json(tree))
        assert data["pattern"] == "CAB"
        assert data["children"][0]["pattern"] == "BA"
        assert {"pattern", "depth", "status", "children"} <= set(data)

    def test_dot_export_mentions_every_pattern(self, abc_1d):
        tree = ancestor_tree("CAB", Direction.E, abc_1d)
        dot = tree_to_dot(tree)
        assert dot.startswith("digraph")
        for node in _walk(tree):
            assert f'label="{node.pattern.text()}"' in dot


def _walk(node):
    yield node
    for child in node.children:
        yield from _walk(child)
