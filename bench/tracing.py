"""Span tracer installed around the package's functions for the traced run.

Every wrapped call records a span: name, start, end, parent span and
the id of the benchmark operation that caused it.  Self time is a
span's duration minus the time its child spans cover; it is summed as
spans close, using the stack of open spans.  Each wrapper may also add
counts measured at the same boundary.  The hot private helpers of the
fill-and-scan (``_occurs_in``, ``_fills``) are only counted, not timed,
so their time stays in ``latest_with_searcher``'s self time.

Wrappers are installed by patching every binding of the original in
the package's modules (a function imported by name into several
modules is patched in each), and :meth:`Tracer.uninstall` puts every
original object back.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import weakref
from collections import Counter, defaultdict
from time import perf_counter

from fractalsearch import ancestry, core, oracle, patterns, puzzle

MARK = "_bench_tracer_wrapper"
KEEP_SPANS = 100_000            # spans kept for the dump; aggregates see all


def _first_seen(table: weakref.WeakKeyDictionary, searcher, key) -> bool:
    """True on the first call with this key for this searcher."""
    seen = table.get(searcher)
    if seen is None:
        seen = table[searcher] = set()
    if key in seen:
        return False
    seen.add(key)
    return True


class Tracer:
    """Spans and counts for the traced run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op_id: int | str = "setup"
        self._stack: list[list] = []      # [span id, start, child time]
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []
        self._parents_seen = weakref.WeakKeyDictionary()
        self._grounds_seen = weakref.WeakKeyDictionary()
        self.reset()

    def reset(self) -> None:
        """Start a fresh set of aggregates (spans kept so far stay)."""
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()

    # -- spans ---------------------------------------------------------------

    def _enter(self) -> list:
        frame = [self._next_id, perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list) -> None:
        end = perf_counter()
        span_id, start, child = frame
        self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        if len(self.spans) < KEEP_SPANS:
            self.spans.append((span_id, name, start, end,
                               parent[0] if parent is not None else None,
                               self.op_id))

    def _span(self, name: str, fn, after=None):
        """Wrap ``fn`` in a span; ``after(result, arguments)`` adds counts."""
        signature = inspect.signature(fn)
        names = tuple(signature.parameters)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, frame)
            if after is not None:
                after(result, signature.bind(*args, **kwargs).arguments if kwargs
                      else dict(zip(names, args)))
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    def _counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, MARK, True)
        return wrapper

    def _counted_items(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.counts[name] += 1
                yield item

        setattr(wrapper, MARK, True)
        return wrapper

    # -- counts measured at the boundaries -----------------------------------

    def _after_parents(self, result, arguments):
        self.counts["ancestry.parents.returned"] += len(result)
        if _first_seen(self._parents_seen, arguments["self"], arguments["pattern"]):
            self.counts["ancestry.parents.enumerations"] += 1
            self.counts["ancestry.parents.parents_out"] += len(result)

    def _after_ground_positions(self, result, arguments):
        searcher, pattern = arguments["self"], arguments["pattern"]
        if not _first_seen(self._grounds_seen, searcher, pattern):
            return
        l1 = searcher.l1
        self.counts["ancestry.ground_positions.scans"] += 1
        self.counts["ancestry.ground_positions.windows"] += (
            max(0, l1.rows - pattern.rows + 1) * max(0, l1.cols - pattern.cols + 1))
        if result:
            self.counts["ancestry.ground_positions.grounded"] += 1

    def _after_closure(self, result, arguments):
        self.counts["ancestry.closure.patterns"] += len(result)

    def _after_solve(self, report, arguments):
        self.counts["puzzle.nodes_expanded"] += report.nodes_expanded
        self.counts["puzzle.patterns_seen"] += report.patterns_seen

    def _after_forward(self, level, arguments):
        # Computed, not observed: the cells of every level the forward
        # route builds, from the start grid's shape and the block shape.
        l1, rules = arguments["l1"], arguments["rules"]
        last = arguments["max_level"] if level is None else level
        self.counts["oracle.forward_first_appearance.cells_materialized"] += sum(
            l1.rows * rules.rule_rows ** k * l1.cols * rules.b ** k
            for k in range(last))

    def _advance(self, fn):
        span = self._span("ancestry.advance", fn)

        @functools.wraps(fn)
        def wrapper(run):
            before = self.counts["ancestry.parents.returned"]
            result = span(run)
            self.counts["ancestry.advance.parents_returned"] += (
                self.counts["ancestry.parents.returned"] - before)
            self.counts["ancestry.advance.new_patterns"] += len(run.frontier)
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    # -- install / uninstall -------------------------------------------------

    def _targets(self):
        """(owner, attribute, wrapper factory) for every traced boundary."""
        searcher, layered = ancestry.AncestrySearcher, ancestry.LayeredSearch
        span = self._span
        return [
            (puzzle, "load_puzzle", lambda f: span("files.load_puzzle", f)),
            (core, "contract", lambda f: span("core.contract", f)),
            (searcher, "__init__", lambda f: span("ancestry.searcher_init", f)),
            (searcher, "parents",
             lambda f: span("ancestry.parents", f, self._after_parents)),
            (searcher, "ground_positions",
             lambda f: span("ancestry.ground_positions", f,
                            self._after_ground_positions)),
            (searcher, "search", lambda f: span("ancestry.search", f)),
            (searcher, "closure",
             lambda f: span("ancestry.closure", f, self._after_closure)),
            (layered, "advance", self._advance),
            (layered, "check_grounding", lambda f: span("ancestry.check_grounding", f)),
            (ancestry, "witness_coordinates",
             lambda f: span("ancestry.witness_coordinates", f)),
            (core, "letter_at", lambda f: span("core.letter_at", f)),
            (puzzle, "solve", lambda f: span("puzzle.solve", f, self._after_solve)),
            (puzzle, "answer_window", lambda f: span("puzzle.answer_window", f)),
            (puzzle, "crossed_out_l1_cells",
             lambda f: span("puzzle.crossed_out_l1_cells", f)),
            (patterns, "occurrences", lambda f: span("patterns.occurrences", f)),
            (oracle, "latest_with_searcher",
             lambda f: span("oracle.latest_with_searcher", f)),
            (oracle, "_occurs_in", lambda f: self._counted("oracle.occurs_in.calls", f)),
            (oracle, "_fills", lambda f: self._counted_items("oracle.fill_candidates", f)),
            (oracle, "forward_first_appearance",
             lambda f: span("oracle.forward_first_appearance", f, self._after_forward)),
            (oracle, "check_instance", lambda f: span("oracle.check_instance", f)),
            (oracle, "sweep_max_latest", lambda f: span("oracle.sweep_max_latest", f)),
        ]

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        assert_untraced()
        for owner, attr, factory in self._targets():
            original = vars(owner)[attr]
            wrapper = factory(original)
            if isinstance(owner, type):
                bindings = [(owner, attr)]
            else:
                bindings = [(module, name) for module in package_modules()
                            for name, value in vars(module).items()
                            if value is original]
            for holder, name in bindings:
                self._patched.append((holder, name, original))
                setattr(holder, name, wrapper)

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._patched):
            setattr(holder, name, original)
        self._patched.clear()
        assert_untraced()

    # -- output --------------------------------------------------------------

    def dump(self, path) -> None:
        """Write the kept spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op}) + "\n")


def package_modules():
    return [module for name, module in sorted(sys.modules.items())
            if module is not None
            and (name == "fractalsearch" or name.startswith("fractalsearch."))]


def assert_untraced() -> None:
    """Raise if any tracer wrapper is still bound in the package."""
    holders = package_modules() + [ancestry.AncestrySearcher, ancestry.LayeredSearch]
    for holder in holders:
        for name, value in vars(holder).items():
            if getattr(value, MARK, False):
                raise RuntimeError(f"tracer wrapper left on {holder.__name__}.{name}")
