"""Timed loops, set-up probes and metric assembly for one benchmark run.

An untraced run (``trace=False``) gives the end-to-end metrics, its
times scaled to a nominal host speed by ``calibrate``.  A traced run first measures a short untraced baseline, then installs the
tracer, and gives the per-layer metrics plus the tracing overhead
against that baseline.  Both loops are closed: one client, and each
operation starts after the previous one returns.  The untraced loop
cycles through the workload's inputs until the time is up and at least
one whole pass is done, and its metrics cover the whole passes, so that
every input weighs the same; the traced loop runs whole passes over the
first ``TRACE_PASS`` inputs, so that its per-pass counts can be
compared exactly.
"""

from __future__ import annotations

import itertools
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import calibrate
import tracing

BENCH = Path(__file__).resolve().parent
SPAN_DIR = BENCH / "out"
SETUP_REPEATS = 7
CHUNK_S = 0.2                  # operation time between two reference loops
TRACE_PASS = 1000               # inputs per traced pass
BASELINE_SHARE = 0.25          # of a traced run, spent untraced for the overhead

END_TO_END = [
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("throughput_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

# Values are per traced pass: one solve, one sweep, or 1,000 audit instances.
PER_LAYER = [
    ("files.load_puzzle.s", "s"),
    ("core.contract.s", "s"),
    ("ancestry.searcher_init.calls", "count"),
    ("ancestry.searcher_init.s", "s"),
    ("ancestry.parents.calls", "count"),
    ("ancestry.parents.enumerations", "count"),
    ("ancestry.parents.hit_ratio", "ratio"),
    ("ancestry.parents.parents_out", "count"),
    ("ancestry.parents.self_s", "s"),
    ("ancestry.ground_positions.calls", "count"),
    ("ancestry.ground_positions.scans", "count"),
    ("ancestry.ground_positions.windows", "count"),
    ("ancestry.ground_positions.grounded_ratio", "ratio"),
    ("ancestry.ground_positions.self_s", "s"),
    ("ancestry.advance.calls", "count"),
    ("ancestry.advance.new_patterns", "count"),
    ("ancestry.advance.dedupe_ratio", "ratio"),
    ("ancestry.advance.self_s", "s"),
    ("ancestry.check_grounding.self_s", "s"),
    ("ancestry.closure.calls", "count"),
    ("ancestry.closure.patterns", "count"),
    ("ancestry.closure.self_s", "s"),
    ("ancestry.search.self_s", "s"),
    ("ancestry.witness_coordinates.calls", "count"),
    ("ancestry.witness_coordinates.self_s", "s"),
    ("core.letter_at.calls", "count"),
    ("core.letter_at.s", "s"),
    ("puzzle.solve.self_s", "s"),
    ("puzzle.answer_window.s", "s"),
    ("puzzle.crossed_out_l1_cells.s", "s"),
    ("puzzle.nodes_expanded", "count"),
    ("puzzle.patterns_seen", "count"),
    ("patterns.occurrences.calls", "count"),
    ("patterns.occurrences.s", "s"),
    ("oracle.latest_with_searcher.calls", "count"),
    ("oracle.latest_with_searcher.self_s", "s"),
    ("oracle.occurs_in.calls", "count"),
    ("oracle.fill_candidates", "count"),
    ("oracle.forward_first_appearance.calls", "count"),
    ("oracle.forward_first_appearance.s", "s"),
    ("oracle.forward_first_appearance.cells_materialized", "cells_computed"),
    ("oracle.check_instance.self_s", "s"),
    ("oracle.sweep_max_latest.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
]
SETUP_LAYER = ("files.load_puzzle.s", "core.contract.s")
OVERHEAD = "trace.overhead_frac"
COUNTED = [name for name, unit in PER_LAYER if unit != "s" and name != OVERHEAD]


@dataclass
class Loop:
    """What one timed loop saw."""

    latencies: list[float] = field(default_factory=list)
    ok: list[bool] = field(default_factory=list)
    passes: int = 0
    pass_s: list[float] = field(default_factory=list)
    failed: int = 0
    kept: list = field(default_factory=list)     # results for the run check
    kept_failed: int = 0
    problems: list[str] = field(default_factory=list)


@dataclass
class Result:
    attempted: int
    failed: int
    correct: bool
    metrics: dict[str, tuple[float, str]]
    notes: list[str]

    def to_json_dict(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in self.metrics.items()},
        }


def timed_loop(workload, items: list, seconds: float, *, whole_passes: bool = False,
               before_op=None, after_pass=None, clock=None) -> Loop:
    """Run operations over ``items`` in order, cycling, until ``seconds``
    have gone by and at least one whole pass is done (and only whole
    passes if ``whole_passes``), checking every result.  A ``clock``
    is told of every operation's end."""
    loop = Loop()
    start = pass_start = perf_counter()
    for index, item in enumerate(itertools.cycle(items)):
        if before_op is not None:
            before_op(index)
        t0 = perf_counter()
        try:
            result = workload.run(item)
        except Exception as exc:  # a raised error is a failed operation
            loop.latencies.append(perf_counter() - t0)
            result, problems = None, [f"{type(exc).__name__}: {exc}"]
        else:
            loop.latencies.append(perf_counter() - t0)
            problems = workload.check(item, result)
        if clock is not None:
            clock.record()
        loop.ok.append(not problems)
        keep = index < workload.run_check_ops
        if keep:
            loop.kept.append(result)
        if problems:
            loop.failed += 1
            loop.kept_failed += keep
            if problems[0] not in loop.problems and len(loop.problems) < 5:
                loop.problems.append(problems[0])
        end_of_pass = (index + 1) % len(items) == 0
        if end_of_pass:
            loop.passes += 1
            loop.pass_s.append(perf_counter() - pass_start)
            pass_start = perf_counter()
            if after_pass is not None:
                after_pass()
        if (perf_counter() - start >= seconds and loop.passes
                and (end_of_pass or not whole_passes)):
            break
    return loop


def nearest_rank(values: list[float], percentile: float) -> float:
    ordered = sorted(values)
    rank = -(-len(ordered) * percentile // 100)
    return ordered[max(0, int(rank) - 1)]


def setup_seconds(name: str, seed: int) -> float:
    """Median over fresh processes of the package import plus input
    preparation, in nominal seconds."""
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), name, str(seed)],
            capture_output=True, text=True, check=True, timeout=120)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def _run_level_failures(workload, seed: int, loop: Loop) -> tuple[int, list[str]]:
    """Operations invalidated by the once-per-run check: every operation
    it covers, when it fails."""
    problems = workload.check_run(seed, loop.kept)
    if not problems:
        return 0, []
    return len(loop.kept) - loop.kept_failed, problems


def measure(workload, seed: int, seconds: float, trace: bool) -> Result:
    """One run of ``workload``: end-to-end metrics, or per-layer metrics
    when ``trace`` is set."""
    tracing.assert_untraced()
    if trace:
        return _measure_traced(workload, seed, seconds)
    setup_s = setup_seconds(workload.name, seed)
    items = workload.prepare(seed)
    clock = calibrate.Clock(CHUNK_S)
    loop = timed_loop(workload, items, seconds, clock=clock)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    extra, run_problems = _run_level_failures(workload, seed, loop)
    attempted = len(loop.latencies)
    failed = loop.failed + extra
    counted = loop.passes * len(items)       # the operations of whole passes
    wall = loop.latencies[:counted]
    scaled = [t * f for t, f in zip(wall, clock.scales())]
    tail_p = workload.tail_percentile
    beyond = counted - -(-counted * tail_p // 100)
    metrics = {
        "latency_p50_s": (statistics.median(scaled), "s"),
        "latency_tail_s": (nearest_rank(scaled, tail_p), "s"),
        "throughput_per_s": (sum(loop.ok[:counted]) / sum(scaled), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = [
        f"{attempted} operations over {len(items)} inputs, {sum(loop.latencies):.2f} s "
        f"in them; metrics over the {counted} of {loop.passes} whole passes",
        f"times scaled to a {calibrate.REFERENCE_S * 1e3:g} ms reference loop; "
        f"it took {statistics.median(clock.refs) * 1e3:.1f} ms (median of "
        f"{len(clock.refs)}); unscaled latency p50 {statistics.median(wall):.6g} s, "
        f"p{tail_p:g} {nearest_rank(wall, tail_p):.6g} s",
        f"latency_tail_s is p{tail_p:g} of {counted} samples "
        f"({int(beyond)} beyond it)",
        f"failed_frac {failed / attempted:g} ({failed}/{attempted})",
    ] + loop.problems + run_problems
    return Result(attempted, failed, failed == 0 and not run_problems, metrics, notes)


def _layer_values(tracer: tracing.Tracer) -> dict[str, float]:
    calls, total, self_s, counts = (tracer.calls, tracer.total_s,
                                    tracer.self_s, tracer.counts)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values = {}
    for name, _unit in PER_LAYER:
        if name == OVERHEAD:
            continue
        base, _, kind = name.rpartition(".")
        if name in counts:
            values[name] = counts[name]
        elif kind == "calls":
            values[name] = calls[base]
        elif kind == "s":
            values[name] = total[base]
        elif kind == "self_s":
            values[name] = self_s[base]
        else:
            values[name] = counts[name]
    parents = "ancestry.parents"
    values[f"{parents}.hit_ratio"] = ratio(
        calls[parents] - counts[f"{parents}.enumerations"], calls[parents])
    values["ancestry.ground_positions.grounded_ratio"] = ratio(
        counts["ancestry.ground_positions.grounded"],
        counts["ancestry.ground_positions.scans"])
    values["ancestry.advance.dedupe_ratio"] = ratio(
        counts["ancestry.advance.new_patterns"],
        counts["ancestry.advance.parents_returned"])
    return values


def _measure_traced(workload, seed: int, seconds: float) -> Result:
    items = workload.prepare(seed)[:TRACE_PASS]
    baseline = timed_loop(workload, items, seconds * BASELINE_SHARE, whole_passes=True)
    tracer = tracing.Tracer()
    setup_passes: list[dict[str, float]] = []
    passes: list[dict[str, float]] = []

    def snapshot(into: list) -> None:
        into.append(_layer_values(tracer))
        tracer.reset()

    def set_op(index: int) -> None:
        tracer.op_id = index

    tracer.install()
    try:
        for _ in range(SETUP_REPEATS):
            tracer.op_id = "setup"
            workload.prepare(seed)
            snapshot(setup_passes)
        traced = timed_loop(workload, items, seconds * (1 - BASELINE_SHARE),
                            whole_passes=True, before_op=set_op,
                            after_pass=lambda: snapshot(passes))
    finally:
        tracer.uninstall()
    SPAN_DIR.mkdir(exist_ok=True)
    tracer.dump(SPAN_DIR / f"{workload.name}.spans.jsonl")

    extra, run_problems = _run_level_failures(workload, seed, traced)
    drifted = [i for i, values in enumerate(passes)
               if any(values[name] != passes[0][name] for name in COUNTED)]
    if drifted:
        run_problems.append(f"counts differ between traced passes {drifted}")
    overhead = statistics.mean(traced.pass_s) / statistics.mean(baseline.pass_s) - 1
    metrics = {}
    for name, unit in PER_LAYER:
        if name == OVERHEAD:
            metrics[name] = (overhead, unit)
        elif name in COUNTED:
            metrics[name] = (passes[0][name], unit)
        else:
            source = setup_passes if name in SETUP_LAYER else passes
            metrics[name] = (statistics.median(p[name] for p in source), unit)
    attempted = len(baseline.latencies) + len(traced.latencies)
    failed = baseline.failed + traced.failed + extra + len(drifted)
    notes = [
        f"untraced baseline: passes={len(baseline.pass_s)}, "
        f"{statistics.mean(baseline.pass_s):.4f} s per pass of {len(items)} inputs",
        f"traced: passes={len(traced.pass_s)}, "
        f"{statistics.mean(traced.pass_s):.4f} s per pass, "
        f"overhead {overhead:+.1%}; {len(tracer.spans)} spans kept",
        f"failed_frac {failed / attempted:g} ({failed}/{attempted})",
    ] + baseline.problems + traced.problems + run_problems
    return Result(attempted, failed, failed == 0 and not run_problems, metrics, notes)
