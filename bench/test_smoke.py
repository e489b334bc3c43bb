"""Smoke test of the benchmark itself: tiny runs of every workload.

Run from the repository root:

    python3 -m pytest -q bench/test_smoke.py

It checks that every metric named in BENCHMARK.json is printed with its
unit, that corrupted outputs and drifting counts are counted as failed
operations, and that the tracer leaves the package as it found it.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from fractalsearch import oracle, patterns, puzzle  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY_SECONDS = 0.01


def tiny(name: str):
    if name == "audit":
        return workloads.Audit(instances=20, run_check_ops=20)
    return workloads.WORKLOADS[name]()


def test_benchmark_json_names_the_workloads_and_metrics():
    import run

    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == harness.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == harness.PER_LAYER


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(name, trace):
    result = harness.measure(tiny(name), 7, TINY_SECONDS, trace)
    assert result.correct, result.notes
    assert result.failed == 0 and result.attempted >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    printed = result.to_json_dict()["metrics"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in printed.items()}
    if not trace:
        assert all(metric["value"] > 0 for metric in printed.values())


def test_traced_counts_repeat_exactly_and_wrappers_are_removed():
    originals = (puzzle.solve, oracle.check_instance, patterns.occurrences,
                 vars(oracle)["_fills"])
    first = harness.measure(tiny("audit"), 5, TINY_SECONDS, True)
    second = harness.measure(tiny("audit"), 5, TINY_SECONDS, True)
    assert ({n: first.metrics[n] for n in harness.COUNTED}
            == {n: second.metrics[n] for n in harness.COUNTED})
    assert first.metrics["oracle.check_instance.self_s"][0] > 0
    assert originals == (puzzle.solve, oracle.check_instance, patterns.occurrences,
                         vars(oracle)["_fills"])
    tracing.assert_untraced()


def test_sweep_never_grounds():
    result = harness.measure(tiny("sweep"), 1, TINY_SECONDS, True)
    assert result.metrics["ancestry.ground_positions.calls"][0] == 0
    assert result.metrics["oracle.latest_with_searcher.calls"][0] == 8748


@pytest.mark.parametrize("change", [
    {"level_sum": 166},
    {"nodes_expanded": 2194},
    {"message": "SUMEACHWORDSLEVELXMARKSSPOS"},
])
def test_mutated_puzzle_report_is_a_failed_operation(monkeypatch, change):
    solve = puzzle.solve
    monkeypatch.setattr(puzzle, "solve",
                        lambda spec: dataclasses.replace(solve(spec), **change))
    result = harness.measure(tiny("puzzle"), 1, TINY_SECONDS, False)
    assert not result.correct
    assert result.failed == result.attempted >= 1


def test_wrong_sweep_maximum_is_a_failed_operation(monkeypatch):
    sweep = oracle.sweep_max_latest
    monkeypatch.setattr(oracle, "sweep_max_latest", lambda *a, **k: dataclasses.replace(
        sweep(*a, **k), global_max=6))
    result = harness.measure(tiny("sweep"), 1, TINY_SECONDS, False)
    assert not result.correct
    assert result.failed == result.attempted >= 1


def test_audit_issue_and_tally_mismatch_are_failed_operations(monkeypatch):
    check = oracle.check_instance

    def flag_first(rules, l1, word, direction, **kwargs):
        got = check(rules, l1, word, direction, **kwargs)
        if flag_first.calls == 0:
            got["issues"]["mismatch"].append("injected")
        flag_first.calls += 1
        return got

    flag_first.calls = 0
    monkeypatch.setattr(oracle, "check_instance", flag_first)
    result = harness.measure(tiny("audit"), 2, TINY_SECONDS, False)
    assert not result.correct and result.failed == 1

    class Misclassified(workloads.Audit):
        def run(self, instance):
            got = super().run(instance)
            return {**got, "outcome": "beyond"}

    monkeypatch.undo()
    result = harness.measure(Misclassified(instances=20, run_check_ops=20), 2,
                             TINY_SECONDS, False)
    assert not result.correct and result.failed == result.attempted >= 1


def test_drifting_counts_are_failed_operations():
    class Drifting(workloads.Puzzle):
        calls = 0

        def run(self, spec):
            Drifting.calls += 1
            if Drifting.calls % 2 == 0:
                patterns.occurrences(patterns.parse_pattern("X"), spec.l1)
            return super().run(spec)

    result = harness.measure(Drifting(), 1, 1.5, True)
    assert not result.correct and result.failed >= 1


def test_command_prints_the_result_as_its_last_line():
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "4",
         "--seconds", str(TINY_SECONDS), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=180)
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["correct"] is True


def test_command_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "puzzle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
