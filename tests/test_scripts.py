"""Smoke tests of the scripts: the experiment script runs as a subprocess
on small inputs and exits 0, and refuses out-of-range arguments before
sweeping; the mutation probe's mutants still name text of the package."""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300)


def test_footnote_sweep_small():
    done = run_script("footnote_sweep.py", "--max-n", "2", "--jobs", "1")
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("args, message", [
    (("--max-n", "5"), "--max-n must be from 2 to 4: more letters give more "
                       "rule sets than the sweep cap of 1000000"),
    (("--max-n", "1"), "--max-n must be from 2 to 4"),
    (("--len-cap", "0"), "--len-cap must be at least 1, got 0"),
    (("--jobs", "0"), "--jobs must be at least 1, got 0"),
], ids=["max-n-over-cap", "max-n-under-2", "len-cap", "jobs"])
def test_footnote_sweep_refuses_bad_arguments_up_front(args, message):
    done = run_script("footnote_sweep.py", *args)
    assert done.returncode == 2
    assert done.stdout == ""
    assert "Traceback" not in done.stderr
    assert f"error: {message}" in done.stderr


def test_mutation_probe_texts_are_found_once():
    """Each mutant names text found exactly once in its file, so an edit
    that moves the text fails here, without running the probe."""
    spec = importlib.util.spec_from_file_location(
        "mutation_probe", ROOT / "scripts" / "mutation_probe.py")
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    for name, (path, old, new, _) in {**probe.MUTANTS, **probe.EQUIVALENT}.items():
        assert (ROOT / path).read_text(encoding="utf-8").count(old) == 1, name
        assert old != new, name


def test_mutation_probe_refuses_an_unknown_mutant():
    done = run_script("mutation_probe.py", "no-such-mutant")
    assert done.returncode == 2
    assert "unknown mutants: no-such-mutant" in done.stderr
