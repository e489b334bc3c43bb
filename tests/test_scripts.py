"""Smoke test of the experiment scripts: each runs as a subprocess on
small inputs and exits 0."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300)


def test_solve_puzzle_json():
    done = run_script("solve_puzzle.py", "--json")
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert len(report["placements"]) == 32
    assert report["level_sum"] == 167


def test_footnote_sweep_small():
    done = run_script("footnote_sweep.py", "--max-n", "2", "--jobs", "1")
    assert done.returncode == 0, done.stderr


def test_route_agreement_small():
    done = run_script("route_agreement.py", "--instances", "50")
    assert done.returncode == 0, done.stderr
