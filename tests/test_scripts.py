"""Smoke test of the experiment script: it runs as a subprocess on small
inputs and exits 0."""

from __future__ import annotations

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


def test_footnote_sweep_small():
    done = run_script("footnote_sweep.py", "--max-n", "2", "--jobs", "1")
    assert done.returncode == 0, done.stderr
