"""The package has one way in: the root exports exactly the library API
that README documents, and numpy loads only when the oracle's forward
materializer runs."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import fractalsearch

ROOT = Path(__file__).resolve().parent.parent


def readme_library_snippet() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_root_exports_the_readme_library_names():
    imports = [node for node in ast.walk(ast.parse(readme_library_snippet()))
               if isinstance(node, ast.ImportFrom)]
    assert [node.module for node in imports] == ["fractalsearch"]
    documented = {alias.name for alias in imports[0].names}
    assert set(fractalsearch.__all__) == documented | {"__version__"}
    assert len(fractalsearch.__all__) == len(set(fractalsearch.__all__))


def test_all_is_an_explicit_list():
    tree = ast.parse((ROOT / "src" / "fractalsearch" / "__init__.py")
                     .read_text(encoding="utf-8"))
    [value] = [node.value for node in tree.body if isinstance(node, ast.Assign)
               and [t.id for t in node.targets] == ["__all__"]]
    assert isinstance(value, ast.List)
    assert all(isinstance(item, ast.Constant) for item in value.elts)


def test_readme_library_snippet_runs(monkeypatch):
    monkeypatch.chdir(ROOT)
    namespace: dict = {}
    exec(readme_library_snippet(), namespace)
    res, grid = namespace["res"], namespace["Grid"].from_text("A")
    assert res.level == 6
    addresses = namespace["witness_coordinates"](res, grid, namespace["rules"])
    assert [a.level for a in addresses] == [6] * 6
    assert [a.col for a in addresses] == [14, 15, 16, 17, 18, 19]


NUMPY_PROBE = """
import contextlib, io, sys
import fractalsearch, fractalsearch.cli, fractalsearch.puzzle
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = fractalsearch.cli.main(
        ["solve", "src/fractalsearch/data/in_the_details.puzzle"])
assert code == 0 and "HUMPHREY" in out.getvalue(), out.getvalue()
assert "numpy" not in sys.modules, "numpy loaded without the oracle"
with contextlib.redirect_stdout(io.StringIO()):
    code = fractalsearch.cli.main(["oracle", "sweep", "--n", "2"])
assert code == 0 and "numpy" in sys.modules
"""


ORACLE_IMPORT_PROBE = """
import sys
import fractalsearch.oracle as oracle
from fractalsearch.core import Grid
from fractalsearch.files import load_rules
from fractalsearch.patterns import Direction
assert "numpy" not in sys.modules, "importing the oracle loaded numpy"
rules = load_rules("src/fractalsearch/data/abc_1d.rules")
level = oracle.forward_first_appearance("CAB", Direction.E,
                                        Grid.from_text("A"), rules, 6)
assert level == 4 and "numpy" in sys.modules
"""


def run_probe(source: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", source], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_numpy_loads_only_with_the_oracle():
    run_probe(NUMPY_PROBE)


def test_numpy_loads_only_when_the_materializer_runs():
    run_probe(ORACLE_IMPORT_PROBE)
