"""The package has one way in: the root exports exactly the library API
that README documents, and it needs nothing outside the standard
library."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from collections import defaultdict
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


STDLIB_PROBE = """
import contextlib, io, sys
import fractalsearch.cli
for argv in (["solve", "src/fractalsearch/data/in_the_details.puzzle"],
             ["oracle", "sweep", "--n", "2"],
             ["oracle", "agree", "--instances", "20"]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = fractalsearch.cli.main(argv)
    assert code == 0, (argv, out.getvalue())
main = sys.modules["__main__"]
outside = sorted(name for name, module in sys.modules.items()
                 if "." not in name and module is not main
                 and name != "fractalsearch"
                 and name not in sys.stdlib_module_names)
assert not outside, outside
"""


def _run_without_site(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter without site-packages (``-S``),
    with the package importable from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-S", "-c", code], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)


def test_the_cli_loads_only_the_standard_library():
    """Run without site-packages, so an import of any installed package
    fails, and check what the commands loaded."""
    done = _run_without_site(STDLIB_PROBE)
    assert done.returncode == 0, done.stderr


def test_importing_the_cli_starts_no_multiprocessing():
    """Only a pooled sweep needs ``multiprocessing``; importing the
    commands must not pay for it."""
    done = _run_without_site(
        "import sys, fractalsearch.oracle, fractalsearch.cli\n"
        "assert 'multiprocessing' not in sys.modules, sorted(sys.modules)")
    assert done.returncode == 0, done.stderr


# Kept with no caller: tests/test_puzzle.py uses it to prove that the JSON
# report loses no information (see ROADMAP, "Checked and rejected").
UNCALLED_ON_PURPOSE = {"report_from_json_dict"}


def _referenced_names(node: ast.AST) -> list[str]:
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.alias):
        return [node.name]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]     # the bench tracer patches functions by name
    return []


def _uncalled(references, path, definitions) -> list[str]:
    """Names of the definitions referenced nowhere but inside themselves."""
    return [node.name for node in definitions
            if all(where == path and node.lineno <= line <= node.end_lineno
                   for where, line in references[node.name])]


def test_every_public_name_has_a_caller():
    """Each public module-level function or class in the package is
    referenced from src/, scripts/ or bench/ outside its own definition,
    or is exported from the package root; each public method or property
    of a package class is read as an attribute (or named in a string)
    there outside its own definition."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for folder in ("src", "scripts", "bench")
             for path in (ROOT / folder).rglob("*.py")}
    references = defaultdict(list)      # name -> [(path, line)]
    attributes = defaultdict(list)      # attribute reads and strings only
    for path, tree in trees.items():
        for node in ast.walk(tree):
            for name in _referenced_names(node):
                references[name].append((path, node.lineno))
                if not isinstance(node, (ast.Name, ast.alias)):
                    attributes[name].append((path, node.lineno))
    uncalled = []
    for path in (ROOT / "src" / "fractalsearch").glob("*.py"):
        body = trees[path].body
        uncalled += _uncalled(references, path, [
            node for node in body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
            and node.name not in fractalsearch.__all__
            and node.name not in UNCALLED_ON_PURPOSE])
        uncalled += _uncalled(attributes, path, [
            node for cls in body if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_")])
    assert sorted(uncalled) == []
