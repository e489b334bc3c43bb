"""The benchmark's tracer still finds every package function it wraps.

``bench/tracing.py`` looks each traced function up by name and its
count hooks read some arguments by parameter name, so renaming either
in the package would break the traced benchmark run.  These checks
catch that in the test suite.
"""

from __future__ import annotations

import inspect
import sys
from pathlib import Path

import pytest

from fractalsearch import ancestry, oracle

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(BENCH))
    try:
        import tracing
        yield tracing
    finally:
        sys.path.remove(str(BENCH))


def test_every_traced_name_exists(tracing):
    tracer = tracing.Tracer()
    try:
        tracer.install()        # a traced name that is gone raises KeyError
    finally:
        tracer.uninstall()      # also undoes a partial install
    tracing.assert_untraced()


@pytest.mark.parametrize("function, names", [
    (ancestry.AncestrySearcher.parents, ("self", "pattern")),
    (ancestry.AncestrySearcher.ground_positions, ("self", "pattern")),
    (oracle.forward_first_appearance, ("l1", "rules", "max_level")),
], ids=["parents", "ground_positions", "forward_first_appearance"])
def test_hooks_read_parameters_that_exist(function, names):
    assert set(names) <= set(inspect.signature(function).parameters)
