"""The benchmark still runs against the package.

``bench/tracing.py`` looks each traced function up by name and its
count hooks read some arguments by parameter name, so renaming either
in the package would break the traced benchmark run.  The workloads in
``bench/workloads.py`` call the package and check its results against
the golden files.  These checks catch both in the test suite.
"""

from __future__ import annotations

import inspect
import sys
from pathlib import Path

import pytest

from fractalsearch import ancestry, oracle

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench_path():
    sys.path.insert(0, str(BENCH))
    try:
        yield
    finally:
        sys.path.remove(str(BENCH))


@pytest.fixture(scope="module")
def tracing(bench_path):
    import tracing
    return tracing


@pytest.fixture(scope="module")
def workloads(bench_path):
    import workloads
    return workloads


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


@pytest.mark.parametrize("name", ["puzzle", "sweep", "audit"])
def test_workload_first_input_passes_its_check(workloads, name):
    workload = (workloads.Audit(instances=20, run_check_ops=20)
                if name == "audit" else workloads.WORKLOADS[name]())
    inputs = workload.prepare(7)
    assert workload.check(inputs[0], workload.run(inputs[0])) == []


def test_audit_prefix_matches_run_agreement(workloads):
    workload = workloads.Audit(instances=20, run_check_ops=20)
    kept = [workload.run(item) for item in workload.prepare(7)]
    assert workload.check_run(7, kept) == []
