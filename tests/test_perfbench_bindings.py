"""The benchmark in ``perfbench/`` still binds to the package.

perfbench's tracer rebinds named package functions, and its workloads read
package attributes by name.  A rename or deletion in the package that would
break a benchmark run fails here instead.
"""

import ast
from pathlib import Path

import pytest

import neardelaunay
from neardelaunay import experiment

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    # perfbench is a directory of scripts that import one another by name
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    return spans


def test_tracer_installs_and_uninstalls(spans):
    sites = spans.install(spans.Tracer())
    try:
        traced = [f"{mod}.{attr}" for mod, attr, _ in spans.TARGETS]
        traced += [f"metrics.Evaluator.{meth}" for meth in spans.EVALUATOR_METHODS]
        assert sorted(sites) == sorted(traced)
    finally:
        spans.uninstall()


@pytest.mark.parametrize("alias, module", [("nd", neardelaunay), ("nd_experiment", experiment)])
def test_workloads_read_names_that_exist(alias, module):
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    names = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == alias
    }
    assert names
    assert sorted(name for name in names if not hasattr(module, name)) == []
