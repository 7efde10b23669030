"""The benchmark's traced run rebinds gpdiag functions by name; check that every name resolves.

benchmarks/harness.py is read as text, not imported, so this test needs none
of the benchmark's own imports.
"""

import ast
import importlib
from pathlib import Path

import pytest

HARNESS = Path(__file__).resolve().parents[1] / "benchmarks" / "harness.py"


def _harness_constant(name):
    tree = ast.parse(HARNESS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} is not assigned at the top level of {HARNESS}")


@pytest.mark.parametrize(
    "name", [*_harness_constant("TRACED"), _harness_constant("COLUMN_PROBE"), "cascade.lindblad_rhs"]
)
def test_name_resolves_to_callable(name):
    module_name, function_name = name.split(".")
    module = importlib.import_module(f"gpdiag.{module_name}")
    assert callable(getattr(module, function_name, None)), f"gpdiag.{name} is not a callable"
