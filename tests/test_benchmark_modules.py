"""The benchmark traces the program by module name: every module it lists must import."""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced_modules() -> tuple[str, ...]:
    """perfbench/spans.py's MODULES, read from its source without running it."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "MODULES" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no MODULES in {SPANS}")


@pytest.mark.parametrize("name", _traced_modules())
def test_traced_module_imports(name):
    assert importlib.import_module(f"jordanflow.{name}").__name__ == f"jordanflow.{name}"
