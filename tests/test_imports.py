"""Import rules of the package, checked on its source.

Private (_-prefixed) names cross module lines only out of algebra, whose
table kernels they are; every other shared helper is public.  No function
imports a jordanflow module, so no import cycle hides behind a local import.
"""

import ast
from pathlib import Path

import jordanflow

SRC = Path(jordanflow.__file__).parent


def _modules():
    for path in sorted(SRC.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(), filename=str(path))


def _source(node) -> str | None:
    """The jordanflow module an import reads from ('' for the package itself); None for others."""
    if isinstance(node, ast.ImportFrom):
        if node.level:
            return node.module or ""
        names = [node.module or ""]
    else:
        names = [alias.name for alias in node.names]
    for name in names:
        if name == "jordanflow" or name.startswith("jordanflow."):
            return name.removeprefix("jordanflow").lstrip(".")
    return None


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_private_names_are_imported_only_from_algebra():
    crossings = [
        f"{module} imports {alias.name} from {_source(node) or 'jordanflow'}"
        for module, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and _source(node) not in (None, "algebra")
        for alias in node.names
        if _is_private(alias.name)
    ]
    assert crossings == []


def test_no_function_imports_a_jordanflow_module():
    local = [
        f"{module}.{func.name} imports {_source(node) or 'jordanflow'}"
        for module, tree in _modules()
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and _source(node) is not None
    ]
    assert local == []
