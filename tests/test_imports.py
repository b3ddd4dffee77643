"""Import rules of the package, checked on its source and in cold CLI processes.

Private (_-prefixed) names cross module lines only out of algebra, whose
table kernels they are; every other shared helper is public, and every
private top-level function or class is used somewhere in the package.  No
function imports a jordanflow module, so no import cycle hides behind a
local import.
No CLI path loads numpy.random: the library's one draw uses the standard
library's generator.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_every_private_top_level_definition_is_used_in_the_package():
    # a private helper whose last caller is gone is dead code, whatever the tests still call
    defined = {
        (module, node.name)
        for module, tree in _modules()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and _is_private(node.name)
    }
    referenced = {
        name
        for _, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
        for name in [node.id if isinstance(node, ast.Name) else node.attr]
    }
    assert sorted(f"{module}.{name}" for module, name in defined if name not in referenced) == []


# runs the CLI as `python -m jordanflow.cli ...` would, then reports on stderr
# whether numpy.random was loaded; the CLI's own output goes to stdout
_CLI_THEN_REPORT = """
import runpy, sys
sys.argv = ["jordan-flow", *sys.argv[1:]]
try:
    runpy.run_module("jordanflow.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
else:
    code = 0
print(f"exit={code} numpy.random={'numpy.random' in sys.modules}", file=sys.stderr)
"""


@pytest.mark.parametrize("argv", [
    ["reproduce", "--json"],
    ["invariants", "--catalog", "A_3_7"],
    ["moment", "--catalog", "A_3_7"],
    ["flow", "--catalog", "A_3_7"],
    ["stratify", "--catalog", "A_3_7", "--flow"],
])
def test_no_cli_path_loads_numpy_random(argv):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", _CLI_THEN_REPORT, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.stderr.strip().splitlines()[-1] == "exit=0 numpy.random=False"
