"""No module of the package imports numpy when it is imported: only the
``matrix`` subcommand needs it, and loading it is most of the start-up time
of every other one.  Imports inside functions are allowed."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tateop"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _import_time_nodes(node):
    """Every node run when the module is imported: all but function bodies."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, FUNCTIONS):
            yield child
            yield from _import_time_nodes(child)


def _imports_numpy(node) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == "numpy" for a in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.level == 0 and (node.module or "").split(".")[0] == "numpy"
    return False


def test_package_imports_numpy_only_inside_functions():
    found = []
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend(
            f"{path.name}:{node.lineno}" for node in _import_time_nodes(tree) if _imports_numpy(node)
        )
    assert found == []
