"""Every name a package module imports at module level is read in that module."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tateop"


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that nothing loads;
    ``from __future__`` imports are directives, not names."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`.
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_the_check_sees_an_unused_import():
    source = "\n".join([
        "from __future__ import annotations",
        "import os",
        "import json.decoder",
        "from typing import Sequence as S",
        "json.dumps",
    ])
    assert unused_imports(source) == ["os (line 2)", "S (line 4)"]


def test_package_has_no_unused_imports():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    found = [f"{path.name}: {name}" for path in paths for name in unused_imports(path.read_text())]
    assert found == []
