"""Records are frozen, so construction bypasses ``__setattr__``; that is
decided in one place, ``padic.Record._bind``; copies are rebuilt through
each record's constructor, which ends there."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tateop"


def _is_object_setattr_call(node) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__setattr__"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "object"
    )


def test_only_the_record_base_calls_object_setattr():
    found = []
    in_base = 0
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            calls = sum(_is_object_setattr_call(node) for node in ast.walk(top))
            if path.name == "padic.py" and isinstance(top, ast.ClassDef) and top.name == "Record":
                in_base += calls
            elif calls:
                found.append(f"{path.name}:{top.lineno}")
    assert found == []
    assert in_base == 1
