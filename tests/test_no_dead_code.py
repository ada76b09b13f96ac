"""Every public top-level function and class of the package is named
somewhere outside its own definition: elsewhere in ``src/tateop``, in
``scripts/``, or among the names ``bench/tracer.py`` wraps.  Code that only
the tests reach lives in ``tests/oracles.py``."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tateop"
TRACER = ROOT / "bench" / "tracer.py"


def names_read(node) -> set[str]:
    """The names a node loads and the attributes it reads."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def unreached(sources: dict[str, str], outside: set[str]) -> list[str]:
    """Public top-level functions and classes of the given modules that no
    other top-level statement of them names, and that are not in
    ``outside``; a definition naming itself does not count."""
    tops = [
        (name, node, names_read(node))
        for name, source in sources.items()
        for node in ast.parse(source).body
    ]
    found = []
    for name, node, _ in tops:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("_") or node.name in outside:
            continue
        if not any(node.name in read for _, other, read in tops if other is not node):
            found.append(f"{name}: {node.name}")
    return found


def test_the_check_sees_an_unreached_definition():
    sources = {
        "a.py": "\n".join([
            "def used():",
            "    return helper()",
            "def helper():",
            "    return 1",
            "def dead(n):",
            "    return dead(n - 1) if n else 0",
            "class Spanned:",
            "    pass",
            "def _private():",
            "    pass",
        ]),
        "b.py": "import a\na.used()",
    }
    assert unreached(sources, set()) == ["a.py: dead", "a.py: Spanned"]
    assert unreached(sources, {"Spanned"}) == ["a.py: dead"]


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_public_definition_is_reached():
    outside = {part for _, attr in _load_tracer().SPANNED for part in attr.split(".")}
    scripts = sorted((ROOT / "scripts").glob("*.py"))
    assert scripts
    for path in scripts:
        outside |= names_read(ast.parse(path.read_text()))
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert sources
    assert unreached(sources, outside) == []
