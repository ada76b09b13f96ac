"""Every public top-level function and class of the package is named
somewhere outside its own definition: elsewhere in ``src/tateop``, or
among the names ``bench/tracer.py`` wraps.  Every public method of a
top-level class is read as an attribute in the same places, outside its
own definition.  Code that only the tests reach lives in
``tests/oracles.py``."""

import ast
import importlib.util
from collections import Counter
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


def attributes_read(node) -> Counter:
    """How many times a node reads each attribute name."""
    return Counter(
        sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    )


def unread_methods(sources: dict[str, str], outside: set[str]) -> list[str]:
    """Public methods of the modules' top-level classes that no attribute
    read in the modules names, outside the method's own body, and that are
    not in ``outside``."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    reads = sum((attributes_read(tree) for tree in trees.values()), Counter())
    found = []
    for name, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if node.name.startswith("_") or node.name in outside:
                    continue
                if reads[node.name] == attributes_read(node)[node.name]:
                    found.append(f"{name}: {cls.name}.{node.name}")
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

    sources = {
        "a.py": "\n".join([
            "class Shape:",
            "    def area(self):",
            "        return self.side * self.side",
            "    def side_of(self):",
            "        return self.side",
            "    def depth(self, n):",
            "        return self.depth(n - 1) if n else 0",
            "    @property",
            "    def half(self):",
            "        return self.area() / 2",
            "    def unused(self):",
            "        pass",
            "    def spanned(self):",
            "        pass",
            "    def _private(self):",
            "        pass",
            "    def __repr__(self):",
            "        return 'Shape'",
        ]),
        "b.py": "import a\nprint(a.Shape().half, a.Shape.side_of)",
    }
    assert unread_methods(sources, set()) == [
        "a.py: Shape.depth",
        "a.py: Shape.unused",
        "a.py: Shape.spanned",
    ]
    assert unread_methods(sources, {"spanned"}) == ["a.py: Shape.depth", "a.py: Shape.unused"]
    # A bare name is not an attribute read.
    sources["b.py"] = "unused = 1\nprint(unused)"
    assert "a.py: Shape.unused" in unread_methods(sources, set())


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_public_definition_is_reached():
    outside = {part for _, attr in _load_tracer().SPANNED for part in attr.split(".")}
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert sources
    assert unreached(sources, outside) == []
    assert unread_methods(sources, outside) == []
