"""Only the entry function ends the process without interpreter teardown:
``os._exit`` appears once in the package, inside ``run`` in
``__main__.py``.  No other function, ``main()`` and the subcommand handlers
included, ends the process, so the tests and the benchmark's in-process
replays can call them.  ``__main__.py`` is also the only module with an
``if __name__ == "__main__"`` block, so no entry path skips ``run``."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tateop"

# Calls that end the process, or raise what ends it.
ENDERS = {("os", "_exit"), ("os", "abort"), ("os", "kill"), ("sys", "exit")}


def _names_exit(node) -> bool:
    """A node that names ``_exit``: ``os._exit``, a bare ``_exit``, or an
    import of it."""
    if isinstance(node, ast.Attribute):
        return node.attr == "_exit"
    if isinstance(node, ast.Name):
        return node.id == "_exit"
    if isinstance(node, ast.ImportFrom):
        return any(alias.name == "_exit" for alias in node.names)
    return False


def _ends_the_process(node) -> bool:
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            return func.id in ("exit", "quit", "SystemExit")
        return (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and (func.value.id, func.attr) in ENDERS
        )
    if isinstance(node, ast.Raise) and node.exc is not None:
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return isinstance(exc, ast.Name) and exc.id == "SystemExit"
    return False


def _functions(tree):
    return [node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def test_os_exit_is_named_once_inside_the_entry_function():
    found = []
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) > 1
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if _names_exit(node):
                found.append(f"{path.name}:{node.lineno}")
    entry = ast.parse((PACKAGE / "__main__.py").read_text())
    (run,) = [fn for fn in _functions(entry) if fn.name == "run"]
    inside = [f"__main__.py:{node.lineno}" for node in ast.walk(run) if _names_exit(node)]
    assert len(found) == 1
    assert found == inside


def test_no_other_function_ends_the_process():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in _functions(tree):
            if path.name == "__main__.py" and fn.name == "run":
                continue
            found += [f"{path.name}:{fn.name}:{node.lineno}" for node in ast.walk(fn) if _ends_the_process(node)]
    assert found == []


def _is_main_guard(node) -> bool:
    """An ``if __name__ == "__main__":`` statement, either way round."""
    if not isinstance(node, ast.If) or not isinstance(node.test, ast.Compare):
        return False
    sides = [node.test.left, *node.test.comparators]
    names = [side.id for side in sides if isinstance(side, ast.Name)]
    strings = [side.value for side in sides if isinstance(side, ast.Constant)]
    return names == ["__name__"] and strings == ["__main__"]


def test_only_the_entry_module_has_a_main_guard():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if _is_main_guard(node)]
    assert [entry.split(":")[0] for entry in found] == ["__main__.py"]
    guards = ["if __name__ == '__main__':\n    pass", 'if "__main__" == __name__:\n    pass']
    assert all(_is_main_guard(ast.parse(text).body[0]) for text in guards)
    assert not _is_main_guard(ast.parse("if __name__ == 'tateop':\n    pass").body[0])


def test_the_check_sees_each_way_to_end_the_process():
    source = "\n".join([
        "import os, sys",
        "def a():",
        "    os._exit(0)",
        "def b():",
        "    sys.exit(1)",
        "def c():",
        "    raise SystemExit(2)",
        "def d():",
        "    raise SystemExit",
        "def e():",
        "    exit()",
        "def f():",
        "    os.abort()",
        "def g():",
        "    return os.path.exists('x')",
    ])
    tree = ast.parse(source)
    ends = {fn.name for fn in _functions(tree) if any(_ends_the_process(n) for n in ast.walk(fn))}
    assert ends == set("abcdef")
    assert sum(_names_exit(n) for n in ast.walk(ast.parse("from os import _exit\n_exit(0)"))) == 2
