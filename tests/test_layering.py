"""Each subcommand's checks live in the module that computes what they
judge: `cli` states no tolerance and does no float comparison, and each
tolerance constant is read only by the module that defines it.  The kernel
H is in the shared `padic`, so only `greens`, through `cli`, loads
`operator`."""

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tateop"
TOLERANCE = re.compile(r"[A-Z0-9_]*(_TOLERANCE|_CHECK_[A-Z0-9_]*)")
# The float checks' constants of spectrum, det and correlator, each beside its check.
HOMES = {
    "INTEGRAL_CHECK_MODULUS_CAP": "spectral",
    "INTEGRAL_CHECK_REL_TOLERANCE": "spectral",
    "CIRCULANT_REL_TOLERANCE": "spectral",
    "ZETA_FLOAT_TOLERANCE": "determinant",
    "LIMIT_TOLERANCE": "correlator",
}


def _trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _defined_constants(tree):
    """Names of the tolerance constants a module assigns at top level."""
    return {
        target.id
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and TOLERANCE.fullmatch(target.id)
    }


def _names_read(tree):
    """Every identifier a module reads, as a bare name, an attribute or an
    imported name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_cli_states_no_tolerance_and_compares_no_floats():
    tree = _trees()["cli"]
    assert _defined_constants(tree) == set()
    assert not {"isclose", "fsum"} & _names_read(tree)


def test_each_tolerance_is_read_only_where_it_is_defined():
    trees = _trees()
    owners = {name: module for module, tree in trees.items() for name in _defined_constants(tree)}
    assert {name: owners.get(name) for name in HOMES} == HOMES
    readers = {
        name: sorted(module for module, tree in trees.items() if name in _names_read(tree))
        for name in owners
    }
    assert readers == {name: [module] for name, module in owners.items()}


def _imports_operator(node):
    """Whether a node is `from .operator import ...` or `from . import operator`."""
    if not isinstance(node, ast.ImportFrom) or node.level != 1:
        return False
    return node.module == "operator" or node.module is None and "operator" in {
        alias.name for alias in node.names
    }


def _names_operator(node):
    """Whether a node is a call with the literal "operator" as an argument."""
    return isinstance(node, ast.Call) and any(
        isinstance(arg, ast.Constant) and arg.value == "operator" for arg in node.args
    )


def test_no_module_imports_operator_and_padic_alone_defines_the_kernel():
    trees = _trees()
    for test, expected in ((_imports_operator, []), (_names_operator, ["cli"])):
        found = sorted({module for module, tree in trees.items() if any(map(test, ast.walk(tree)))})
        assert found == expected, test.__name__
    definers = [
        module
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_kernel_by_valuations"
    ]
    assert definers == ["padic"]
