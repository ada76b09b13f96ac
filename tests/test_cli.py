"""Command-line surface: determinism, exit codes, formats, file outputs."""

import argparse
import io
import contextlib
import json
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tateop.cli import HANDLERS, UsageError, _check_caps, main

from test_matrix import corrupt_symmetrically


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


DOCUMENTED = [
    ["greens", "--p", "3", "--m", "2"],
    ["greens", "--p", "2", "--m", "5"],
    ["spectrum", "--p", "3", "--m", "2", "--max-conductor", "2"],
    ["spectrum", "--p", "2", "--m", "1", "--max-conductor", "3"],
    ["det", "--p", "3", "--m", "2"],
    ["matrix", "--p", "3", "--m", "2", "--level", "1"],
    ["correlator", "--p", "3", "--m", "2", "--x1", "4", "--x2", "1"],
    ["tree", "--p", "2", "--m", "5", "--depth", "1"],
]


@pytest.mark.parametrize("argv", DOCUMENTED, ids=lambda a: " ".join(a))
def test_documented_commands_pass_and_are_deterministic(argv):
    code1, out1, _ = run_cli(argv)
    code2, out2, _ = run_cli(argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1


# Imports the package and the CLI, runs main() on each argv given as JSON,
# then prints whether numpy, dataclasses, inspect and typing were loaded.
STARTUP_PROBE = """
import contextlib, io, json, sys
import tateop, tateop.cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        if tateop.cli.main(argv) != 0:
            raise SystemExit(f"{argv} did not pass")
print(*(name in sys.modules for name in ("numpy", "dataclasses", "inspect", "typing")))
"""


def test_only_matrix_loads_numpy(run_python):
    others = [argv for argv in DOCUMENTED if argv[0] != "matrix"]
    matrix = [argv for argv in DOCUMENTED if argv[0] == "matrix"]
    assert len(others) == 7 and len(matrix) == 1
    proc = run_python("-c", STARTUP_PROBE, json.dumps(others))
    assert proc.returncode == 0, proc.stderr
    # A .pth file of site-packages may import typing before the package;
    # -S leaves site, and so those files, out.
    assert proc.stdout.split()[:3] == [b"False", b"False", b"False"]
    proc = run_python("-S", "-c", STARTUP_PROBE, json.dumps(others))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [b"False", b"False", b"False", b"False"]
    proc = run_python("-c", STARTUP_PROBE, json.dumps(matrix))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[0] == b"True"


# Runs main() on the argv given as JSON, then prints the package modules
# whose body ran: a module registered but not yet run is of a subclass of
# ModuleType, and type() reads it without running it.
MODULES_PROBE = """
import contextlib, io, json, sys, types
import tateop.cli
with contextlib.redirect_stdout(io.StringIO()):
    if tateop.cli.main(json.loads(sys.argv[1])) != 0:
        raise SystemExit("did not pass")
print(*(n for n, mod in sys.modules.items() if n.split(".")[0] == "tateop" and type(mod) is types.ModuleType))
"""
RAN_BY_ALL = {"tateop", "tateop.cli", "tateop.padic"}
RAN_BY = {
    "greens": {"operator"},
    "spectrum": {"spectral", "angular"},
    "det": {"determinant", "angular"},
    "matrix": {"spectral", "matrix", "angular"},
    "correlator": {"correlator"},
    "tree": {"tree"},
}


@pytest.mark.parametrize("argv", DOCUMENTED, ids=lambda a: " ".join(a))
def test_a_subcommand_runs_only_the_modules_it_uses(run_python, argv):
    proc = run_python("-c", MODULES_PROBE, json.dumps(argv))
    assert proc.returncode == 0, proc.stderr
    ran = set(proc.stdout.decode().split())
    assert ran == RAN_BY_ALL | {f"tateop.{name}" for name in RAN_BY[argv[0]]}


def _lines(module):
    return (Path(__file__).parents[1] / "src" / "tateop" / f"{module}.py").read_bytes().count(b"\n")


def test_the_readme_counts_the_lines_each_subcommand_compiles():
    # README's "lines compiled" table against wc -l of the modules its rows
    # name, and those modules against the ones each subcommand runs.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    base = int(re.search(r"\((\d+) lines with\s+`__main__`\)", readme).group(1))
    assert base == sum(map(_lines, ("__init__", "__main__", "cli", "padic")))
    table = readme.split("| subcommand | modules run | lines compiled |\n|---|---|---|\n")[1]
    rows = re.findall(r"^\| `(\w+)` \| (.+) \| (\d+) \|$", table.split("\n\n")[0], re.M)
    assert sorted(name for name, _, _ in rows) == sorted(RAN_BY)
    for name, modules, lines in rows:
        names = set(re.findall(r"`(\w+)`", modules))
        assert names == RAN_BY[name], name
        assert int(lines) == base + sum(map(_lines, names)), name


# Runs main() on the argv given as arguments, then prints whether json and
# csv were loaded before main() ran, and whether main() loaded them.
FORMAT_PROBE = """
import contextlib, io, sys
import tateop.cli
before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    if tateop.cli.main(sys.argv[1:]) != 0:
        raise SystemExit("did not pass")
loaded = set(sys.modules) - before
print(*(name in before for name in ("json", "csv")), *(name in loaded for name in ("json", "csv")))
"""


@pytest.mark.parametrize(
    "argv, loads",
    [
        (["det", "--p", "3", "--m", "2", "--format", "json"], [b"True", b"False"]),
        (["det", "--p", "3", "--m", "2", "--format", "csv"], [b"False", b"True"]),
        (["det", "--p", "3", "--m", "2", "--format", "pretty"], [b"False", b"False"]),
        (["matrix", "--p", "3", "--m", "2", "--level", "1", "--format", "pretty"], [b"False", b"False"]),
        (["matrix", "--p", "3", "--m", "2", "--level", "1", "--format", "pretty", "--dump"], [b"True", b"False"]),
        (["tree", "--p", "2", "--m", "5", "--depth", "1", "--format", "csv"], [b"False", b"False"]),
    ],
    ids=lambda a: " ".join(a) if isinstance(a[0], str) else None,
)
def test_json_and_csv_load_only_for_the_output_that_needs_them(run_python, tmp_path, argv, loads):
    if argv[-1] == "--dump":
        argv = [*argv, str(tmp_path / "mx")]
    proc = run_python("-c", FORMAT_PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [b"False", b"False"] + loads


# Imports the two modules in the order given, then prints whether the
# import, the cli, the package and sys.modules hold one spectral module,
# and whether it ran.
ONE_MODULE_PROBE = """
import importlib, sys, types
mods = {name: importlib.import_module(name) for name in sys.argv[1:]}
import tateop
spectral = mods["tateop.spectral"]
print(
    spectral is mods["tateop.cli"].spectral is tateop.spectral is sys.modules["tateop.spectral"],
    type(spectral) is types.ModuleType,
)
"""


@pytest.mark.parametrize("order", [("tateop.spectral", "tateop.cli"), ("tateop.cli", "tateop.spectral")])
def test_one_module_object_whichever_is_imported_first(run_python, order):
    proc = run_python("-c", ONE_MODULE_PROBE, *order)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [b"True", b"True"]


def test_greens_payload():
    _, out, _ = run_cli(["greens", "--p", "3", "--m", "2"])
    doc = json.loads(out)
    assert doc["expected"] == "-3/4"
    assert doc["all_pass"] is True
    assert all(row["Dh"] == "-3/4" and row["pass"] for row in doc["rows"])
    _, out, _ = run_cli(["greens", "--p", "2", "--m", "5"])
    doc = json.loads(out)
    assert {row["Dh"] for row in doc["rows"]} == {"-2/5"}


def test_spectrum_payload():
    _, out, _ = run_cli(["spectrum", "--p", "3", "--m", "2", "--max-conductor", "2"])
    doc = json.loads(out)
    assert doc["total_multiplicity"] == 12
    assert doc["spectral_gap"] == "3/2"
    assert doc["weyl"]["pass"] is True
    assert {"kind": "radial", "n": 2, "lambda": "6", "mult": 8} in doc["entries"]
    _, out, _ = run_cli(["spectrum", "--p", "2", "--m", "1", "--max-conductor", "3"])
    doc = json.loads(out)
    assert doc["spectral_gap"] == "2"
    assert doc["total_multiplicity"] == 4


def test_det_payload():
    _, out, _ = run_cli(["det", "--p", "3", "--m", "2"])
    doc = json.loads(out)
    assert doc["det"] == "27/8"
    assert doc["angular_factor"] == "3/2"
    assert doc["radial_factor"] == "9/4"
    assert all(chk["pass"] for chk in doc["zeta_series_checks"])
    for m in (24, 100):
        code, out, _ = run_cli(["det", "--p", "2", "--m", str(m)])
        assert code == 0
        assert json.loads(out)["radial_factor"] == str(2**m)


def test_matrix_payload_and_dump(tmp_path):
    prefix = tmp_path / "mx"
    code, out, _ = run_cli(
        ["matrix", "--p", "3", "--m", "2", "--level", "1", "--dump", str(prefix)]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == 4
    assert sorted(doc["eigenvalues"]) == pytest.approx([0.0, 1.5, 2.0, 2.0], abs=1e-9)
    assert doc["report"]["passed"] is True
    csv_text = (tmp_path / "mx.csv").read_text()
    assert csv_text.splitlines()[0] == "basis,v0.k1.c1,v0.k1.c2,v1.k1.c1,v1.k1.c2"
    manifest = json.loads((tmp_path / "mx.basis.json").read_text())
    assert manifest["dimension"] == 4


MATRIX_CHECKS = (
    "dimension",
    "symmetric",
    "row_sums_zero",
    "min_eigenvalue",
    "positive_semidefinite",
    "kernel_dimension",
    "multiset_deviation",
    "spectrum_match",
    "eigenfunction_residual",
    "eigenfunctions_ok",
)


def test_a_failing_matrix_report_lists_its_failures(monkeypatch):
    # A symmetric corruption of one cell keeps the index symmetric and
    # fails every other check.
    from tateop import matrix

    build = matrix.build_matrix

    def corrupt(level, ctx):
        mx = build(level, ctx)
        return corrupt_symmetrically(mx, 0, mx.dimension - 1)

    monkeypatch.setattr(matrix, "build_matrix", corrupt)
    argv = ["matrix", "--p", "3", "--m", "2", "--level", "2"]
    code, out, _ = run_cli(argv)
    assert code == 1
    doc = json.loads(out)
    report = doc["report"]
    assert tuple(report) == MATRIX_CHECKS + ("failures", "passed")
    assert report["failures"] == [
        "row sums",
        "positive semidefiniteness",
        "kernel dimension",
        "eigenvalue multiset",
        "eigenfunction residuals",
    ]
    assert report["dimension"] == doc["dimension"] == 12 and report["symmetric"] is True
    assert report["passed"] is False and doc["all_pass"] is False
    code, out, _ = run_cli(argv + ["--format", "csv"])
    assert code == 1
    rows = [line.split(",") for line in out.splitlines()]
    assert [row[0] for row in rows] == ["check", *MATRIX_CHECKS, "all_pass"]
    assert rows[-1] == ["all_pass", "false"]


def test_correlator_payload():
    _, out, _ = run_cli(["correlator", "--p", "3", "--m", "2", "--x1", "4", "--x2", "1"])
    doc = json.loads(out)
    assert doc["two_point_at_delta_1"] == 9.25
    assert doc["kernel_match"] is True
    assert doc["limit_match"] is True
    assert doc["limit_target"] == pytest.approx(2.56342867355892, abs=1e-9)


@pytest.mark.parametrize(
    "p,m,x1",
    [(3, 303, 4), (2, 406, 3 * 2**203), (101, 61, 2 * 101**30)],
    ids=["3-303", "2-406", "101-61"],
)
def test_correlator_at_a_large_period_passes_on_the_exact_height_coefficient(p, m, x1):
    # From these m the fixed Richardson steps of the float estimate are too
    # coarse (limit_match is false); the exact s^1 coefficient decides.
    argv = ["correlator", "--p", str(p), "--m", str(m), "--x1", str(x1), "--x2", "1"]
    code, out, err = run_cli(argv)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["kernel_match"] is True and doc["all_pass"] is True


def test_a_skewed_height_coefficient_fails_correlator(monkeypatch):
    from tateop import correlator

    argv = ["correlator", "--p", "3", "--m", "2", "--x1", "4", "--x2", "1"]
    assert run_cli(argv)[0] == 0
    exact = correlator.height_coefficient

    def skewed(x1, x2):
        coefficient, twice_height = exact(x1, x2)
        return coefficient + Fraction(1, 7), twice_height

    monkeypatch.setattr(correlator, "height_coefficient", skewed)
    code, out, _ = run_cli(argv)
    doc = json.loads(out)
    assert code == 1 and doc["all_pass"] is False
    assert doc["kernel_match"] is True and doc["limit_match"] is True


def test_tree_outputs_dot():
    _, out, _ = run_cli(["tree", "--p", "3", "--m", "1", "--depth", "1"])
    assert out.startswith("graph tate_quotient {")
    assert '"c0" -- "c0";' in out  # m = 1 keeps the self-loop


def test_usage_errors_exit_2():
    assert run_cli(["greens", "--p", "4", "--m", "1"])[0] == 2
    assert run_cli(["spectrum", "--p", "3", "--m", "2", "--max-conductor", "0"])[0] == 2
    assert run_cli(["greens", "--p", "3", "--m", "0"])[0] == 2
    assert run_cli(["correlator", "--p", "3", "--m", "2", "--x1", "4", "--x2", "4"])[0] == 2
    # The two-point value near 3^800 fits no float: a usage error, not a failed check.
    code, _, err = run_cli(
        ["correlator", "--p", "3", "--m", "2", "--x1", "4", "--x2", "1", "--delta", "400"]
    )
    assert code == 2
    assert "--delta" in err
    # Refused from the exponent, before p^(m delta) is built exactly.
    assert run_cli(
        ["correlator", "--p", "3", "--m", "2", "--x1", "4", "--x2", "1", "--delta", "1e7"]
    )[0] == 2
    assert run_cli(
        ["correlator", "--p", "3", "--m", "2", "--x1", "4", "--x2", "1", "--delta", "120"]
    )[0] == 0
    assert run_cli(["nope"])[0] == 2


def test_a_value_error_inside_a_computation_is_a_failed_check(monkeypatch):
    # Only an argument that main or a handler refuses is a usage error.
    from tateop import matrix, operator

    def fail(*args):
        raise ValueError("singular integral: ball contains the evaluation point")

    monkeypatch.setattr(operator, "apply_D_height", fail)
    code, out, err = run_cli(["greens", "--p", "3", "--m", "2"])
    assert (code, out) == (1, "") and err.startswith("math check failed: singular")
    monkeypatch.setattr(matrix, "build_matrix", fail)
    code, out, err = run_cli(["matrix", "--p", "3", "--m", "2", "--level", "1"])
    assert (code, out) == (1, "") and err.startswith("math check failed: singular")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["greens", "--p", "4", "--m", "1"], "p = 4 is not prime"),
        (["tree", "--p", "3", "--m", "0", "--depth", "1"], "m = 0 must be an integer >= 1"),
        (["greens", "--p", "3", "--m", "2", "--expect", "abc"], "--expect: not a rational literal"),
        (["correlator", "--p", "3", "--m", "2", "--x1", "0", "--x2", "1"], "bad point: zero"),
        (["matrix", "--p", "0", "--m", "5", "--level", "-1"], "--level must be >= 1"),
    ],
    ids=lambda x: " ".join(x) if isinstance(x, list) else "",
)
def test_an_argument_refused_at_the_boundary_exits_2(argv, message):
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage error: {message}")


RATIONALS = ("1", "4", "-1/2", "7/3", "9", "28")
NOT_RATIONALS = ("abc", "1/0", "", "1.5")


@st.composite
def cli_argv(draw):
    """An argv of any subcommand at sizes that run in milliseconds: each
    value is one time in four out of range or not a number."""

    def option(name, valid, invalid):
        values = valid if draw(st.integers(0, 3)) else st.sampled_from(invalid)
        return [name, str(draw(values))]

    command = draw(st.sampled_from(sorted(HANDLERS)))
    argv = [command]
    argv += option("--p", st.sampled_from((2, 3, 5, 7)), (-3, 0, 1, 4, 9, 10**6 + 3, "1.5"))
    argv += option("--m", st.integers(1, 4), (-1, 0, 10**6, "x"))
    argv += ["--format", draw(st.sampled_from(("json", "csv", "pretty")))]
    if command == "greens":
        if draw(st.booleans()):
            argv += option("--max-vdist", st.integers(0, 8), (-2, -1, 601))
        if draw(st.booleans()):
            argv += option("--expect", st.sampled_from(("-3/4", "0", *RATIONALS)), NOT_RATIONALS)
    elif command == "spectrum":
        argv += option("--max-conductor", st.integers(1, 4), (-1, 0, 501))
    elif command == "matrix":
        argv += option("--level", st.integers(1, 2), (-1, 0, 30_000_000))
    elif command == "correlator":
        for name in ("--x1", "--x2"):
            argv += option(name, st.sampled_from(RATIONALS), ("0", "-0", *NOT_RATIONALS))
        if draw(st.booleans()):
            finite = st.floats(0.01, 20).map(repr)
            argv += option("--delta", finite, ("0", "-1", "nan", "inf", "400", "1e7"))
    elif command == "tree":
        argv += option("--depth", st.integers(0, 3), (-1, 10**7))
    return argv


@settings(max_examples=150, derandomize=True, deadline=None)
@given(cli_argv())
def test_every_argv_exits_by_the_contract(argv):
    # main never raises: 0 for pass, 1 for a failed check (here only the
    # induced --expect one), 2 for a usage error that says so.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert "--expect" in argv
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith(("usage error: ", "usage: tateop"))


@pytest.mark.parametrize("delta", ["nan", "inf"])
def test_non_finite_delta_is_a_usage_error(delta):
    # NaN and Infinity are not JSON, and no scaling dimension is either.
    code, out, err = run_cli(
        ["correlator", "--p", "3", "--m", "2", "--x1", "4", "--x2", "1", "--delta", delta]
    )
    assert code == 2
    assert out == ""
    assert "--delta" in err


@pytest.mark.parametrize("delta", ["5e-324", "1e-310", "4e-309"])
def test_tiny_delta_whose_value_overflows_is_a_usage_error(delta):
    # The second term, about 2 / (m delta log p), passes the float range:
    # an infinity is not JSON.
    code, out, err = run_cli(
        ["correlator", "--p", "3", "--m", "2", "--x1", "4", "--x2", "1", "--delta", delta]
    )
    assert code == 2
    assert out == ""
    assert f"--delta {delta}: the two-point value overflows a float" in err


def test_tiny_delta_whose_value_fits_a_float_prints_it():
    for delta in ("1e-308", "1e-300"):
        code, out, _ = run_cli(
            ["correlator", "--p", "3", "--m", "2", "--x1", "4", "--x2", "1", "--delta", delta]
        )
        assert code == 0
        assert 1e299 < json.loads(out)["two_point"] < 1e308


def test_greens_with_no_sample_point_is_a_usage_error():
    # At p = 2 no unit x has v(x - 1) = 0, and m = 1 has no other shell:
    # nothing would be checked, so the input is refused.
    code, out, err = run_cli(["greens", "--p", "2", "--m", "1", "--max-vdist", "0"])
    assert code == 2
    assert out == ""
    assert "--max-vdist" in err
    assert run_cli(["greens", "--p", "2", "--m", "1", "--max-vdist", "1"])[0] == 0
    assert run_cli(["greens", "--p", "2", "--m", "2", "--max-vdist", "0"])[0] == 0


def test_correlator_at_a_non_integer_dimension_past_the_float_range():
    # p^(m delta) overflows a float, but the value is 1 to the last bit.
    for delta in ("400.5", "10000000.5"):
        code, out, err = run_cli(
            ["correlator", "--p", "3", "--m", "2", "--x1", "1", "--x2", "2", "--delta", delta]
        )
        assert code == 0, err
        doc = json.loads(out)
        assert doc["two_point"] == 1.0
        assert doc["delta"] == float(delta)


def test_correlator_overflow_names_the_dimension_exactly():
    code, _, err = run_cli(
        ["correlator", "--p", "3", "--m", "2", "--x1", "4", "--x2", "1", "--delta", "10000000.5"]
    )
    assert code == 2
    assert "--delta 10000000.5:" in err


def test_correlator_at_a_huge_dimension_is_fast():
    # Both points are units, so the first term is exactly 1 and the second
    # is far below its last bit: nothing near p^(m delta) is built.
    start = time.perf_counter()
    code, out, _ = run_cli(
        ["correlator", "--p", "3", "--m", "2", "--x1", "1", "--x2", "2", "--delta", "1e7"]
    )
    assert time.perf_counter() - start < 1.0
    assert code == 0
    doc = json.loads(out)
    assert doc["two_point"] == 1.0
    assert doc["all_pass"] is True


@pytest.mark.parametrize("x1,delta", [("3", 600), ("1/3", 130)])
def test_an_integer_delta_at_a_large_period_never_builds_the_kernel_at_base_p_to_the_delta(
    monkeypatch, x1, delta
):
    # Both pairs are one shell apart (1/3 reduces to 3^39999, 39999 shells
    # up and one round): the value is 3^-delta plus a rest below
    # 4 * 3^(-39999 delta), so the leading power decides the float.
    from tateop import correlator

    def refuse(*args):
        raise RuntimeError("the kernel at base p^delta was built")

    monkeypatch.setattr(correlator, "_kernel_by_valuations", refuse)
    start = time.perf_counter()
    code, out, err = run_cli(
        ["correlator", "--p", "3", "--m", "40000", "--x1", x1, "--x2", "1", "--delta", str(delta)]
    )
    assert time.perf_counter() - start < 1.0
    assert code == 0, err
    doc = json.loads(out)
    assert doc["two_point"] == float(format(1 / 3**delta, ".15g"))
    assert doc["kernel_match"] is True and doc["all_pass"] is True


def test_tree_at_a_huge_depth_is_a_quick_usage_error():
    start = time.perf_counter()
    code, out, err = run_cli(["tree", "--p", "3", "--m", "2", "--depth", "10000000"])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert "exceeds the node cap of 20000" in err


@pytest.mark.parametrize("level", [5000, 30_000_000])
def test_matrix_at_a_huge_level_is_a_quick_usage_error(level):
    # The cap is checked without forming 3^(level-1), which at level 3e7
    # alone took 24 s and could not be printed.
    start = time.perf_counter()
    code, out, err = run_cli(["matrix", "--p", "3", "--m", "1", "--level", str(level)])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert f"matrix dimension 1*2*3^{level - 1} exceeds cap 3072" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["det", "--p", "3", "--m", "30000000"], "--m 30000000 exceeds the cap of 43506 at p = 3"),
        (
            ["correlator", "--p", "3", "--m", "30000000", "--x1", "4", "--x2", "1"],
            "--m 30000000 exceeds the cap of 43506 at p = 3",
        ),
        (
            ["spectrum", "--p", "3", "--m", "2", "--max-conductor", "30000000"],
            "--max-conductor 30000000 exceeds the cap of 500",
        ),
        (
            ["greens", "--p", "3", "--m", "2", "--max-vdist", "30000000"],
            "--max-vdist 30000000 exceeds the cap of 600",
        ),
        # Trial division would take minutes to call this p prime or not.
        (["det", "--p", str(10**18 + 3), "--m", "1"], f"--p {10**18 + 3} exceeds the cap of 1000000"),
        (["greens", "--p", "2", "--m", "1001"], "--m 1001 exceeds the cap of 1000 at p = 2"),
    ],
    ids=lambda x: " ".join(x) if isinstance(x, list) else "",
)
def test_a_parameter_over_its_cap_is_a_quick_usage_error(argv, message):
    start = time.perf_counter()
    code, out, err = run_cli(argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert message in err


def test_each_cap_admits_its_bound_and_refuses_one_more():
    # (command, parameters at the bound, the one raised past it); the caps
    # are checked on the parsed arguments alone, so nothing is computed.
    cases = [
        ("det", {"p": 10**6, "m": 1}, "p"),
        ("det", {"p": 2, "m": 54772}, "m"),
        ("greens", {"p": 2, "m": 1000, "max_vdist": 6}, "m"),
        ("spectrum", {"p": 2, "m": 1, "max_conductor": 500}, "max_conductor"),
        ("greens", {"p": 2, "m": 1, "max_vdist": 600}, "max_vdist"),
        # Dimension 3 * 1 * 2^10 = 3072.
        ("matrix", {"p": 2, "m": 3, "level": 11}, "level"),
        # 32 * 5^4 = 20000 nodes.
        ("tree", {"p": 5, "m": 32, "depth": 4}, "depth"),
    ]
    for command, params, raised in cases:
        _check_caps(argparse.Namespace(command=command, **params))
        over = {**params, raised: params[raised] + 1}
        with pytest.raises(UsageError, match="exceeds"):
            _check_caps(argparse.Namespace(command=command, **over))
    # (command, option, its least value, the message one below it); each is
    # decided before any size is formed.
    lower = [
        ("spectrum", "max_conductor", 1, "--max-conductor must be >= 1"),
        ("greens", "max_vdist", 0, "--max-vdist must be >= 0"),
        ("matrix", "level", 1, "--level must be >= 1"),
        ("tree", "depth", 0, "--depth must be >= 0"),
    ]
    for command, dest, least, message in lower:
        _check_caps(argparse.Namespace(command=command, p=2, m=1, **{dest: least}))
        with pytest.raises(UsageError, match=f"^{message}$"):
            _check_caps(argparse.Namespace(command=command, p=2, m=1, **{dest: least - 1}))
    # A size is not checked before its --level or --depth is in range, so
    # those keep their own messages even where m (p - 1) or m is over a cap.
    code, _, err = run_cli(["matrix", "--p", "4099", "--m", "1", "--level", "0"])
    assert code == 2 and "--level must be >= 1" in err
    code, _, err = run_cli(["tree", "--p", "2", "--m", "30000", "--depth", "-1"])
    assert code == 2 and "--depth must be >= 0" in err
    # Nor before p >= 2 and m >= 1: at p = 1 the product never passes a cap.
    start = time.perf_counter()
    code, _, err = run_cli(["tree", "--p", "1", "--m", "5", "--depth", "1000000000"])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and "1 is not prime" in err


def test_the_caps_admit_the_largest_documented_period():
    # The other largest documented values, greens --max-vdist 600 and
    # spectrum --max-conductor 60, run in test_golden and above.
    code, out, err = run_cli(["det", "--p", "2", "--m", "14002"])
    assert code == 0, err
    assert json.loads(out)["all_pass"] is True


def test_induced_failure_exits_1():
    assert run_cli(["greens", "--p", "3", "--m", "2", "--expect=-1/2"])[0] == 1
    assert run_cli(["greens", "--p", "3", "--m", "2", "--expect=-3/4"])[0] == 0


def test_csv_format():
    _, out, _ = run_cli(
        ["spectrum", "--p", "3", "--m", "2", "--max-conductor", "2", "--format", "csv"]
    )
    lines = out.strip().split("\n")
    assert lines[0] == "kind,index,lambda,mult"
    assert "radial,2,6,8" in lines


def test_pretty_format():
    _, out, _ = run_cli(
        ["spectrum", "--p", "3", "--m", "2", "--max-conductor", "2", "--format", "pretty"]
    )
    assert "kind" in out and "----" in out


def test_out_redirects_to_file(tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(["det", "--p", "3", "--m", "2", "--out", str(target)])
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["det"] == "27/8"


def test_unwritable_output_path_is_a_usage_error(tmp_path, monkeypatch):
    missing = tmp_path / "missing" / "x"
    code, out, err = run_cli(["det", "--p", "3", "--m", "2", "--out", f"{missing}.json"])
    assert (code, out) == (2, "")
    assert f"--out cannot write '{missing}.json'" in err
    # The dump is written before the verification, so a bad prefix fails fast.
    monkeypatch.setattr("tateop.matrix.verify_matrix", lambda *args: pytest.fail("verified first"))
    code, out, err = run_cli(
        ["matrix", "--p", "3", "--m", "2", "--level", "1", "--dump", str(missing)]
    )
    assert (code, out) == (2, "")
    assert f"--dump cannot write '{missing}.csv'" in err


def test_negative_values_parse_in_the_documented_spelling():
    head = ["correlator", "--p", "3", "--m", "2"]
    assert run_cli(head + ["--x1", "-1/2", "--x2", "1"]) == run_cli(
        head + ["--x1=-1/2", "--x2=1"]
    )
    code, out, _ = run_cli(head + ["--x1", "-1/2", "--x2", "1"])
    assert code == 0 and json.loads(out)["x1"] == "-1/2"
    code, _, err = run_cli(head + ["--x1", "4", "--x2", "1", "--delta", "-1e7"])
    assert code == 2 and "--delta must be positive" in err
    code, _, err = run_cli(head + ["--x1", "4", "--x2", "1", "--delta", "-.5"])
    assert code == 2 and "--delta must be positive" in err
    assert run_cli(["greens", "--p", "3", "--m", "2", "--expect", "-3/4"]) == run_cli(
        ["greens", "--p", "3", "--m", "2", "--expect=-3/4"]
    )
    assert run_cli(["greens", "--p", "3", "--m", "2", "--expect", "-3/4"])[0] == 0


def test_det_at_a_large_period_is_fast(run_python):
    # The angular product is a closed form that one circulant check over
    # the shells proves, with no pass per angular eigenvalue.
    start = time.perf_counter()
    proc = run_python("-m", "tateop", "det", "--p", "2", "--m", "1100")
    assert time.perf_counter() - start < 5.0
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["all_pass"] is True


def test_greens_at_a_large_prime_and_max_vdist_is_fast(run_python):
    # The m - 1 shell terms of the height action are summed before their
    # common factor p^ell, about 12000 bits at p = 999983 and ell = 600, is
    # multiplied in: once per point, not once per shell, which took 13 s
    # on a 2-core Xeon VM.
    start = time.perf_counter()
    proc = run_python(
        "-m", "tateop", "greens", "--p", "999983", "--m", "200", "--max-vdist", "600"
    )
    assert time.perf_counter() - start < 6.5
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["all_pass"] is True


def test_det_series_checks_scale_with_the_closed_value():
    # zeta_pi_value is m times an m-free number: at p = 2, m = 2157 and
    # s = 2 the closed value is 1078.5, and the float series misses it by
    # about 1e-12.  The verdict compares the exact closed form with the
    # exact series sum, so no float error of any size decides it.
    code, out, err = run_cli(["det", "--p", "2", "--m", "2157"])
    assert code == 0, err
    row = json.loads(out)["zeta_series_checks"][0]
    assert row["s"] == 2 and row["closed"] == 1078.5 and row["pass"] is True


def test_spectrum_at_a_large_conductor_is_fast(run_python):
    # The exact radial identity runs at every conductor, in O(n) each, and
    # no conductor's characters are enumerated.
    start = time.perf_counter()
    proc = run_python("-m", "tateop", "spectrum", "--p", "2", "--m", "1", "--max-conductor", "60")
    assert time.perf_counter() - start < 2.0
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["all_pass"] is True


@pytest.mark.parametrize(
    "argv,seconds",
    [
        # The float couplings are formed once per (p, m), not once per conductor.
        ("spectrum --p 2 --m 20000 --max-conductor 300", 5),
        # The height action sums its strata in closed form, not by fresh
        # powers of a large p per stratum.
        ("greens --p 999983 --m 1 --max-vdist 600", 10),
    ],
)
def test_two_large_parameters_at_once_stay_fast(run_python, argv, seconds):
    proc = run_python("-m", "tateop", *argv.split(), timeout=seconds)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["all_pass"] is True
