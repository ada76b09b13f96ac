"""The process exit of the two entry points, ``python -m tateop`` and the
``tateop`` console script: exit codes, stdout bytes and written files equal
those of ``main()``, and a stdout that is closed, full or a broken pipe ends
the process as the normal interpreter exit does.

Each call runs in a fresh interpreter started by ``LAUNCH``, which sets up
fd 1 and then replaces itself with the entry point.  ``PYTHONUNBUFFERED``
is dropped so that stdout is block-buffered, as in a plain shell: only then
is a failed write first seen by the final flush."""

import json
import re
from pathlib import Path

import pytest

from test_cli import DOCUMENTED, run_cli

ROOT = Path(__file__).resolve().parents[1]

LAUNCH = """
import json, os, sys
stdout, entry, *argv = sys.argv[1:]
os.environ.pop("PYTHONUNBUFFERED", None)
if stdout == "closed":
    os.close(1)
elif stdout == "full":
    os.dup2(os.open("/dev/full", os.O_WRONLY), 1)
elif stdout == "broken-pipe":
    read, write = os.pipe()
    os.close(read)
    os.dup2(write, 1)
os.execv(sys.executable, [sys.executable, *json.loads(entry), *argv])
"""


def _console_script() -> list[str]:
    """Interpreter arguments that run what ``[project.scripts]`` names the
    way an installed console script does: ``sys.exit(entry())``."""
    text = (ROOT / "pyproject.toml").read_text()
    module, attr = re.search(r'^tateop = "([\w.]+):(\w+)"$', text, re.MULTILINE).groups()
    return ["-c", f"import sys; from {module} import {attr}; sys.exit({attr}())"]


ENTRIES = {"python -m tateop": ["-m", "tateop"], "console script": _console_script()}
# The interpreter's own exit after main() returns.
NORMAL_EXIT = ["-c", "import sys; from tateop.cli import main; sys.exit(main())"]


@pytest.fixture
def launch(run_python):
    def run(entry, argv, stdout="pipe"):
        return run_python("-c", LAUNCH, stdout, json.dumps(entry), *argv)

    return run


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize(
    "argv, code",
    [
        (["det", "--p", "3", "--m", "2"], 0),
        (["tree", "--p", "2", "--m", "5", "--depth", "8"], 0),
        (["greens", "--p", "3", "--m", "2", "--expect=-1/2"], 1),
        (["greens", "--p", "4", "--m", "2"], 2),
        (["spectrum", "--p", "3"], 2),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else str(v),
)
def test_exit_code_and_streams_match_main(launch, entry, argv, code):
    proc = launch(ENTRIES[entry], argv)
    expected = run_cli(argv)
    assert expected[0] == code
    assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == expected


@pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
@pytest.mark.parametrize("argv", DOCUMENTED, ids=lambda a: " ".join(a))
def test_documented_stdout_matches_main(launch, argv, fmt):
    argv = argv + ["--format", fmt]
    code, out, _ = run_cli(argv)
    for entry in ENTRIES.values() if fmt == "json" else [ENTRIES["python -m tateop"]]:
        proc = launch(entry, argv)
        assert (proc.returncode, proc.stdout.decode()) == (code, out), proc.stderr


@pytest.mark.parametrize("entry", ENTRIES)
def test_out_and_dump_files_are_complete(launch, tmp_path, entry):
    # The tree report is 82 KB, several buffers' worth.
    for argv in (["tree", "--p", "2", "--m", "5", "--depth", "8"], ["det", "--p", "3", "--m", "2"]):
        target = tmp_path / "report.txt"
        proc = launch(ENTRIES[entry], argv + ["--out", str(target)])
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
        assert target.read_text() == run_cli(argv)[1]
    argv = ["matrix", "--p", "3", "--m", "2", "--level", "1", "--dump"]
    proc = launch(ENTRIES[entry], argv + [str(tmp_path / "new")])
    assert proc.returncode == 0, proc.stderr
    assert run_cli(argv + [str(tmp_path / "old")])[0] == 0
    for suffix in (".csv", ".basis.json"):
        new = (tmp_path / ("new" + suffix)).read_bytes()
        assert new and new == (tmp_path / ("old" + suffix)).read_bytes(), suffix


@pytest.mark.parametrize("entry", ENTRIES)
def test_closed_stdout_with_out_exits_0(launch, tmp_path, entry):
    # With fd 1 closed, sys.stdout is None: nothing may try to flush it.
    target = tmp_path / "det.json"
    proc = launch(ENTRIES[entry], ["det", "--p", "3", "--m", "2", "--out", str(target)], "closed")
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert json.loads(target.read_text())["det"] == "27/8"


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("stdout, error", [("full", b"OSError"), ("broken-pipe", b"BrokenPipeError")])
def test_a_failed_flush_ends_as_the_normal_exit_does(launch, entry, stdout, error):
    # The report fits stdout's buffer, so the first write to fd 1 is the
    # final flush; the interpreter reports it and exits 120.
    argv = ["det", "--p", "3", "--m", "2"]
    proc = launch(ENTRIES[entry], argv, stdout)
    normal = launch(NORMAL_EXIT, argv, stdout)
    assert normal.returncode == 120 and error in normal.stderr
    assert (proc.returncode, proc.stderr) == (normal.returncode, normal.stderr)
