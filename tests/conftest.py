import os
import subprocess
import sys
from pathlib import Path

import hypothesis
import pytest

# Exact rational arithmetic has wildly varying per-example cost, so wall-clock
# deadlines only produce flaky failures here.
hypothesis.settings.register_profile(
    "exact", deadline=None, max_examples=60, derandomize=True
)
hypothesis.settings.load_profile("exact")

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def run_python():
    """Run a fresh interpreter with the given arguments, the package on its
    path; returns the completed process with stdout and stderr as bytes."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}

    def run(*args):
        return subprocess.run(
            [sys.executable, *args], env=env, capture_output=True, timeout=300
        )

    return run
