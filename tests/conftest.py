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
    path and ``env`` added to the environment, killed after ``timeout``
    seconds (a TimeoutExpired); returns the completed process with stdout
    and stderr as bytes."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    base = {**os.environ, "PYTHONPATH": path}

    def run(*args, env=None, timeout=300):
        return subprocess.run(
            [sys.executable, *args], env={**base, **(env or {})}, capture_output=True, timeout=timeout
        )

    return run


@pytest.fixture
def skew_coupling(monkeypatch):
    """skew(p, m, u) makes w_u at (p, m) one too large in every module that
    reads it, as the u-th weight that coupling_weights(p, m) yields or as
    coupling_weight(p, m, u), and clears the caches they feed, then and
    after the test, so no value of either is reused."""
    from tateop import angular, operator, padic, spectral

    caches = (
        padic._kernel_by_valuations,
        angular.angular_circulant_check,
        spectral._float_couplings,
    )
    original, original_weight = padic.coupling_weights, padic.coupling_weight

    def skew(p, m, u):
        def weights(p2, m2):
            for u2, w in enumerate(original(p2, m2), 1):
                yield w + ((p2, m2, u2) == (p, m, u))

        def weight(p2, m2, u2):
            return original_weight(p2, m2, u2) + ((p2, m2, u2) == (p, m, u))

        for module in (angular, padic, spectral):
            monkeypatch.setattr(module, "coupling_weights", weights)
        for module in (operator, padic):
            monkeypatch.setattr(module, "coupling_weight", weight)
        for cache in caches:
            cache.cache_clear()

    yield skew
    for cache in caches:
        cache.cache_clear()
