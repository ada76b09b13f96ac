"""The benchmark's own tests; not collected by the package's test suite.

    python -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def cli(argv):
    from tateop.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("argv", workloads.plan("cli_docs", 0, 1), ids=lambda inv: " ".join(inv.argv))
def test_oracle_accepts_documented_invocations(argv):
    code, out = cli(argv.argv)
    assert oracle.judge(argv.argv, code, out) == (None, False)


def test_oracle_rejects_wrong_expected_constant():
    argv = ("greens", "--p", "3", "--m", "2", "--expect=1/2")
    code, out = cli(argv)
    assert code == 1
    assert oracle.judge(argv, code, out) == ("exit code 1", False)
    reason, wrong = oracle.judge(argv, 0, out)
    assert reason and wrong


def test_oracle_rejects_truncated_stdout():
    for argv in (("det", "--p", "3", "--m", "2"), ("tree", "--p", "2", "--m", "5", "--depth", "1")):
        code, out = cli(argv)
        assert oracle.judge(argv, code, out) == (None, False)
        reason, wrong = oracle.judge(argv, code, out[: len(out) // 2])
        assert reason and wrong


def test_oracle_judges_overflowing_correlator_in_log_space():
    argv = workloads.CORRELATOR_OVERFLOW
    assert oracle.judge(argv, 1, "")[0] == "exit code 1"
    # exp(800 log 3) is beyond the float range; a finite wrong value is rejected.
    report = json.dumps({"two_point": 1e300, "kernel": 9.25, "all_pass": True})
    reason, wrong = oracle.judge(argv, 0, report)
    assert "two_point" in reason and wrong


def test_self_time_subtracts_union_of_children():
    #   0 root 10;  1 A [1,4] with grandchild 2 [2,3];  3 B [3,6] overlaps A;
    #   4 C [8,12] runs past the root's end and is clipped to it.
    start = [0.0, 1.0, 2.0, 3.0, 8.0]
    end = [10.0, 4.0, 3.0, 6.0, 12.0]
    parent = [-1, 0, 1, 0, 0]
    assert tracing.self_times(start, end, parent) == pytest.approx([3.0, 2.0, 1.0, 3.0, 4.0])


def test_tail_percentile_reports_samples_beyond():
    samples = [float(i) for i in range(120)]
    q, value, beyond = run.tail_percentile(samples)
    assert (q, value, beyond) == (91, 109.0, 10)
    assert run.tail_percentile(samples[:11]) == (9, 0.0, 10)
    for n in (11, 22, 66, 96, 120, 1000):
        q, _, beyond = run.tail_percentile(range(n))
        assert beyond >= 10
        assert n - math.ceil((q + 1) * n / 100) < 10 or q == 99
    with pytest.raises(ValueError):
        run.tail_percentile(range(10))


def test_normalise_cancels_machine_slowdown():
    # A call of 0.6 s at nominal speed, timed while the machine runs at its
    # nominal speed, halfway through slowing down, and twice as slow; the
    # reference child slows alike.
    refs = [run.REF_NOMINAL_S * f for f in (1.0, 1.0, 2.0, 2.0)]
    assert run.normalise([0.6, 0.9, 1.2], [0, 1, 2], refs) == pytest.approx([0.6, 0.6, 0.6])
    # Calls sharing one pair of references keep their ratio.
    assert run.normalise([1.2, 2.4], [2, 2], refs) == pytest.approx([0.6, 1.2])


def test_seed_changes_order_not_work():
    def work(plan):
        # Correlator pool pairs share valuations, so the points do not change the work.
        return Counter(
            inv.argv[:5] + inv.argv[9:] if inv.argv[0] == "correlator" else inv.argv for inv in plan
        )

    for name in workloads.CYCLES:
        a, b = workloads.plan(name, 1, 2), workloads.plan(name, 2, 2)
        assert a == workloads.plan(name, 1, 2)
        assert work(a) == work(b)
    a = [inv.argv for inv in workloads.plan("spectral_sweep", 1, 1)]
    assert a != [inv.argv for inv in workloads.plan("spectral_sweep", 2, 1)]


def test_known_defects_are_kept_in_the_sweep():
    argvs = [inv.argv for inv in workloads.plan("spectral_sweep", 1, 1)]
    defects = [a for a in argvs if workloads.is_known_defect(a)]
    assert workloads.CORRELATOR_OVERFLOW in defects
    assert ("det", "--p", "2", "--m", "24") in defects
    assert ("det", "--p", "3", "--m", "40") in defects
    assert len(defects) == 9 and len(argvs) == 33
    assert not any(map(workloads.is_known_defect, (inv.argv for inv in workloads.plan("cli_docs", 1, 1))))


def test_traced_counts_repeat_exactly():
    import tateop.cli  # noqa: F401

    argvs = [inv.argv for inv in workloads.plan("cli_docs", 3, 1)]
    caches = tracing.lru_caches()
    runs = []
    for _ in range(2):
        tr = tracing.Tracer()
        tr.install()
        try:
            _, results = tracing.replay(argvs, caches, tr)
        finally:
            tr.uninstall()
        assert all(code == 0 for _, code, _ in results)
        runs.append(({k: v["calls"] for k, v in tr.per_name().items()}, tr.counts))
    assert runs[0] == runs[1]
    calls, counts = runs[0]
    assert calls["cli.main"] == len(argvs)
    assert calls["tree.tree_quotient"] == 2 * 3  # twice per `tree` call, in three formats
    assert counts["kernel.hits"] + counts["kernel.misses"] > 0
    from tateop import padic

    assert padic.valuation.__module__ == "tateop.padic"  # wrappers removed again


def test_benchmark_json_matches_the_runner():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.CYCLES)
