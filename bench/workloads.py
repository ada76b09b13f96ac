"""The benchmark's workloads: fixed sets of ``tateop`` invocations.

Every workload is a fixed multiset of argv lists (one *cycle*).  A run
repeats the cycle a number of times that depends only on ``--seconds``, so
the amount of work is the same for every seed and for every commit; the
seed changes only the order of the invocations within each cycle and, on
``spectral_sweep``, which point pair of a fixed pool each correlator call
uses.  All pool pairs share their valuation profile, so the choice changes
neither the work done nor which calls are known to fail.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

FORMATS = ("json", "csv", "pretty")

# The documented invocations, as listed in the README and in tests/test_cli.py.
DOCUMENTED = (
    ("greens", "--p", "3", "--m", "2"),
    ("greens", "--p", "2", "--m", "5"),
    ("spectrum", "--p", "3", "--m", "2", "--max-conductor", "2"),
    ("spectrum", "--p", "2", "--m", "1", "--max-conductor", "3"),
    ("det", "--p", "3", "--m", "2"),
    ("matrix", "--p", "3", "--m", "2", "--level", "1"),
    ("correlator", "--p", "3", "--m", "2", "--x1", "4", "--x2", "1"),
    ("tree", "--p", "2", "--m", "5", "--depth", "1"),
)

# (p, m, level) rungs of dimension m (p-1) p^(level-1) = 54, 128 and 200,
# covering p in {2, 3, 5} and m in {1, 2, 3}; the 200-rung is DUMP_RUNGS
# below.  Each dimension costs at least 1.5 times the one below it, beyond
# the noise of one timing.  The 128-rung runs three times per cycle, so its
# repeats fill the sorted samples from 20% to 80%: the median sits in the
# middle of them, and the tail rank (the 11th largest of 25) inside them, on
# fifteen calls of one configuration rather than on a boundary between two
# costs.
LADDER = ((3, 3, 3), (2, 1, 8), (2, 1, 8), (2, 1, 8))
# The largest rung always runs with --dump, which keeps the exact CSV
# export (OperatorMatrix.to_csv) on the timed path.
DUMP_RUNGS = ((5, 2, 3),)


def dimension(rung: tuple[int, int, int]) -> int:
    p, m, k = rung
    return m * (p - 1) * p ** (k - 1)


SPECTRUM_SWEEP = ((2, 1, 12), (3, 2, 7), (5, 3, 5), (7, 2, 4))
# `det` exits 1 from these m on (an absolute tolerance on (p/(p-1))^m;
# ROADMAP, "Fix first").  Past them it fails for most m but not all, as
# the rounding falls.  The grid keeps the first failing m and m = 100 for
# each prime on purpose: they count as failed until fixed.
DET_FIRST_FAILING_M = {2: 24, 3: 40, 5: 74, 7: 95}
DET_SWEEP = tuple((p, m) for p, first in DET_FIRST_FAILING_M.items() for m in (12, 20, first, 100))
GREENS_SWEEP = ((3, 2, 60), (2, 5, 100), (7, 4, 40), (5, 3, 50))
CORRELATOR_DELTAS = ("0.25", "0.5", "1", "1.5", "2", "3.5", "10", "120")
# Units of Z_3 whose difference and whose ratio minus 1 have valuation
# exactly 1, written with one digit: every pair gives the same report up to
# the points themselves, of the same length.
CORRELATOR_POOL = (("4", "1"), ("7", "1"), ("5", "2"), ("7", "4"), ("8", "5"), ("2", "5"))
# Fails at the parent commit with a float overflow; kept on purpose.
CORRELATOR_OVERFLOW = ("correlator", "--p", "3", "--m", "2", "--x1", "4", "--x2", "1", "--delta", "400")

# Wall seconds of one cycle, reference children included, at the median
# speed of the reference machine (2-core Xeon VM, Python 3.11): a run of
# --seconds S repeats the cycle round(S / nominal) times, but at least the
# minimum below, so the sample count never depends on how fast the code under
# test is.  At least twice, so that every invocation is repeated and the
# byte-identical repeat check applies; the ladder at least five times, so
# that its 25 samples put the median and the tail rank inside the fifteen
# repeats of the 128-rung.
NOMINAL_CYCLE_S = {"cli_docs": 10.0, "matrix_ladder": 9.0, "spectral_sweep": 18.0}
MIN_CYCLES = {"cli_docs": 2, "matrix_ladder": 5, "spectral_sweep": 2}


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    dump: str | None = None  # --dump prefix, relative to the output directory


def _cli_docs(rng: random.Random) -> list[Invocation]:
    return [Invocation(argv + ("--format", fmt)) for argv in DOCUMENTED for fmt in FORMATS]


def _matrix_ladder(rng: random.Random) -> list[Invocation]:
    def argv(p, m, k):
        return ("matrix", "--p", str(p), "--m", str(m), "--level", str(k))

    cycle = [Invocation(argv(*rung)) for rung in LADDER]
    cycle += [Invocation(argv(p, m, k), dump=f"dump-{p}-{m}-{k}") for p, m, k in DUMP_RUNGS]
    return cycle


def _spectral_sweep(rng: random.Random) -> list[Invocation]:
    cycle = [
        Invocation(("spectrum", "--p", str(p), "--m", str(m), "--max-conductor", str(n)))
        for p, m, n in SPECTRUM_SWEEP
    ]
    cycle += [Invocation(("det", "--p", str(p), "--m", str(m))) for p, m in DET_SWEEP]
    cycle += [
        Invocation(("greens", "--p", str(p), "--m", str(m), "--max-vdist", str(d)))
        for p, m, d in GREENS_SWEEP
    ]
    for delta in CORRELATOR_DELTAS:
        x1, x2 = rng.choice(CORRELATOR_POOL)
        cycle.append(
            Invocation(("correlator", "--p", "3", "--m", "2", "--x1", x1, "--x2", x2, "--delta", delta))
        )
    cycle.append(Invocation(CORRELATOR_OVERFLOW))
    return cycle


CYCLES = {"cli_docs": _cli_docs, "matrix_ladder": _matrix_ladder, "spectral_sweep": _spectral_sweep}


def cycles_for(workload: str, seconds: float) -> int:
    return max(MIN_CYCLES[workload], round(seconds / NOMINAL_CYCLE_S[workload]))


def plan(workload: str, seed: int, cycles: int) -> list[Invocation]:
    """`cycles` shuffled copies of the workload's cycle, drawn from `seed`."""
    rng = random.Random(seed)
    out: list[Invocation] = []
    for _ in range(cycles):
        cycle = CYCLES[workload](rng)
        rng.shuffle(cycle)
        out.extend(cycle)
    return out


def is_known_defect(argv: tuple[str, ...]) -> bool:
    """The inputs above that fail at the parent commit."""
    if argv == CORRELATOR_OVERFLOW:
        return True
    if argv[0] != "det":
        return False
    p, m = int(argv[2]), int(argv[4])
    return m in (DET_FIRST_FAILING_M[p], 100)
