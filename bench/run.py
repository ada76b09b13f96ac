"""Benchmark of the tateop CLI, end to end and layer by layer.

    python3 bench/run.py --workload cli_docs --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is used from ``src/``
as it is, nothing is installed.  ``--trace 0`` is the timed run: one client
in a closed loop starts one ``python -m tateop ...`` child at a time and
times it from spawn to exit.  Between the calls it times a fixed reference
child that does not touch tateop, and reports each call scaled by how slow
the machine was at that moment (see ``normalise``).  ``--trace 1`` replays the same invocations
in this process under the tracer and reports the per-layer metrics.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; everything before it is a readable summary.
Details and by-products (spans, per-call records) go to ``.bench_out/``.
See ``bench/README.md`` for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

import oracle
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
# The reference child: interpreter start, the numpy import, Fraction
# arithmetic and a small eigen-solve -- the kinds of work a tateop call does,
# in a fixed amount, without tateop.  It is timed before the first call,
# again whenever REF_EVERY_S of calls have passed since the last one, and
# after the last call.
REF_SRC = (
    "import fractions, numpy\n"
    "F = fractions.Fraction\n"
    "acc = F(0)\n"
    "for i in range(1, 4000):\n"
    "    acc += F(i % 17, i % 13 + 1) * F(3, 7)\n"
    "numpy.linalg.eigvals(numpy.arange(4096.0).reshape(64, 64) % 7)\n"
)
REF_EVERY_S = 1.0
# Seconds the reference child takes on an unloaded core of the 2-core Xeon
# VM the benchmark was written on.  Timings are reported in seconds at that
# machine speed; the constant only fixes the scale.
REF_NOMINAL_S = 0.15
IMPORTTIME_REPEATS = 5
TAIL_BEYOND = 10

END_TO_END = (
    ("setup_s", "s"),
    ("call_p50_s", "s"),
    ("call_tail_s", "s"),
    ("calls_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("cli.import.numpy_s", "s"),
    ("cli.import.tateop_s", "s"),
    ("cli.render.self_s", "s"),
    ("cli.render.bytes", "bytes"),
    ("tree.tree_quotient.calls", "count"),
    ("tree.tree_quotient_dot.self_s", "s"),
    ("matrix.to_csv.self_s", "s"),
    ("padic.valuation.calls", "count"),
    ("padic.valuation.self_s", "s"),
    ("domain.canonical_center.calls", "count"),
    ("domain.canonical_center.self_s", "s"),
    ("spectral.dlog.tables_built", "count"),
    ("spectral.dlog.entries", "count"),
    ("spectral.conductor.hit_ratio", "ratio"),
    ("operator.integrate_H_over_ball.calls", "count"),
    ("operator.integrate_H_over_ball.self_s", "s"),
    ("operator.kernel_cache.hit_ratio", "ratio"),
    ("operator.apply_D_height.calls", "count"),
    ("operator.apply_D_height.self_s", "s"),
    ("matrix.build_matrix.self_s", "s"),
    ("matrix.cells", "count"),
    ("matrix.as_float.calls", "count"),
    ("matrix.as_float.self_s", "s"),
    ("matrix.verify_matrix.self_s", "s"),
    ("matrix.eigenvalues.calls", "count"),
    ("matrix.eigenvalues.self_s", "s"),
    ("spectral.enumerate_conductor.calls", "count"),
    ("spectral.enumerate_conductor.self_s", "s"),
    ("spectral.enumerate_conductor.yield", "ratio"),
    ("spectral.eigenvalue_radial_integral.self_s", "s"),
    ("spectral.eigenvalue_angular.calls", "count"),
    ("spectral.eigenvalue_angular_sum.calls", "count"),
    ("determinant.angular_determinant.self_s", "s"),
    ("determinant.zeta_prime_at_zero.calls", "count"),
    ("correlator.height_limit_check.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def tail_percentile(samples, beyond: int = TAIL_BEYOND) -> tuple[int, float, int]:
    """The highest whole percentile q whose nearest-rank sample still has at
    least `beyond` samples above it: (q, that sample, samples above it)."""
    ordered = sorted(samples)
    n = len(ordered)
    for q in range(99, 0, -1):
        rank = math.ceil(q * n / 100)
        if n - rank >= beyond:
            return q, ordered[rank - 1], n - rank
    raise ValueError(f"{n} samples leave no percentile with {beyond} samples beyond it")


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("TATE_MAX_DIM", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    # One BLAS thread: a second one spins on the core the machine's other
    # tenants share, which adds noise and no speed at these matrix sizes.
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
    return env


def spawn(args: list[str], env: dict) -> tuple[float, int, float, str, str]:
    """Run `python <args>` to completion: (seconds, exit code, max RSS in MB, stdout, stderr).

    Timed from spawn to exit; the child's max RSS comes from its own
    rusage via wait4.  Output goes through files so the child never blocks
    on a pipe.
    """
    out_path, err_path = OUT / "child.stdout", OUT / "child.stderr"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    elapsed = time.perf_counter() - t0
    code = os.waitstatus_to_exitcode(status)
    return elapsed, code, usage.ru_maxrss / 1024, out_path.read_text(), err_path.read_text()


def argvs_for(plan) -> list[tuple[str, ...]]:
    return [inv.argv + (("--dump", str(OUT / inv.dump)) if inv.dump else ()) for inv in plan]


def judge_all(results) -> tuple[int, bool, list[str]]:
    """Oracle verdicts over (argv, code, stdout) triples: (failed, correct, reasons).

    Repeats of one argv within a run must give byte-identical stdout."""
    failed, correct, reasons = 0, True, []
    first: dict[tuple, str] = {}
    for argv, code, stdout in results:
        reason, wrong = oracle.judge(argv, code, stdout)
        if reason is None and first.setdefault(argv, stdout) != stdout:
            reason, wrong = "stdout differs from an earlier identical invocation", True
        if reason is not None:
            failed += 1
            correct = correct and not wrong
            reasons.append(f"{' '.join(argv)}: {reason}")
    return failed, correct, reasons


def matrix_cells(results) -> int:
    """Sum of dim^2 over matrix invocations that assembled and verified."""
    cells = 0
    for argv, code, _ in results:
        if argv[0] == "matrix" and code == 0:
            o = oracle.options(argv)
            cells += workloads.dimension((int(o["p"]), int(o["m"]), int(o["level"]))) ** 2
    return cells


def normalise(durations, ref_before, refs) -> list[float]:
    """Each duration in seconds at the reference machine speed.

    `refs` are the reference child's times in order, and `ref_before[i]` is
    the index of the last one timed before duration i, so refs[j] and
    refs[j + 1] bracket it.  The machine this runs on shares its cores and
    slows by up to half for seconds or minutes at a time; a call and the
    references around it slow alike, so the ratio stays put while the raw
    wall time does not.
    """
    return [
        d * REF_NOMINAL_S / ((refs[j] + refs[j + 1]) / 2)
        for d, j in zip(durations, ref_before)
    ]


def timed_run(workload: str, seed: int, seconds: float) -> tuple[dict, dict, list]:
    env = child_env()
    import_tateop = ["-c", "import tateop.cli"]
    reference = ["-c", REF_SRC]
    spawn(import_tateop, env)  # compiles bytecode once, untimed
    spawn(reference, env)

    cycles = workloads.cycles_for(workload, seconds)
    argvs = argvs_for(workloads.plan(workload, seed, cycles))
    # Set-up samples are spread evenly over the run, between the timed calls.
    setup_before = {i * len(argvs) // SETUP_REPEATS for i in range(SETUP_REPEATS)}
    items = []
    for i, argv in enumerate(argvs):
        if i in setup_before:
            items.append(("setup", import_tateop))
        items.append(("call", ["-m", "tateop", *argv]))

    # A set-up sample is short, so it gets a reference right before and
    # right after it rather than sharing one with a long call.
    refs, ref_before, runs, since = [], [], [], REF_EVERY_S
    for kind, args in items:
        if since >= REF_EVERY_S or kind == "setup":
            elapsed, code, _, _, err = spawn(reference, env)
            if code != 0:
                raise RuntimeError(f"the reference child failed:\n{err}")
            refs.append(elapsed)
            since = 0.0
        ref_before.append(len(refs) - 1)
        runs.append(spawn(args, env))
        since = REF_EVERY_S if kind == "setup" else since + runs[-1][0]
        if kind == "setup" and runs[-1][1] != 0:
            raise RuntimeError(f"importing tateop.cli failed:\n{runs[-1][4]}")
    refs.append(spawn(reference, env)[0])

    scaled = normalise([r[0] for r in runs], ref_before, refs)
    setup = [t for (kind, _), t in zip(items, scaled) if kind == "setup"]
    durations = [t for (kind, _), t in zip(items, scaled) if kind == "call"]
    calls = [r for (kind, _), r in zip(items, runs) if kind == "call"]
    wall = [c[0] for c in calls]

    results = [(argv, code, out) for argv, (_, code, _, out, _) in zip(argvs, calls)]
    q, tail, beyond = tail_percentile(durations)
    metrics = {
        "setup_s": statistics.median(setup),
        "call_p50_s": statistics.median(durations),
        "call_tail_s": tail,
        "calls_per_s": len(calls) / sum(durations),
        "peak_rss_mb": max(c[2] for c in calls),
    }
    failed, correct, reasons = judge_all(results)
    extra = {
        "cycles": cycles,
        "tail_percentile": q,
        "tail_samples": len(durations),
        "tail_samples_beyond": beyond,
        "matrix_cells_per_s": matrix_cells(results) / sum(durations),
        "fail_ratio": failed / len(calls),
        "known_defect_share": sum(map(workloads.is_known_defect, argvs)) / len(argvs),
        "wall": {
            "setup_s": statistics.median(r[0] for (kind, _), r in zip(items, runs) if kind == "setup"),
            "call_p50_s": statistics.median(wall),
            "call_tail_s": tail_percentile(wall)[1],
            "calls_per_s": len(wall) / sum(wall),
        },
        "reference_s": {"median": statistics.median(refs), "min": min(refs), "max": max(refs), "count": len(refs)},
        "setup_samples_s": setup,
        "calls": [
            {"argv": list(a), "seconds": t, "wall_seconds": c[0], "code": c[1], "max_rss_mb": c[2]}
            for a, t, c in zip(argvs, durations, calls)
        ],
    }
    return metrics, {"attempted": len(calls), "failed": failed, "correct": correct, **extra}, reasons


def import_times(env: dict) -> tuple[float, float]:
    """Median seconds of numpy and of the rest of `import tateop.cli`, from -X importtime."""
    numpy_s, rest_s = [], []
    for _ in range(IMPORTTIME_REPEATS):
        _, code, _, _, err = spawn(["-X", "importtime", "-c", "import tateop.cli"], env)
        if code != 0:
            raise RuntimeError(f"importing tateop.cli failed:\n{err}")
        cumulative = {}
        for line in err.splitlines():
            fields = line.split("|")
            if line.startswith("import time:") and len(fields) == 3 and fields[1].strip().isdigit():
                cumulative.setdefault(fields[2].strip(), int(fields[1]) / 1e6)
        numpy_s.append(cumulative.get("numpy", 0.0))
        rest_s.append(cumulative["tateop.cli"] - numpy_s[-1])
    return statistics.median(numpy_s), statistics.median(rest_s)


def traced_run(workload: str, seed: int) -> tuple[dict, dict, list]:
    numpy_s, tateop_s = import_times(child_env())
    sys.path.insert(0, str(SRC))
    import tateop.cli  # noqa: F401  (loaded before the wrappers go in)
    import tracer as tracing

    argvs = argvs_for(workloads.plan(workload, seed, 1))
    caches = tracing.lru_caches()
    tracing.replay(argvs, caches)  # warms the interpreter, so the next two compare fairly
    untraced_wall, _ = tracing.replay(argvs, caches)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_wall, results = tracing.replay(argvs, caches, tracer)
    finally:
        tracer.uninstall()
    tracer.write(OUT / f"spans-{workload}", argvs)

    spans = tracer.per_name()
    c = tracer.counts
    metrics = {
        "cli.import.numpy_s": numpy_s,
        "cli.import.tateop_s": tateop_s,
        "cli.render.bytes": sum(len(out.encode()) for _, _, out in results),
        "spectral.dlog.tables_built": c["dlog.tables"],
        "spectral.dlog.entries": c["dlog.entries"],
        "spectral.conductor.hit_ratio": ratio(c["conductor.hits"], c["conductor.hits"] + c["conductor.misses"]),
        "operator.kernel_cache.hit_ratio": ratio(c["kernel.hits"], c["kernel.hits"] + c["kernel.misses"]),
        "matrix.cells": matrix_cells(results),
        "spectral.enumerate_conductor.yield": ratio(c["conductor.returned"], c["conductor.candidates"]),
        "trace.overhead_ratio": traced_wall / untraced_wall,
    }
    for name, _ in PER_LAYER:
        span, _, field = name.rpartition(".")
        if name not in metrics:
            metrics[name] = spans[span][field]
    failed, correct, reasons = judge_all(results)
    extra = {
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "spans": len(tracer.start),
        "span_totals": spans,
        "counters": c,
    }
    return metrics, {"attempted": len(results), "failed": failed, "correct": correct, **extra}, reasons


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.CYCLES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "tateop" / "__init__.py").is_file():
        print(f"bench: no tateop sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    if args.trace:
        metrics, details, reasons = traced_run(args.workload, args.seed)
    else:
        metrics, details, reasons = timed_run(args.workload, args.seed, args.seconds)
    units = dict(PER_LAYER if args.trace else END_TO_END)
    env = environment()

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  environment {json.dumps(env)}")
    for name, unit in units.items():
        print(f"  {name:44s} {metrics[name]!r:>24} {unit}")
    if not args.trace:
        print(f"  {'call_tail_s percentile':44s} {'p' + str(details['tail_percentile']):>24} "
              f"({details['tail_samples_beyond']} of {details['tail_samples']} samples beyond)")
        print(f"  {'matrix_cells_per_s':44s} {details['matrix_cells_per_s']!r:>24} 1/s")
        for name, value in details["wall"].items():
            print(f"  {'unscaled ' + name:44s} {value!r:>24} {units[name]}")
        ref = details["reference_s"]
        print(f"  {'reference child s (median, min, max)':44s} "
              f"{ref['median']:.4f} {ref['min']:.4f} {ref['max']:.4f} (x{ref['count']}, nominal {REF_NOMINAL_S})")
        print(f"  {'fail_ratio':44s} {details['fail_ratio']!r:>24} "
              f"(known defect inputs: {details['known_defect_share']!r})")
    for reason in sorted(set(reasons)):
        print(f"  rejected  {reason}  (x{reasons.count(reason)})")

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "metrics": metrics, "rejected": reasons, **details}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": details["correct"],
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
