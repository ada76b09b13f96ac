"""In-process tracer behind the per-layer metrics.

A traced run replays a workload through ``tateop.cli.main(argv)`` in this
process.  The tracer rebinds public names of the package to wrappers that
record one span per call: name, start, end, parent span and invocation id.
Spans stay in memory (flat arrays) until the run ends.  Before each
invocation every ``lru_cache`` in the package is cleared, so call counts
and cache statistics match a cold process; the same replay is also run
without wrappers to give the tracer's overhead.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import traceback
from array import array
from pathlib import Path
from time import perf_counter

# Public names wrapped with a span, as (module, attribute); methods are
# written "Class.method".  The span is named "<module>.<function>".
SPANNED = (
    ("tateop.cli", "render"),
    ("tateop.tree", "tree_quotient"),
    ("tateop.tree", "tree_quotient_dot"),
    ("tateop.matrix", "OperatorMatrix.to_csv"),
    ("tateop.padic", "valuation"),
    ("tateop.domain", "canonical_center"),
    ("tateop.operator", "integrate_H_over_ball"),
    ("tateop.operator", "apply_D_height"),
    ("tateop.matrix", "build_matrix"),
    ("tateop.matrix", "verify_matrix"),
    ("tateop.matrix", "OperatorMatrix.as_float"),
    ("tateop.matrix", "OperatorMatrix.eigenvalues"),
    ("tateop.spectral", "enumerate_conductor"),
    ("tateop.spectral", "eigenvalue_radial_integral"),
    ("tateop.spectral", "eigenvalue_angular"),
    ("tateop.spectral", "eigenvalue_angular_sum"),
    ("tateop.determinant", "angular_determinant"),
    ("tateop.determinant", "zeta_prime_at_zero"),
    ("tateop.correlator", "height_limit_check"),
)
# Discrete-log tables: counted (one table per distinct argument tuple in an
# invocation, since caches start empty), not spanned: lookups are hot.
DLOG_TABLES = ("_unit_dlog_table", "_two_adic_table")
KERNEL_CACHE = "tateop.operator._kernel_by_valuations"
CONDUCTOR_CACHE = "tateop.spectral._conductor_of"
ROOT = "cli.main"


def package_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "tateop" or n.startswith("tateop.")}


def lru_caches() -> dict:
    """Every functools.lru_cache wrapper at module level in the package."""
    found = {}
    for name, mod in package_modules().items():
        for attr, val in vars(mod).items():
            if callable(getattr(val, "cache_clear", None)) and callable(getattr(val, "cache_info", None)):
                found[f"{name}.{attr}"] = val
    return found


def conductor_candidates(p: int, n: int) -> int:
    """How many characters enumerate_conductor(p, n) evaluates."""
    if n == 0:
        return 1
    if p == 2:
        return 0 if n == 1 else (1 if n == 2 else 2 ** (n - 1))
    return (p - 1) * p ** (n - 1) - 1


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it covered by its children.

    Children may overlap each other; only the union of their intervals,
    clipped to the parent's, is subtracted.
    """
    kids: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            kids.setdefault(p, []).append(i)
    out = [e - s for s, e in zip(start, end)]
    for p, ks in kids.items():
        lo, hi = start[p], end[p]
        covered = 0.0
        run_lo = run_hi = None
        for s, e in sorted((max(start[k], lo), min(end[k], hi)) for k in ks):
            if e <= s:
                continue
            if run_hi is None or s > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = s, e
            else:
                run_hi = max(run_hi, e)
        if run_hi is not None:
            covered += run_hi - run_lo
        out[p] -= covered
    return out


class Tracer:
    """Span recorder plus the counters read at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.invocation = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []
        self._tables: dict[tuple, int] = {}
        self.counts = {
            "dlog.tables": 0,
            "dlog.entries": 0,
            "kernel.hits": 0,
            "kernel.misses": 0,
            "conductor.hits": 0,
            "conductor.misses": 0,
            "conductor.candidates": 0,
            "conductor.returned": 0,
        }

    def span(self, name: str, fn, observe=None):
        """fn wrapped to record a span per call; observe(args, result) runs after it."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        stack, start, end = self._stack, self.start, self.end
        name_id, parent, invocation = self.name_id, self.parent, self.invocation

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            invocation.append(self.current)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _rebind(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _rebind_everywhere(self, orig, new) -> None:
        for mod in package_modules().values():
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._rebind(mod, attr, new)

    def _count_conductor(self, args, result) -> None:
        self.counts["conductor.candidates"] += conductor_candidates(*args[:2])
        self.counts["conductor.returned"] += len(result)

    def _count_table(self, name: str, fn):
        tables = self._tables

        def counted(*args):
            result = fn(*args)
            tables.setdefault((name, args), len(result))
            return result

        return counted

    def install(self) -> None:
        mods = package_modules()
        for modname, attr in SPANNED:
            owner = mods[modname]
            span_name = f"{modname.rsplit('.', 1)[1]}.{attr.rsplit('.', 1)[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._rebind(cls, meth, self.span(span_name, vars(cls)[meth]))
                continue
            orig = getattr(owner, attr)
            observe = self._count_conductor if attr == "enumerate_conductor" else None
            self._rebind_everywhere(orig, self.span(span_name, orig, observe))
        spectral = mods["tateop.spectral"]
        for attr in DLOG_TABLES:
            self._rebind_everywhere(getattr(spectral, attr), self._count_table(attr, getattr(spectral, attr)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def root(self, invocation: int, fn, *args):
        """Run fn as the root span of one invocation."""
        self.current = invocation
        return self.span(ROOT, fn)(*args)

    def end_invocation(self, caches: dict) -> None:
        """Fold the invocation's cache statistics into the counters."""
        for key, name in ((KERNEL_CACHE, "kernel"), (CONDUCTOR_CACHE, "conductor")):
            info = caches[key].cache_info()
            self.counts[f"{name}.hits"] += info.hits
            self.counts[f"{name}.misses"] += info.misses
        self.counts["dlog.tables"] += len(self._tables)
        self.counts["dlog.entries"] += sum(self._tables.values())
        self._tables.clear()

    def per_name(self) -> dict[str, dict[str, float]]:
        """Calls and summed self time per span name."""
        selfs = self_times(self.start, self.end, self.parent)
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for nid, st in zip(self.name_id, selfs):
            entry = out[self.names[nid]]
            entry["calls"] += 1
            entry["self_s"] += st
        return out

    def write(self, prefix: Path, argvs: list) -> None:
        """Spans to <prefix>.bin as five arrays one after the other, laid out
        as <prefix>.json describes; start and end are perf_counter seconds."""
        arrays = {"name_id": self.name_id, "invocation": self.invocation, "parent": self.parent,
                  "start": self.start, "end": self.end}
        with open(f"{prefix}.bin", "wb") as fh:
            for arr in arrays.values():
                arr.tofile(fh)
        header = {
            "spans": len(self.start),
            "names": self.names,
            "invocations": [list(a) for a in argvs],
            "arrays": [[key, arr.typecode, arr.itemsize] for key, arr in arrays.items()],
            "byteorder": sys.byteorder,
        }
        with open(f"{prefix}.json", "w") as fh:
            json.dump(header, fh)


def replay(argvs: list, caches: dict, tracer: Tracer | None = None) -> tuple[float, list]:
    """Run each argv through tateop.cli.main in-process, clearing `caches`
    (from :func:`lru_caches`, taken before any wrapper is installed) first.

    Returns the wall time of the loop and (argv, exit code, stdout) per call.
    """
    from tateop.cli import main

    results = []
    t0 = perf_counter()
    for i, argv in enumerate(argvs):
        for fn in caches.values():
            fn.cache_clear()
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = tracer.root(i, main, list(argv)) if tracer else main(list(argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # an uncaught error ends a real process with status 1
                traceback.print_exc(file=sys.__stderr__)
                code = 1
        if tracer:
            tracer.end_invocation(caches)
        results.append((argv, code, out.getvalue()))
    return perf_counter() - t0, results
