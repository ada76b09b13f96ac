#!/usr/bin/env python3
"""Sweep the Green's-function identity over a grid of (p, m) configurations.

For every sampled point x the operator applied to the local height must
return the constant -p/(m(p-1)); any deviation is printed with its exact
value. Exit status 1 if a single point misses.
"""

import argparse
import sys
import time
from fractions import Fraction

from tateop.operator import apply_D_height, height_check_points
from tateop.padic import PrimeParams, valuation


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--primes", type=int, nargs="+", default=[2, 3, 5])
    ap.add_argument("--max-m", type=int, default=5)
    ap.add_argument("--max-vdist", type=int, default=6)
    args = ap.parse_args()

    bad = 0
    t0 = time.perf_counter()
    for p in args.primes:
        for m in range(1, args.max_m + 1):
            ctx = PrimeParams(p, m)
            expected = -Fraction(p, m * (p - 1))
            pts = height_check_points(ctx, max_vdist=args.max_vdist)
            misses = []
            for x in pts:
                got = apply_D_height(x)
                if got != expected:
                    misses.append((x.value, got))
                    bad += 1
            status = "ok" if not misses else f"MISS {misses}"
            print(f"p={p} m={m}: {len(pts)} points, Dh = {expected} ... {status}")
            for x in pts[:3]:
                ell = valuation(x.value - 1, p) if x.v == 0 else "-"
                print(f"    sample x={x.value} (v={x.v}, v(x-1)={ell})")
    print(f"total {time.perf_counter() - t0:.2f}s, {bad} misses")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
