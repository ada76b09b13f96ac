#!/usr/bin/env python3
"""Tabulate the spectrum, its Weyl counting, and the determinant factors.

Produces a small text report for one (p, m): eigenvalue ladder with
multiplicities up to a conductor bound, cumulative counts against the
m * lambda law, and the zeta-regularized determinant split into its
angular and radial factors.
"""

import argparse
import sys

from tateop.determinant import det_factors
from tateop.padic import PrimeParams, format_float
from tateop.spectral import enumerate_spectrum


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=int, default=3)
    ap.add_argument("--m", type=int, default=2)
    ap.add_argument("--max-conductor", type=int, default=4)
    args = ap.parse_args()

    ctx = PrimeParams(args.p, args.m)
    entries = enumerate_spectrum(args.max_conductor, ctx)
    print(f"spectrum of D on the genus-1 domain, p={ctx.p}, m={ctx.m}")
    print(f"{'kind':8s} {'index':>5s} {'lambda':>14s} {'mult':>6s} {'cum':>8s}")
    cum = 0
    for e in entries:
        cum += e.multiplicity
        lam = str(e.eigenvalue) if not isinstance(e.eigenvalue, float) else format_float(e.eigenvalue)
        print(f"{e.kind:8s} {e.index:5d} {lam:>14s} {e.multiplicity:6d} {cum:8d}")
    lam_top = max(float(e.eigenvalue) for e in entries)
    gap = min((e.eigenvalue for e in entries if e.eigenvalue > 0), default=None)
    print(f"\nspectral gap: {gap}")
    print(f"Weyl count at lambda={lam_top:g}: {cum} (= m*lambda = {ctx.m * lam_top:g})")
    det, angular, radial, _ = det_factors(ctx)
    print(f"det D = {det} = {angular} (angular) * {radial} (radial)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
