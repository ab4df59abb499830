#!/usr/bin/env python3
"""Scaling-limit convergence experiment.

Estimates the log-Laplace functional of the scaled particle system across a
sweep of scaling levels n and compares against the deterministic solver of
the limiting integral equation.

Usage: python scripts/superprocess_convergence.py --seed 1 --t 0.5 --f gauss \
           --levels 25 50 100 200 400 --reps 400
"""

import argparse
import sys
from pathlib import Path

from branchlab.loglaplace import default_grid, integrate_against, parse_test_function, solve_u
from branchlab.rng import stream
from branchlab.superprocess import Intensity, ScalingFamily, laplace_mc


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t", type=float, default=0.5)
    ap.add_argument("--f", default="gauss")
    ap.add_argument("--lambda", dest="lam", type=float, default=1.0)
    ap.add_argument("--levels", type=int, nargs="+", default=[25, 50, 100, 200, 400])
    ap.add_argument("--reps", type=int, default=400)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    f = parse_test_function(args.f)
    nu = Intensity()
    psi = ScalingFamily(n=args.levels[0], lam=args.lam, nu=nu).psi_unscaled()
    grid = default_grid(args.lam, psi, args.t)
    target = integrate_against(solve_u(f, args.lam, psi, grid).final(), grid, nu)
    print(f"solver target <u_t f, nu> = {target:.6f}")

    rows = ["n,estimate,stderr,abs_error,reps"]
    for j, n in enumerate(args.levels):
        fam = ScalingFamily(n=n, lam=args.lam, nu=nu)
        est = laplace_mc(fam, f, args.t, args.reps, stream(args.seed, j))
        err = abs(est.value - target)
        rows.append(f"{n},{est.value!r},{est.stderr!r},{err!r},{args.reps}")
        print(f"n={n:5d}  estimate={est.value:.5f} +- {est.stderr:.5f}  |error|={err:.5f}")
    if args.out:
        Path(args.out).write_text("\n".join(rows) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
