#!/usr/bin/env python3
"""Survival-probability decay experiment.

Estimates P(N_t > 0) across a horizon sweep for the reference model and
writes a CSV against both the exact birth-death value 2/(2+t) and the limit
t P(A_t) -> 2 mu / sigma^2.

Usage: python scripts/survival_curve.py --seed 1 --reps 200000 --out survival.csv
"""

import argparse
import sys
from pathlib import Path

from branchlab.model import binary_exponential_model
from branchlab.rng import stream
from branchlab.stats import birth_death_survival, estimate_survival_curve


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--reps", type=int, default=200_000)
    ap.add_argument("--horizons", type=float, nargs="+",
                    default=[1, 2, 5, 10, 20, 50, 100])
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    model = binary_exponential_model()
    rows = ["t,p_hat,stderr,t_p_hat,exact_bd,limit"]
    for pt in estimate_survival_curve(model, args.horizons, args.reps, stream(args.seed)):
        exact = birth_death_survival(1.0, pt.t)
        rows.append(f"{pt.t!r},{pt.p_hat!r},{pt.stderr!r},{pt.t_p_hat!r},{exact!r},{pt.target_limit!r}")
        print(f"t={pt.t:6.1f}  P={pt.p_hat:.5f} (exact {exact:.5f})  tP={pt.t_p_hat:.4f}")
    text = "\n".join(rows) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
