"""Pinned verdict oracle for the benchmark's `verify` workloads.

The benchmark keeps its own copy of the expected gating verdicts and does
not read `branchlab.verify.EXPECTED_RED`, so a change to that set in `src/`
shows up here as failed rows.  Verdicts are read from the `--report` JSONL
rows, never from the exit code (which is 1 on `counts-only` by design).
"""

from __future__ import annotations

import json

# criterion -> {gating check name: expected `passed`}
EXPECTED = {
    "survival-decay": {
        "survival probability at t=20": True,
        "t * P(A_t) near limit 2*mu/sigma^2": True,
    },
    "population-law": {
        # red by design: the 1/t lattice gap alone exceeds the KS band
        "KS of N_t/t vs exponential(mean 0.5) at t=50, n=5000": False,
        "chi-square GOF of N_t vs geometric(mean 6) at t=10, n=10000": True,
    },
    "age-law": {
        "KS of survivor age vs 1-exp(-x) at t=50 (n=100, power-calibrated)": True,
    },
    "moment-structure": {
        "E[mean exp(-age)] = E exp(-U) at t=400": True,
        "E[fraction position <= 0] at t=400": True,
        "phi == 1 gives moment exactly 1 (any k)": True,
        "pair-moment decoupling, age-only phi exp(-a)": True,
        "pair-moment decoupling, position indicator phi": True,
        "plug-in pair moment for exp(-a) equals 0.25": True,
    },
    "total-mass-law": {
        "-log E exp(-<1, Y^n_1>) at n=200, 1000 fields": True,
        "solver reproduces c/(1+lam c t) to 1e-4": True,
        "mean total mass of Y^n_1 at n=100 (200 fields)": True,
        "offspring scaling error sup|n^2(F(1-u/n)-(1-u/n)) - u^2| decays as 1/n": True,
    },
    "solver-suite": {
        "semigroup composition on a Gaussian vector": True,
        "Gaussian convolution closed form (mid-grid relative)": True,
        "positivity and maximum principle": True,
        "monotonicity in the test function (10 random pairs)": True,
        "dt/2, 2nx self-convergence of <u_T, nu>": True,
    },
}


def check_report(criteria, report_text):
    """Compare a `verify --report` file with the pinned verdicts.

    Returns (expected, flipped, missing): the number of gating rows the
    criteria should produce, then one line per row whose verdict differs from
    the pinned one and one per row that is absent (a criterion raised, or no
    report was written).  `report_text` may be None.
    """
    seen = {}
    for line in (report_text or "").splitlines():
        if line.strip():
            row = json.loads(line)
            if row["gating"]:
                seen[(row["criterion"], row["check"])] = row["passed"]
    expected = 0
    flipped, missing = [], []
    for criterion in criteria:
        for check, want in EXPECTED[criterion].items():
            expected += 1
            got = seen.get((criterion, check))
            if got is None:
                missing.append(f"missing: {criterion}: {check}")
            elif got != want:
                flipped.append(f"verdict {got} (pinned {want}): {criterion}: {check}")
    return expected, flipped, missing
