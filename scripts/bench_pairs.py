#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark's untraced runs.

Extracts REF with `git archive` into a temporary directory, builds both
sides' C kernels, then runs `perfbench/run.py --workload W --seed S --trace 0`
of each side's own tree, alternately on REF and on the working tree: pair i
runs REF first when i is even and the working tree first when i is odd, so a
drift in machine speed hits both sides alike.  Seeds and workloads are
interleaved pair by pair.  Prints one JSON object, `{"trace0_seed<S>":
{workload: ...}}` with one block per seed, with per side the median and
quartiles of each end-to-end metric over the pairs' per-run medians, the
distinct `failed_frac` values, `failed` counts and report sha256 digests,
and whether every run was correct; per workload `reports_identical` (both
sides wrote one and the same report), `change_lower_in_pairs`,
`median_ratio` (change over REF) and the wall_s of every run.  A change
meant to keep outputs byte-identical shows `reports_identical: false` or a
higher `failed` count here first.

Usage: python scripts/bench_pairs.py REF [--seed 1 --seed 2 ...] [--pairs 10]
       [--seconds 20] [--workload many-survivors ...]
"""

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("counts-only", "many-survivors", "deep-trees", "scaling-limit")
METRICS = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")


def extract(ref: str, dest: Path) -> Path:
    archive = subprocess.run(["git", "archive", ref], cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def build_kernel(tree: Path) -> None:
    """Import the package once, so that no timed run compiles the kernel."""
    subprocess.run([sys.executable, "-c", "import branchlab.cli"], cwd=tree, check=True,
                   env={**os.environ, "PYTHONPATH": str(tree / "src")})


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    lines = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True).stdout.splitlines()
    result = json.loads(lines[-1])
    metrics = {k: result["metrics"][k]["value"] for k in METRICS}
    failed_frac = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    digests = next(line.split()[1:] for line in lines if line.strip().startswith("report_sha256 "))
    return {**metrics, "failed_frac": failed_frac, "failed": result["failed"],
            "report_sha256": digests, "correct": result["correct"]}


def summarize(runs: list) -> dict:
    out = {}
    for k in METRICS:
        values = [r[k] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[k] = {"median": round(statistics.median(values), 4), "q1": round(q1, 4), "q3": round(q3, 4)}
    out["failed_frac"] = sorted({r["failed_frac"] for r in runs})
    out["failed"] = sorted({r["failed"] for r in runs})
    out["report_sha256"] = sorted({d for r in runs for d in r["report_sha256"]})
    out["correct"] = all(r["correct"] for r in runs)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("ref", help="git ref of the parent side")
    ap.add_argument("--seed", type=int, action="append", help="repeat for several (default: 1)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="repeat for several (default: every workload)")
    args = ap.parse_args()
    workloads = args.workload or list(WORKLOADS)
    seeds = args.seed or [1]

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        sides = {"parent": extract(args.ref, Path(tmp)), "change": ROOT}
        for tree in sides.values():
            build_kernel(tree)
        runs = {(s, w): {side: [] for side in sides} for s in seeds for w in workloads}
        for i in range(args.pairs):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for s in seeds:
                for w in workloads:
                    for side in order:
                        r = run_once(sides[side], w, s, args.seconds)
                        runs[s, w][side].append(r)
                        print(f"pair {i + 1} seed {s} {w} {side}: wall_s {r['wall_s']:.3f}, "
                              f"failed {r['failed']}, report {' '.join(r['report_sha256'])[:12]}",
                              file=sys.stderr, flush=True)

    blocks = {f"trace0_seed{s}": {} for s in seeds}
    for (s, w), by_side in runs.items():
        parent, change = summarize(by_side["parent"]), summarize(by_side["change"])
        blocks[f"trace0_seed{s}"][w] = {
            "pairs": args.pairs,
            "reports_identical": len(parent["report_sha256"]) == 1
                                 and parent["report_sha256"] == change["report_sha256"],
            "parent": parent,
            "change": change,
            "change_lower_in_pairs": {k: sum(c[k] < p[k] for p, c in zip(by_side["parent"], by_side["change"]))
                                      for k in METRICS},
            "median_ratio": {k: round(statistics.median(r[k] for r in by_side["change"])
                                      / statistics.median(r[k] for r in by_side["parent"]), 4) for k in METRICS},
            "wall_s_runs": {side: [round(r["wall_s"], 3) for r in by_side[side]] for side in by_side},
        }
    print(json.dumps(blocks, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
