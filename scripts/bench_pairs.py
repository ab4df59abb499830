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

With --verify-all the pass is `verify all` instead: each side runs every
criterion in one interpreter, in `verify all` order on one `Harness`, and
prints `{"verify_all_seed<S>": ...}` with per side the median wall seconds
of each criterion and of the whole run, the sha256 of each criterion's
report rows, and the wall seconds of every run.

Usage: python scripts/bench_pairs.py REF [--seed 1 --seed 2 ...] [--pairs 10]
       [--seconds 20] [--workload many-survivors ...]
       python scripts/bench_pairs.py REF --verify-all [--seed 1] [--pairs 3]
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


# one interpreter per side: time each criterion of `verify all --seed S`
VERIFY_ALL = """
import hashlib, json, sys, time
from branchlab.verify import CRITERIA, Harness, run_criteria
h = Harness(int(sys.argv[1]))
model = h.model.digest()
out = {}
for name in CRITERIA:
    t0 = time.perf_counter()
    [res] = run_criteria(h, [name])
    rows = "\\n".join(row.to_json(res.key, h.seed, model) for row in res.rows)
    out[name] = {"wall_s": time.perf_counter() - t0, "sha256": hashlib.sha256(rows.encode()).hexdigest()}
print(json.dumps(out))
"""


def verify_all_once(tree: Path, seed: int) -> dict:
    proc = subprocess.run([sys.executable, "-c", VERIFY_ALL, str(seed)], cwd=tree, capture_output=True,
                          text=True, check=True, env={**os.environ, "PYTHONPATH": str(tree / "src")})
    return json.loads(proc.stdout.splitlines()[-1])


def summarize_verify_all(runs: list) -> dict:
    names = list(runs[0])
    return {
        "wall_s": {name: round(statistics.median(r[name]["wall_s"] for r in runs), 3) for name in names},
        "total_wall_s": round(statistics.median(sum(c["wall_s"] for c in r.values()) for r in runs), 3),
        "sha256": {name: sorted({r[name]["sha256"] for r in runs}) for name in names},
        "total_wall_s_runs": [round(sum(c["wall_s"] for c in r.values()), 3) for r in runs],
    }


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
    ap.add_argument("--verify-all", action="store_true", help="time each criterion of `verify all` instead")
    args = ap.parse_args()
    workloads = args.workload or list(WORKLOADS)
    seeds = args.seed or [1]

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        sides = {"parent": extract(args.ref, Path(tmp)), "change": ROOT}
        for tree in sides.values():
            build_kernel(tree)
        if args.verify_all:
            return pairs_verify_all(sides, seeds, args.pairs)
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


def pairs_verify_all(sides: dict, seeds: list, pairs: int) -> int:
    runs = {s: {side: [] for side in sides} for s in seeds}
    for i in range(pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for s in seeds:
            for side in order:
                r = verify_all_once(sides[side], s)
                runs[s][side].append(r)
                print(f"pair {i + 1} seed {s} verify all {side}: "
                      f"wall_s {sum(c['wall_s'] for c in r.values()):.2f}", file=sys.stderr, flush=True)
    blocks = {f"verify_all_seed{s}": {"pairs": pairs, **{side: summarize_verify_all(by_side[side])
                                                          for side in sides}}
              for s, by_side in runs.items()}
    print(json.dumps(blocks, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
