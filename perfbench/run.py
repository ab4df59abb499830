"""branchlab benchmark: `verify` workloads timed end to end, layers traced.

    python3 perfbench/run.py --workload counts-only --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Every repetition is a fresh interpreter (`worker.py`), one at a time, run
from the root of a source checkout with `src/` on the path.  A run first
imports `branchlab.cli` in one bare interpreter, then:

* `--trace 0` repeats the workload until `--seconds` have passed (at least
  once) and reports the medians of `wall_s`, `cpu_s` and `peak_rss_mb`, and
  the median import time of every interpreter as `setup_s`;
* `--trace 1` ignores `--seconds`: it runs the workload twice untraced and
  twice traced in ABBA order, requires the traced counts to agree exactly,
  and reports the per-layer metrics (median times, exact counts, rates from
  both), the tracing overhead and each module's source size.

Each repetition's `--report` rows are checked against the pinned verdicts in
`oracle.py`: `attempted` counts the gating rows expected, `failed` those whose
verdict differs or that are missing, and `failed_frac` = failed / attempted
is printed.  A run is not `correct` when rows are missing, when repetitions
at one seed write reports that are not byte-identical (their sha256 is
printed either way), or when traced counts differ; a verdict that differs
from the pinned one counts as failed only, since at a new seed any row can
go red by chance at the 0.001 test level.  The last line of output is one
JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import oracle
import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
RUN_TIMEOUT_S = 170  # a run that cannot finish within this is aborted


class ChildFailed(RuntimeError):
    pass


def run_child(tmp: Path, criteria, seed: int, tag: str, deadline: float,
              trace=False, import_only=False) -> dict:
    result, report = tmp / f"{tag}.json", tmp / f"{tag}.jsonl"
    cmd = [sys.executable, str(WORKER), "--result", str(result)]
    if import_only:
        cmd.append("--import-only")
    else:
        cmd += ["--seed", str(seed), "--report", str(report), *criteria]
        if trace:
            cmd.append("--trace")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise ChildFailed(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    out = json.loads(result.read_text())
    if not import_only:
        out["report"] = report.read_bytes() if report.exists() else None
    return out


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    for prefix in ("ns", "us", "ms"):
        if f".{prefix}_per_" in name:
            return prefix
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith("src_lines"):
        return "lines"
    return "count"


def src_lines() -> dict:
    pkg = ROOT / "src" / "branchlab"
    sizes = {p.stem: len(p.read_text().splitlines()) for p in sorted(pkg.glob("*.py"))}
    out = {f"{layer}.src_lines": sizes[layer] for layer in tracing.LAYERS if layer in sizes}
    out["init.src_lines"] = sizes.get("__init__", 0)
    out["total.src_lines"] = sum(sizes.values())
    return out


def layer_metrics(workload, traced, untraced, problems):
    """(metrics, missing) from the traced repetitions; appends to problems.

    A metric whose wrapped source no longer exists, or never fired although
    the workload needs it, is left out and its source listed as missing.
    """
    summaries = [r["trace"] for r in traced]
    splits = [tracing.split_metrics(s) for s in summaries]
    counts = splits[0][0]
    for other, _ in splits[1:]:
        for key in counts:
            if other[key] != counts[key]:
                problems.append(f"count differs between traced runs: {key} {counts[key]} != {other[key]}")
    seconds = {k: statistics.median(s[k] for _, s in splits) for k in splits[0][1]}
    metrics = {**counts, **seconds, **tracing.rate_metrics(counts, seconds)}

    missing = set(summaries[0]["absent"])
    calls = summaries[0]["calls"]
    missing |= {name for name in workload.fires if not calls.get(name)}
    metrics = {k: v for k, v in metrics.items() if not missing & set(tracing.metric_sources(k))}

    traced_wall = statistics.median(r["wall_s"] for r in traced)
    untraced_wall = statistics.median(r["wall_s"] for r in untraced)
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    metrics.update(src_lines())
    return metrics, sorted(missing)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    criteria = workload.criteria
    deadline = time.monotonic() + RUN_TIMEOUT_S
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        tmp = Path(tmp)
        # a set-up sample that also warms file caches for the first repetition
        setups = [run_child(tmp, criteria, seed, "setup", deadline, import_only=True)["setup_s"]]
        reps, traced = [], []
        if trace:
            # ABBA order, so a drift in machine speed hits both sides alike
            for i, traced_now in enumerate((False, True, True, False)):
                (traced if traced_now else reps).append(
                    run_child(tmp, criteria, seed, f"rep{i}", deadline, trace=traced_now))
        else:
            start = time.perf_counter()
            while not reps or time.perf_counter() - start < seconds:
                reps.append(run_child(tmp, criteria, seed, f"rep{len(reps)}", deadline))

    # `problems` make the run incorrect; verdict flips only count as failed
    problems, flips = [], []
    attempted = failed = 0
    runs = reps + traced
    for r in runs:
        report = r["report"].decode() if r["report"] is not None else None
        expected, flipped, absent = oracle.check_report(criteria, report)
        attempted += expected
        failed += len(flipped) + len(absent)
        flips += [f for f in flipped if f not in flips]
        problems += [a for a in absent if a not in problems]
    digests = sorted({hashlib.sha256(r["report"]).hexdigest() if r["report"] else "none"
                      for r in runs})
    if len(digests) > 1:
        problems.append("reports differ between repetitions at one seed")

    unmeasured = []
    if trace:
        metrics, unmeasured = layer_metrics(workload, traced, reps, problems)
    else:
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in reps),
            "cpu_s": statistics.median(r["cpu_s"] for r in reps),
            "setup_s": statistics.median(setups + [r["setup_s"] for r in reps]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        }

    print(f"workload {name}: verify {' '.join(criteria)} --seed {seed}, "
          f"{len(reps)} untraced + {len(traced)} traced repetitions")
    print("  wall_s per repetition: " + " ".join(f"{r['wall_s']:.3f}" for r in runs))
    for key, value in metrics.items():
        print(f"  {key} {value:.6g} {_unit(key)}")
    print(f"  failed_frac {failed / attempted:.6g} fraction ({failed} of {attempted} gating rows)")
    print(f"  report_sha256 {' '.join(digests)}")
    for line in flips + problems + [f"missing: {name}" for name in unmeasured]:
        print(f"  {line}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="branchlab verify benchmark")
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "branchlab" / "cli.py").is_file():
        print(f"no branchlab source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result), flush=True)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
