"""Tests of the benchmark's own checks: the verdict oracle, the tracer's
missing-name reporting, and BENCHMARK.json against what run.py prints.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _report(criteria, flip=None, drop=None):
    rows = []
    for criterion in criteria:
        if criterion == drop:
            continue
        for check, passed in oracle.EXPECTED[criterion].items():
            if (criterion, check) == flip:
                passed = not passed
            rows.append({"criterion": criterion, "check": check, "passed": passed, "gating": True})
        rows.append({"criterion": criterion, "check": "companion", "passed": False, "gating": False})
    return "\n".join(json.dumps(r) for r in rows) + "\n"


def test_pinned_report_has_no_failures():
    criteria = WORKLOADS["counts-only"].criteria
    assert oracle.check_report(criteria, _report(criteria)) == (4, [], [])


def test_flipped_verdict_is_counted():
    criteria = WORKLOADS["counts-only"].criteria
    red = ("population-law", "KS of N_t/t vs exponential(mean 0.5) at t=50, n=5000")
    expected, flipped, missing = oracle.check_report(criteria, _report(criteria, flip=red))
    assert (expected, len(flipped), missing) == (4, 1, [])
    assert "pinned False" in flipped[0]


def test_missing_criterion_rows_are_counted():
    criteria = WORKLOADS["scaling-limit"].criteria
    expected, flipped, missing = oracle.check_report(criteria, _report(criteria, drop="solver-suite"))
    assert (expected, flipped, len(missing)) == (9, [], 5)
    assert all(m.startswith("missing: solver-suite") for m in missing)
    assert len(oracle.check_report(criteria, None)[2]) == 9


def test_vanished_or_silent_names_are_missing_not_zero():
    import branchlab.cli  # noqa: F401  (imports every layer before one is cut)
    import branchlab.loglaplace as loglaplace

    saved = loglaplace.semigroup_apply
    del loglaplace.semigroup_apply
    try:
        tracer = tracing.install()
    finally:
        loglaplace.semigroup_apply = saved
    summary = tracer.summary()
    assert summary["absent"] == ["loglaplace.semigroup_apply"]
    traced = [{"trace": summary, "wall_s": 1.0}] * 2
    metrics, missing = run.layer_metrics(WORKLOADS["scaling-limit"], traced, [{"wall_s": 1.0}], [])
    assert "loglaplace.semigroup_apply" in missing and "engine.simulate_fields" in missing
    # gone from the program
    assert "loglaplace.semigroup_apply.calls" not in metrics
    # present but never called where the workload needs it
    assert "engine.snapshot.fields" not in metrics
    assert "loglaplace.solve_u.steps" not in metrics
    # not part of this workload: a true zero
    assert metrics["engine.counts.attempts"] == 0


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    empty = {"calls": {}, "busy": {}, "top": {}, "self": {}, "counts": {}, "absent": []}
    counts, seconds = tracing.split_metrics(empty)
    names = [*counts, *seconds, *tracing.rate_metrics(counts, seconds),
             "trace.overhead_frac", *run.src_lines()]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {n: run._unit(n) for n in names}
    for m in spec["end_to_end"]:
        assert run._unit(m["name"]) == m["unit"]
