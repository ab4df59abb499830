"""The row constructors of `verify`, each at its pass boundary."""

import math

from branchlab.verify import _row_bound, _row_flag, _row_tolerance


def test_bound_row_strict_fails_at_threshold():
    row = _row_bound("p < 0.05", 0.05, 0.05, 100)
    assert not row.passed
    assert (row.value, row.statistic, row.threshold, row.target, row.n) == (0.05, 0.05, 0.05, "< 0.05", 100)
    assert _row_bound("p < 0.05", 0.0499, 0.05, 100).passed


def test_bound_row_non_strict_passes_at_threshold():
    row = _row_bound("err <= 1e-6", 1e-6, 1e-6, 7, target="< 1e-6", strict=False)
    assert row.passed and row.target == "< 1e-6"
    assert not _row_bound("err <= 1e-6", 1.1e-6, 1e-6, 7, strict=False).passed


def test_tolerance_row_passes_at_tolerance():
    row = _row_tolerance("close", 1.25, 1.0, 0.25, "1.0 within 0.25", 9, stderr=0.1)
    assert row.passed
    assert (row.value, row.statistic, row.threshold, row.stderr) == (1.25, 0.25, 0.25, 0.1)
    assert not _row_tolerance("close", 0.75, 1.0, 0.125, "1.0 within 0.125", 9).passed
    assert math.isnan(_row_tolerance("close", 1.0, 1.0, 0.0, "exact", 1).stderr)


def test_flag_row():
    ok = _row_flag("same", True, "byte-identical", 3)
    bad = _row_flag("same", False, "byte-identical", 3)
    assert ok.passed and (ok.value, ok.statistic, ok.threshold) == (1.0, 0.0, 0.5)
    assert not bad.passed and (bad.value, bad.statistic, bad.threshold) == (0.0, 1.0, 0.5)
