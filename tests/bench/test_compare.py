"""compare(): verdicts, gate decision, injected-slowdown failure."""

import pytest

from repro.bench.compare import (
    VERDICT_IMPROVEMENT,
    VERDICT_MISSING,
    VERDICT_NEW,
    VERDICT_REGRESSION,
    VERDICT_WITHIN_TOLERANCE,
    compare_runs,
)
from repro.bench.results import BenchResult, BenchRun


def run_with(times_by_name, sha="cafe", calibration_ms=None):
    results = [BenchResult.from_times(name=name, suite=name.split(".")[0],
                                      times_ms=[t])
               for name, t in times_by_name.items()]
    return BenchRun(results=results, created_at="2026-07-29T00:00:00",
                    git_sha=sha, python="3.11", platform="Linux",
                    fast=True, warmup=1, repeats=1,
                    calibration_ms=calibration_ms)


def entry(report, name):
    matches = [e for e in report.entries if e.name == name]
    assert len(matches) == 1
    return matches[0]


def test_verdict_bands():
    baseline = run_with({"a.fast": 100.0, "a.same": 100.0,
                         "a.slow": 100.0})
    current = run_with({"a.fast": 60.0,      # -40% -> improvement
                        "a.same": 110.0,     # +10% -> within tolerance
                        "a.slow": 150.0})    # +50% -> regression
    report = compare_runs(baseline, current, tolerance_pct=25.0)
    assert entry(report, "a.fast").verdict == VERDICT_IMPROVEMENT
    assert entry(report, "a.same").verdict == VERDICT_WITHIN_TOLERANCE
    assert entry(report, "a.slow").verdict == VERDICT_REGRESSION
    assert entry(report, "a.slow").delta_pct == pytest.approx(50.0)
    assert not report.ok
    assert [e.name for e in report.regressions] == ["a.slow"]
    assert [e.name for e in report.improvements] == ["a.fast"]


def test_injected_2x_slowdown_fails_gate():
    baseline = run_with({"a.x": 10.0, "b.y": 5.0})
    doubled = run_with({"a.x": 20.0, "b.y": 10.0})
    report = compare_runs(baseline, doubled, tolerance_pct=25.0)
    assert not report.ok
    assert len(report.regressions) == 2


def test_identical_runs_pass_gate():
    baseline = run_with({"a.x": 10.0, "b.y": 5.0})
    report = compare_runs(baseline, run_with({"a.x": 10.0, "b.y": 5.0}))
    assert report.ok
    assert all(e.verdict == VERDICT_WITHIN_TOLERANCE
               for e in report.entries)


def test_new_and_missing_are_reported_but_non_fatal():
    baseline = run_with({"a.retired": 10.0, "a.kept": 10.0})
    current = run_with({"a.kept": 10.0, "a.added": 3.0})
    report = compare_runs(baseline, current)
    assert entry(report, "a.retired").verdict == VERDICT_MISSING
    assert entry(report, "a.retired").current_ms is None
    assert entry(report, "a.added").verdict == VERDICT_NEW
    assert entry(report, "a.added").baseline_ms is None
    assert report.ok
    assert [e.name for e in report.missing] == ["a.retired"]


def test_uniform_machine_slowdown_is_normalized_away():
    # the whole machine ran 2x slower for the current run: every wall
    # time doubled, and so did the calibration reference
    baseline = run_with({"a.x": 10.0, "b.y": 4.0}, calibration_ms=1.0)
    current = run_with({"a.x": 20.0, "b.y": 8.0}, calibration_ms=2.0)
    report = compare_runs(baseline, current, tolerance_pct=25.0)
    assert report.calibration_scale == pytest.approx(0.5)
    assert report.ok
    assert all(e.verdict == VERDICT_WITHIN_TOLERANCE
               for e in report.entries)
    assert entry(report, "a.x").delta_pct == pytest.approx(0.0)


def test_true_regression_survives_calibration():
    # same machine speed (equal calibration), but the code got 2x slower
    baseline = run_with({"a.x": 10.0}, calibration_ms=1.0)
    current = run_with({"a.x": 20.0}, calibration_ms=1.0)
    report = compare_runs(baseline, current, tolerance_pct=25.0)
    assert report.calibration_scale == pytest.approx(1.0)
    assert not report.ok
    assert entry(report, "a.x").delta_pct == pytest.approx(100.0)


def test_missing_calibration_falls_back_to_raw():
    baseline = run_with({"a.x": 10.0}, calibration_ms=1.0)
    current = run_with({"a.x": 10.0})        # legacy run, no calibration
    report = compare_runs(baseline, current)
    assert report.calibration_scale is None
    assert report.ok
    assert "raw wall times" in report.render()


def test_render_mentions_verdict_and_gate():
    baseline = run_with({"a.x": 10.0})
    text = compare_runs(baseline, run_with({"a.x": 30.0})).render()
    assert "regression" in text and "FAIL" in text
    text = compare_runs(baseline, run_with({"a.x": 10.0})).render()
    assert "OK" in text


def test_sha_provenance_and_bad_inputs():
    baseline = run_with({"a.x": 10.0}, sha="base")
    current = run_with({"a.x": 10.0}, sha="head")
    report = compare_runs(baseline, current)
    assert report.baseline_sha == "base" and report.current_sha == "head"
    with pytest.raises(ValueError):
        compare_runs(baseline, current, tolerance_pct=-1.0)
    zero = run_with({"a.x": 0.0})
    with pytest.raises(ValueError, match="non-positive"):
        compare_runs(zero, current)


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf")])
def test_non_finite_tolerance_rejected(tolerance):
    """A NaN band would read every delta, +91% included, as in band."""
    baseline = run_with({"a.x": 10.0})
    with pytest.raises(ValueError, match="finite"):
        compare_runs(baseline, run_with({"a.x": 19.1}),
                     tolerance_pct=tolerance)
