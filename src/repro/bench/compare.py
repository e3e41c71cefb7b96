"""Regression gating: diff a benchmark run against a committed baseline.

Comparison is per-benchmark on the headline wall time (the best — i.e.
minimum — per-call time of the run's repeats; see
:mod:`repro.bench.runner`).  When both runs carry a ``calibration_ms``
(the fixed reference workload timed alongside the suites), every current
wall time is first scaled by ``baseline.calibration_ms /
current.calibration_ms`` — machine-speed drift between the two runs is
uniform and cancels out, while a true code regression survives the
scaling.  With tolerance ``T`` (percent), the verdicts are:

- ``regression``       — current is more than ``T``% slower than baseline;
- ``improvement``      — current is more than ``T``% faster;
- ``within_tolerance`` — inside the noise band either way;
- ``new``              — benchmark has no baseline entry (informational);
- ``missing``          — baseline entry with no current result (reported
  loudly but non-fatal, so retiring a benchmark does not wedge CI — refresh
  the baseline instead).

Only ``regression`` fails the gate (:attr:`CompareReport.ok`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from ..analysis.tables import Table
from .results import BenchRun

__all__ = [
    "VERDICT_REGRESSION",
    "VERDICT_IMPROVEMENT",
    "VERDICT_WITHIN_TOLERANCE",
    "VERDICT_NEW",
    "VERDICT_MISSING",
    "CompareEntry",
    "CompareReport",
    "compare_runs",
]

VERDICT_REGRESSION = "regression"
VERDICT_IMPROVEMENT = "improvement"
VERDICT_WITHIN_TOLERANCE = "within_tolerance"
VERDICT_NEW = "new"
VERDICT_MISSING = "missing"


@dataclass(frozen=True)
class CompareEntry:
    """One benchmark's baseline-vs-current comparison."""

    name: str
    suite: str
    baseline_ms: Optional[float]
    current_ms: Optional[float]
    delta_pct: Optional[float]      # +slower / -faster; None when unpaired
    verdict: str


@dataclass
class CompareReport:
    """Every per-benchmark verdict plus the gate decision."""

    entries: List[CompareEntry]
    tolerance_pct: float
    baseline_sha: Optional[str] = None
    current_sha: Optional[str] = None
    calibration_scale: Optional[float] = None
    """``baseline.calibration_ms / current.calibration_ms`` when both
    runs carry a calibration; ``None`` means raw wall times were
    compared."""

    @property
    def regressions(self) -> List[CompareEntry]:
        return [e for e in self.entries if e.verdict == VERDICT_REGRESSION]

    @property
    def improvements(self) -> List[CompareEntry]:
        return [e for e in self.entries if e.verdict == VERDICT_IMPROVEMENT]

    @property
    def missing(self) -> List[CompareEntry]:
        return [e for e in self.entries if e.verdict == VERDICT_MISSING]

    @property
    def ok(self) -> bool:
        """Gate verdict: fails only on a regression beyond tolerance."""
        return not self.regressions

    def render(self) -> str:
        if self.calibration_scale is not None:
            note = (f", deltas calibration-normalized x"
                    f"{self.calibration_scale:.3f}")
        else:
            note = ", raw wall times (no calibration in one of the runs)"
        table = Table(
            ["benchmark", "baseline_ms", "current_ms", "delta_pct",
             "verdict"],
            title=f"bench compare (tolerance +/-{self.tolerance_pct:g}%"
                  f"{note})")
        for entry in self.entries:
            table.add_dict_row({
                "benchmark": entry.name,
                "baseline_ms": _fmt(entry.baseline_ms),
                "current_ms": _fmt(entry.current_ms),
                "delta_pct": _fmt(entry.delta_pct, signed=True),
                "verdict": entry.verdict,
            })
        lines = [table.render()]
        if self.regressions:
            names = ", ".join(e.name for e in self.regressions)
            lines.append(f"FAIL: {len(self.regressions)} regression(s) "
                         f"beyond {self.tolerance_pct:g}%: {names}")
        else:
            lines.append("OK: no regressions beyond "
                         f"{self.tolerance_pct:g}% tolerance")
        return "\n".join(lines)


def _fmt(value: Optional[float], signed: bool = False) -> str:
    if value is None:
        return "-"
    return f"{value:+.1f}" if signed else f"{value:.3f}"


def compare_runs(baseline: BenchRun, current: BenchRun,
                 tolerance_pct: float = 25.0) -> CompareReport:
    """Diff ``current`` against ``baseline`` with a symmetric tolerance."""
    if not (math.isfinite(tolerance_pct) and tolerance_pct >= 0):
        raise ValueError(f"tolerance_pct must be finite and >= 0, "
                         f"got {tolerance_pct}")
    scale: Optional[float] = None
    if baseline.calibration_ms and current.calibration_ms:
        if baseline.calibration_ms <= 0 or current.calibration_ms <= 0:
            raise ValueError("calibration_ms must be positive when present")
        scale = baseline.calibration_ms / current.calibration_ms
    entries: List[CompareEntry] = []
    current_by_name = {r.name: r for r in current.results}
    for base in baseline.results:
        cur = current_by_name.pop(base.name, None)
        if cur is None:
            entries.append(CompareEntry(
                name=base.name, suite=base.suite,
                baseline_ms=base.wall_time_ms, current_ms=None,
                delta_pct=None, verdict=VERDICT_MISSING))
            continue
        if base.wall_time_ms <= 0:
            raise ValueError(
                f"baseline entry {base.name!r} has non-positive wall time")
        adjusted = cur.wall_time_ms * (scale if scale is not None else 1.0)
        delta = (adjusted - base.wall_time_ms) / base.wall_time_ms * 100.0
        if delta > tolerance_pct:
            verdict = VERDICT_REGRESSION
        elif delta < -tolerance_pct:
            verdict = VERDICT_IMPROVEMENT
        else:
            verdict = VERDICT_WITHIN_TOLERANCE
        entries.append(CompareEntry(
            name=base.name, suite=base.suite,
            baseline_ms=base.wall_time_ms, current_ms=cur.wall_time_ms,
            delta_pct=delta, verdict=verdict))
    for cur in current_by_name.values():
        entries.append(CompareEntry(
            name=cur.name, suite=cur.suite, baseline_ms=None,
            current_ms=cur.wall_time_ms, delta_pct=None,
            verdict=VERDICT_NEW))
    return CompareReport(entries=entries, tolerance_pct=tolerance_pct,
                         baseline_sha=baseline.git_sha,
                         current_sha=current.git_sha,
                         calibration_scale=scale)
