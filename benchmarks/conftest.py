"""Shared fixtures for the benchmark harness.

Every paper table/figure has one ``bench_*.py`` here; run them all with::

    pytest benchmarks/ --benchmark-only

Heavy experiment benches use ``benchmark.pedantic(..., rounds=1)`` so the
experiment is executed once and its real wall time recorded (re-running a
multi-minute training sweep for statistics would be pointless).

The accuracy preset defaults to ``smoke`` so the whole harness finishes in
a few minutes; set ``REPRO_PRESET=default`` (or ``full``) for the larger
tasks and longer schedules of ``repro.analysis.accuracy.PRESETS``.
"""

import os

import pytest

from repro.analysis.accuracy import PRESETS, AccuracyWorkbench


def current_preset():
    name = os.environ.get("REPRO_PRESET", "smoke")
    if name not in PRESETS:
        raise KeyError(f"REPRO_PRESET must be one of {sorted(PRESETS)}")
    return PRESETS[name]


@pytest.fixture(scope="session")
def workbench():
    """One shared accuracy workbench: trained checkpoints are cached, so
    Table 1, 2 and 3 benches reuse the same baseline/epitome runs."""
    return AccuracyWorkbench(current_preset())


@pytest.fixture(scope="session")
def preset():
    return current_preset()
