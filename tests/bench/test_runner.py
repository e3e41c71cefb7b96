"""Runner discipline: warmup/repeat counts, autorange, counters, provenance."""

import gc
import os

import pytest

from repro.bench.registry import Benchmark, Workload
from repro.bench.results import SCHEMA_VERSION
from repro.bench.runner import (
    BenchmarkFailure,
    BenchmarkRegistry,
    RunnerConfig,
    git_sha,
    peak_rss_kb,
    run_benchmark,
    run_suites,
)


def counting_benchmark(calls, name="t.count", warmup=None, repeats=None):
    def factory(fast):
        def fn():
            calls.append(fast)
        return Workload(fn=fn, items=3.0, unit="widgets",
                        counters=lambda: {"calls": float(len(calls))})
    return Benchmark(name=name, suite="t", factory=factory,
                     warmup=warmup, repeats=repeats)


def test_run_benchmark_discipline_and_counters():
    calls = []
    bench = counting_benchmark(calls)
    config = RunnerConfig(fast=True, warmup=2, repeats=4,
                          min_sample_ms=0.0)      # disable autorange
    result = run_benchmark(bench, config)
    # 2 warmup + 1 probe (reused as the first sample) + 3 timed
    assert len(calls) == 6
    assert all(call is True for call in calls)
    assert len(result.wall_times_ms) == 4
    assert result.calls_per_repeat == 1
    assert result.counters == {"calls": 6.0}
    assert result.unit == "widgets"
    assert result.name == "t.count" and result.suite == "t"


def test_autorange_batches_fast_workloads():
    calls = []
    bench = counting_benchmark(calls)
    config = RunnerConfig(warmup=0, repeats=2, min_sample_ms=1.0)
    result = run_benchmark(bench, config)
    assert result.calls_per_repeat > 1      # a no-op fn must get batched
    assert len(calls) == 1 + 2 * result.calls_per_repeat


def test_per_benchmark_overrides_beat_config():
    calls = []
    bench = counting_benchmark(calls, warmup=0, repeats=1)
    config = RunnerConfig(warmup=50, repeats=50, min_sample_ms=0.0)
    result = run_benchmark(bench, config)
    # 0 warmup + the probe doubling as the single timed sample: an
    # expensive one-shot benchmark runs exactly once.
    assert len(calls) == 1
    assert len(result.wall_times_ms) == 1


def test_run_suites_builds_a_valid_run():
    registry = BenchmarkRegistry()
    calls = []
    registry.register(counting_benchmark(calls, name="t.one"))
    registry.register(counting_benchmark(calls, name="t.two"))
    seen = []
    run = run_suites(config=RunnerConfig(fast=True, rounds=1,
                                         min_sample_ms=0.0),
                     registry=registry, progress=seen.append)
    assert run.names() == ["t.one", "t.two"]
    assert run.schema_version == SCHEMA_VERSION
    assert run.fast is True
    assert run.calibration_ms is not None and run.calibration_ms > 0
    assert len(seen) == 2 and "t.one" in seen[0]
    from repro.bench.results import validate_run_dict
    validate_run_dict(run.to_dict())


def test_run_suites_records_thread_pins_and_cpu_count(monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    registry = BenchmarkRegistry()
    registry.register(counting_benchmark([], name="t.one"))
    run = run_suites(config=RunnerConfig(rounds=1, min_sample_ms=0.0),
                     registry=registry)
    assert run.thread_env == {"OMP_NUM_THREADS": "1",
                              "OPENBLAS_NUM_THREADS": "4",
                              "MKL_NUM_THREADS": None}
    assert run.cpu_count == os.cpu_count()
    data = run.to_dict()
    assert data["thread_env"]["MKL_NUM_THREADS"] is None
    assert data["cpu_count"] == os.cpu_count()


def test_benchmark_min_sample_override_disables_autorange():
    calls = []
    def factory(fast):
        def fn():
            calls.append(fast)
        return Workload(fn=fn)
    bench = Benchmark(name="t.oneshot", suite="t", factory=factory,
                      warmup=0, repeats=2, min_sample_ms=0.0)
    # config would autorange a no-op fn into thousands of inner calls
    result = run_benchmark(bench, RunnerConfig(min_sample_ms=50.0))
    assert result.calls_per_repeat == 1
    assert len(calls) == 2              # probe reused + 1 timed


def test_run_suites_builds_each_workload_once():
    built = []
    def factory(fast):
        built.append(fast)
        return Workload(fn=lambda: None)
    registry = BenchmarkRegistry()
    registry.register(Benchmark(name="t.x", suite="t", factory=factory))
    run_suites(config=RunnerConfig(warmup=0, repeats=1, rounds=4,
                                   min_sample_ms=0.0), registry=registry)
    assert built == [False]             # setup paid once, not per round


def test_rounds_pool_samples_across_interleaved_passes():
    registry = BenchmarkRegistry()
    calls = []
    registry.register(counting_benchmark(calls, name="t.a"))
    registry.register(counting_benchmark(calls, name="t.b"))
    run = run_suites(config=RunnerConfig(warmup=0, repeats=2, rounds=3,
                                         min_sample_ms=0.0),
                     registry=registry)
    assert run.rounds == 3
    for result in run.results:
        # 2 samples per round (probe reused as one of them), 3 rounds
        assert len(result.wall_times_ms) == 6
        assert result.wall_time_ms == min(result.wall_times_ms)
    data = run.to_dict()
    assert data["rounds"] == 3


def test_run_suites_rejects_empty_selection():
    with pytest.raises(ValueError, match="no benchmarks"):
        run_suites(registry=BenchmarkRegistry())


def test_config_validation():
    with pytest.raises(ValueError):
        RunnerConfig(warmup=-1)
    with pytest.raises(ValueError):
        RunnerConfig(repeats=0)
    with pytest.raises(ValueError):
        RunnerConfig(rounds=0)
    with pytest.raises(ValueError):
        RunnerConfig(min_sample_ms=-1.0)


def test_provenance_helpers():
    sha = git_sha()
    assert sha is None or (len(sha) == 40
                           and all(c in "0123456789abcdef" for c in sha))
    rss = peak_rss_kb()
    assert rss is None or rss > 0


def failing_registry(error):
    registry = BenchmarkRegistry()

    def factory(fast):
        def fn():
            raise error
        return Workload(fn=fn)

    registry.register(Benchmark(name="t.gate", suite="t", factory=factory,
                                warmup=0, repeats=1, min_sample_ms=0.0))
    return registry


def test_a_failed_workload_assertion_names_its_benchmark():
    with pytest.raises(BenchmarkFailure, match="^t.gate: too slow$") as info:
        run_suites(config=RunnerConfig(rounds=1),
                   registry=failing_registry(AssertionError("too slow")))
    assert info.value.name == "t.gate"
    with pytest.raises(BenchmarkFailure, match="^t.gate: assertion failed$"):
        run_suites(config=RunnerConfig(rounds=1),
                   registry=failing_registry(AssertionError()))


def test_harness_bugs_propagate_unwrapped():
    with pytest.raises(KeyError):
        run_suites(config=RunnerConfig(rounds=1),
                   registry=failing_registry(KeyError("bug")))


def test_timed_samples_restore_the_collector_state():
    bench = counting_benchmark([], repeats=3)
    config = RunnerConfig(warmup=0, min_sample_ms=0.0)
    gc.disable()
    try:
        run_benchmark(bench, config)
        assert not gc.isenabled()
    finally:
        gc.enable()
    run_benchmark(bench, config)
    assert gc.isenabled()
