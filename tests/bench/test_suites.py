"""The first-class suites produce runnable workloads with honest metadata."""

import pytest

from repro.bench.registry import load_suites
from repro.bench.runner import RunnerConfig, run_benchmark
from repro.bench.suites import serve as serve_suite
from repro.bench.suites.obs import measure_overhead

FAST_ONE_SHOT = RunnerConfig(fast=True, warmup=0, repeats=1,
                             min_sample_ms=0.0)


def test_every_registered_factory_builds_a_workload():
    registry = load_suites()
    for bench in registry.select():
        workload = bench.factory(True)
        assert callable(workload.fn)
        assert workload.items > 0
        assert workload.unit


def test_pim_simulate_network_reports_work_counters():
    registry = load_suites()
    result = run_benchmark(registry.get("pim.simulate_network"),
                           FAST_ONE_SHOT)
    assert result.suite == "pim"
    assert result.counters["layers"] > 0
    assert result.counters["activation_rounds"] >= result.counters["positions"]
    assert result.counters["analog_mac_ops"] > 0
    assert result.wall_time_ms > 0


def test_nn_train_step_runs_and_times():
    registry = load_suites()
    result = run_benchmark(registry.get("nn.train_step"), FAST_ONE_SHOT)
    assert result.unit == "images"
    assert result.throughput is not None and result.throughput > 0


def test_pipeline_export_roundtrip_runs():
    registry = load_suites()
    result = run_benchmark(registry.get("pipeline.export_roundtrip"),
                           FAST_ONE_SHOT)
    assert result.unit == "layers"
    assert result.items > 0


def test_obs_export_reports_spans_and_bytes():
    registry = load_suites()
    result = run_benchmark(registry.get("obs.export"), FAST_ONE_SHOT)
    assert result.suite == "obs"
    assert result.unit == "spans"
    assert result.items == result.counters["spans"] > 1000
    assert result.counters["bytes"] > 100 * result.counters["spans"]
    assert result.throughput > 0


def test_serve_sweep_declares_one_pass_discipline():
    registry = load_suites()
    bench = registry.get("serve.offered_load_sweep")
    # the sweep simulates minutes of traffic: no warmup, and autorange
    # must never batch multiple sweeps into one sample
    assert bench.warmup == 0
    assert bench.repeats == 2
    assert bench.min_sample_ms == 0.0


def test_search_suite_registered():
    registry = load_suites()
    assert {"search.population_eval", "search.population_eval_scalar",
            "search.evolution", "search.pareto_front"} <= set(registry.names())
    assert "search" in registry.suites()


def test_search_vectorized_eval_beats_scalar_reference():
    """The vectorization win stays measured: per-genome throughput of the
    matrix path must exceed the scalar loop's.  Best-of-3 samples per
    side so a single preemption can't flip the ~20x margin on a loaded
    CI runner (the perf *trajectory* is gated by bench compare; this
    only pins the ordering)."""
    registry = load_suites()
    config = RunnerConfig(fast=True, warmup=1, repeats=3,
                          min_sample_ms=0.0)
    vectorized = run_benchmark(registry.get("search.population_eval"),
                               config)
    scalar = run_benchmark(registry.get("search.population_eval_scalar"),
                           config)
    assert vectorized.unit == scalar.unit == "genomes"
    assert vectorized.throughput > scalar.throughput


def test_search_evolution_reports_outcome_counters():
    registry = load_suites()
    result = run_benchmark(registry.get("search.evolution"), FAST_ONE_SHOT)
    assert result.counters["best_edp"] > 0
    assert result.counters["best_crossbars"] > 0


def test_serve_deep_queue_runs():
    registry = load_suites()
    result = run_benchmark(registry.get("serve.scheduler_deep_queue"),
                           FAST_ONE_SHOT)
    assert result.unit == "requests"
    assert result.counters["requests_drained"] == result.items


def test_serve_ab_operating_points_runs_and_checks_structure():
    """The A/B benchmark doubles as a correctness smoke: its workload
    asserts latency-opt wins p99 and energy-opt wins energy/request."""
    registry = load_suites()
    result = run_benchmark(registry.get("serve.ab_operating_points"),
                           FAST_ONE_SHOT)
    assert result.unit == "requests"
    assert result.counters["requests_offered"] == result.items


def test_serve_trace_replay_1m_budget_scales_with_replayed_count():
    """Fast mode replays 200k requests, so the 30 s-per-million budget is
    6 s there; it is asserted in both modes and recorded as a counter."""
    registry = load_suites()
    result = run_benchmark(registry.get("serve.trace_replay_1m"),
                           FAST_ONE_SHOT)
    assert result.items == 200_000
    assert result.counters["budget_s"] == 6.0
    assert result.counters["replay_s"] < result.counters["budget_s"]


GATES = ("obs.overhead", "serve.scenario_replay",
         "serve.overload_resilience", "serve.trace_replay_100k")


def test_speed_gates_run_once_per_round():
    """Every call of a gate is a full paired measurement that asserts,
    so the runner needs one per round."""
    registry = load_suites()
    for name in GATES:
        bench = registry.get(name)
        assert (bench.warmup, bench.repeats, bench.min_sample_ms) == (
            0, 1, 0.0), name


def test_speed_gates_time_paired_blocks_of_equal_work():
    """Tiny sizes: no verdict, only that each gate's sides do the same
    work (its ``same`` check passes) and every block is timed."""
    for measure, rounds, blocks in (
            (measure_overhead, 2, 8),
            (serve_suite.measure_scenario_overhead, 2, 8),
            (serve_suite.measure_resilience_overhead, 2, 8),
            (serve_suite.measure_engine_speedup, 6, 6)):
        result = measure(50, rounds)
        assert result.blocks == blocks, measure.__name__
        assert 0 < result.low <= result.ratio <= result.high
        assert result.a_s > 0 and result.b_s > 0


def test_resilience_gate_refuses_a_ratio_over_shed_work(monkeypatch):
    """Overloaded, the armed side sheds what the disarmed side serves:
    the equal-work check fires before anything is timed."""
    monkeypatch.setattr(serve_suite, "_RESILIENCE_LOAD_FACTORS", (3.0,))
    with pytest.raises(AssertionError, match="different work"):
        serve_suite.measure_resilience_overhead(200, 6)
