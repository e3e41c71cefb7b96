"""Differential engine-equivalence harness (scalar vs vectorized replay).

The scalar event loop in :mod:`repro.serve.engine` is the permanent
oracle: every float it produces came out of per-request discrete-event
execution, reviewed line by line against the scheduler and executor
contracts.  The vectorized engine (:mod:`repro.serve.vectorized`)
promises *byte-identical* summaries — not "close", identical — so the
check here is ``json.dumps`` equality of the full ``summary()`` dict,
which freezes every percentile, utilization figure, and counter at
once.

Coverage is three-pronged:

- the scenario catalog x seeds {3, 7, 11} (the exact matrix the CI
  ``engine-equivalence`` job replays through the CLI), against golden
  summary fixtures under ``tests/baselines/serve_summaries/``
  (refresh with ``pytest --update-goldens``);
- config edge cases the event loop is touchy about: zero batching
  window, batch size one, a shedding-depth queue, single- and
  four-chip fleets;
- property tests over hundreds of randomly drawn traces and scheduler
  configs, because hand-picked cases never find the boundary where two
  implementations disagree.

The span sets the two engines' telemetry synthesizes for a tracer are
held to the same standard over the catalog matrix and fleet sizes.

The armed-mode tests pin the fallback contract: fault plans, the
resilience runtime, and non-FIFO policies must *never* silently change
results — ``auto`` falls back to the scalar loop (and says why), and
asking for ``vectorized`` explicitly is a hard error.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.designer import build_deployments, uniform_assignment
from repro.models.specs import resnet18_spec
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.pim.simulator import simulate_network
from repro.serve.engine import ENGINES, ServingConfig, ServingEngine
from repro.serve.resilience import ResilienceConfig
from repro.serve.scenarios import get_scenario, list_scenarios
from repro.serve.scheduler import SchedulerConfig
from repro.serve.trace import (
    Request,
    TraceArrays,
    arrays_from_requests,
    replay_ordered,
    synthetic_trace_arrays,
)
from tests.helpers import deadline

CATALOG = sorted(list_scenarios())
SEEDS = [3, 7, 11]
GOLDEN_DIR = Path(__file__).resolve().parent.parent / "baselines" / \
    "serve_summaries"


@pytest.fixture(scope="module")
def report():
    spec = resnet18_spec()
    deployments = build_deployments(spec, uniform_assignment(spec),
                                    weight_bits=9, activation_bits=9,
                                    use_wrapping=True)
    return simulate_network(deployments)


def make_engine(report, num_chips=2, **sched_kwargs):
    return ServingEngine(report, ServingConfig(
        num_chips=num_chips,
        scheduler=SchedulerConfig(**sched_kwargs)))


def summaries(engine, requests, **serve_kwargs):
    """Serve the same trace through both engines; return both summaries.

    Each run gets a private metrics registry so neither pollutes the
    process-global one (and neither sees the other's counters).
    """
    scalar = engine.serve(requests, metrics=MetricsRegistry(),
                          engine="scalar", **serve_kwargs).summary()
    vectorized = engine.serve(requests, metrics=MetricsRegistry(),
                              engine="vectorized", **serve_kwargs).summary()
    return scalar, vectorized


def assert_identical(scalar, vectorized):
    # json round-trip makes "byte-identical" literal: NaN/-0.0/precision
    # differences that == would hide fail the string comparison.
    assert json.dumps(scalar, sort_keys=True) == \
        json.dumps(vectorized, sort_keys=True)


class TestCatalogMatrix:
    """Scenario catalog x seeds {3, 7, 11}: the CI matrix, in-process."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", CATALOG)
    def test_summaries_byte_identical(self, report, name, seed):
        engine = make_engine(report)
        rate = 0.9 * engine.plan.throughput_fps
        trace = get_scenario(name).to_trace_arrays(2000, rate_rps=rate,
                                                   seed=seed)
        scalar, vectorized = summaries(engine, trace)
        assert_identical(scalar, vectorized)
        # the matrix must exercise real work, not degenerate empties
        assert scalar["completed"] > 0

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", CATALOG)
    def test_matches_golden_summary(self, report, name, seed,
                                    update_goldens):
        """Both engines must match the *committed* summary, so a rewrite
        of either one cannot silently move the shared answer."""
        engine = make_engine(report)
        rate = 0.9 * engine.plan.throughput_fps
        trace = get_scenario(name).to_trace_arrays(2000, rate_rps=rate,
                                                   seed=seed)
        scalar, vectorized = summaries(engine, trace)
        assert_identical(scalar, vectorized)
        path = GOLDEN_DIR / f"{name}-seed{seed}.json"
        rendered = json.dumps(scalar, sort_keys=True, indent=2) + "\n"
        if update_goldens:
            path.write_text(rendered)
        assert path.exists(), (
            f"golden fixture {path.name} missing — run "
            f"pytest --update-goldens to create it")
        assert rendered == path.read_text(), (
            f"summary drifted from golden {path.name} — if the change "
            f"is intentional, refresh with pytest --update-goldens")


class TestConfigEdges:
    """The loop boundaries where an array rewrite typically diverges."""

    def _trace(self, engine, load=0.9, n=1500, seed=7, **kwargs):
        return synthetic_trace_arrays(
            n, rate_rps=load * engine.plan.throughput_fps, seed=seed,
            **kwargs)

    def test_zero_window_dispatches_immediately(self, report):
        engine = make_engine(report, window_ms=0.0)
        assert_identical(*summaries(engine, self._trace(engine)))

    def test_batch_size_one(self, report):
        engine = make_engine(report, max_batch_size=1)
        assert_identical(*summaries(engine, self._trace(engine)))

    def test_shedding_queue_depth(self, report):
        # queue depth below the batch size sheds most of an overload
        engine = make_engine(report, queue_depth=4)
        scalar, vectorized = summaries(engine,
                                       self._trace(engine, load=2.0))
        assert_identical(scalar, vectorized)
        assert scalar["rejected"] > 0

    def test_single_chip_fleet(self, report):
        engine = make_engine(report, num_chips=1)
        assert_identical(*summaries(engine, self._trace(engine)))

    def test_four_chip_fleet_generic_path(self, report):
        # more executors than the common one or two replica groups
        engine = make_engine(report, num_chips=4)
        assert len(engine.executors) > 2
        assert_identical(*summaries(engine, self._trace(engine, load=0.95)))

    def test_priority_traces_under_fifo(self, report):
        engine = make_engine(report)
        trace = self._trace(engine, priority_levels=3)
        assert_identical(*summaries(engine, trace))

    def test_empty_trace(self, report):
        engine = make_engine(report)
        assert_identical(*summaries(engine, []))

    def test_huge_finite_window_completes(self, report):
        # The last, partial batch waits the whole window out; a finite
        # one always expires (only NaN and inf are rejected).
        engine = make_engine(report, window_ms=1e300)
        with deadline(10.0):
            scalar, vectorized = summaries(engine, self._trace(engine, n=21))
        assert_identical(scalar, vectorized)
        assert scalar["completed"] == 21

    def test_simultaneous_arrivals(self, report):
        engine = make_engine(report)
        requests = [Request(request_id=i, arrival_ms=float(5 * (i // 7)))
                    for i in range(140)]
        assert_identical(*summaries(engine, requests))

    def test_object_and_array_input_agree(self, report):
        """serve() accepts Request lists and TraceArrays on both engines;
        all four combinations must land on one summary."""
        engine = make_engine(report)
        arrays = self._trace(engine)
        objects = arrays.materialize()
        results = [
            engine.serve(reqs, metrics=MetricsRegistry(),
                         engine=choice).summary()
            for reqs in (objects, arrays)
            for choice in ("scalar", "vectorized")
        ]
        rendered = {json.dumps(s, sort_keys=True) for s in results}
        assert len(rendered) == 1


class TestRandomTraceProperties:
    """Property tests: ~200+ random traces, no hand-picked structure."""

    N_TRACES = 220

    def test_random_traces_and_configs_agree(self, report):
        rng = np.random.default_rng(20240808)
        checked = 0
        for case in range(self.N_TRACES):
            sched = SchedulerConfig(
                max_batch_size=int(rng.integers(1, 12)),
                window_ms=float(rng.choice([0.0, 0.5, 2.0, 8.0])),
                queue_depth=int(rng.integers(1, 64)))
            engine = ServingEngine(report, ServingConfig(
                num_chips=int(rng.choice([1, 2, 4])), scheduler=sched))
            n = int(rng.integers(1, 160))
            # lognormal gaps: bursts + lulls, far off the Poisson path
            gaps = rng.lognormal(mean=float(rng.uniform(-1.0, 1.5)),
                                 sigma=1.0, size=n)
            arrivals = np.cumsum(gaps) * engine.plan.image_interval_ms
            trace = TraceArrays(
                arrival_ms=np.asarray(arrivals, dtype=np.float64),
                request_id=np.arange(n, dtype=np.int64),
                priority=rng.integers(0, 3, size=n).astype(np.int64))
            scalar, vectorized = summaries(engine, trace)
            assert json.dumps(scalar, sort_keys=True) == \
                json.dumps(vectorized, sort_keys=True), (
                    f"case {case}: scalar and vectorized summaries "
                    f"diverge for seed-derived trace (n={n}, "
                    f"sched={sched})")
            checked += 1
        assert checked == self.N_TRACES

    def test_unsorted_input_is_replayed_in_arrival_order(self, report):
        rng = np.random.default_rng(99)
        engine = make_engine(report)
        n = 300
        arrivals = rng.uniform(0.0, 400.0, size=n)
        trace = TraceArrays(arrival_ms=arrivals.astype(np.float64),
                            request_id=np.arange(n, dtype=np.int64),
                            priority=np.zeros(n, dtype=np.int64))
        assert_identical(*summaries(engine, trace))

    def test_order_check_agrees_with_lexsort(self):
        # Small integer columns: ties on arrival, repeated ids, and both
        # sorted and shuffled rows — the cases the O(n) check must get
        # exactly as right as the lexsort it stands in for.
        rng = np.random.default_rng(31)
        for case in range(400):
            n = int(rng.integers(1, 24))
            arrival = rng.integers(0, 6, size=n).astype(np.float64)
            ids = rng.integers(0, 8, size=n).astype(np.int64)
            if case % 2:
                order = np.lexsort((ids, arrival))
                arrival, ids = arrival[order], ids[order]
            expected = np.array_equal(np.lexsort((ids, arrival)),
                                      np.arange(n))
            trace = TraceArrays(arrival_ms=arrival, request_id=ids,
                                priority=np.zeros(n, dtype=np.int64))
            assert (replay_ordered(trace) is trace) == expected, case


class TestMutatedArrivalColumn:
    """``TraceArrays`` columns stay writable after construction.  A bad
    arrival written into the last row keeps the rows sorted, so no
    rebuild re-validates it; both engines must still raise — a NaN used
    to spin the vectorized event pass forever and an infinite one grow
    it until the process ran out of memory."""

    @pytest.mark.parametrize("choice", ["scalar", "vectorized"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0],
                             ids=["nan", "inf", "neg"])
    def test_bad_last_arrival_raises(self, report, bad, choice):
        engine = make_engine(report)
        trace = synthetic_trace_arrays(
            200, rate_rps=0.9 * engine.plan.throughput_fps, seed=3)
        trace.arrival_ms[-1] = bad
        with deadline(2.0), \
                pytest.raises(ValueError, match="finite and >= 0"):
            engine.serve(trace, metrics=MetricsRegistry(), engine=choice)


class TestArmedModeFallback:
    """Faults / resilience / non-FIFO must never silently change results."""

    def _trace(self, engine, n=400, seed=5):
        return synthetic_trace_arrays(
            n, rate_rps=0.8 * engine.plan.throughput_fps, seed=seed)

    def test_auto_runs_vectorized_when_unarmed(self, report):
        engine = make_engine(report)
        engine.serve(self._trace(engine), metrics=MetricsRegistry())
        assert engine.last_engine == "vectorized"
        assert engine.engine_fallback_reason is None

    def test_auto_with_faults_falls_back_and_matches_scalar(self, report):
        engine = make_engine(report)
        trace = self._trace(engine)
        auto = engine.serve(trace, metrics=MetricsRegistry(),
                            faults="chip-kill@t=0.5").summary()
        assert engine.last_engine == "scalar"
        assert "fault" in engine.engine_fallback_reason
        scalar = engine.serve(trace, metrics=MetricsRegistry(),
                              faults="chip-kill@t=0.5",
                              engine="scalar").summary()
        assert json.dumps(auto, sort_keys=True) == \
            json.dumps(scalar, sort_keys=True)

    def test_auto_with_resilience_falls_back_and_matches_scalar(
            self, report):
        engine = make_engine(report)
        trace = self._trace(engine)
        auto = engine.serve(trace, metrics=MetricsRegistry(),
                            resilience=ResilienceConfig()).summary()
        assert engine.last_engine == "scalar"
        assert "resilience" in engine.engine_fallback_reason
        scalar = engine.serve(trace, metrics=MetricsRegistry(),
                              resilience=ResilienceConfig(),
                              engine="scalar").summary()
        assert json.dumps(auto, sort_keys=True) == \
            json.dumps(scalar, sort_keys=True)

    def test_auto_with_priority_policy_falls_back(self, report):
        engine = make_engine(report, policy="priority")
        engine.serve(self._trace(engine), metrics=MetricsRegistry())
        assert engine.last_engine == "scalar"
        assert "policy" in engine.engine_fallback_reason

    def test_explicit_vectorized_with_faults_raises(self, report):
        engine = make_engine(report)
        with pytest.raises(ValueError, match="vectorized engine"):
            engine.serve(self._trace(engine), metrics=MetricsRegistry(),
                         faults="chip-kill@t=0.5", engine="vectorized")

    def test_explicit_vectorized_with_priority_policy_raises(self, report):
        engine = make_engine(report, policy="priority")
        with pytest.raises(ValueError, match="vectorized engine"):
            engine.serve(self._trace(engine), metrics=MetricsRegistry(),
                         engine="vectorized")

    def test_fallback_reason_lands_in_describe(self, report):
        engine = make_engine(report)
        engine.serve(self._trace(engine), metrics=MetricsRegistry(),
                     resilience=ResilienceConfig())
        text = engine.describe()
        assert "engine: auto" in text
        assert "fallback" in text

    def test_unknown_engine_rejected(self, report):
        engine = make_engine(report)
        with pytest.raises(ValueError, match="engine"):
            engine.serve(self._trace(engine), metrics=MetricsRegistry(),
                         engine="simd")
        with pytest.raises(ValueError):
            ServingConfig(engine="turbo")
        assert set(ENGINES) == {"auto", "scalar", "vectorized"}


class TestSpanParity:
    """The spans synthesized from the completion columns the vectorized
    engine ingests equal those from the columns the scalar oracle
    appends."""

    @staticmethod
    def assert_same_spans(engine, trace):
        tracers = {}
        for choice in ("scalar", "vectorized"):
            tracers[choice] = Tracer()
            engine.serve(trace, tracer=tracers[choice],
                         metrics=MetricsRegistry(), engine=choice)
        scalar, vectorized = tracers["scalar"], tracers["vectorized"]
        assert len(scalar) > 0
        assert vectorized.spans == scalar.spans
        # byte-level: catches int/float and NumPy-scalar drift that ==
        # forgives
        assert json.dumps(vectorized.to_chrome_trace()) == \
            json.dumps(scalar.to_chrome_trace())

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", CATALOG)
    def test_catalog_spans_identical(self, report, name, seed):
        engine = make_engine(report)
        trace = get_scenario(name).to_trace_arrays(
            2000, rate_rps=0.9 * engine.plan.throughput_fps, seed=seed)
        self.assert_same_spans(engine, trace)

    @pytest.mark.parametrize("num_chips", [1, 4])
    def test_fleet_sizes(self, report, num_chips):
        engine = make_engine(report, num_chips=num_chips)
        trace = synthetic_trace_arrays(
            1500, rate_rps=0.95 * engine.plan.throughput_fps, seed=7)
        self.assert_same_spans(engine, trace)


class TestObservableStateParity:
    """Beyond summary(): the engine-visible side state must agree too."""

    def test_executor_free_times_match(self, report):
        engine = make_engine(report)
        trace = synthetic_trace_arrays(
            600, rate_rps=0.9 * engine.plan.throughput_fps, seed=13)
        engine.serve(trace, metrics=MetricsRegistry(), engine="scalar")
        scalar_free = [ex.free_at_ms for ex in engine.executors]
        engine.serve(trace, metrics=MetricsRegistry(), engine="vectorized")
        vec_free = [ex.free_at_ms for ex in engine.executors]
        assert scalar_free == vec_free

    def test_per_record_fields_match(self, report):
        """The lazily materialized records equal the scalar ones field
        for field (the columns are not a lossy projection)."""
        engine = make_engine(report)
        trace = arrays_from_requests([
            Request(request_id=i, arrival_ms=float(i) * 3.0,
                    priority=i % 2, model="resnet18")
            for i in range(90)])
        scalar = engine.serve(trace, metrics=MetricsRegistry(),
                              engine="scalar")
        vectorized = engine.serve(trace, metrics=MetricsRegistry(),
                                  engine="vectorized")
        assert scalar.records == vectorized.records
        assert scalar.queue_samples == vectorized.queue_samples
        assert scalar.batch_sizes == vectorized.batch_sizes
