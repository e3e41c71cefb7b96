"""Phase A's saturated-stretch pass against the per-event loop.

An overloaded fleet dispatches full batches back to back, and
:func:`repro.serve.vectorized._saturated_stretch` replays such a
stretch as NumPy passes instead of one loop step per event.  The
reference here is the same Phase A call with the pass monkeypatched to
decline, so the per-event loop replays every event itself — no switch
in the code, and every one of Phase A's eight outputs must match.

Traces are drawn at 1.2-4x a fleet's capacity so that many cases enter
the pass, with exact ties and gaps just under, at and over ``_EPS``
where the loop merges events.  A subset also holds the vectorized
``summary()`` to the scalar engine's, a float32 arrival column must
replay as the scalar engine replays it, and a spy pins that the pass
keeps covering most of a web-scale replay's events.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.designer import build_deployments, uniform_assignment
from repro.models.specs import resnet18_spec
from repro.obs.metrics import MetricsRegistry
from repro.pim.simulator import simulate_network
from repro.serve import vectorized
from repro.serve.engine import ServingConfig, ServingEngine
from repro.serve.scenarios import get_scenario
from repro.serve.scheduler import SchedulerConfig
from repro.serve.trace import TraceArrays

# Gaps the loop treats differently: an exact tie, just under, at and
# just over the _EPS merge slack.
TIE_GAPS = np.array([0.0, 0.5e-9, 1e-9, 1.5e-9])


@st.composite
def overloads(draw):
    """A Phase A call on a trace at 1.2-4x the fleet's capacity, with
    the trace as inter-arrival gaps."""
    executors = draw(st.integers(1, 4))
    full = draw(st.integers(1, 9))
    cap = draw(st.one_of(st.integers(8, 64), st.just(8192)))
    window = draw(st.sampled_from([0.0, 1e-10, 0.5, 2.0, 5.0]))
    interval = draw(st.sampled_from([0.25, 0.7, 1.0, 1.3]))
    load = draw(st.floats(1.2, 4.0))
    n = draw(st.one_of(st.integers(1, 60), st.integers(200, 1500)))
    tie_share = draw(st.sampled_from([0.0, 0.05, 0.3]))
    on_grid = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Each executor serves one request per image interval.
    gaps = rng.exponential(interval / (load * executors), size=n)
    if on_grid:
        # Multiples of 1/8 add exactly, so arrivals land on dispatch
        # times and window deadlines (dyadic intervals and windows).
        gaps = np.round(gaps * 8.0) / 8.0
    ties = rng.random(n) < tie_share
    gaps[ties] = rng.choice(TIE_GAPS, size=int(ties.sum()))
    return (gaps, executors, cap, full, window, interval)


def phase_a(call):
    gaps, *config = call
    out = vectorized._replay_events(np.cumsum(gaps), *config)
    return [column.tobytes() for column in out[:7]] + [out[7]]


@settings(max_examples=400, deadline=None)
@given(call=overloads())
def test_pass_matches_per_event_loop(call):
    # hypothesis runs every example in one test call, so the
    # function-scoped monkeypatch fixture would span all of them.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vectorized, "_saturated_stretch", lambda *args: None)
        reference = phase_a(call)
    assert phase_a(call) == reference


def spy_on_pass(monkeypatch):
    """Count the events each saturated-pass call appends."""
    emitted = []
    real = vectorized._saturated_stretch

    def spy(*args):
        events = args[-1][2]
        before = len(events)
        state = real(*args)
        emitted.append(len(events) - before)
        return state

    monkeypatch.setattr(vectorized, "_saturated_stretch", spy)
    return emitted


@pytest.fixture(scope="module")
def report():
    spec = resnet18_spec()
    deployments = build_deployments(spec, uniform_assignment(spec),
                                    weight_bits=9, activation_bits=9,
                                    use_wrapping=True)
    return simulate_network(deployments)


def summaries(engine, trace):
    return [json.dumps(engine.serve(trace, metrics=MetricsRegistry(),
                                    engine=choice).summary(),
                       sort_keys=True)
            for choice in ("scalar", "vectorized")]


@settings(max_examples=25, deadline=None)
@given(call=overloads())
def test_summary_matches_scalar_engine(report, call):
    gaps, executors, cap, full, window, interval = call
    # resnet18 replicates one executor per chip; rescale the trace to
    # the deployment's image interval, keeping its load and its ties.
    engine = ServingEngine(report, ServingConfig(
        num_chips=executors, scheduler=SchedulerConfig(
            max_batch_size=full, window_ms=window, queue_depth=cap)))
    assert len(engine.executors) == executors
    scale = engine.plan.image_interval_ms / interval
    arrivals = np.cumsum(np.where(np.isin(gaps, TIE_GAPS), gaps,
                                  gaps * scale))
    n = arrivals.size
    trace = TraceArrays(arrival_ms=arrivals,
                        request_id=np.arange(n, dtype=np.int64),
                        priority=np.zeros(n, dtype=np.int64))
    scalar, vector = summaries(engine, trace)
    assert scalar == vector


def test_pass_covers_most_of_a_web_scale_replay(report, monkeypatch):
    """The replay-web shape: a diurnal day at 0.9x capacity into one
    executor and a deep queue.  Its peak is one long saturated stretch,
    which the pass must replay rather than hand back to the loop."""
    engine = ServingEngine(report, ServingConfig(
        num_chips=1, scheduler=SchedulerConfig(
            max_batch_size=8, window_ms=2.0, queue_depth=8192)))
    trace = get_scenario("diurnal").to_trace_arrays(
        20_000, rate_rps=0.9 * engine.plan.throughput_fps, seed=41)
    emitted = spy_on_pass(monkeypatch)
    telemetry = engine.serve(trace, metrics=MetricsRegistry(),
                             engine="vectorized")
    events = len(telemetry.queue_samples)
    assert sum(emitted) >= events / 2, (
        f"the saturated pass replayed {sum(emitted)} of {events} events")


def test_float32_arrival_column_matches_scalar_engine(report):
    # The scalar engine widens each arrival to a Python float; the pass
    # must add windows in float64 too, or its wake-up events move.
    engine = ServingEngine(report, ServingConfig(
        num_chips=2, scheduler=SchedulerConfig(
            max_batch_size=8, window_ms=1.1, queue_depth=16)))
    gaps = np.random.default_rng(0).exponential(
        engine.plan.image_interval_ms / 3.0, size=3000)
    arrivals = (1000.0 + np.cumsum(gaps)).astype(np.float32)
    n = arrivals.size
    trace = TraceArrays(arrival_ms=arrivals,
                        request_id=np.arange(n, dtype=np.int64),
                        priority=np.zeros(n, dtype=np.int64))
    scalar, vector = (engine.serve(trace, metrics=MetricsRegistry(),
                                   engine=choice)
                      for choice in ("scalar", "vectorized"))
    assert scalar.queue_samples == vector.queue_samples
    assert json.dumps(scalar.summary(), sort_keys=True) == \
        json.dumps(vector.summary(), sort_keys=True)
