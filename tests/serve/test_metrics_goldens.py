"""Digests of the metrics a serve run exports, histogram quantiles
included.

The summary goldens pin ``summary()``, and the scalar-telemetry digests
pin the Prometheus text of small scalar runs.  Neither pins the JSONL
export, the only artifact that carries the histograms' quantiles (read
off each histogram's sorted sample), min and max.  This module pins
``metrics_jsonl(registry) + prometheus_text(registry)`` by sha256 for:

- one 2,000-request ``serve`` of each built-in scenario, on the scalar
  and on the vectorized engine;
- one 12,000-request diurnal replay, whose latency and queue-depth
  histograms observe more values than ``SAMPLE_CAP`` in one call (the
  first publish's stride sample);
- one armed run: a flash-crowd trace with a chip kill, the resilience
  runtime and a brownout plan;
- one ``ab_offered_load_sweep`` of two fleets into one registry, so
  every histogram after the first replay merges into a non-empty
  sample, and the queue-depth histogram passes ``SAMPLE_CAP`` across
  publishes (the stride grows and the sample is thinned).

Refresh with ``pytest --update-goldens`` only for an intentional change.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.designer import build_deployments, uniform_assignment
from repro.models.specs import resnet18_spec
from repro.obs import metrics_jsonl, prometheus_text, use_metrics
from repro.obs.metrics import SAMPLE_CAP, MetricsRegistry
from repro.pim.simulator import simulate_network
from repro.serve.deploy import ab_offered_load_sweep
from repro.serve.engine import ServingConfig, ServingEngine
from repro.serve.resilience import BrownoutPlan, ResilienceConfig
from repro.serve.scenarios import get_scenario, list_scenarios

GOLDEN = (Path(__file__).resolve().parent.parent / "baselines"
          / "serve_summaries" / "metrics-export-sha256.json")
CATALOG = sorted(list_scenarios())
SEED = 7


@pytest.fixture(scope="module")
def report():
    spec = resnet18_spec()
    deployments = build_deployments(spec, uniform_assignment(spec),
                                    weight_bits=9, activation_bits=9,
                                    use_wrapping=True)
    return simulate_network(deployments)


def export_digest(registry: MetricsRegistry) -> str:
    text = metrics_jsonl(registry) + prometheus_text(registry)
    return hashlib.sha256(text.encode()).hexdigest()


def serve_digest(fleet, trace, **serve_kwargs) -> str:
    registry = MetricsRegistry()
    fleet.serve(trace, metrics=registry, **serve_kwargs)
    return export_digest(registry)


def scenario_cells(report):
    engine = ServingEngine(report, ServingConfig(num_chips=2))
    rate = 0.9 * engine.plan.throughput_fps
    for name in CATALOG:
        trace = get_scenario(name).to_trace_arrays(2000, rate_rps=rate,
                                                   seed=SEED)
        for choice in ("scalar", "vectorized"):
            yield f"{name}-{choice}", serve_digest(engine, trace,
                                                   engine=choice)
    trace = get_scenario("diurnal").to_trace_arrays(12000, rate_rps=rate,
                                                    seed=SEED)
    registry = MetricsRegistry()
    engine.serve(trace, metrics=registry, engine="vectorized")
    # The cell exists to pin the first publish's stride sample.
    assert registry.get("serve.engine.latency_ms").count > SAMPLE_CAP
    assert registry.get("serve.engine.queue_depth").count > SAMPLE_CAP
    yield "diurnal-12k-vectorized", export_digest(registry)


def armed_cell(report):
    engine = ServingEngine(report, ServingConfig(num_chips=2))
    engine.attach_brownout(BrownoutPlan(interval_scale=0.8, fill_scale=1.5,
                                        label="golden-degraded"))
    trace = get_scenario("flash-crowd").to_trace(
        2000, rate_rps=0.9 * engine.plan.throughput_fps, seed=SEED)
    return "flash-crowd-chip-kill-resilient", serve_digest(
        engine, trace, faults="chip-kill@t=0.5",
        resilience=ResilienceConfig(seed=0), engine="scalar")


def sweep_cell(report):
    engines = {"two-chip": ServingEngine(report, ServingConfig(num_chips=2)),
               "one-chip": ServingEngine(report, ServingConfig(num_chips=1))}
    registry = MetricsRegistry()
    with use_metrics(registry):
        rows = ab_offered_load_sweep(engines, num_requests=2000, seed=SEED)
    # Two loads x two fleets, all published into one registry.
    assert len(rows) == 4
    assert registry.get("serve.engine.latency_ms").count == 8000
    assert registry.get("serve.engine.queue_depth").count > SAMPLE_CAP
    return "ab-sweep-two-fleets", export_digest(registry)


def test_metrics_export_matches_golden(report, update_goldens):
    digests = dict(scenario_cells(report))
    digests.update([armed_cell(report), sweep_cell(report)])
    rendered = json.dumps(digests, sort_keys=True, indent=1) + "\n"
    if update_goldens:
        GOLDEN.write_text(rendered)
    assert GOLDEN.exists(), (
        f"golden fixture {GOLDEN.name} missing — run "
        f"pytest --update-goldens to create it")
    expected = json.loads(GOLDEN.read_text())
    drifted = sorted(name for name in expected
                     if digests.get(name) != expected[name])
    assert not drifted and digests.keys() == expected.keys(), (
        f"metrics export drifted from {GOLDEN.name} in "
        f"{', '.join(drifted) or 'the cell set'} — if the change is "
        f"intentional, refresh with pytest --update-goldens")
