"""Whole-output digests of the scalar serve loop over a seeded matrix.

The summary goldens pin a few large runs by their ``summary()`` alone.
This module pins everything the scalar event loop writes, over a few
hundred small seeded runs that reach its corners:

- 1-4 replicas, the ``fifo`` and ``priority`` scheduler policies,
  ``max_batch_size`` in {1, 2, 4, 8}, ``window_ms`` in
  {0, 1e-10, 0.5, 2} and ``queue_depth`` in {2, 8, 64};
- disarmed runs, and runs with the resilience runtime armed, with and
  without an attached brownout plan;
- 0-3 faults (chip kill, straggler at factor 2, 4 or 8, cache wipe) at
  t in {0, 0.3, 0.5, 0.99, 1}, so kills during drain, total outages,
  breaker opens and fail-open dispatches all occur;
- arrival gaps that mix exponential draws with exact ties and with
  gaps of 5e-10, 1e-9 and 1.5e-9 ms around the loop's ``_EPS``.

Each case records one sha256 over the run's whole output: every
completion column in dispatch order, the queue samples with their
times, the rejected, failed and retried ids, the fault and resilience
events, per-chip busy time, ``summary()`` and the Prometheus text of the
run's metrics.  A case whose fault spec is rejected records the
exception's type and message instead.

Refresh with ``pytest --update-goldens`` only for an intentional change.
"""

import dataclasses
import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.core.designer import build_deployments, uniform_assignment
from repro.models.specs import resnet18_spec
from repro.obs import prometheus_text
from repro.obs.metrics import MetricsRegistry
from repro.pim.simulator import simulate_network
from repro.serve.engine import ServingConfig, ServingEngine
from repro.serve.resilience import (AdmissionPolicy, BreakerPolicy,
                                    BrownoutPlan, BrownoutPolicy,
                                    ResilienceConfig)
from repro.serve.scenarios.faults import FaultSpecError, parse_faults
from repro.serve.scheduler import SchedulerConfig
from repro.serve.trace import Request

NUM_CASES = 600
GOLDEN = (Path(__file__).resolve().parent.parent / "baselines"
          / "serve_summaries" / "scalar-telemetry-sha256.json")

FAULT_TIMES = (0.0, 0.3, 0.5, 0.99, 1.0)
TINY_GAPS = (0.0, 5e-10, 1e-9, 1.5e-9)
ARMINGS = ("off", "armed", "armed+plan")
# Enters on a quarter quantum of sojourn held for a tenth, so short
# traces reach brownout (the defaults need six quanta held for two).
EAGER_BROWNOUT = BrownoutPolicy(enter_factor=0.25, exit_factor=0.1,
                                enter_hold_factor=0.1, exit_hold_factor=0.5)


def make_case(index: int) -> dict:
    """The seeded parameters of case ``index`` (plain data, so a failing
    case can be printed and replayed)."""
    rng = random.Random(index)
    num_chips = rng.randint(1, 4)
    faults = []
    for _ in range(rng.randint(0, 3)):
        kind = rng.choice(("chip-kill", "straggler", "cache-wipe"))
        at = rng.choice(FAULT_TIMES)
        if kind == "chip-kill":
            faults.append(f"chip-kill@t={at}:chip={rng.randrange(num_chips)}")
        elif kind == "straggler":
            spec = (f"straggler@t={at}:chip={rng.randrange(num_chips)}"
                    f":factor={rng.choice((2, 4, 8))}")
            if rng.random() < 0.5:
                spec += f":until={at + rng.choice((0.2, 0.5))}"
            faults.append(spec)
        else:
            faults.append(f"cache-wipe@t={at}")
    return {
        "num_chips": num_chips,
        "scheduler": {"max_batch_size": rng.choice((1, 2, 4, 8)),
                      "window_ms": rng.choice((0.0, 1e-10, 0.5, 2.0)),
                      "queue_depth": rng.choice((2, 8, 64)),
                      "policy": rng.choice(("fifo", "priority"))},
        "arming": rng.choice(ARMINGS),
        "burst": rng.choice((2, 32)),
        "trip_after": rng.choice((1, 2)),
        "eager_brownout": rng.random() < 0.5,
        "faults": ",".join(faults),
        "load": rng.choice((0.5, 1.0, 2.0, 4.0)),
        "num_requests": rng.randint(8, 48),
        "tiny_gap_share": rng.choice((0.0, 0.3, 0.7)),
        "trace_seed": rng.randrange(2**31),
    }


def make_trace(case: dict, capacity_fps: float) -> list:
    rng = random.Random(case["trace_seed"])
    mean_gap_ms = 1000.0 / (case["load"] * capacity_fps)
    now, trace = 0.0, []
    for rid in range(case["num_requests"]):
        trace.append(Request(rid, now, rng.randrange(3)))
        if rng.random() < case["tiny_gap_share"]:
            now += rng.choice(TINY_GAPS)
        else:
            now += rng.expovariate(1.0 / mean_gap_ms)
    return trace


def whole_output(telemetry, registry) -> dict:
    """Everything one scalar run wrote, as JSON-ready data."""
    return {
        "records": [dataclasses.astuple(r) for r in telemetry.records],
        "queue_samples": telemetry.queue_samples,
        "batch_sizes": telemetry.batch_sizes,
        "rejected": telemetry.rejected,
        "failed": telemetry.failed,
        "retried": telemetry.retried,
        "fault_events": telemetry.fault_events,
        "resilience_events": telemetry.resilience_events,
        "chip_busy_ms": sorted(telemetry.chip_busy_ms.items()),
        "summary": telemetry.summary(),
        "prometheus": prometheus_text(registry),
    }


def run_case(report, case: dict):
    """``(digest, telemetry, engine)`` of one case; the digest is
    ``"<ExceptionType>: <message>"`` when the fault spec is rejected."""
    engine = ServingEngine(report, ServingConfig(
        num_chips=case["num_chips"],
        scheduler=SchedulerConfig(**case["scheduler"])))
    resilience = None
    if case["arming"] != "off":
        resilience = ResilienceConfig(
            admission=AdmissionPolicy(burst=case["burst"]),
            breaker=BreakerPolicy(trip_after=case["trip_after"]),
            brownout=(EAGER_BROWNOUT if case["eager_brownout"]
                      else BrownoutPolicy()),
            seed=case["trace_seed"] % 3)
    if case["arming"] == "armed+plan":
        engine.attach_brownout(BrownoutPlan(interval_scale=0.8,
                                            fill_scale=1.5,
                                            label="matrix-degraded"))
    trace = make_trace(case, engine.plan.throughput_fps)
    registry = MetricsRegistry()
    try:
        faults = parse_faults(case["faults"]) if case["faults"] else None
        telemetry = engine.serve(trace, metrics=registry, faults=faults,
                                 resilience=resilience, engine="scalar")
    except FaultSpecError as exc:
        return f"{type(exc).__name__}: {exc}", None, engine
    text = json.dumps(whole_output(telemetry, registry), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest(), telemetry, engine


@pytest.fixture(scope="module")
def report():
    spec = resnet18_spec()
    deployments = build_deployments(spec, uniform_assignment(spec),
                                    weight_bits=9, activation_bits=9,
                                    use_wrapping=True)
    return simulate_network(deployments)


@pytest.fixture(scope="module")
def outcomes(report):
    return {f"case-{k:03d}": run_case(report, make_case(k))
            for k in range(NUM_CASES)}


def test_whole_output_matches_golden(outcomes, update_goldens):
    digests = {name: digest for name, (digest, _, _) in outcomes.items()}
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
        f"{len(drifted)} of {len(expected)} scalar-loop outputs drifted "
        f"from {GOLDEN.name}, first: "
        + "; ".join(f"{name} {make_case(int(name[5:]))}"
                    for name in drifted[:3])
        + " — if the change is intentional, refresh with "
          "pytest --update-goldens")


def test_matrix_reaches_the_loop_corners(outcomes):
    """The digests only pin the branches some case takes: keep the
    matrix reaching each one the loop's next-event rule depends on."""
    reached = dict.fromkeys(
        ("armed", "faulted", "priority", "breaker opens", "fail-open",
         "total outage", "retries", "admission sheds", "brownout",
         "rejected spec"), 0)
    for name, (_, telemetry, engine) in outcomes.items():
        case = make_case(int(name[5:]))
        reached["armed"] += case["arming"] != "off"
        reached["faulted"] += bool(case["faults"])
        reached["priority"] += case["scheduler"]["policy"] == "priority"
        if telemetry is None:
            reached["rejected spec"] += 1
            continue
        stats = telemetry.resilience or {}
        reached["breaker opens"] += stats.get("breaker_opens", 0) > 0
        reached["fail-open"] += stats.get("fail_open_batches", 0) > 0
        reached["admission sheds"] += stats.get("admission_shed", 0) > 0
        reached["brownout"] += stats.get("brownout_entries", 0) > 0
        reached["total outage"] += not any(ex.alive
                                           for ex in engine.executors)
        reached["retries"] += telemetry.num_retried > 0
    assert all(count >= 5 for count in reached.values()), reached
