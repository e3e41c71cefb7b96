"""Golden summaries for the scalar loop's armed paths.

The engine-equivalence harness pins the unarmed replay against goldens
and the vectorized twin; the armed paths (faults, the resilience
runtime, brownout) run on the scalar event loop only, so nothing else
holds them still.  These fixtures do: a flash-crowd trace on a
2-replica fleet, crossed with

- a mid-run chip kill (in-flight retraction + retry-once failover),
- a straggler window on one replica,
- a cache wipe (every replica stalls its next dispatch),
- a chip kill with the resilience runtime armed and a brownout plan
  attached (budgeted retries, admission, breakers, down-shifts),

over seeds {3, 7, 11}.  One chip-kill cell additionally pins the sha256
of its Chrome trace: the request spans it holds are exactly the
completions that survived retraction, in dispatch order.

Refresh with ``pytest --update-goldens`` only for an intentional change.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.designer import build_deployments, uniform_assignment
from repro.models.specs import resnet18_spec
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.pim.simulator import simulate_network
from repro.serve.engine import ServingConfig, ServingEngine
from repro.serve.resilience import BrownoutPlan, ResilienceConfig
from repro.serve.scenarios import get_scenario

SEEDS = [3, 7, 11]
GOLDEN_DIR = Path(__file__).resolve().parent.parent / "baselines" / \
    "serve_summaries"
TRACE_DIGESTS = GOLDEN_DIR / "armed-chrome-trace-sha256.json"
TRACED_CELL = ("chip-kill", 7)

# cell name -> (fault spec, resilience armed)
CELLS = {
    "chip-kill": ("chip-kill@t=0.5", False),
    "straggler": ("straggler@t=0.2:chip=1:factor=4:until=0.6", False),
    "cache-wipe": ("cache-wipe@t=0.5", False),
    "chip-kill-resilient": ("chip-kill@t=0.5", True),
}


@pytest.fixture(scope="module")
def report():
    spec = resnet18_spec()
    deployments = build_deployments(spec, uniform_assignment(spec),
                                    weight_bits=9, activation_bits=9,
                                    use_wrapping=True)
    return simulate_network(deployments)


def serve_cell(report, cell, seed, tracer=None):
    faults, armed = CELLS[cell]
    engine = ServingEngine(report, ServingConfig(num_chips=2))
    assert len(engine.executors) == 2
    resilience = None
    if armed:
        resilience = ResilienceConfig(seed=0)
        engine.attach_brownout(BrownoutPlan(interval_scale=0.8,
                                            fill_scale=1.5,
                                            label="golden-degraded"))
    trace = get_scenario("flash-crowd").to_trace(
        2000, rate_rps=0.9 * engine.plan.throughput_fps, seed=seed)
    return engine.serve(trace, tracer=tracer, metrics=MetricsRegistry(),
                        faults=faults, resilience=resilience,
                        engine="scalar")


def check_golden(path, rendered, update_goldens):
    if update_goldens:
        path.write_text(rendered)
    assert path.exists(), (
        f"golden fixture {path.name} missing — run "
        f"pytest --update-goldens to create it")
    assert rendered == path.read_text(), (
        f"output drifted from golden {path.name} — if the change is "
        f"intentional, refresh with pytest --update-goldens")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("cell", sorted(CELLS))
def test_armed_summary_matches_golden(report, cell, seed, update_goldens):
    telemetry = serve_cell(report, cell, seed)
    summary = telemetry.summary()
    assert summary["completed"] + summary["rejected"] + summary["failed"] \
        == 2000.0
    assert summary["fault_events"] == 1.0
    rendered = json.dumps(summary, sort_keys=True, indent=2) + "\n"
    check_golden(GOLDEN_DIR / f"armed-flash-crowd-{cell}-seed{seed}.json",
                 rendered, update_goldens)


def test_chip_kill_cells_retract_inflight_work(report):
    """The kill cells must exercise retraction, or their goldens would
    not pin it."""
    for cell in ("chip-kill", "chip-kill-resilient"):
        for seed in SEEDS:
            event = serve_cell(report, cell, seed).fault_events[0]
            assert event["requeued"] + event["lost"] > 0, (cell, seed)


def test_chip_kill_chrome_trace_matches_golden(report, update_goldens):
    cell, seed = TRACED_CELL
    tracer = Tracer()
    serve_cell(report, cell, seed, tracer=tracer)
    text = json.dumps(tracer.to_chrome_trace()) + "\n"
    digests = {f"{cell}-seed{seed}":
               hashlib.sha256(text.encode()).hexdigest()}
    check_golden(TRACE_DIGESTS,
                 json.dumps(digests, sort_keys=True, indent=2) + "\n",
                 update_goldens)
