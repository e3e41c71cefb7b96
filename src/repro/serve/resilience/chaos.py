"""Seeded chaos harness: randomized-but-reproducible resilience drills.

``repro serve chaos --seed N`` composes a scenario x fault plan from a
single seed — one of the registered load scenarios at a random offered
load, plus 1-3 faults (chip kills, stragglers, cache wipes) placed in
disjoint time slots — and replays the *identical* trace and fault plan
against two fleets deployed off the same two-point search front:

- **resilience-on**: admission control, retry budgets, breakers, and a
  brownout plan derived from the front's energy-opt point
  (:func:`repro.serve.deploy.brownout_plan_from_search`);
- **resilience-off**: the bare engine (bounded queue + retry-once
  failover), same chips, same scheduler.

Every run is checked against the harness invariants: request
conservation (``completed + rejected + failed == offered``) on both
fleets, the on-fleet's availability floor, clean
:func:`repro.obs.validate.validate_prometheus` output including the
``serve_resilience_*`` cross-family rules, and breaker/brownout span
synthesis whenever the corresponding episodes occurred.  Everything —
scenario choice, fault placement, trace arrivals, retry jitter — derives
from the seed through ``SeedSequence``, so a chaos run is byte-identical
on replay; ``tools/test_cli_matrix.py`` drills seeds 3 and 7 twice each
through the CLI and compares the JSON bytes.

The plan composer never kills the last live replica group: chaos probes
degraded serving, not guaranteed total outages (those have their own
deterministic tests).
"""

from __future__ import annotations

import json
import numbers
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...analysis.tables import Table
from ...obs.export import prometheus_text
from ...obs.metrics import MetricsRegistry
from ...obs.tracer import Tracer
from ...obs.validate import validate_prometheus
from ..scenarios import get_scenario
from ..scenarios.faults import parse_faults
from .config import ResilienceConfig

__all__ = [
    "CHAOS_MODEL",
    "CHAOS_SCENARIOS",
    "ChaosPlan",
    "two_point_front_payload",
    "build_chaos_fleets",
    "compose_plan",
    "run_chaos",
    "render_chaos",
]

# ResNet-50 is the chaos reference model: its latency-opt design needs
# 3 chips per copy and the energy-opt one 2, so a 6-chip fleet holds 2
# primary replica groups with a real 1.5x-capacity brownout plan — the
# smaller models' points all pack identically and give brownout nothing
# to buy (chip-granular packing; see docs/resilience.md).
CHAOS_MODEL = "resnet50"

CHAOS_SCENARIOS = ("flash-crowd", "bursty-mmpp", "diurnal",
                   "steady-poisson")

_FAULT_KINDS = ("chip-kill", "straggler", "cache-wipe")


@dataclass(frozen=True)
class ChaosPlan:
    """One seed's composed drill: scenario, load, and fault spec."""

    seed: int
    scenario: str
    rate_factor: float          # offered load, x primary fleet capacity
    num_requests: int
    faults: str                 # parse_faults() spec string
    trace_seed: int             # arrival-process seed (derived)

    def describe(self) -> str:
        return (f"seed {self.seed}: {self.scenario} @ "
                f"{self.rate_factor:g}x capacity, {self.num_requests} "
                f"requests, faults [{self.faults}]")


def two_point_front_payload(model: str = CHAOS_MODEL) -> Dict:
    """A two-point ``repro-search-result`` payload with honest metrics.

    Same shape as the search CLI's artifact: large epitomes
    (latency-opt) vs small ones (energy-opt), both measured by the
    simulator, so the chaos fleets deploy through the exact
    ``search -> serve`` path production would.
    """
    from ...core.designer import build_deployments, uniform_assignment
    from ...models.specs import get_network_spec
    from ...pim.simulator import simulate_network

    spec = get_network_spec(model)
    front = []
    for rows, cols in ((2048, 512), (256, 64)):
        assignment = uniform_assignment(spec, rows, cols)
        report = simulate_network(build_deployments(
            spec, assignment, weight_bits=9, activation_bits=9,
            use_wrapping=True))
        front.append({
            "genome": [list(assignment[layer.name])
                       if layer.name in assignment else None
                       for layer in spec],
            "crossbars": report.num_crossbars,
            "latency_ms": report.latency_ms,
            "energy_mj": report.energy_mj,
            "edp": report.latency_ms * report.energy_mj,
        })
    return {
        "schema": "repro-search-result",
        "schema_version": 1,
        "model": model,
        "objective": "pareto",
        "budget": None,
        "feasible": True,
        "precision": {"weight_bits": 9, "activation_bits": 9,
                      "use_wrapping": True},
        "layers": [layer.name for layer in spec],
        "best": front[0],
        "front": front,
    }


def build_chaos_fleets(payload: Optional[Dict] = None,
                       num_chips: Optional[int] = None,
                       replicas: int = 2) -> Dict[str, "object"]:
    """The A/B pair every chaos seed replays against.

    Both fleets serve the front's latency-opt point on identical chips
    and scheduler; only the on-fleet carries a brownout plan (derived
    from the energy-opt point) — its other controllers are armed per
    run via the ``resilience`` argument to serve().
    """
    from ..deploy import engine_from_search, load_search_result

    if payload is None:
        payload = two_point_front_payload()
    result = load_search_result(payload)
    on = engine_from_search(result, policy="latency-opt",
                            num_chips=num_chips, replicas=replicas,
                            brownout_policy="energy-opt")
    off = engine_from_search(result, policy="latency-opt",
                             num_chips=on.config.num_chips)
    return {"resilience-on": on, "resilience-off": off}


def compose_plan(seed: int, replica_chips: Sequence[int],
                 num_requests: int = 500) -> ChaosPlan:
    """Compose one seed's drill.

    All randomness flows from ``SeedSequence([seed])`` in a fixed draw
    order, so the plan is a pure function of the seed (and the fleet's
    replica layout).  Faults land in disjoint fractional time slots —
    one per fault — which keeps same-chip straggler windows from
    overlapping (parse_faults rejects those) and spreads adversity over
    the run.  A chip-kill that would take down the last live replica
    group is downgraded to a straggler on that group instead.
    """
    if not replica_chips:
        raise ValueError("compose_plan needs at least one replica chip")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed)]))
    scenario = CHAOS_SCENARIOS[int(rng.integers(len(CHAOS_SCENARIOS)))]
    rate_factor = round(float(rng.uniform(0.7, 1.4)), 3)
    num_faults = int(rng.integers(1, 4))
    specs: List[str] = []
    killed: set = set()
    for slot in range(num_faults):
        lo = slot / num_faults
        width = 1.0 / num_faults
        kind = _FAULT_KINDS[int(rng.integers(len(_FAULT_KINDS)))]
        chip = int(replica_chips[int(rng.integers(len(replica_chips)))])
        t = round(lo + float(rng.uniform(0.05, 0.5)) * width, 4)
        factor = round(float(rng.uniform(2.5, 5.0)), 2)
        until = round(t + float(rng.uniform(0.1, 0.45)) * width, 4)
        if kind == "chip-kill" \
                and len(killed | {chip}) >= len(replica_chips):
            kind = "straggler"      # never compose a total outage
        if kind == "chip-kill":
            killed.add(chip)
            specs.append(f"chip-kill@t={t:g}:chip={chip}")
        elif kind == "straggler":
            specs.append(f"straggler@t={t:g}:chip={chip}"
                         f":factor={factor:g}:until={until:g}")
        else:
            specs.append(f"cache-wipe@t={t:g}")
    trace_seed = int(
        np.random.SeedSequence([int(seed), 1]).generate_state(1)[0])
    return ChaosPlan(seed=int(seed), scenario=scenario,
                     rate_factor=rate_factor, num_requests=num_requests,
                     faults=",".join(specs), trace_seed=trace_seed)


def _check_obs(label: str, seed: int, registry: MetricsRegistry,
               tracer: Tracer, telemetry, armed: bool) -> List[str]:
    """Per-run observability cross-checks (see module docstring)."""
    problems = []
    where = f"seed {seed} [{label}]"
    prom = prometheus_text(registry)
    problems.extend(f"{where}: metrics: {p}"
                    for p in validate_prometheus(prom))
    if armed:
        if "serve_resilience_admitted" not in prom:
            problems.append(
                f"{where}: serve_resilience_* metrics missing from an "
                "armed run")
        span_names = {s.name for s in tracer.spans}
        events = {e.get("kind") for e in telemetry.resilience_events}
        if "breaker-open" in events and "breaker" not in span_names:
            problems.append(
                f"{where}: breaker episodes occurred but no breaker "
                "span was synthesized")
        if "brownout-enter" in events and "brownout" not in span_names:
            problems.append(
                f"{where}: brownout episodes occurred but no brownout "
                "span was synthesized")
    return problems


def run_chaos(seeds: Sequence[int],
              num_requests: int = 500,
              num_chips: Optional[int] = None,
              payload: Optional[Dict] = None,
              availability_floor: float = 0.25
              ) -> Tuple[List[Dict], List[str]]:
    """Run the chaos drill for every seed; returns ``(rows, problems)``.

    One row per seed with the plan and both fleets' outcomes; an empty
    problem list means every invariant held.  The harness never raises
    on an invariant breach — the caller (CLI, tests) decides
    what a non-empty problem list is worth.  A floor outside [0, 1]
    (NaN compares false, so it would switch the floor check off) or a
    seed that is not a non-negative integer raises ``ValueError``
    before any fleet is built.
    """
    if not 0.0 <= availability_floor <= 1.0:
        raise ValueError(f"availability_floor must be a finite number in "
                         f"[0, 1], got {availability_floor!r}")
    for seed in seeds:
        if (isinstance(seed, bool) or not isinstance(seed, numbers.Integral)
                or seed < 0):
            raise ValueError(f"chaos seed must be a non-negative integer, "
                             f"got {seed!r}")
    fleets = build_chaos_fleets(payload, num_chips=num_chips)
    on, off = fleets["resilience-on"], fleets["resilience-off"]
    replica_chips = [ex.chip_ids[0] for ex in on.executors]
    rows: List[Dict] = []
    problems: List[str] = []
    for seed in seeds:
        plan = compose_plan(seed, replica_chips,
                            num_requests=num_requests)
        scenario = get_scenario(plan.scenario)
        trace = scenario.to_trace(
            plan.num_requests,
            rate_rps=plan.rate_factor * on.plan.throughput_fps,
            seed=plan.trace_seed)
        faults = parse_faults(plan.faults)
        row: Dict = dict(asdict(plan))
        for label, engine, config in (
                ("on", on, ResilienceConfig(seed=plan.seed)),
                ("off", off, None)):
            registry = MetricsRegistry()
            tracer = Tracer()
            telemetry = engine.serve(trace, tracer=tracer,
                                     metrics=registry, faults=faults,
                                     resilience=config)
            offered = (telemetry.num_completed + telemetry.num_rejected
                       + telemetry.num_failed)
            if offered != plan.num_requests:
                problems.append(
                    f"seed {seed} [{label}]: conservation violated — "
                    f"completed {telemetry.num_completed} + rejected "
                    f"{telemetry.num_rejected} + failed "
                    f"{telemetry.num_failed} = {offered} "
                    f"!= offered {plan.num_requests}")
            problems.extend(_check_obs(label, seed, registry, tracer,
                                       telemetry, armed=config is not None))
            row[f"completed_{label}"] = telemetry.num_completed
            row[f"rejected_{label}"] = telemetry.num_rejected
            row[f"failed_{label}"] = telemetry.num_failed
            row[f"availability_{label}"] = round(
                telemetry.availability(), 6)
            row[f"p99_ms_{label}"] = round(
                telemetry.latency_percentile(99.0), 3)
            if config is not None and telemetry.resilience is not None:
                stats = telemetry.resilience
                row["admission_shed"] = int(stats["admission_shed"])
                row["retries_scheduled"] = int(stats["retries_scheduled"])
                row["breaker_opens"] = int(stats["breaker_opens"])
                row["brownout_ms"] = round(stats["brownout_ms"], 3)
        if row["availability_on"] < availability_floor:
            problems.append(
                f"seed {seed}: resilience-on availability "
                f"{row['availability_on']:.3f} is below the floor "
                f"{availability_floor:g}")
        rows.append(row)
    return rows, problems


def render_chaos(rows: Sequence[Dict],
                 title: str = "chaos drill: resilience on vs off") -> str:
    """Paper-style table of chaos rows (one per seed)."""
    table = Table(["seed", "scenario", "load", "faults",
                   "avail(on)", "avail(off)", "p99 on/off (ms)",
                   "shed", "retries", "brownout (ms)"], title=title)
    for row in rows:
        table.add_row(
            row["seed"], row["scenario"], row["rate_factor"],
            row["faults"],
            row["availability_on"], row["availability_off"],
            f"{row['p99_ms_on']:g}/{row['p99_ms_off']:g}",
            row.get("admission_shed", 0),
            row.get("retries_scheduled", 0),
            row.get("brownout_ms", 0.0))
    return table.render()


def chaos_json(rows: Sequence[Dict], problems: Sequence[str]) -> str:
    """The machine-readable chaos artifact (stable key order, so a
    same-seed re-run is byte-identical — ``tools/test_cli_matrix.py``
    compares two runs' bytes)."""
    return json.dumps({"schema": "repro-chaos-result",
                       "schema_version": 1,
                       "rows": list(rows),
                       "problems": list(problems)},
                      indent=2, sort_keys=True)
