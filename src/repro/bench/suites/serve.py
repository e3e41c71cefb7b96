"""Benchmark for the serving runtime: offered load vs achieved throughput.

The sweep replays Poisson request traces against an epitome ResNet-18
deployment on 1/2/4 simulated chips at offered loads below, near and above
each fleet's capacity, recording achieved throughput, p50/p99 latency,
shed requests and chip utilization.  Structural expectations:

- below saturation, achieved ~= offered and p99 stays near the pipeline
  fill latency + batching window;
- past saturation, achieved plateaus at the shard plan's pipelined
  throughput while p99 explodes against the bounded queue;
- chips scale capacity: the 4-chip fleet sustains offered loads that
  overload the 1-chip fleet.

``check_structure`` asserts those claims, so the benchmark doubles as a
correctness smoke while its wall time feeds the perf trajectory.
"""

from __future__ import annotations

import gc
import time
from typing import Dict, List, Sequence

from ...obs.metrics import MetricsRegistry
from ...obs.runtime import use_metrics
from ...serve import (
    FaultPlan,
    MicroBatchScheduler,
    ResilienceConfig,
    SchedulerConfig,
    ServingConfig,
    ServingEngine,
    ab_offered_load_sweep,
    engine_from_search,
    get_scenario,
    synthetic_trace,
)
from ..registry import Workload, benchmark

__all__ = [
    "CHIP_COUNTS",
    "LOAD_FACTORS",
    "RESILIENCE_OVERHEAD_BUDGET_PCT",
    "SCENARIO_OVERHEAD_BUDGET_PCT",
    "build_engine",
    "run_sweep",
    "check_structure",
    "offered_load_factory",
    "scheduler_deep_queue_factory",
    "ab_operating_points_factory",
    "scenario_replay_factory",
    "overload_resilience_factory",
    "measure_scenario_overhead",
    "measure_resilience_overhead",
    "measure_engine_speedup",
    "trace_replay_100k_factory",
    "trace_replay_1m_factory",
    "VECTORIZED_SPEEDUP_FLOOR",
    "TRACE_REPLAY_1M_BUDGET_S",
    "synthetic_search_payload",
    "check_ab_structure",
]

CHIP_COUNTS = (1, 2, 4)
LOAD_FACTORS = (0.5, 0.9, 1.3)      # x single-replica capacity per chip


def build_engine(num_chips: int, queue_depth: int = 512) -> ServingEngine:
    return ServingEngine.from_spec(
        "resnet18",
        ServingConfig(num_chips=num_chips,
                      scheduler=SchedulerConfig(max_batch_size=8,
                                                window_ms=2.0,
                                                queue_depth=queue_depth)))


def run_sweep(num_requests: int = 500,
              chip_counts: Sequence[int] = CHIP_COUNTS,
              load_factors: Sequence[float] = LOAD_FACTORS) -> List[Dict]:
    rows: List[Dict] = []
    for chips in chip_counts:
        engine = build_engine(chips)
        capacity = engine.plan.throughput_fps
        for factor in load_factors:
            offered = factor * capacity
            trace = synthetic_trace(num_requests, rate_rps=offered,
                                    seed=17)
            telemetry = engine.serve(trace)
            utils = telemetry.chip_utilization()
            rows.append({
                "chips": chips,
                "offered_fps": offered,
                "achieved_fps": telemetry.throughput_fps(),
                "p50_ms": telemetry.latency_percentile(50.0),
                "p99_ms": telemetry.latency_percentile(99.0),
                "shed": telemetry.num_rejected,
                "mean_util": sum(utils.values()) / len(utils),
                "capacity_fps": capacity,
            })
    return rows


def check_structure(rows: Sequence[Dict]) -> None:
    """The structural claims the benchmark exists to demonstrate."""
    by = {(r["chips"], round(r["offered_fps"] / r["capacity_fps"], 1)): r
          for r in rows}
    factors = sorted({round(r["offered_fps"] / r["capacity_fps"], 1)
                      for r in rows})
    low, high = factors[0], factors[-1]
    chip_counts = sorted({r["chips"] for r in rows})
    for chips in chip_counts:
        under, over = by[(chips, low)], by[(chips, high)]
        # under light load the system keeps up...
        assert under["achieved_fps"] >= 0.8 * under["offered_fps"]
        # ...and saturation caps throughput at ~capacity with worse tails
        assert over["achieved_fps"] <= 1.1 * over["capacity_fps"]
        assert over["p99_ms"] > under["p99_ms"]
    if len(chip_counts) > 1:
        small, large = chip_counts[0], chip_counts[-1]
        assert (by[(large, high)]["achieved_fps"]
                > 1.5 * by[(small, high)]["achieved_fps"])


# A sweep simulates minutes of traffic, so: no warmup, no autorange
# batching (min_sample_ms=0 pins one sweep per timed sample), and two
# samples per round — with the runner's interleaved rounds that pools
# enough structural-checked passes for a stable min without pedantic-
# style single-shot noise.
@benchmark("serve.offered_load_sweep", suite="serve",
           description="trace replay across fleets and load factors",
           warmup=0, repeats=2, min_sample_ms=0.0)
def offered_load_factory(fast: bool) -> Workload:
    if fast:
        num_requests, chip_counts, load_factors = 150, (1, 2), (0.5, 1.3)
    else:
        num_requests, chip_counts, load_factors = 500, CHIP_COUNTS, LOAD_FACTORS
    cells = len(chip_counts) * len(load_factors)
    served: Dict[str, float] = {}

    def fn():
        rows = run_sweep(num_requests, chip_counts=chip_counts,
                         load_factors=load_factors)
        check_structure(rows)
        served["requests_offered"] = float(num_requests * cells)
        served["requests_shed"] = float(sum(r["shed"] for r in rows))
        served["sweep_cells"] = float(cells)
        return rows

    return Workload(fn=fn, items=float(num_requests * cells),
                    unit="requests", counters=lambda: dict(served))


def synthetic_search_payload(model: str = "resnet18") -> Dict:
    """A two-point ``repro-search-result`` payload with honest metrics.

    The front holds two uniform designs measured by the simulator in the
    factory (untimed): large epitomes (more crossbars, lower latency,
    higher energy) and small ones (the reverse) — so ``latency-opt`` and
    ``energy-opt`` select distinct points without paying for a search
    inside a benchmark.
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


def check_ab_structure(rows: Sequence[Dict]) -> None:
    """What the A/B exists to show: under identical offered load the
    latency-opt fleet wins the tail, the energy-opt fleet wins the bill."""
    by_rate: Dict[float, Dict[str, Dict]] = {}
    for row in rows:
        by_rate.setdefault(row["offered_fps"], {})[row["point"]] = row
    for cell in by_rate.values():
        lat, en = cell["latency-opt"], cell["energy-opt"]
        assert lat["p99_ms"] < en["p99_ms"]
        assert lat["energy_per_request_mj"] > en["energy_per_request_mj"]


@benchmark("serve.ab_operating_points", suite="serve",
           description="A/B two search operating points under "
                       "identical load",
           warmup=0, repeats=2, min_sample_ms=0.0)
def ab_operating_points_factory(fast: bool) -> Workload:
    num_requests = 150 if fast else 400
    payload = synthetic_search_payload()
    engines = {policy: engine_from_search(payload, policy=policy)
               for policy in ("latency-opt", "energy-opt")}
    served: Dict[str, float] = {}
    cells = 2 * len(engines)            # load factors x fleets

    def fn():
        rows = ab_offered_load_sweep(engines, num_requests=num_requests,
                                     seed=29)
        check_ab_structure(rows)
        served["requests_offered"] = float(num_requests * cells)
        served["requests_shed"] = float(sum(r["shed"] for r in rows))
        return rows

    return Workload(fn=fn, items=float(num_requests * cells),
                    unit="requests", counters=lambda: dict(served))


# The engine's fault-aware path must be free when nothing fails: a run
# with an (empty) fault plan over a scenario-generated trace may cost at
# most this much more than the plain-Poisson fast path.
SCENARIO_OVERHEAD_BUDGET_PCT = 5.0

_SCENARIO_CHIP_COUNTS = (1, 2)
_SCENARIO_LOAD_FACTORS = (0.5, 1.3)


def measure_scenario_overhead(num_requests: int,
                              passes: int) -> Dict[str, float]:
    """Min-of-``passes`` serve time: plain Poisson trace on the fast path
    vs a steady-poisson scenario trace through the fault-aware path
    (empty :class:`~repro.serve.FaultPlan`, so no event ever fires).

    Both traces are pregenerated outside the timed region — the claim
    under test is the replay loop's fault bookkeeping, not trace
    synthesis — and the steady scenario matches the plain trace's
    arrival statistics, so the ratio isolates the fault machinery.
    Same timing discipline as ``obs.overhead``: one timed region per
    (pass, mode) across all cells, modes interleaved, min per mode,
    GC out of the timed region.

    Both modes pin ``engine="scalar"``: the claim is about the *scalar
    loop's* fault bookkeeping, and under ``auto`` the plain side would
    run the vectorized engine while the fault-armed side fell back to
    scalar — a cross-engine ratio, not an overhead measurement.
    """
    steady = get_scenario("steady-poisson")
    jobs = []
    for chips in _SCENARIO_CHIP_COUNTS:
        engine = build_engine(chips)
        for factor in _SCENARIO_LOAD_FACTORS:
            offered = factor * engine.plan.throughput_fps
            jobs.append((engine,
                         synthetic_trace(num_requests, rate_rps=offered,
                                         seed=17),
                         steady.to_trace(num_requests, rate_rps=offered,
                                         seed=17)))
    empty_plan = FaultPlan([])

    def sweep_plain() -> float:
        t0 = time.perf_counter()
        for engine, plain, _ in jobs:
            with use_metrics(MetricsRegistry()):
                engine.serve(plain, engine="scalar")
        return time.perf_counter() - t0

    def sweep_scenario() -> float:
        t0 = time.perf_counter()
        for engine, _, scenario_trace in jobs:
            with use_metrics(MetricsRegistry()):
                engine.serve(scenario_trace, faults=empty_plan,
                             engine="scalar")
        return time.perf_counter() - t0

    sweep_plain()
    sweep_scenario()
    plain_s = scenario_s = float("inf")
    gc.collect()
    gc.disable()
    try:
        for _ in range(passes):
            plain_s = min(plain_s, sweep_plain())
            scenario_s = min(scenario_s, sweep_scenario())
    finally:
        gc.enable()
    overhead_pct = (scenario_s / plain_s - 1.0) * 100.0
    return {"plain_s": plain_s, "scenario_s": scenario_s,
            "overhead_pct": overhead_pct}


@benchmark("serve.scenario_replay", suite="serve",
           description="scenario-trace replay through the fault-aware "
                       "path vs plain Poisson",
           warmup=0, repeats=2, min_sample_ms=0.0)
def scenario_replay_factory(fast: bool) -> Workload:
    num_requests = 150 if fast else 400
    passes = 25 if fast else 15
    cells = len(_SCENARIO_CHIP_COUNTS) * len(_SCENARIO_LOAD_FACTORS)
    measured: Dict[str, float] = {}

    def fn():
        # Retry discipline as in serve.overload_resilience: a noise
        # epoch can inflate one whole measurement past the budget, so
        # gate on the best of up to three attempts — a real regression
        # inflates all of them alike.
        result = measure_scenario_overhead(num_requests, passes)
        for _attempt in range(2):
            if result["overhead_pct"] < SCENARIO_OVERHEAD_BUDGET_PCT:
                break
            retry = measure_scenario_overhead(num_requests, passes)
            if retry["overhead_pct"] < result["overhead_pct"]:
                result = retry
        assert result["overhead_pct"] < SCENARIO_OVERHEAD_BUDGET_PCT, (
            f"fault-free scenario replay costs "
            f"{result['overhead_pct']:.2f}% over plain Poisson — budget "
            f"is {SCENARIO_OVERHEAD_BUDGET_PCT}% (plain "
            f"{result['plain_s'] * 1e3:.2f} ms, scenario "
            f"{result['scenario_s'] * 1e3:.2f} ms)")
        measured.update(result)
        return result

    # Each timed call replays every cell twice (plain + scenario) per pass.
    return Workload(fn=fn, items=float(num_requests * cells * 2 * passes),
                    unit="requests", counters=lambda: dict(measured))


# Arming the resilience runtime (admission controller, retry budget,
# breakers, brownout tracker — docs/resilience.md) must be close to free
# when the fleet is healthy: same traces, at most this much slower.
RESILIENCE_OVERHEAD_BUDGET_PCT = 5.0

# Below the CoDel delay target and the token-bucket rate, so the armed
# run admits everything and both modes complete identical work — the
# ratio then isolates the resilience bookkeeping, not shed traffic.
_RESILIENCE_LOAD_FACTORS = (0.5, 0.9)


def measure_resilience_overhead(num_requests: int,
                                passes: int) -> Dict[str, float]:
    """Armed-vs-disarmed overhead as the median of paired ABBA ratios.

    An untimed verification pass first asserts both modes complete the
    same request count on every cell (loads sit under the admission
    controller's shed threshold), so the armed replay cannot "win" by
    quietly doing less work.

    Each sample replays one cell plain-armed-armed-plain back to back
    and takes ``armed / plain`` within that window, so slow machine
    drift (frequency scaling, noisy-neighbor stalls spanning the whole
    window) cancels out of the ratio; the median across ``passes`` x
    cells samples rejects the one-sided spikes that land inside a
    single replay.  Min-of-sweeps — the ``measure_scenario_overhead``
    discipline — is unstable here: the two modes' minima come from
    *different* fast windows, which on a shared machine swings the
    ratio by more than the whole budget.

    Both modes pin ``engine="scalar"`` for the same reason the scenario
    gate does: arming resilience blocks vectorization, so under ``auto``
    the ratio would compare engines instead of the arming cost.
    """
    armed = ResilienceConfig(seed=0)
    jobs = []
    for chips in _SCENARIO_CHIP_COUNTS:
        engine = build_engine(chips)
        for factor in _RESILIENCE_LOAD_FACTORS:
            offered = factor * engine.plan.throughput_fps
            jobs.append((engine,
                         synthetic_trace(num_requests, rate_rps=offered,
                                         seed=31)))
    for engine, trace in jobs:
        with use_metrics(MetricsRegistry()):
            plain = engine.serve(trace, engine="scalar")
        with use_metrics(MetricsRegistry()):
            resilient = engine.serve(trace, resilience=armed)
        assert plain.num_completed == resilient.num_completed, (
            f"armed run completed {resilient.num_completed} of "
            f"{plain.num_completed} — overhead ratio would compare "
            "different work")

    def replay(engine, trace, config) -> None:
        with use_metrics(MetricsRegistry()):
            engine.serve(trace, resilience=config, engine="scalar")

    ratios = []
    plain_s = armed_s = 0.0
    gc.collect()
    gc.disable()
    try:
        for _ in range(passes):
            for engine, trace in jobs:
                t0 = time.perf_counter()
                replay(engine, trace, None)
                t1 = time.perf_counter()
                replay(engine, trace, armed)
                t2 = time.perf_counter()
                replay(engine, trace, armed)
                t3 = time.perf_counter()
                replay(engine, trace, None)
                t4 = time.perf_counter()
                plain_pair = (t1 - t0) + (t4 - t3)
                armed_pair = t3 - t1
                ratios.append(armed_pair / plain_pair)
                plain_s += plain_pair
                armed_s += armed_pair
    finally:
        gc.enable()
    ratios.sort()
    mid = len(ratios) // 2
    median = (ratios[mid] if len(ratios) % 2
              else 0.5 * (ratios[mid - 1] + ratios[mid]))
    return {"plain_s": plain_s, "armed_s": armed_s,
            "overhead_pct": (median - 1.0) * 100.0}


@benchmark("serve.overload_resilience", suite="serve",
           description="resilience-armed replay (admission, retry budget, "
                       "breakers, brownout) vs disarmed",
           warmup=0, repeats=2, min_sample_ms=0.0)
def overload_resilience_factory(fast: bool) -> Workload:
    # Longer traces than the scenario benchmark: the armed runtime has
    # small per-run constants (controller construction, 15-metric
    # publication) that a 150-request replay would overweight.
    num_requests = 600
    passes = 6 if fast else 10
    cells = len(_SCENARIO_CHIP_COUNTS) * len(_RESILIENCE_LOAD_FACTORS)
    measured: Dict[str, float] = {}

    def fn():
        # A noise epoch (frequency scaling, a noisy neighbor pinning the
        # core for seconds) inflates every ABBA block inside one
        # measurement, so even the median can't reject it — but epochs
        # rarely straddle three separate measurements.  Gate on the best
        # attempt: it is the least-contaminated estimate of the true
        # ratio, and a real regression inflates all three alike.
        result = measure_resilience_overhead(num_requests, passes)
        for _attempt in range(2):
            if result["overhead_pct"] < RESILIENCE_OVERHEAD_BUDGET_PCT:
                break
            retry = measure_resilience_overhead(num_requests, passes)
            if retry["overhead_pct"] < result["overhead_pct"]:
                result = retry
        assert result["overhead_pct"] < RESILIENCE_OVERHEAD_BUDGET_PCT, (
            f"arming resilience costs {result['overhead_pct']:.2f}% over "
            f"a disarmed replay — budget is "
            f"{RESILIENCE_OVERHEAD_BUDGET_PCT}% (plain "
            f"{result['plain_s'] * 1e3:.2f} ms, armed "
            f"{result['armed_s'] * 1e3:.2f} ms)")
        measured.update(result)
        return result

    # Each timed ABBA block replays its cell four times (2 per mode).
    return Workload(fn=fn, items=float(num_requests * cells * 4 * passes),
                    unit="requests", counters=lambda: dict(measured))


# The vectorized engine's reason to exist: replaying the same trace as
# whole-trace array passes must beat the scalar event loop by at least
# this factor (paired min-of-passes; docs/vectorized-replay.md).
VECTORIZED_SPEEDUP_FLOOR = 10.0

# Headline web-scale budget: a million-request day must replay in
# seconds, not hours.  Scaled to the replayed count, so the fast-mode
# 200k-request replay CI runs is gated too.
TRACE_REPLAY_1M_BUDGET_S = 30.0


def measure_engine_speedup(num_requests: int,
                           passes: int) -> Dict[str, float]:
    """Paired min-of-``passes`` replay of one diurnal trace: the scalar
    event loop vs the vectorized engine, same deployment, same floats.

    An untimed pass first asserts the two engines produce an *identical*
    ``summary()`` dict (the differential harness's contract), so the
    speedup cannot come from doing different work.  The object trace for
    the scalar engine and the column trace for the vectorized one are
    both pregenerated — the claim is replay cost, not trace synthesis.

    The operating point is a web-scale one: a deep bounded queue
    (8192) absorbing diurnal peaks at 0.9x capacity, so the queue
    actually fills during overload phases.  Both engines replay the
    exact same process there — the scalar scheduler pays O(log n) heap
    maintenance per event while the vectorized pass keeps a head
    pointer, which is precisely the cost the array engine exists to
    delete.
    """
    engine = build_engine(2, queue_depth=8192)
    rate = 0.9 * engine.plan.throughput_fps
    arrays = get_scenario("diurnal").to_trace_arrays(
        num_requests, rate_rps=rate, seed=11)
    objects = arrays.materialize()
    with use_metrics(MetricsRegistry()):
        scalar_summary = engine.serve(objects, engine="scalar").summary()
    with use_metrics(MetricsRegistry()):
        vec_summary = engine.serve(arrays, engine="vectorized").summary()
    assert scalar_summary == vec_summary, (
        "scalar and vectorized summaries differ — a speedup over "
        "different work is meaningless (run the equivalence harness)")

    scalar_s = vectorized_s = float("inf")
    gc.collect()
    gc.disable()
    try:
        for _ in range(passes):
            t0 = time.perf_counter()
            with use_metrics(MetricsRegistry()):
                engine.serve(objects, engine="scalar")
            scalar_s = min(scalar_s, time.perf_counter() - t0)
            t0 = time.perf_counter()
            with use_metrics(MetricsRegistry()):
                engine.serve(arrays, engine="vectorized")
            vectorized_s = min(vectorized_s, time.perf_counter() - t0)
    finally:
        gc.enable()
    return {"scalar_s": scalar_s, "vectorized_s": vectorized_s,
            "speedup": scalar_s / vectorized_s}


@benchmark("serve.trace_replay_100k", suite="serve",
           description="paired scalar-vs-vectorized replay of one "
                       "diurnal trace",
           warmup=0, repeats=2, min_sample_ms=0.0)
def trace_replay_100k_factory(fast: bool) -> Workload:
    num_requests = 20_000 if fast else 100_000
    passes = 3 if fast else 2
    measured: Dict[str, float] = {}

    def fn():
        # Best-of-three retry as in the overhead gates: one noisy epoch
        # can depress the vectorized minimum; a real regression drags
        # every attempt under the floor alike.
        result = measure_engine_speedup(num_requests, passes)
        for _attempt in range(2):
            if result["speedup"] >= VECTORIZED_SPEEDUP_FLOOR:
                break
            retry = measure_engine_speedup(num_requests, passes)
            if retry["speedup"] > result["speedup"]:
                result = retry
        assert result["speedup"] >= VECTORIZED_SPEEDUP_FLOOR, (
            f"vectorized replay is only {result['speedup']:.1f}x the "
            f"scalar loop — floor is {VECTORIZED_SPEEDUP_FLOOR:g}x "
            f"(scalar {result['scalar_s']:.3f} s, vectorized "
            f"{result['vectorized_s']:.3f} s on {num_requests} requests)")
        measured.update(result)
        measured["requests_replayed"] = float(num_requests)
        return result

    # Each timed call replays the trace `passes` times per engine, plus
    # the untimed equivalence pass per engine.
    return Workload(fn=fn, items=float(num_requests * 2 * (passes + 1)),
                    unit="requests", counters=lambda: dict(measured))


@benchmark("serve.trace_replay_1m", suite="serve",
           description="million-request diurnal day through the "
                       "vectorized engine",
           warmup=0, repeats=2, min_sample_ms=0.0)
def trace_replay_1m_factory(fast: bool) -> Workload:
    num_requests = 200_000 if fast else 1_000_000
    budget_s = TRACE_REPLAY_1M_BUDGET_S * num_requests / 1_000_000
    engine = build_engine(2)
    rate = 0.7 * engine.plan.throughput_fps
    arrays = get_scenario("diurnal").to_trace_arrays(
        num_requests, rate_rps=rate, seed=3)
    replayed: Dict[str, float] = {}

    def fn():
        t0 = time.perf_counter()
        with use_metrics(MetricsRegistry()):
            telemetry = engine.serve(arrays, engine="vectorized")
        elapsed = time.perf_counter() - t0
        offered = telemetry.num_completed + telemetry.num_rejected
        assert offered == num_requests, (
            f"replay accounted for {offered} of {num_requests} requests")
        assert elapsed < budget_s, (
            f"{num_requests}-request replay took {elapsed:.1f} s — budget "
            f"is {budget_s:g} s")
        replayed["requests_completed"] = float(telemetry.num_completed)
        replayed["requests_shed"] = float(telemetry.num_rejected)
        replayed["batches_dispatched"] = float(telemetry.num_batches)
        replayed["replay_s"] = elapsed
        replayed["budget_s"] = budget_s
        return telemetry.num_completed

    return Workload(fn=fn, items=float(num_requests), unit="requests",
                    counters=lambda: dict(replayed))


@benchmark("serve.scheduler_deep_queue", suite="serve",
           description="micro-batcher at full queue depth "
                       "(load-shedding regime)")
def scheduler_deep_queue_factory(fast: bool) -> Workload:
    """Submit/poll/drain a deep bounded queue — the regime the engine hits
    past saturation, where every event touches the window anchor.  The
    scheduler must stay O(log n) per event here; the list-backed version
    was quadratic over the trace."""
    num_requests = 2_000 if fast else 20_000
    requests = synthetic_trace(num_requests, rate_rps=100_000.0, seed=23,
                               priority_levels=4)
    config = SchedulerConfig(max_batch_size=8, window_ms=2.0,
                             queue_depth=num_requests, policy="priority")
    drained: Dict[str, float] = {}

    def fn():
        scheduler = MicroBatchScheduler(config)
        for request in requests:
            scheduler.submit(request)
            scheduler.next_timeout_ms()     # the engine's per-event poll
        done = 0
        drain_at = requests[-1].arrival_ms + config.window_ms
        while len(scheduler):
            done += scheduler.next_batch(drain_at).size
            scheduler.next_timeout_ms()
        assert done == num_requests
        drained["requests_drained"] = float(done)
        return done

    return Workload(fn=fn, items=float(num_requests), unit="requests",
                    counters=lambda: dict(drained))
