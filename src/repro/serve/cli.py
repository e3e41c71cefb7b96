"""``python -m repro serve`` — replay a request trace against a deployment.

Examples::

    # 500-request synthetic trace on 2 chips against an epitome ResNet-18
    python -m repro serve

    # explicit manifest + recorded trace
    python -m repro serve --manifest deploy.json --requests trace.json

    # export the servable manifest for later replay
    python -m repro serve --model resnet50 --export-manifest deploy.json

    # deploy a searched operating point (docs/search-to-serve.md)
    python -m repro search --model resnet18 --objective pareto \
        --json result.json
    python -m repro serve --from-search result.json --policy latency-opt

    # A/B two operating points under identical offered load
    python -m repro serve --from-search result.json \
        --policy latency-opt --ab-policy energy-opt

With no ``--requests`` file a Poisson trace is generated; its rate
defaults to 70% of the shard plan's aggregate throughput so the default
run shows a loaded-but-stable system.  ``--json`` emits the telemetry
summary (or the A/B sweep rows) as machine-readable JSON after the
report.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..core.designer import build_deployments, uniform_assignment
from ..core.export import export_deployments, write_manifest
from ..models.specs import get_network_spec
from ..obs.metrics import MetricsRegistry
from ..obs.runtime import use_metrics, use_tracer
from ..obs.slo import DEFAULT_AVAILABILITY, SLO
from ..obs.tracer import NullTracer, Tracer
from ..pim.config import DEFAULT_CONFIG
from ..pim.simulator import sim_counters
from ..search.pareto import SELECTION_POLICIES
from .deploy import (
    AB_LOAD_FACTORS,
    ab_offered_load_sweep,
    engine_from_search,
    load_search_result,
    render_ab,
)
from .engine import ServingConfig, ServingEngine
from .scenarios import get_scenario, parse_faults, scenario_table
from .scheduler import SchedulerConfig
from .trace import load_trace, save_trace, synthetic_trace_arrays

__all__ = ["add_serve_parser", "run_serve"]

MODEL_CHOICES = ["resnet18", "resnet34", "resnet50", "resnet101", "vgg16"]
POLICY_CHOICES = list(SELECTION_POLICIES)
DEFAULT_NUM_CHIPS = 2


def add_serve_parser(subparsers) -> argparse.ArgumentParser:
    """Register the ``serve`` subcommand on an existing subparser set."""
    p = subparsers.add_parser(
        "serve", help="replay a request trace against a deployed network")
    serve_sub = p.add_subparsers(dest="serve_command",
                                 metavar="{scenarios,chaos}")
    scenarios = serve_sub.add_parser(
        "scenarios", help="inspect the load-scenario registry")
    scenarios_sub = scenarios.add_subparsers(dest="scenarios_command",
                                             required=True)
    scenarios_sub.add_parser("list",
                             help="list registered load scenarios")
    chaos = serve_sub.add_parser(
        "chaos", help="seeded chaos drill: replay a composed scenario x "
                      "fault plan against resilience-on and -off fleets "
                      "(docs/resilience.md)")
    chaos.add_argument("--seed", type=int, action="append",
                       dest="chaos_seeds", metavar="N",
                       help="drill seed (repeatable; default: 3 and 7)")
    chaos.add_argument("--num-requests", type=int, default=500,
                       dest="chaos_num_requests",
                       help="requests per drill trace")
    chaos.add_argument("--num-chips", type=int, default=None,
                       dest="chaos_num_chips",
                       help="fleet size (default: derived for 2 replica "
                            "groups of the primary point)")
    chaos.add_argument("--availability-floor", type=float, default=0.25,
                       metavar="FRAC",
                       help="minimum availability the resilience-on fleet "
                            "must hold on every seed")
    chaos.add_argument("--json", action="store_true", dest="chaos_json",
                       help="also print the drill rows as JSON (stable "
                            "key order; byte-identical per seed)")
    src = p.add_argument_group("deployment source")
    src.add_argument("--manifest", default=None,
                     help="format-2 deployment manifest JSON to serve")
    src.add_argument("--from-search", default=None, metavar="RESULT",
                     help="deploy an operating point of a `repro search "
                          "--json` result (winner or Pareto front)")
    src.add_argument("--policy", default="knee", choices=POLICY_CHOICES,
                     help="operating-point selection off the search "
                          "result's front (with --from-search)")
    src.add_argument("--point-index", type=int, default=None, metavar="I",
                     help="explicit front index (with --policy index)")
    src.add_argument("--ab-policy", default=None, choices=POLICY_CHOICES,
                     metavar="POLICY",
                     help="A/B mode: also deploy this second policy and "
                          "sweep both fleets under identical offered load")
    src.add_argument("--model", default="resnet18", choices=MODEL_CHOICES,
                     help="network spec to compile when no manifest given")
    src.add_argument("--baseline", action="store_true",
                     help="deploy plain convolutions (no epitomes)")
    src.add_argument("--weight-bits", type=int, default=9,
                     help="deployment weight precision (designer path)")
    src.add_argument("--export-manifest", default=None, metavar="PATH",
                     help="write the compiled deployment manifest and use it")

    fleet = p.add_argument_group("fleet")
    fleet.add_argument("--num-chips", type=int, default=None,
                       help="simulated chips to provision (default: 2, or "
                            "derived from the assignment's crossbar demand "
                            "with --from-search)")
    fleet.add_argument("--mode", default="auto",
                       choices=["auto", "replica", "layer"],
                       help="sharding mode across chips")
    fleet.add_argument("--engine", default="auto",
                       choices=["auto", "scalar", "vectorized"],
                       help="replay engine: the scalar event loop, the "
                            "whole-trace vectorized engine, or auto "
                            "(vectorized unless faults/resilience/non-FIFO "
                            "need the scalar loop — "
                            "docs/vectorized-replay.md)")

    sched = p.add_argument_group("scheduler")
    sched.add_argument("--max-batch", type=int, default=8,
                       help="micro-batch size cap")
    sched.add_argument("--window-ms", type=float, default=2.0,
                       help="batching window (ms)")
    sched.add_argument("--queue-depth", type=int, default=256,
                       help="bounded queue capacity")
    sched.add_argument("--sched-policy", default="fifo",
                       choices=["fifo", "priority"],
                       help="batch formation order")

    load = p.add_argument_group("workload")
    load.add_argument("--requests", default=None,
                      help="trace JSON to replay (see repro.serve.trace)")
    load.add_argument("--num-requests", type=int, default=500,
                      help="synthetic trace length")
    load.add_argument("--rate-fps", type=float, default=None,
                      help="synthetic offered load (default: 0.7x capacity)")
    load.add_argument("--priority-levels", type=int, default=1,
                      help="synthetic priority classes "
                           "(with --sched-policy priority)")
    load.add_argument("--seed", type=int, default=0,
                      help="synthetic trace RNG seed")
    load.add_argument("--scenario", default=None, metavar="NAME",
                      help="generate the trace from a registered load "
                           "scenario (see `repro serve scenarios list`)")
    load.add_argument("--faults", default=None, metavar="SPEC",
                      help="inject timed faults, e.g. 'chip-kill@t=0.5' "
                           "or 'straggler@t=0.2:chip=1:factor=3' "
                           "(grammar: docs/scenarios.md)")
    load.add_argument("--save-trace", default=None, metavar="PATH",
                      help="write the (synthetic) trace before replaying")

    res = p.add_argument_group("resilience")
    res.add_argument("--resilience", action="store_true",
                     help="arm adaptive admission control, failover retry "
                          "budgets, circuit breakers and brownout "
                          "(docs/resilience.md)")
    res.add_argument("--resilience-seed", type=int, default=0, metavar="N",
                     help="retry-jitter seed for the resilience runtime")
    res.add_argument("--brownout-policy", default=None,
                     choices=POLICY_CHOICES, metavar="POLICY",
                     help="derive the brownout degraded operating point "
                          "from this second front policy (needs "
                          "--from-search and --resilience; without it "
                          "brownout uses the policy fallback scales)")

    obs = p.add_argument_group("observability")
    obs.add_argument("--trace-out", default=None, metavar="PATH",
                     help="write request/batch spans: .json = Chrome "
                          "trace-event (Perfetto-loadable), .jsonl = one "
                          "span per line")
    obs.add_argument("--metrics-out", default=None, metavar="PATH",
                     help="export the run's metrics registry: .prom/.txt "
                          "= Prometheus text, .jsonl = JSON lines")
    obs.add_argument("--slo-p99-ms", type=float, default=None,
                     metavar="MS",
                     help="p99 latency SLO target (default: 5x the "
                          "deployment's fill latency + batching window)")
    obs.add_argument("--slo-availability", type=float, default=None,
                     metavar="FRAC",
                     help="availability SLO target "
                          f"(default: {DEFAULT_AVAILABILITY})")

    p.add_argument("--json", action="store_true",
                   help="also print the telemetry summary as JSON")
    return p


def _default_slo(args, engines) -> SLO:
    """The SLO a run is judged against when flags don't pin one.

    The derived p99 target is ``5 x (fill latency + batching window)`` of
    the *slowest* fleet — generous enough that a healthy, <=70%-loaded
    deployment attains it, tight enough that saturation or queue collapse
    shows up as a miss.  Explicit ``--slo-p99-ms``/``--slo-availability``
    override either half independently.
    """
    p99 = args.slo_p99_ms
    if p99 is None:
        p99 = 5.0 * max(engine.plan.per_image_latency_ms
                        + engine.config.scheduler.window_ms
                        for engine in engines)
    availability = (args.slo_availability
                    if args.slo_availability is not None
                    else DEFAULT_AVAILABILITY)
    return SLO(p99_ms=p99, availability=availability, name="serve")


def _write_obs_artifacts(args, tracer: Tracer,
                         registry: MetricsRegistry) -> None:
    """Write ``--trace-out`` / ``--metrics-out`` after a run."""
    if args.metrics_out is not None:
        sim_counters().publish(registry)
        from ..obs.export import write_metrics

        write_metrics(registry, args.metrics_out)
        print(f"wrote metrics -> {args.metrics_out}")
    if args.trace_out is not None:
        if args.trace_out.endswith(".jsonl"):
            tracer.write_jsonl(args.trace_out)
        else:
            tracer.write_chrome_trace(args.trace_out)
        print(f"wrote trace ({len(tracer)} spans) -> {args.trace_out}")


def _scheduler_config(args) -> SchedulerConfig:
    return SchedulerConfig(
        max_batch_size=args.max_batch,
        window_ms=args.window_ms,
        queue_depth=args.queue_depth,
        policy=args.sched_policy,
    )


def _resilience_config(args):
    from .resilience import ResilienceConfig

    if not args.resilience:
        return None
    return ResilienceConfig(seed=args.resilience_seed)


def _build_engine(args, resilience=None) -> ServingEngine:
    if args.from_search is not None:
        result = load_search_result(args.from_search)
        engine = engine_from_search(
            result, policy=args.policy, index=args.point_index,
            num_chips=args.num_chips, mode=args.mode,
            scheduler=_scheduler_config(args),
            resilience=resilience,
            brownout_policy=args.brownout_policy,
            engine=args.engine)
        if args.export_manifest is not None:
            # engine_from_search already compiled this manifest; write
            # the retained copy rather than recompiling the deployment.
            write_manifest(engine.deployment_manifest, args.export_manifest)
            print(f"wrote deployment manifest -> {args.export_manifest}")
        return engine
    serving = ServingConfig(
        num_chips=(args.num_chips if args.num_chips is not None
                   else DEFAULT_NUM_CHIPS),
        mode=args.mode,
        scheduler=_scheduler_config(args),
        resilience=resilience,
        engine=args.engine)
    if args.manifest is not None:
        return ServingEngine.from_manifest(args.manifest, serving)

    # Designer path: compile the spec into a deployment manifest, then
    # serve *from the manifest* — every run exercises the same artifact a
    # production hand-off would replay.
    spec = get_network_spec(args.model)
    assignment = None if args.baseline else uniform_assignment(spec)
    deployments = build_deployments(
        spec, assignment, weight_bits=args.weight_bits,
        activation_bits=9, use_wrapping=not args.baseline,
        config=DEFAULT_CONFIG)
    manifest = export_deployments(deployments, DEFAULT_CONFIG,
                                  name=args.model)
    if args.export_manifest is not None:
        write_manifest(manifest, args.export_manifest)
        print(f"wrote deployment manifest -> {args.export_manifest}")
    return ServingEngine.from_manifest(manifest, serving)


def run_serve(args) -> int:
    try:
        return _run_serve(args)
    except (TimeoutError, BrokenPipeError):
        # OSErrors, but neither a stuck run nor a reader that closed the
        # pipe is bad input; repro.analysis.cli.main handles the latter.
        raise
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run_ab(args, fault_plan=None, resilience=None) -> int:
    """A/B mode: two operating points of one search result, swept under
    identical offered load (see repro.serve.deploy.ab_offered_load_sweep)."""
    result = load_search_result(args.from_search)
    engines = {
        policy: engine_from_search(
            result, policy=policy, index=args.point_index,
            num_chips=args.num_chips, mode=args.mode,
            scheduler=_scheduler_config(args),
            engine=args.engine)
        for policy in (args.policy, args.ab_policy)}
    for policy, engine in engines.items():
        print(f"[{policy}]")
        print(engine.describe())
        print()
    trace = None
    if args.requests is not None:
        trace = load_trace(args.requests)
        print(f"replaying {len(trace)} recorded requests "
              f"from {args.requests} against both fleets")
        print()
    slo = _default_slo(args, engines.values())
    tracer = Tracer() if args.trace_out is not None else NullTracer()
    registry = MetricsRegistry()
    with use_tracer(tracer), use_metrics(registry):
        rows = ab_offered_load_sweep(engines,
                                     num_requests=args.num_requests,
                                     load_factors=AB_LOAD_FACTORS,
                                     seed=args.seed, rate_fps=args.rate_fps,
                                     trace=trace,
                                     priority_levels=args.priority_levels,
                                     slo=slo,
                                     scenario=args.scenario,
                                     faults=fault_plan,
                                     resilience=resilience)
    print(render_ab(rows, title=f"A/B {args.policy} vs {args.ab_policy} — "
                                f"{result.model}"))
    _write_obs_artifacts(args, tracer, registry)
    if args.json:
        print()
        print(json.dumps(rows, indent=2))
    return 0


def _run_chaos_cli(args) -> int:
    """``serve chaos``: seeded drills against resilience-on/-off fleets."""
    # Imported lazily: the harness pulls in the search bench builder,
    # which plain trace-replay runs never need.
    from .resilience.chaos import chaos_json, render_chaos, run_chaos

    seeds = args.chaos_seeds if args.chaos_seeds else [3, 7]
    rows, problems = run_chaos(seeds,
                               num_requests=args.chaos_num_requests,
                               num_chips=args.chaos_num_chips,
                               availability_floor=args.availability_floor)
    print(render_chaos(rows))
    for problem in problems:
        print(f"INVARIANT VIOLATED: {problem}", file=sys.stderr)
    if args.chaos_json:
        print()
        print(chaos_json(rows, problems))
    return 1 if problems else 0


def _run_serve(args) -> int:
    if getattr(args, "serve_command", None) == "scenarios":
        print(scenario_table())
        return 0
    if getattr(args, "serve_command", None) == "chaos":
        return _run_chaos_cli(args)
    if args.from_search is not None and args.manifest is not None:
        raise ValueError("--from-search and --manifest are both deployment "
                         "sources; pass exactly one")
    if args.scenario is not None and args.requests is not None:
        raise ValueError("--scenario generates a synthetic trace and "
                         "--requests replays a recorded one; pass exactly "
                         "one workload source")
    # Parse the fault spec and the resilience config before compiling
    # anything — a typo should fail in milliseconds, not after a
    # deployment build.
    fault_plan = (parse_faults(args.faults)
                  if args.faults is not None else None)
    resilience = _resilience_config(args)
    if args.brownout_policy is not None:
        if args.from_search is None:
            raise ValueError("--brownout-policy selects a degraded point "
                             "off a search front; it needs --from-search")
        if not args.resilience:
            raise ValueError("--brownout-policy is a resilience feature; "
                             "also pass --resilience to arm the runtime")
        if args.ab_policy is not None:
            raise ValueError("--brownout-policy is ambiguous in A/B mode "
                             "(two primary points); run a single-fleet "
                             "--from-search deployment")
    if args.ab_policy is not None:
        if args.from_search is None:
            raise ValueError("--ab-policy needs --from-search "
                             "(two operating points of one search result)")
        if args.ab_policy == args.policy:
            raise ValueError(
                f"--policy and --ab-policy are both {args.policy!r}; "
                "pick two different policies to A/B")
        if args.save_trace is not None:
            raise ValueError("--save-trace is not supported in A/B mode "
                             "(the sweep replays one trace per load "
                             "factor); record one with a single-fleet run")
        if args.export_manifest is not None:
            raise ValueError("--export-manifest is ambiguous in A/B mode "
                             "(two operating points); export from a "
                             "single-fleet --from-search run")
        return _run_ab(args, fault_plan=fault_plan, resilience=resilience)
    engine = _build_engine(args, resilience=resilience)
    print(engine.describe())
    print()

    if args.requests is not None:
        trace = load_trace(args.requests)
        print(f"replaying {len(trace)} recorded requests "
              f"from {args.requests}")
    else:
        rate = args.rate_fps
        if rate is None:
            rate = 0.7 * engine.plan.throughput_fps
        # Generated as columns: the vectorized engine replays them as
        # they are, and the scalar loop materializes them itself.
        if args.scenario is not None:
            scenario = get_scenario(args.scenario)
            trace = scenario.to_trace_arrays(args.num_requests,
                                             rate_rps=rate, seed=args.seed)
            print(f"scenario {scenario.name!r}: {len(trace)} requests at "
                  f"{rate:.1f} req/s mean offered "
                  f"({scenario.description})")
        else:
            trace = synthetic_trace_arrays(
                args.num_requests, rate_rps=rate, seed=args.seed,
                priority_levels=args.priority_levels)
            print(f"synthetic trace: {len(trace)} requests at "
                  f"{rate:.1f} req/s offered")
        if args.save_trace is not None:
            save_trace(trace.materialize(), args.save_trace)
            print(f"wrote trace -> {args.save_trace}")
    if fault_plan is not None:
        print(f"fault plan: {fault_plan.describe()}")
    print()

    slo = _default_slo(args, [engine])
    tracer = Tracer() if args.trace_out is not None else NullTracer()
    registry = MetricsRegistry()
    with use_tracer(tracer), use_metrics(registry):
        telemetry = engine.serve(trace, faults=fault_plan)
    used = f"replay engine: {engine.last_engine}"
    if engine.engine_fallback_reason:
        used += f" (auto fell back to scalar: {engine.engine_fallback_reason})"
    print(used)
    print()
    print(telemetry.report(slo=slo))
    _write_obs_artifacts(args, tracer, registry)
    if args.json:
        print()
        print(json.dumps(telemetry.summary(slo=slo), indent=2))
    return 0
