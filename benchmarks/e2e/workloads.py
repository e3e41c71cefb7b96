"""The four closed-loop workloads of the end-to-end benchmark.

Each workload is one iteration of a loop a user of this repository runs,
driven through the public API only:

- ``design``: ResNet-50 Pareto search on a cold grid, JSON hand-off,
  two deployments and an A/B offered-load sweep (search dominates);
- ``replay-web``: a 150k-request diurnal trace through the vectorized
  replay engine (serve dominates, search and pim are idle);
- ``replay-armed``: a flash-crowd trace with a chip kill, resilience and
  brownout armed, which forces the scalar event loop;
- ``replay-traced``: a small replay whose spans and metrics are exported
  and validated (the obs exporters dominate).

A workload is a :class:`Workload`: ``setup`` builds what every iteration
reuses, ``iteration`` is the timed work, and ``check`` (untimed) turns the
iteration's outputs into a digest, a list of problems and the per-layer
counts.  Sizes are plain dicts so tests can shrink them.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import repro.analysis.experiments as experiments
import repro.core.export as core_export
import repro.pim.simulator as pim_simulator
import repro.search.grid as search_grid
import repro.serve.deploy as serve_deploy
from repro.analysis.experiments import run_search
from repro.core.export import deployments_from_manifest
from repro.obs import (
    MetricsRegistry,
    Tracer,
    prometheus_text,
    use_metrics,
    use_tracer,
)
from repro.obs.validate import validate_file
from repro.pim.simulator import sim_counters, simulate_network
from repro.search import EvoSearchConfig, GridCache, non_dominated_mask
from repro.search.cli import search_result_payload
from repro.serve import (
    ResilienceConfig,
    SchedulerConfig,
    ServingEngine,
    ab_offered_load_sweep,
    engine_from_search,
    get_scenario,
    load_search_result,
    manifest_from_point,
)

__all__ = ["Outcome", "Workload", "WORKLOADS", "layers_simulated"]

# Public callables the traced phase rebinds, as (owner, attribute, span
# name, stage, span-args function).  Only calls made *inside* the
# library are listed; calls the workloads make themselves get their span
# at the call site.
Wrap = Tuple[object, str, str, str, Optional[Callable]]


def _layer_kind(args) -> Dict[str, str]:
    deployment = args[0]
    kind = ("epitome" if deployment.style == "epitome"
            else deployment.spec.kind)
    return {"kind": kind}


DESIGN_WRAPS: Tuple[Wrap, ...] = (
    (experiments, "build_candidate_grid", "search.build_candidate_grid",
     "search.grid_build", None),
    (experiments, "evolution_search", "search.evolution_search",
     "search.evolve", None),
    (search_grid, "simulate_layer", "pim.simulate_layer", "pim.simulate",
     _layer_kind),
    (pim_simulator, "simulate_layer", "pim.simulate_layer", "pim.simulate",
     _layer_kind),
    (serve_deploy, "simulate_network", "pim.simulate_network",
     "pim.simulate", None),
    (serve_deploy, "build_deployments", "core.build_deployments",
     "core.build_deployments", None),
    (serve_deploy, "export_deployments", "core.export_deployments",
     "core.manifest", None),
    # serve.deploy imports this one at call time from repro.core.export.
    (core_export, "deployments_from_manifest",
     "core.deployments_from_manifest", "core.manifest", None),
    (serve_deploy, "synthetic_trace", "serve.synthetic_trace",
     "serve.trace_gen", None),
    (ServingEngine, "serve", "serve.ServingEngine.serve", "serve.replay",
     None),
)


@dataclass
class Outcome:
    """What ``check`` makes of one iteration's outputs."""

    digest: str
    requests: int                   # requests replayed by the iteration
    problems: List[str] = field(default_factory=list)
    counts: Dict[str, float] = field(default_factory=dict)
    info: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: Dict
    setup: Callable
    iteration: Callable
    check: Callable
    wraps: Tuple[Wrap, ...] = ()


def layers_simulated() -> int:
    return sim_counters().layers


def _json_default(value):
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"cannot digest {type(value).__name__}")


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=_json_default)
    return hashlib.sha256(text.encode()).hexdigest()


def _counter(registry: MetricsRegistry, name: str) -> float:
    metric = registry.get(name)
    return float(metric.value) if metric is not None else 0.0


def _serve_counts(registry: MetricsRegistry) -> Dict[str, float]:
    return {
        "serve.batches": _counter(registry, "serve.engine.batches_dispatched"),
        "serve.requests_rejected": _counter(
            registry, "serve.engine.requests_rejected"),
        "serve.retries": _counter(registry, "serve.faults.retries"),
        "serve.requests_failed": _counter(registry,
                                          "serve.faults.unrecoverable"),
        "serve.admission_shed": _counter(registry,
                                         "serve.resilience.admission_shed"),
    }


def _bottleneck(report) -> Tuple[str, float]:
    """The slowest layer of a deployment and its share (%) of the
    simulated end-to-end latency."""
    slowest = max(report.layers, key=lambda layer: layer.latency_ns)
    total = sum(layer.latency_ns for layer in report.layers)
    return slowest.name, 100.0 * slowest.latency_ns / total


# ----------------------------------------------------------------------
# design: search -> hand-off -> deploy -> A/B
# ----------------------------------------------------------------------

def _design_setup(sizes: Dict, seed: int, tmp: Path) -> Dict:
    return {"sizes": sizes, "tmp": Path(tmp),
            "search": EvoSearchConfig(**sizes["search"])}


def _design_iteration(ctx: Dict, seed: int, span) -> Dict:
    sizes = ctx["sizes"]
    registry = MetricsRegistry()
    grid_dir = tempfile.mkdtemp(dir=ctx["tmp"], prefix="grid-")
    with use_metrics(registry):
        with span("analysis.run_search", "analysis.run_search_self"):
            outcome = run_search(
                sizes["model"], objective="pareto",
                search=replace(ctx["search"], seed=seed),
                grid_cache=GridCache(grid_dir), verbose=False)
        with span("search.handoff", "search.handoff"):
            loaded = load_search_result(json.loads(json.dumps(
                search_result_payload(outcome))))
        engines = {}
        for policy in ("latency-opt", "energy-opt"):
            with span("serve.engine_from_search", "serve.deploy_self"):
                engines[policy] = engine_from_search(loaded, policy=policy)
        with span("serve.ab_offered_load_sweep", "serve.replay"):
            rows = ab_offered_load_sweep(
                engines, num_requests=sizes["num_requests"], seed=seed)
        with span("obs.prometheus_text", "obs.metrics_export"):
            text = prometheus_text(registry)
    return {"outcome": outcome, "loaded": loaded, "engines": engines,
            "rows": rows, "registry": registry, "text": text,
            "grid_dir": grid_dir}


def _design_check(ctx: Dict, raw: Dict) -> Outcome:
    shutil.rmtree(raw["grid_dir"], ignore_errors=True)
    outcome, loaded, rows = raw["outcome"], raw["loaded"], raw["rows"]
    registry = raw["registry"]
    problems = []
    front = [[p.eval.latency_ms, p.eval.energy_mj, p.eval.crossbars]
             for p in outcome.front]
    if not non_dominated_mask(np.array(front, dtype=float)).all():
        problems.append("Pareto front holds a dominated point")
    if outcome.result.feasible and any(xbars > outcome.budget
                                       for _, _, xbars in front):
        problems.append(f"Pareto front breaks its {outcome.budget}-crossbar "
                        "budget")
    offered = len(rows) * ctx["sizes"]["num_requests"]
    counts = _serve_counts(registry)
    completed = _counter(registry, "serve.engine.requests_completed")
    if completed + counts["serve.requests_rejected"] \
            + counts["serve.requests_failed"] != offered:
        problems.append(f"A/B sweep lost requests: {completed:g} completed "
                        f"+ {counts['serve.requests_rejected']:g} rejected "
                        f"!= {offered} offered")
    knee_manifest = manifest_from_point(loaded, loaded.select("knee"))
    deployments, hardware = deployments_from_manifest(knee_manifest)
    layer, share = _bottleneck(simulate_network(deployments, hardware))
    stats = outcome.grid_stats
    counts.update({
        "search.genomes": float(len(outcome.result.history)
                                * ctx["search"].population_size),
        "search.grid_dedup_ratio": (stats.sim_tasks_unique
                                    / stats.sim_tasks_total),
        "pim.bottleneck_sim_pct": share,
    })
    engine = raw["engines"]["latency-opt"]
    return Outcome(
        digest=digest({"front": front, "knee_manifest": knee_manifest,
                       "ab": rows}),
        requests=offered, problems=problems, counts=counts,
        info={"engine": engine.last_engine,
              "engine_fallback_reason": engine.engine_fallback_reason,
              "front_size": len(front),
              "knee_crossbars": outcome.result.eval.crossbars,
              "p99_ms": max(row["p99_ms"] for row in rows),
              "availability": completed / offered,
              "bottleneck_layer": layer})


# ----------------------------------------------------------------------
# replay workloads: one searched ResNet-18 point, many traces
# ----------------------------------------------------------------------

def _searched(sizes: Dict, tmp: Path):
    """The set-up-time Pareto search every replay workload deploys from.
    Its seed is fixed so each run serves the same design."""
    outcome = run_search(sizes["model"], objective="pareto",
                         search=EvoSearchConfig(seed=0, **sizes["search"]),
                         grid_cache=GridCache(Path(tmp) / "setup-grid"),
                         verbose=False)
    return load_search_result(search_result_payload(outcome))


def _replay_ctx(sizes: Dict, engine: ServingEngine, load: float) -> Dict:
    layer, share = _bottleneck(engine.report)
    return {"sizes": sizes, "engine": engine,
            "rate": load * engine.plan.throughput_fps,
            "bottleneck": (layer, share)}


def _replay_check(ctx: Dict, registry: MetricsRegistry, summary: Dict,
                  problems: List[str]) -> Outcome:
    offered = ctx["sizes"]["num_requests"]
    accounted = summary["completed"] + summary["rejected"] + summary["failed"]
    if accounted != offered:
        problems.append(f"conservation broken: completed + rejected + "
                        f"failed = {accounted:g} != {offered} offered")
    engine = ctx["engine"]
    layer, share = ctx["bottleneck"]
    counts = _serve_counts(registry)
    counts["pim.bottleneck_sim_pct"] = share
    return Outcome(
        digest=digest(summary), requests=offered, problems=problems,
        counts=counts,
        info={"engine": engine.last_engine,
              "engine_fallback_reason": engine.engine_fallback_reason,
              "p99_ms": summary["latency_p99_ms"],
              "availability": summary["availability"],
              "bottleneck_layer": layer})


def _web_setup(sizes: Dict, seed: int, tmp: Path) -> Dict:
    engine = engine_from_search(
        _searched(sizes, tmp), policy="latency-opt",
        scheduler=SchedulerConfig(max_batch_size=8, window_ms=2.0,
                                  queue_depth=8192))
    return _replay_ctx(sizes, engine, 0.9)


def _web_iteration(ctx: Dict, seed: int, span) -> Dict:
    registry = MetricsRegistry()
    with use_metrics(registry):
        with span("serve.to_trace_arrays", "serve.trace_gen"):
            trace = get_scenario("diurnal").to_trace_arrays(
                ctx["sizes"]["num_requests"], ctx["rate"], seed=seed)
        with span("serve.ServingEngine.serve", "serve.replay"):
            telemetry = ctx["engine"].serve(trace)
        with span("serve.summary", "serve.summary"):
            summary = telemetry.summary()
        with span("obs.prometheus_text", "obs.metrics_export"):
            prometheus_text(registry)
    return {"registry": registry, "summary": summary}


def _summary_check(ctx: Dict, raw: Dict) -> Outcome:
    return _replay_check(ctx, raw["registry"], raw["summary"], [])


def _armed_setup(sizes: Dict, seed: int, tmp: Path) -> Dict:
    # A fixed resilience seed: an iteration's outputs must depend on its
    # own seed only, or its digest would change with the run's --seed.
    engine = engine_from_search(
        _searched(sizes, tmp), policy="latency-opt", replicas=2,
        resilience=ResilienceConfig(seed=0), brownout_policy="energy-opt")
    return _replay_ctx(sizes, engine, 0.9)


def _armed_iteration(ctx: Dict, seed: int, span) -> Dict:
    registry = MetricsRegistry()
    with use_metrics(registry):
        with span("serve.to_trace", "serve.trace_gen"):
            trace = get_scenario("flash-crowd").to_trace(
                ctx["sizes"]["num_requests"], ctx["rate"], seed=seed)
        with span("serve.ServingEngine.serve", "serve.replay"):
            telemetry = ctx["engine"].serve(trace, faults="chip-kill@t=0.5")
        with span("serve.summary", "serve.summary"):
            summary = telemetry.summary()
        with span("obs.prometheus_text", "obs.metrics_export"):
            prometheus_text(registry)
    return {"registry": registry, "summary": summary}


def _traced_setup(sizes: Dict, seed: int, tmp: Path) -> Dict:
    ctx = _replay_ctx(sizes, engine_from_search(_searched(sizes, tmp),
                                                policy="latency-opt"), 0.7)
    ctx["tmp"] = Path(tmp)
    return ctx


def _traced_iteration(ctx: Dict, seed: int, span) -> Dict:
    registry = MetricsRegistry()
    tracer = Tracer()
    out = Path(tempfile.mkdtemp(dir=ctx["tmp"], prefix="obs-"))
    paths = (out / "trace.json", out / "spans.jsonl", out / "metrics.prom")
    with span("serve.to_trace_arrays", "serve.trace_gen"):
        trace = get_scenario("steady-poisson").to_trace_arrays(
            ctx["sizes"]["num_requests"], ctx["rate"], seed=seed)
    with use_tracer(tracer), use_metrics(registry):
        with span("serve.ServingEngine.serve", "serve.replay"):
            telemetry = ctx["engine"].serve(trace)
    with span("obs.Tracer.__len__", "obs.span_synthesis"):
        spans = len(tracer)
    with span("obs.Tracer.write_chrome_trace", "obs.chrome_export"):
        tracer.write_chrome_trace(paths[0])
    with span("obs.Tracer.write_jsonl", "obs.jsonl_export"):
        tracer.write_jsonl(paths[1])
    with span("obs.prometheus_text", "obs.metrics_export"):
        paths[2].write_text(prometheus_text(registry))
    with span("obs.validate_file", "obs.validate"):
        validated = [validate_file(path) for path in paths]
    return {"registry": registry, "telemetry": telemetry, "spans": spans,
            "paths": paths, "validated": validated, "out": out}


def _traced_check(ctx: Dict, raw: Dict) -> Outcome:
    problems = [f"{path.name}: {problem}"
                for path, (_, found) in zip(raw["paths"], raw["validated"])
                for problem in found]
    size = sum(path.stat().st_size for path in raw["paths"])
    shutil.rmtree(raw["out"], ignore_errors=True)
    outcome = _replay_check(ctx, raw["registry"], raw["telemetry"].summary(),
                            problems)
    outcome.counts.update({"obs.spans": float(raw["spans"]),
                           "obs.artifact_mb": size / 2**20})
    return outcome


# Per-iteration sizes, chosen so 100 timed iterations of each workload
# take 10-15 s of host time on a 2-core machine.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("design", {"model": "resnet50", "search": {"restarts": 1},
                        "num_requests": 2000},
             _design_setup, _design_iteration, _design_check, DESIGN_WRAPS),
    Workload("replay-web", {"model": "resnet18", "search": {},
                            "num_requests": 150_000},
             _web_setup, _web_iteration, _summary_check),
    Workload("replay-armed", {"model": "resnet18", "search": {},
                              "num_requests": 12_000},
             _armed_setup, _armed_iteration, _summary_check),
    Workload("replay-traced", {"model": "resnet18", "search": {},
                               "num_requests": 2_500},
             _traced_setup, _traced_iteration, _traced_check),
)}
