"""``python -m repro search`` — design-space search from the shell.

Examples::

    python -m repro search                               # latency-opt ResNet-50
    python -m repro search --objective pareto            # full frontier
    python -m repro search --model resnet18 --objective edp \
        --population 128 --iterations 100 --restarts 4 --workers 4
    python -m repro search --budget 600 --json design.json

The crossbar budget defaults to ``--budget-fraction`` (0.78, Table 1's
convention) of the uniform 1024x256 design's demand; ``--budget`` pins an
absolute number of crossbars instead.  ``--json`` writes the winning
genome (and, in Pareto mode, the whole front) for downstream tooling —
e.g. handing an assignment to ``repro serve``.

Candidate-grid construction is deduped by layer-shape signature, runs
in-process (``--workers`` fans out only the search's restarts), and
persists per-(signature, candidate) simulation results under
``~/.cache/repro/grids`` (override with ``--cache-dir`` or
``REPRO_GRID_CACHE_DIR``; disable with ``--no-cache``) so repeat sweeps
start warm.  ``--json`` output records what the cache
did (``grid_build_s``, ``grid_cache`` hits/misses, ``unique_signatures``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from ..obs.export import write_metrics
from ..obs.metrics import MetricsRegistry
from ..obs.runtime import use_metrics, use_tracer
from ..obs.tracer import NullTracer, Tracer
from ..pim.simulator import sim_counters
from .evolve import EvoSearchConfig
from .gridcache import GridCache

__all__ = ["add_search_parser", "run_search_cli", "search_result_payload",
           "main", "SEARCH_RESULT_SCHEMA", "SEARCH_RESULT_VERSION"]

MODELS = ["resnet18", "resnet34", "resnet50", "resnet101"]
OBJECTIVE_CHOICES = ["latency", "energy", "edp", "pareto"]

# The ``--json`` output is a stable, versioned contract — the hand-off
# artifact ``repro serve --from-search`` consumes (parser:
# :func:`repro.serve.deploy.load_search_result`; documented field-by-field
# in docs/search-to-serve.md).  Bump the version on any
# backwards-incompatible key change.
SEARCH_RESULT_SCHEMA = "repro-search-result"
SEARCH_RESULT_VERSION = 1


def add_search_parser(subparsers) -> argparse.ArgumentParser:
    """Register the ``search`` subcommand on an existing subparser set."""
    p = subparsers.add_parser(
        "search",
        help="evolutionary design-space search (Alg. 1, vectorized)")
    p.add_argument("--model", default="resnet50", choices=MODELS,
                   help="network whose layer-wise design is searched")
    p.add_argument("--objective", default="latency",
                   choices=OBJECTIVE_CHOICES,
                   help="scalar reward, or 'pareto' for the "
                        "latency x energy x crossbars front")
    p.add_argument("--budget", type=int, default=None, metavar="XBS",
                   help="absolute crossbar budget (default: derived from "
                        "--budget-fraction)")
    p.add_argument("--budget-fraction", type=float, default=0.78,
                   metavar="FRAC",
                   help="budget as a fraction of the uniform 1024x256 "
                        "design's crossbars (Table 1 convention)")
    p.add_argument("--population", type=int, default=64)
    p.add_argument("--iterations", type=int, default=60)
    p.add_argument("--restarts", type=int, default=3)
    p.add_argument("--num-parents", type=int, default=16)
    p.add_argument("--mutation-layers", type=int, default=3)
    p.add_argument("--crossover-rate", type=float, default=0.5)
    p.add_argument("--patience", type=int, default=None,
                   help="early-stop after this many stagnant iterations")
    p.add_argument("--workers", type=int, default=1,
                   help="processes for the restart fan-out (the "
                        "candidate grid is built in-process)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="grid-cache directory (default: "
                        "$REPRO_GRID_CACHE_DIR or ~/.cache/repro/grids)")
    p.add_argument("--no-cache", action="store_true",
                   help="build the candidate grid without the persistent "
                        "on-disk cache")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--weight-bits", type=int, default=9)
    p.add_argument("--activation-bits", type=int, default=9)
    p.add_argument("--no-wrapping", action="store_true",
                   help="disable channel wrapping in the candidate grid")
    p.add_argument("--trace-out", default=None, metavar="PATH",
                   help="write per-generation search spans: .json = "
                        "Chrome trace-event (Perfetto-loadable), .jsonl "
                        "= one span per line")
    p.add_argument("--metrics-out", default=None, metavar="PATH",
                   help="export search.*/pim.* metrics: .prom/.txt = "
                        "Prometheus text, .jsonl = JSON lines")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the result (genome/front/history) as "
                        "versioned JSON — the artifact `repro serve "
                        "--from-search` consumes")
    p.add_argument("--emit-deployment", default=None, metavar="PATH",
                   help="also write the winner's format-2 deployment "
                        "manifest (servable via `repro serve --manifest`)")
    return p


def _genome_json(genome) -> List:
    return [list(cand) if cand is not None else None for cand in genome]


def search_result_payload(outcome, cache: Optional[GridCache] = None) -> dict:
    """The versioned search-result payload (schema v1) for a
    :class:`~repro.analysis.experiments.SearchRunResult`.

    Single source of truth for the JSON contract: the CLI writes exactly
    this dict, and :func:`repro.analysis.experiments.run_search_then_serve`
    round-trips through it so the experiment exercises the same artifact a
    production hand-off would.
    """
    stats = outcome.grid_stats
    payload = {
        "schema": SEARCH_RESULT_SCHEMA,
        "schema_version": SEARCH_RESULT_VERSION,
        "model": outcome.model,
        "objective": outcome.objective,
        "budget": outcome.budget,
        "baseline_crossbars": outcome.baseline_crossbars,
        "design_space_size": float(outcome.design_space_size),
        "feasible": outcome.result.feasible,
        "precision": {
            "weight_bits": outcome.weight_bits,
            "activation_bits": outcome.activation_bits,
            "use_wrapping": outcome.use_wrapping,
        },
        "layers": list(outcome.layers or []),
        "grid_build_s": stats.build_s if stats else None,
        "unique_signatures": (stats.unique_signatures if stats
                              else None),
        "grid_cache": {
            "enabled": cache is not None,
            "dir": str(cache.dir) if cache is not None else None,
            "hits": stats.cache_hits if stats else 0,
            "misses": stats.cache_misses if stats else 0,
            "simulated": stats.simulated if stats else None,
            "sim_tasks_unique": (stats.sim_tasks_unique if stats
                                 else None),
            "sim_tasks_total": (stats.sim_tasks_total if stats
                                else None),
        },
        "history": outcome.result.history,
        "best": {
            "genome": _genome_json(outcome.result.genome),
            "assignment": {name: list(cand) for name, cand
                           in outcome.result.assignment.items()},
            "crossbars": outcome.result.eval.crossbars,
            "latency_ms": outcome.result.eval.latency_ms,
            "energy_mj": outcome.result.eval.energy_mj,
            "edp": outcome.result.eval.edp,
        },
    }
    if outcome.front is not None:
        payload["front"] = [{
            "genome": _genome_json(point.genome),
            "crossbars": point.eval.crossbars,
            "latency_ms": point.eval.latency_ms,
            "energy_mj": point.eval.energy_mj,
            "edp": point.eval.edp,
        } for point in outcome.front]
    return payload


def run_search_cli(args) -> int:
    """Dispatch a parsed ``search`` namespace (wired from repro.analysis.cli)."""
    # Imported here: repro.analysis.cli imports this module, and
    # experiments pulls the analysis package in turn.
    from ..analysis.experiments import run_search

    try:
        search = EvoSearchConfig(
            population_size=args.population,
            iterations=args.iterations,
            num_parents=args.num_parents,
            mutation_layers=args.mutation_layers,
            objective=args.objective,
            seed=args.seed,
            restarts=args.restarts,
            crossover_rate=args.crossover_rate,
            patience=args.patience,
            workers=args.workers,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cache = None if args.no_cache else GridCache(args.cache_dir)
    tracer = Tracer() if args.trace_out is not None else NullTracer()
    registry = MetricsRegistry()
    with use_tracer(tracer), use_metrics(registry):
        outcome = run_search(
            model_name=args.model,
            objective=args.objective,
            budget=args.budget,
            budget_fraction=args.budget_fraction,
            search=search,
            weight_bits=args.weight_bits,
            activation_bits=args.activation_bits,
            use_wrapping=not args.no_wrapping,
            grid_cache=cache,
        )
    if args.metrics_out is not None:
        sim_counters().publish(registry)
        write_metrics(registry, args.metrics_out)
        print(f"wrote metrics -> {args.metrics_out}", file=sys.stderr)
    if args.trace_out is not None:
        if args.trace_out.endswith(".jsonl"):
            tracer.write_jsonl(args.trace_out)
        else:
            tracer.write_chrome_trace(args.trace_out)
        print(f"wrote trace ({len(tracer)} spans) -> {args.trace_out}",
              file=sys.stderr)
    stats = outcome.grid_stats
    if stats is not None:
        # stderr, so cold and warm runs produce identical stdout (CI
        # diffs the winner across the two).
        print(f"grid: {stats.simulated} simulated of "
              f"{stats.sim_tasks_unique} unique tasks "
              f"({stats.sim_tasks_total} serial-equivalent, "
              f"{stats.unique_signatures} signatures), "
              f"cache {stats.cache_hits} hits / {stats.cache_misses} misses, "
              f"built in {stats.build_s:.3f}s", file=sys.stderr)
    if not outcome.result.feasible:
        print(f"warning: no design met the {outcome.budget}-crossbar "
              "budget; reporting the closest infeasible one",
              file=sys.stderr)
    if args.json:
        payload = search_result_payload(outcome, cache=cache)
        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {path}")
    if args.emit_deployment:
        # The winner (scalar mode) / knee (Pareto mode) as a servable
        # format-2 manifest, compiled by the same bridge `repro serve
        # --from-search` uses — one compile path for the hand-off artifact.
        # Imported lazily: repro.serve pulls this module in via its CLI.
        from ..core.export import write_manifest
        from ..serve.deploy import load_search_result, manifest_from_point

        loaded = load_search_result(search_result_payload(outcome))
        write_manifest(manifest_from_point(loaded, loaded.best),
                       args.emit_deployment)
        print(f"wrote deployment manifest -> {args.emit_deployment}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point (``python -m repro.search.cli``)."""
    parser = argparse.ArgumentParser(prog="python -m repro.search.cli")
    sub = parser.add_subparsers(dest="command", required=True)
    add_search_parser(sub)
    return run_search_cli(parser.parse_args(argv))


if __name__ == "__main__":      # pragma: no cover
    sys.exit(main())
