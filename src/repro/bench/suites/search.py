"""Benchmarks for the design-space search engine (repro.search).

Registered benchmarks:

- ``search.population_eval`` — the vectorized population evaluator on a
  batch of random genomes (the per-generation hot path);
- ``search.population_eval_scalar`` — the same genomes through the
  scalar per-genome loop, kept as a permanent in-harness reference so
  the vectorization win stays measured, not asserted;
- ``search.evolution`` — Algorithm 1 end to end at the default
  configuration (population 64 x 60 iterations x 3 restarts), the
  headline number for "how fast can we sweep the design space".
- ``search.pareto_front`` — the multi-objective mode; its structural
  check (front is mutually non-dominated and in budget) doubles as a
  correctness smoke.
- ``search.grid_build`` — cold candidate-grid construction through the
  retained serial reference (every (layer, candidate) pair simulated
  from scratch), the baseline the fast paths are measured against;
- ``search.grid_build_dedup`` — the shape-signature-deduped in-process
  build (no disk cache), i.e. what ``build_candidate_grid`` actually
  does on a cold start;
- ``search.grid_build_warm`` — a rebuild against a fully warm
  persistent grid cache (zero simulations), the "re-search after a
  hardware-config tweak" path.

All three grid benchmarks count the same ``cells`` (grid cache entries
produced), so their throughputs are directly comparable.
"""

from __future__ import annotations

import tempfile
from typing import Dict

import numpy as np

from ...models.specs import get_network_spec
from ...pim.simulator import reset_sim_counters, sim_counters
from ...search import (
    EvoSearchConfig,
    GridCache,
    build_candidate_grid,
    build_candidate_grid_serial,
    evaluate_assignment,
    evaluate_population,
    evolution_search,
    non_dominated_mask,
    pareto_search,
    uniform_budget,
)
from ..registry import Workload, benchmark

__all__ = [
    "build_search_grid",
    "population_eval_factory",
    "population_eval_scalar_factory",
    "evolution_factory",
    "pareto_factory",
    "grid_build_cold_factory",
    "grid_build_dedup_factory",
    "grid_build_warm_factory",
]

GRID_KWARGS = dict(weight_bits=9, activation_bits=9, use_wrapping=True)

_GRIDS: Dict[str, object] = {}


def build_search_grid(model_name: str):
    """Grid construction is setup, not the timed region — cache it."""
    if model_name not in _GRIDS:
        _GRIDS[model_name] = build_candidate_grid(
            get_network_spec(model_name), **GRID_KWARGS)
    return _GRIDS[model_name]


def _grid_workload(build, model_name: str) -> Workload:
    """Shared shape of the three grid-build benchmarks: ``build(spec)``
    must produce a grid; throughput counts grid cells so cold/dedup/warm
    numbers are directly comparable."""
    spec = get_network_spec(model_name)
    outcome: Dict[str, float] = {}

    def fn():
        # Reset per call so the sampled counters report one call's work
        # (the warm path's near-zero layer count is the point).
        reset_sim_counters()
        grid = build(spec)
        outcome["cells"] = float(len(grid.cache))
        stats = grid.build_stats
        if stats is not None:
            outcome["unique_signatures"] = float(stats.unique_signatures)
            outcome["sim_tasks_unique"] = float(stats.sim_tasks_unique)
            outcome["simulated"] = float(stats.simulated)
            outcome["cache_hits"] = float(stats.cache_hits)
        return grid

    probe = build(spec)
    return Workload(fn=fn, items=float(len(probe.cache)), unit="cells",
                    counters=lambda: {**outcome,
                                      **{k: float(v) for k, v in
                                         sim_counters().as_dict().items()}})


@benchmark("search.grid_build", suite="search",
           description="cold candidate-grid build, retained serial "
                       "reference (every pair simulated)",
           warmup=0, repeats=3, min_sample_ms=0.0)
def grid_build_cold_factory(fast: bool) -> Workload:
    model = "resnet18" if fast else "resnet50"
    return _grid_workload(
        lambda spec: build_candidate_grid_serial(spec, **GRID_KWARGS), model)


@benchmark("search.grid_build_dedup", suite="search",
           description="shape-signature dedup, in-process "
                       "(no disk cache)",
           warmup=0, repeats=3, min_sample_ms=0.0)
def grid_build_dedup_factory(fast: bool) -> Workload:
    model = "resnet18" if fast else "resnet50"
    return _grid_workload(
        lambda spec: build_candidate_grid(spec, **GRID_KWARGS), model)


@benchmark("search.grid_build_warm", suite="search",
           description="rebuild against a fully warm persistent grid "
                       "cache (zero simulations)",
           warmup=0, repeats=3, min_sample_ms=0.0)
def grid_build_warm_factory(fast: bool) -> Workload:
    model = "resnet18" if fast else "resnet50"
    tmp = tempfile.TemporaryDirectory(prefix="repro-grid-bench-")
    cache = GridCache(tmp.name)
    warm = get_network_spec(model)
    build_candidate_grid(warm, cache=cache, **GRID_KWARGS)   # pre-warm

    def build(spec):
        grid = build_candidate_grid(spec, cache=cache, **GRID_KWARGS)
        assert grid.build_stats.simulated == 0, "warm rebuild simulated"
        return grid

    workload = _grid_workload(build, model)
    workload.fn.__dict__["_tmpdir"] = tmp    # keep the dir alive
    return workload


def _random_population(grid, size: int, seed: int = 0) -> np.ndarray:
    matrices = grid.matrices()
    rng = np.random.default_rng(seed)
    return rng.integers(0, matrices.num_options,
                        size=(size, matrices.num_layers), dtype=np.int64)


# 11520 genomes = the default search's evaluation budget (64 x 60 x 3).
_EVAL_BATCH = 11520


@benchmark("search.population_eval", suite="search",
           description="vectorized genome scoring (matrix gather + sums)")
def population_eval_factory(fast: bool) -> Workload:
    grid = build_search_grid("resnet18" if fast else "resnet50")
    matrices = grid.matrices()
    population = _random_population(grid, _EVAL_BATCH)

    def fn():
        return evaluate_population(matrices, population)

    return Workload(fn=fn, items=float(len(population)), unit="genomes",
                    counters=lambda: {
                        "genomes": float(len(population)),
                        "layers_scored": float(len(population)
                                               * matrices.num_layers)})


@benchmark("search.population_eval_scalar", suite="search",
           description="same genomes through the scalar per-genome loop "
                       "(vectorization reference)")
def population_eval_scalar_factory(fast: bool) -> Workload:
    grid = build_search_grid("resnet18" if fast else "resnet50")
    matrices = grid.matrices()
    # Scalar loop is ~14x slower; a slice keeps the harness snappy while
    # per-genome throughput stays directly comparable.
    population = _random_population(grid, _EVAL_BATCH // 8)
    genomes = [[matrices.options[li][ki] for li, ki in enumerate(row)]
               for row in population]

    def fn():
        return [evaluate_assignment(grid, genome) for genome in genomes]

    return Workload(fn=fn, items=float(len(genomes)), unit="genomes")


@benchmark("search.evolution", suite="search",
           description="Alg. 1 end-to-end: population 64 x 60 iterations "
                       "x 3 restarts",
           warmup=0, repeats=3, min_sample_ms=0.0)
def evolution_factory(fast: bool) -> Workload:
    grid = build_search_grid("resnet18" if fast else "resnet50")
    budget = uniform_budget(grid)
    config = EvoSearchConfig(population_size=64, iterations=60, restarts=3,
                             objective="edp", seed=0)
    evaluations = (config.population_size * config.iterations
                   * config.restarts)
    outcome: Dict[str, float] = {}

    def fn():
        result = evolution_search(grid, budget, config)
        assert result.feasible, "search must satisfy the derived budget"
        outcome["best_edp"] = result.eval.edp
        outcome["best_crossbars"] = float(result.eval.crossbars)
        return result

    return Workload(fn=fn, items=float(evaluations), unit="genomes",
                    counters=lambda: dict(outcome))


@benchmark("search.pareto_front", suite="search",
           description="multi-objective front: latency x energy x crossbars",
           warmup=0, repeats=3, min_sample_ms=0.0)
def pareto_factory(fast: bool) -> Workload:
    grid = build_search_grid("resnet18" if fast else "resnet50")
    budget = uniform_budget(grid)
    config = EvoSearchConfig(population_size=64, iterations=30, restarts=2,
                             seed=0)
    evaluations = (config.population_size * config.iterations
                   * config.restarts)
    outcome: Dict[str, float] = {}

    def fn():
        front = pareto_search(grid, budget, config)
        objectives = np.array([p.objectives for p in front.points])
        assert non_dominated_mask(objectives).all(), "dominated point on front"
        assert (objectives[:, 2] <= budget).all(), "front exceeds budget"
        outcome["front_size"] = float(len(front))
        return front

    return Workload(fn=fn, items=float(evaluations), unit="genomes",
                    counters=lambda: dict(outcome))
