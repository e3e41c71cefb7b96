"""Benchmark: evolutionary search convergence (Algorithm 1 ablation).

The search is a design choice worth ablating: how much
does the evolutionary loop improve over (a) the best uniform design and
(b) a random-sampling baseline with the same evaluation budget?
"""

import numpy as np
import pytest

from repro.search import (
    EvoSearchConfig,
    build_candidate_grid,
    evaluate_assignment,
    evolution_search,
)
from repro.models.specs import resnet50_spec
from repro.pim.simulator import baseline_deployment, simulate_network


@pytest.fixture(scope="module")
def grid():
    return build_candidate_grid(resnet50_spec(), weight_bits=9,
                                activation_bits=9, use_wrapping=True)


def best_uniform(grid, budget):
    best = None
    for cand in [(2048, 512), (1024, 256), (512, 128), (256, 64)]:
        genome = [cand if cand in grid.candidates[l.name]
                  else min(grid.candidates[l.name],
                           key=lambda c: grid.cache[(l.name, c)][0])
                  for l in grid.spec]
        result = evaluate_assignment(grid, genome)
        if result.crossbars <= budget and (best is None
                                           or result.edp < best.edp):
            best = result
    return best


def random_baseline(grid, budget, evaluations, seed=0):
    rng = np.random.default_rng(seed)
    best = None
    options = [grid.candidates[l.name] for l in grid.spec]
    for _ in range(evaluations):
        genome = [opts[rng.integers(len(opts))] for opts in options]
        result = evaluate_assignment(grid, genome)
        if result.crossbars <= budget and (best is None
                                           or result.edp < best.edp):
            best = result
    return best


def test_search_beats_uniform_and_random(benchmark, grid):
    spec = resnet50_spec()
    base = simulate_network([baseline_deployment(l, 9, 9) for l in spec])
    budget = base.num_crossbars // 8

    config = EvoSearchConfig(population_size=48, iterations=40,
                             objective="edp", seed=0)
    result = benchmark.pedantic(
        lambda: evolution_search(grid, budget, config),
        rounds=1, iterations=1)
    uniform = best_uniform(grid, budget)
    random = random_baseline(grid, budget,
                             evaluations=config.population_size
                             * config.iterations)
    print(f"\n  budget {budget} XBs:")
    print(f"  evo-search EDP = {result.eval.edp:9.1f} "
          f"(XBs {result.eval.crossbars})")
    if uniform is not None:
        print(f"  best uniform EDP = {uniform.edp:9.1f}")
        assert result.eval.edp <= uniform.edp * 1.001
    if random is not None:
        print(f"  random-search EDP = {random.edp:9.1f}")
        assert result.eval.edp <= random.edp * 1.05


def test_search_convergence_profile(benchmark, grid):
    """Reward history is monotone and improves substantially."""
    spec = resnet50_spec()
    base = simulate_network([baseline_deployment(l, 9, 9) for l in spec])
    budget = base.num_crossbars // 8

    result = benchmark.pedantic(
        lambda: evolution_search(
            grid, budget,
            EvoSearchConfig(population_size=48, iterations=40,
                            objective="latency", seed=3)),
        rounds=1, iterations=1)
    history = result.history
    print(f"\n  reward: first={history[0]:.4f} last={history[-1]:.4f} "
          f"({history[-1] / max(history[0], 1e-12):.2f}x)")
    assert all(b >= a - 1e-12 for a, b in zip(history, history[1:]))
    assert history[-1] >= history[0]
