"""Tests for the evolutionary layer-wise design (repro.search) — Alg. 1."""

import pytest

from repro.search import (
    EvoSearchConfig,
    build_candidate_grid,
    evaluate_assignment,
    evolution_search,
    EvalResult,
)
from repro.search.evolve import _reward
from repro.models.specs import resnet18_spec
from repro.pim.simulator import baseline_deployment, simulate_network


@pytest.fixture(scope="module")
def grid():
    return build_candidate_grid(resnet18_spec(), weight_bits=9,
                                activation_bits=9)


@pytest.fixture(scope="module")
def baseline_xbars():
    spec = resnet18_spec()
    report = simulate_network([baseline_deployment(l, 9, 9) for l in spec])
    return report.num_crossbars


class TestCandidateGrid:
    def test_every_layer_has_none_option(self, grid):
        assert all(None in options for options in grid.candidates.values())

    def test_fc_layers_only_none(self, grid):
        assert grid.candidates["fc"] == [None]

    def test_cache_covers_options(self, grid):
        for name, options in grid.candidates.items():
            for cand in options:
                assert (name, cand) in grid.cache

    def test_design_space_is_huge(self, grid):
        # the paper quotes ~2e7 for its grid; ours is far larger
        assert grid.design_space_size > 1e6


class TestEvaluateAssignment:
    def test_all_none_matches_baseline(self, grid, baseline_xbars):
        genome = [None] * len(grid.spec)
        result = evaluate_assignment(grid, genome)
        assert result.crossbars == baseline_xbars

    def test_epitomes_reduce_crossbars(self, grid):
        none_genome = [None] * len(grid.spec)
        epit_genome = [options[-1] for options in
                       (grid.candidates[l.name] for l in grid.spec)]
        none_eval = evaluate_assignment(grid, none_genome)
        epit_eval = evaluate_assignment(grid, epit_genome)
        assert epit_eval.crossbars < none_eval.crossbars

    def test_edp_consistent(self, grid):
        result = evaluate_assignment(grid, [None] * len(grid.spec))
        assert result.edp == pytest.approx(result.latency_ms * result.energy_mj)


class TestReward:
    def test_budget_gate(self):
        result = EvalResult(crossbars=100, latency_ms=10.0, energy_mj=5.0)
        assert _reward(result, budget=99, objective="latency") == 0.0
        assert _reward(result, budget=100, objective="latency") == 1.0 / 10.0

    def test_objectives(self):
        result = EvalResult(crossbars=1, latency_ms=4.0, energy_mj=2.0)
        assert _reward(result, None, "latency") == 0.25
        assert _reward(result, None, "energy") == 0.5
        assert _reward(result, None, "edp") == pytest.approx(1.0 / 8.0)

    def test_unknown_objective(self):
        result = EvalResult(crossbars=1, latency_ms=1.0, energy_mj=1.0)
        with pytest.raises(ValueError):
            _reward(result, None, "speed")


class TestEvolutionSearch:
    def test_respects_budget(self, grid, baseline_xbars):
        budget = baseline_xbars // 8
        result = evolution_search(grid, budget,
                                  EvoSearchConfig(population_size=24,
                                                  iterations=10, seed=0))
        assert result.feasible
        assert result.eval.crossbars <= budget

    def test_beats_every_uniform_design_under_same_budget(self, grid):
        """Seeding with uniform genomes guarantees search >= best uniform."""
        # pick the uniform (1024, 256) design's crossbars as the budget
        genome_uniform = [
            (1024, 256) if (1024, 256) in grid.candidates[l.name]
            else min(grid.candidates[l.name],
                     key=lambda c: grid.cache[(l.name, c)][0])
            for l in grid.spec]
        uniform_eval = evaluate_assignment(grid, genome_uniform)
        result = evolution_search(
            grid, uniform_eval.crossbars,
            EvoSearchConfig(population_size=32, iterations=15,
                            objective="latency", seed=1))
        assert result.eval.latency_ms <= uniform_eval.latency_ms * 1.001

    def test_objective_changes_outcome(self, grid, baseline_xbars):
        budget = baseline_xbars // 6
        lat = evolution_search(grid, budget,
                               EvoSearchConfig(population_size=32,
                                               iterations=15,
                                               objective="latency", seed=2))
        en = evolution_search(grid, budget,
                              EvoSearchConfig(population_size=32,
                                              iterations=15,
                                              objective="energy", seed=2))
        assert lat.eval.latency_ms <= en.eval.latency_ms * 1.05
        assert en.eval.energy_mj <= lat.eval.energy_mj * 1.05

    def test_history_recorded(self, grid, baseline_xbars):
        result = evolution_search(grid, baseline_xbars,
                                  EvoSearchConfig(population_size=16,
                                                  iterations=7, seed=0))
        assert len(result.history) == 7
        # best reward never decreases across iterations
        assert all(b >= a - 1e-12
                   for a, b in zip(result.history, result.history[1:]))

    def test_assignment_excludes_none(self, grid, baseline_xbars):
        result = evolution_search(grid, baseline_xbars // 4,
                                  EvoSearchConfig(population_size=16,
                                                  iterations=5, seed=0))
        assert all(v is not None for v in result.assignment.values())

    def test_no_budget(self, grid):
        result = evolution_search(grid, None,
                                  EvoSearchConfig(population_size=16,
                                                  iterations=5, seed=0))
        assert result.feasible

    def test_deterministic_with_seed(self, grid, baseline_xbars):
        a = evolution_search(grid, baseline_xbars // 4,
                             EvoSearchConfig(population_size=16,
                                             iterations=5, seed=42))
        b = evolution_search(grid, baseline_xbars // 4,
                             EvoSearchConfig(population_size=16,
                                             iterations=5, seed=42))
        assert a.genome == b.genome
