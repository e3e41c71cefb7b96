"""Tests for the Pareto multi-objective mode (repro.search.pareto)."""

import numpy as np
import pytest

from repro.search import (
    EvoSearchConfig,
    build_candidate_grid,
    crowding_distance,
    evaluate_assignment,
    evolution_search,
    non_dominated_mask,
    pareto_search,
    select_index,
)
from repro.search.pareto import _dedupe
from repro.models.specs import resnet18_spec


@pytest.fixture(scope="module")
def grid():
    return build_candidate_grid(resnet18_spec(), weight_bits=9,
                                activation_bits=9)


@pytest.fixture(scope="module")
def budget(grid):
    genome = [(1024, 256) if (1024, 256) in grid.candidates[l.name] else None
              for l in grid.spec]
    return evaluate_assignment(grid, genome).crossbars


@pytest.fixture(scope="module")
def front(grid, budget):
    return pareto_search(grid, budget,
                         EvoSearchConfig(population_size=32, iterations=15,
                                         restarts=2, seed=0))


class TestNonDominatedMask:
    def test_simple_cases(self):
        objs = np.array([[1.0, 2.0], [2.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        mask = non_dominated_mask(objs)
        assert mask.tolist() == [True, True, False, False]

    def test_equal_rows_survive_together(self):
        objs = np.array([[1.0, 1.0], [1.0, 1.0]])
        assert non_dominated_mask(objs).tolist() == [True, True]

    def test_single_and_empty(self):
        assert non_dominated_mask(np.array([[1.0, 2.0]])).tolist() == [True]
        assert non_dominated_mask(np.empty((0, 3))).tolist() == []


def brute_force_non_dominated(objectives):
    """The definition, pair by pair: row j survives unless some row i is
    <= it everywhere and < it somewhere."""
    rows = [tuple(row) for row in objectives.tolist()]
    return [not any(all(a <= b for a, b in zip(other, row))
                    and any(a < b for a, b in zip(other, row))
                    for other in rows)
            for row in rows]


class TestNonDominatedMaskProperty:
    def test_matches_brute_force_on_tie_heavy_matrices(self):
        rng = np.random.default_rng(20240611)
        sizes = [0, 1, 200] + rng.integers(0, 201, size=197).tolist()
        for n in sizes:
            m = int(rng.integers(1, 5))
            # Few distinct values per column: ties and equal rows abound.
            objectives = rng.integers(0, 4, size=(n, m)).astype(np.float64)
            mask = non_dominated_mask(objectives)
            assert mask.dtype == bool and mask.shape == (n,)
            assert mask.tolist() == brute_force_non_dominated(objectives)

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            non_dominated_mask(np.zeros(3))


class TestDedupe:
    def test_keeps_first_occurrences_in_order(self):
        rng = np.random.default_rng(5)
        for n in [0, 1, 2, 30, 120]:
            rows = rng.integers(0, 3, size=(n, 4))
            seen, expected = [], []
            for i, row in enumerate(rows.tolist()):
                if row not in seen:
                    seen.append(row)
                    expected.append(i)
            assert _dedupe(rows).tolist() == expected

    def test_float_rows(self):
        rows = np.array([[1.5, 2.0], [0.5, 1.0], [1.5, 2.0], [0.5, 1.0],
                         [3.0, 3.0]])
        assert _dedupe(rows).tolist() == [0, 1, 4]


class TestCrowdingDistance:
    def test_extremes_infinite(self):
        objs = np.array([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]])
        distance = crowding_distance(objs)
        assert np.isinf(distance[0]) and np.isinf(distance[-1])
        assert np.isfinite(distance[1]) and np.isfinite(distance[2])


class TestParetoFront:
    def test_dominance_invariant(self, front):
        objectives = np.array([p.objectives for p in front.points])
        assert non_dominated_mask(objectives).all()

    def test_budget_invariant(self, front, budget):
        assert front.feasible
        assert all(p.eval.crossbars <= budget for p in front.points)

    def test_sorted_by_latency_no_duplicates(self, front):
        latencies = [p.eval.latency_ms for p in front.points]
        assert latencies == sorted(latencies)
        objective_rows = {p.objectives for p in front.points}
        assert len(objective_rows) == len(front.points)

    def test_points_eval_consistent(self, grid, front):
        for point in front.points[:5]:
            assert evaluate_assignment(grid, list(point.genome)) == point.eval

    def test_knee_minimizes_edp(self, front):
        knee = front.knee()
        assert knee.eval.edp == min(p.eval.edp for p in front.points)

    def test_deterministic(self, grid, budget, front):
        again = pareto_search(grid, budget,
                              EvoSearchConfig(population_size=32,
                                              iterations=15, restarts=2,
                                              seed=0))
        assert [p.genome for p in again.points] == \
               [p.genome for p in front.points]

    def test_history_tracks_front_size(self, front):
        assert len(front.history) == 2 * 15      # restarts x iterations
        assert all(size >= 0 for size in front.history)

    def test_select_policies(self, front):
        assert front.select("latency-opt").eval.latency_ms == \
            min(p.eval.latency_ms for p in front.points)
        assert front.select("energy-opt").eval.energy_mj == \
            min(p.eval.energy_mj for p in front.points)
        assert front.select("knee") == front.knee()
        assert front.select("index", index=0) == front.points[0]


class TestSelectIndex:
    # (latency, energy, edp): argmins at 0, 1 and 2 respectively.
    METRICS = [(10.0, 5.0, 50.0), (30.0, 1.0, 30.0), (13.0, 2.0, 26.0)]

    def test_each_policy(self):
        assert select_index(self.METRICS, "latency-opt") == 0
        assert select_index(self.METRICS, "energy-opt") == 1
        assert select_index(self.METRICS, "knee") == 2
        assert select_index(self.METRICS, "index", 1) == 1

    def test_ties_break_on_other_objective_then_order(self):
        tied = [(1.0, 9.0, 9.0), (1.0, 2.0, 2.0), (1.0, 2.0, 2.0)]
        assert select_index(tied, "latency-opt") == 1
        assert select_index(tied, "knee") == 1

    def test_errors(self):
        with pytest.raises(ValueError, match="unknown selection"):
            select_index(self.METRICS, "cheapest")
        with pytest.raises(ValueError, match="empty front"):
            select_index([], "knee")
        with pytest.raises(ValueError, match="explicit index"):
            select_index(self.METRICS, "index")
        with pytest.raises(ValueError, match="out of range"):
            select_index(self.METRICS, "index", 3)


class TestParetoViaEvolutionSearch:
    def test_objective_pareto_returns_knee_with_front(self, grid, budget):
        result = evolution_search(grid, budget,
                                  EvoSearchConfig(population_size=32,
                                                  iterations=10, restarts=2,
                                                  objective="pareto",
                                                  seed=3))
        assert result.front is not None and len(result.front) >= 1
        assert result.feasible
        assert result.eval.edp == min(p.eval.edp for p in result.front)
        # assignment matches the knee genome
        for name, cand in zip((l.name for l in grid.spec), result.genome):
            if cand is None:
                assert name not in result.assignment
            else:
                assert result.assignment[name] == cand

    def test_unattainable_budget_flags_infeasible(self, grid):
        result = pareto_search(grid, 1,
                               EvoSearchConfig(population_size=8,
                                               iterations=3, restarts=1,
                                               seed=0))
        assert not result.feasible
        assert len(result.points) == 1      # the smallest design, flagged

    def test_parallel_restarts_match_serial(self, grid, budget):
        serial = pareto_search(grid, budget,
                               EvoSearchConfig(population_size=16,
                                               iterations=5, restarts=2,
                                               seed=2, workers=1))
        parallel = pareto_search(grid, budget,
                                 EvoSearchConfig(population_size=16,
                                                 iterations=5, restarts=2,
                                                 seed=2, workers=2))
        assert [p.genome for p in serial.points] == \
               [p.genome for p in parallel.points]
