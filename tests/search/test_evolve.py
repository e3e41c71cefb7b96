"""Tests for the vectorized Algorithm 1 (repro.search.evolve)."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from repro.search import (
    EvoSearchConfig,
    build_candidate_grid,
    evaluate_assignment,
    evolution_search,
    initial_population,
)
from repro.search import evolve as evolve_module
from repro.models.specs import resnet18_spec, resnet50_spec


@pytest.fixture(scope="module")
def grid():
    return build_candidate_grid(resnet18_spec(), weight_bits=9,
                                activation_bits=9)


@pytest.fixture(scope="module")
def budget(grid):
    genome = [(1024, 256) if (1024, 256) in grid.candidates[l.name] else None
              for l in grid.spec]
    return evaluate_assignment(grid, genome).crossbars


class TestConfigValidation:
    @pytest.mark.parametrize("field", ["population_size", "iterations",
                                       "num_parents", "mutation_layers",
                                       "restarts", "workers"])
    def test_positive_int_fields(self, field):
        with pytest.raises(ValueError, match=field):
            EvoSearchConfig(**{field: 0})
        with pytest.raises(ValueError, match=field):
            EvoSearchConfig(**{field: -3})

    def test_unknown_objective(self):
        with pytest.raises(ValueError, match="objective"):
            EvoSearchConfig(objective="speed")

    @pytest.mark.parametrize("objective",
                             ["latency", "energy", "edp", "pareto"])
    def test_known_objectives(self, objective):
        assert EvoSearchConfig(objective=objective).objective == objective

    def test_crossover_rate_bounds(self):
        with pytest.raises(ValueError, match="crossover_rate"):
            EvoSearchConfig(crossover_rate=1.5)
        with pytest.raises(ValueError, match="crossover_rate"):
            EvoSearchConfig(crossover_rate=-0.1)

    def test_patience(self):
        with pytest.raises(ValueError, match="patience"):
            EvoSearchConfig(patience=0)
        assert EvoSearchConfig(patience=None).patience is None
        assert EvoSearchConfig(patience=4).patience == 4

    @pytest.mark.parametrize("field", ["population_size", "iterations",
                                       "num_parents", "mutation_layers",
                                       "restarts", "workers", "patience",
                                       "seed"])
    @pytest.mark.parametrize("value", [2.5, 8.0, True, False, "3"])
    def test_integer_fields_reject_other_types(self, field, value):
        with pytest.raises(ValueError, match=field):
            EvoSearchConfig(**{field: value})
        if field != "patience":     # None disables early stopping
            with pytest.raises(ValueError, match=field):
                EvoSearchConfig(**{field: None})

    @pytest.mark.parametrize("field", ["population_size", "iterations",
                                       "num_parents", "mutation_layers",
                                       "restarts", "workers", "patience",
                                       "seed"])
    @pytest.mark.parametrize("kind", [np.int8, np.int64, np.uint16])
    def test_numpy_integers_become_python_ints(self, field, kind):
        value = getattr(EvoSearchConfig(**{field: kind(3)}), field)
        assert value == 3 and type(value) is int

    def test_seed_must_be_non_negative(self):
        with pytest.raises(ValueError, match="seed"):
            EvoSearchConfig(seed=-1)
        assert EvoSearchConfig(seed=0).seed == 0

    def test_numpy_integer_config_searches_like_python_ints(self, grid,
                                                            budget):
        fields = dict(population_size=8, iterations=3, num_parents=4,
                      mutation_layers=2, restarts=2, seed=5, patience=2)
        plain = evolution_search(grid, budget, EvoSearchConfig(**fields))
        numpy = evolution_search(grid, budget, EvoSearchConfig(
            **{k: np.int64(v) for k, v in fields.items()}))
        assert numpy.genome == plain.genome
        assert numpy.eval == plain.eval
        assert numpy.history == plain.history


class TestInitialPopulation:
    """Regression for the population-sizing bug: with population_size=1 the
    old implementation seeded 2 individuals (a random one plus the
    smallest-genome anchor), silently exceeding the configured size."""

    @pytest.mark.parametrize("size", [1, 2, 3, 8, 64])
    def test_exact_population_size(self, grid, size):
        rng = np.random.default_rng(0)
        population = initial_population(grid, size, rng)
        assert population.shape == (size, len(grid.spec))

    def test_contains_smallest_anchor(self, grid):
        m = grid.matrices()
        rng = np.random.default_rng(0)
        population = initial_population(grid, 16, rng)
        smallest = np.array([
            int(np.argmin(m.crossbars[li, :m.num_options[li]]))
            for li in range(m.num_layers)])
        assert (population[-1] == smallest).all()

    def test_indices_in_range(self, grid):
        m = grid.matrices()
        rng = np.random.default_rng(5)
        population = initial_population(grid, 64, rng)
        assert (population >= 0).all()
        assert (population < m.num_options[None, :]).all()


def initial_population_loop(grid, population_size, rng):
    """The per-layer loop ``initial_population`` replaced, kept as the
    reference its masked argmin and option-index table must match."""
    matrices = grid.matrices()
    counts = matrices.num_options
    L = matrices.num_layers
    smallest = np.array([int(np.argmin(matrices.crossbars[li, :counts[li]]))
                         for li in range(L)], dtype=np.int64)
    if population_size == 1:
        return smallest[None, :]
    all_candidates = sorted({cand for opts in matrices.options
                             for cand in opts if cand is not None})
    seeds = []
    for cand in all_candidates[:max(0, population_size - 2)]:
        genome = smallest.copy()
        for li, opts in enumerate(matrices.options):
            if cand in opts:
                genome[li] = opts.index(cand)
        seeds.append(genome)
    n_random = max(0, population_size - 1 - len(seeds))
    rows = []
    if n_random:
        rows.append(rng.integers(0, counts, size=(n_random, L),
                                 dtype=np.int64))
    if seeds:
        rows.append(np.stack(seeds))
    rows.append(smallest[None, :])
    return np.concatenate(rows, axis=0)


class TestInitialPopulationMatchesLoop:
    @pytest.fixture(scope="class", params=["resnet18", "resnet50"])
    def any_grid(self, request, grid):
        if request.param == "resnet18":
            return grid
        return build_candidate_grid(resnet50_spec(), weight_bits=9,
                                    activation_bits=9)

    @pytest.mark.parametrize("size", [1, 2, 3, 64])
    def test_same_population_and_draws(self, any_grid, size):
        for seed in range(25):
            rng, ref_rng = (np.random.default_rng(seed) for _ in range(2))
            population = initial_population(any_grid, size, rng)
            expected = initial_population_loop(any_grid, size, ref_rng)
            assert population.dtype == expected.dtype == np.int64
            assert np.array_equal(population, expected)
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_ties_and_padding_match_loop(self, grid):
        """Rows whose smallest crossbar count is tied anchor on the first
        such option, as each row's ``np.argmin`` does, and the zero
        padding past a layer's options never wins."""
        m = grid.matrices()
        in_range = np.arange(m.crossbars.shape[1]) < m.num_options[:, None]
        crossbars = np.where(
            in_range, np.random.default_rng(0).integers(1, 3, in_range.shape),
            0)
        tied_matrices = dataclasses.replace(m, crossbars=crossbars)
        tied = SimpleNamespace(matrices=lambda: tied_matrices)
        for size in (1, 2, 3, 64):
            population = initial_population(tied, size,
                                            np.random.default_rng(1))
            assert np.array_equal(population, initial_population_loop(
                tied, size, np.random.default_rng(1)))


class TestRestartPropagation:
    """Regression for the restart loop dropping hyper-parameters: restarts
    must be derived with dataclasses.replace, not a field-by-field rebuild."""

    def test_restarts_preserve_every_field(self, grid, budget, monkeypatch):
        seen = []
        real = evolve_module._evolution_search_once

        def spy(grid_, budget_, config, lut):
            seen.append(config)
            return real(grid_, budget_, config, lut)

        monkeypatch.setattr(evolve_module, "_evolution_search_once", spy)
        config = EvoSearchConfig(population_size=8, iterations=2,
                                 num_parents=3, mutation_layers=2,
                                 objective="energy", seed=11, restarts=3,
                                 crossover_rate=0.25, patience=7)
        evolution_search(grid, budget, config)
        assert len(seen) == 3
        for restart, inner in enumerate(seen):
            assert inner == dataclasses.replace(config, seed=11 + restart,
                                                restarts=1)


class TestEvolutionSearch:
    def test_deterministic_end_to_end(self, grid, budget):
        config = EvoSearchConfig(population_size=24, iterations=8, seed=42)
        a = evolution_search(grid, budget, config)
        b = evolution_search(grid, budget, config)
        assert a.genome == b.genome
        assert a.eval == b.eval
        assert a.history == b.history

    def test_respects_budget_and_feasible(self, grid, budget):
        """The winner fits the budget, and on its objective (latency) it
        matches the best uniform design within budget and comes within 5%
        of the best of as many random designs as one restart evaluates."""
        config = EvoSearchConfig(population_size=24, iterations=10, seed=0)
        result = evolution_search(grid, budget, config)
        assert result.feasible
        assert result.eval.crossbars <= budget

        def best_latency(genomes):
            evals = [evaluate_assignment(grid, genome) for genome in genomes]
            return min(e.latency_ms for e in evals if e.crossbars <= budget)

        options = [grid.candidates[layer.name] for layer in grid.spec]
        uniform = [[cand if cand in opts else None for opts in options]
                   for cand in ((2048, 512), (1024, 256), (512, 128),
                                (256, 64))]
        draw = np.random.default_rng(0)
        random = [[opts[draw.integers(len(opts))] for opts in options]
                  for _ in range(config.population_size * config.iterations)]
        assert result.eval.latency_ms <= best_latency(uniform) * 1.001
        assert result.eval.latency_ms <= best_latency(random) * 1.05

    def test_history_monotone_full_length(self, grid, budget):
        result = evolution_search(grid, budget,
                                  EvoSearchConfig(population_size=16,
                                                  iterations=9, seed=0))
        assert len(result.history) == 9
        assert all(b >= a for a, b in zip(result.history,
                                          result.history[1:]))

    def test_early_stopping_truncates_history(self, grid, budget):
        config = EvoSearchConfig(population_size=32, iterations=400,
                                 restarts=1, patience=3, seed=0)
        result = evolution_search(grid, budget, config)
        assert len(result.history) < 400
        # the run ends on exactly `patience` iterations without improvement
        best_before = max(result.history[:-config.patience])
        assert all(r <= best_before
                   for r in result.history[-config.patience:])

    def test_zero_crossover_still_works(self, grid, budget):
        result = evolution_search(grid, budget,
                                  EvoSearchConfig(population_size=16,
                                                  iterations=5,
                                                  crossover_rate=0.0,
                                                  seed=1))
        assert result.eval.crossbars <= budget

    def test_population_size_one(self, grid, budget):
        # anchor-only population: must not blow up nor exceed size 1
        result = evolution_search(grid, budget,
                                  EvoSearchConfig(population_size=1,
                                                  num_parents=1,
                                                  iterations=3, restarts=1,
                                                  seed=0))
        assert result.feasible

    def test_parallel_restarts_match_serial(self, grid, budget):
        serial = evolution_search(grid, budget,
                                  EvoSearchConfig(population_size=16,
                                                  iterations=5, restarts=3,
                                                  seed=9, workers=1))
        parallel = evolution_search(grid, budget,
                                    EvoSearchConfig(population_size=16,
                                                    iterations=5, restarts=3,
                                                    seed=9, workers=2))
        assert serial.genome == parallel.genome
        assert serial.eval == parallel.eval

    def test_num_parents_at_population_size_still_breeds(self, grid):
        """Regression: num_parents >= population_size used to copy the
        population forward unchanged (zero children per generation), so
        the search returned the best *seed* design with a flat history.
        At most population_size - 1 parents may survive a generation."""
        from repro.search.evolve import breed

        m = grid.matrices()
        rng = np.random.default_rng(0)
        parents = initial_population(grid, 16, rng)
        config = EvoSearchConfig(population_size=16, num_parents=16)
        child_rows = breed(parents, config, m.num_options,
                           np.random.default_rng(1))
        assert child_rows.shape == parents.shape
        # survivors are the first 15 parents; the last row is a fresh child
        assert (child_rows[:15] == parents[:15]).all()
        assert (child_rows[15] != parents[15]).any()

    def test_num_parents_at_population_size_can_improve(self, grid, budget):
        # end-to-end: with breeding restored, the degenerate configuration
        # is able to beat its seeds again (seed chosen to show it).
        result = evolution_search(grid, budget,
                                  EvoSearchConfig(population_size=16,
                                                  num_parents=16,
                                                  iterations=30, restarts=1,
                                                  seed=3))
        assert len(set(result.history)) > 1

    def test_crossover_changes_trajectory(self, grid, budget):
        base = EvoSearchConfig(population_size=32, iterations=12,
                               restarts=1, seed=4)
        with_x = evolution_search(grid, budget, base)
        without = evolution_search(grid, budget,
                                   dataclasses.replace(base,
                                                       crossover_rate=0.0))
        # Not a quality claim, just that the operator is actually wired in.
        assert with_x.history != without.history or with_x.genome != without.genome
