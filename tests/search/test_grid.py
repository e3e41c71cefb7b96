"""Vectorized evaluator vs the scalar reference (repro.search.grid)."""

import numpy as np
import pytest

from repro.search import (
    GridMatrices,
    build_candidate_grid,
    build_matrices,
    decode_genome,
    encode_genome,
    evaluate_assignment,
    evaluate_population,
    population_rewards,
)
from repro.search.evolve import _reward
from repro.models.specs import resnet18_spec, resnet50_spec


@pytest.fixture(scope="module")
def grid():
    return build_candidate_grid(resnet18_spec(), weight_bits=9,
                                activation_bits=9)


@pytest.fixture(scope="module")
def grid50():
    return build_candidate_grid(resnet50_spec(), weight_bits=9,
                                activation_bits=9, use_wrapping=True)


def random_population(grid, size, seed=0):
    matrices = grid.matrices()
    rng = np.random.default_rng(seed)
    return rng.integers(0, matrices.num_options,
                        size=(size, matrices.num_layers), dtype=np.int64)


class TestMatrices:
    def test_shapes_and_counts(self, grid):
        m = grid.matrices()
        L = len(grid.spec)
        assert m.num_layers == L
        assert m.crossbars.shape == m.latency_ns.shape == m.dynamic_pj.shape
        assert m.crossbars.shape[0] == L
        assert (m.num_options
                == [len(grid.candidates[l.name]) for l in grid.spec]).all()

    def test_matrices_match_cache(self, grid):
        m = grid.matrices()
        for li, layer in enumerate(grid.spec):
            for ki, cand in enumerate(grid.candidates[layer.name]):
                xb, lat, dyn = grid.cache[(layer.name, cand)]
                assert m.crossbars[li, ki] == xb
                assert m.latency_ns[li, ki] == lat
                assert m.dynamic_pj[li, ki] == dyn

    def test_matrices_cached_on_grid(self, grid):
        assert grid.matrices() is grid.matrices()

    def test_build_matrices_standalone(self, grid):
        m = build_matrices(grid)
        assert m.layer_names == tuple(l.name for l in grid.spec)

    def test_encode_decode_roundtrip(self, grid):
        m = grid.matrices()
        population = random_population(grid, 16, seed=3)
        for row in population:
            genome = decode_genome(m, row)
            assert (encode_genome(m, genome) == row).all()

    def test_encode_rejects_wrong_length(self, grid):
        with pytest.raises(ValueError):
            encode_genome(grid.matrices(), [None])

    def test_decode_rejects_wrong_length(self, grid):
        m = grid.matrices()
        for length in (0, m.num_layers - 1, m.num_layers + 1):
            with pytest.raises(ValueError, match="genome length"):
                decode_genome(m, np.zeros(length, dtype=np.int64))

    def test_float_cells_cached_per_matrices(self, grid):
        m = grid.matrices()
        assert m.float_cells is m.float_cells
        assert m.layer_offsets is m.layer_offsets
        K = m.crossbars.shape[1]
        cells = m.float_cells.reshape(m.num_layers, K, 2)
        assert (cells[..., 0] == m.latency_ns).all()
        assert (cells[..., 1] == m.dynamic_pj).all()
        assert m.layer_offsets[:, 0].tolist() == [
            li * K for li in range(m.num_layers)]


class TestVectorizedAgreement:
    """The satellite contract: vectorized == scalar, bit for bit."""

    @staticmethod
    def assert_bit_for_bit(grid, population):
        m = grid.matrices()
        evals = evaluate_population(m, population)
        assert len(evals) == len(population)
        for i, row in enumerate(population):
            scalar = evaluate_assignment(grid, decode_genome(m, row))
            # Exact equality, not approx: both paths accumulate in the
            # same layer order with the same IEEE-754 operations.
            assert scalar.crossbars == evals.crossbars[i]
            assert scalar.latency_ms == evals.latency_ms[i]
            assert scalar.energy_mj == evals.energy_mj[i]
            assert scalar.edp == evals.edp[i]
            assert evals.result(i) == scalar

    def test_bit_for_bit_metrics(self, grid):
        self.assert_bit_for_bit(grid, random_population(grid, 128))

    def test_bit_for_bit_metrics_resnet50(self, grid50):
        # 54 layers: long enough that a pairwise reduction over the layer
        # axis would round differently from the scalar left-to-right sum.
        self.assert_bit_for_bit(grid50, random_population(grid50, 256, seed=9))

    def test_bit_for_bit_across_blocks(self, grid):
        # More individuals than one evaluation block holds.
        self.assert_bit_for_bit(grid, random_population(grid, 2500, seed=2))

    @pytest.mark.parametrize("size", [1023, 1024, 1025])
    def test_bit_for_bit_at_the_block_boundary(self, grid50, size):
        self.assert_bit_for_bit(grid50,
                                random_population(grid50, size, seed=size))

    def test_single_individual(self, grid50):
        self.assert_bit_for_bit(grid50, random_population(grid50, 1, seed=4))

    def test_empty_population(self, grid50):
        m = grid50.matrices()
        evals = evaluate_population(
            m, np.empty((0, m.num_layers), dtype=np.int64))
        assert len(evals) == 0
        assert evals.crossbars.dtype == np.int64
        assert evals.latency_ms.shape == evals.energy_mj.shape == (0,)

    def test_no_layers(self):
        m = GridMatrices(layer_names=(), options=(),
                         num_options=np.zeros(0, dtype=np.int64),
                         crossbars=np.zeros((0, 0), dtype=np.int64),
                         latency_ns=np.zeros((0, 0)),
                         dynamic_pj=np.zeros((0, 0)))
        evals = evaluate_population(m, np.zeros((3, 0), dtype=np.int64))
        assert evals.crossbars.tolist() == [0, 0, 0]
        assert evals.latency_ms.tolist() == [0.0, 0.0, 0.0]
        assert evals.energy_mj.tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("objective", ["latency", "energy", "edp"])
    def test_reward_ordering_identical(self, grid, objective):
        m = grid.matrices()
        population = random_population(grid, 96, seed=7)
        evals = evaluate_population(m, population)
        budget = int(np.median(evals.crossbars))
        vector = population_rewards(evals, budget, objective)
        scalar = np.array([
            _reward(evaluate_assignment(grid, decode_genome(m, row)),
                    budget, objective)
            for row in population])
        assert (vector == scalar).all()
        assert (np.argsort(-vector, kind="stable")
                == np.argsort(-scalar, kind="stable")).all()

    def test_budget_gate(self, grid):
        m = grid.matrices()
        population = random_population(grid, 32, seed=1)
        evals = evaluate_population(m, population)
        rewards = population_rewards(evals, int(evals.crossbars.min()) - 1,
                                     "latency")
        assert (rewards == 0.0).all()
        rewards = population_rewards(evals, None, "latency")
        assert (rewards > 0.0).all()

    def test_unknown_objective(self, grid):
        m = grid.matrices()
        evals = evaluate_population(m, random_population(grid, 2))
        with pytest.raises(ValueError):
            population_rewards(evals, None, "speed")

    def test_rejects_bad_shapes(self, grid):
        m = grid.matrices()
        with pytest.raises(ValueError):
            evaluate_population(m, np.zeros(3, dtype=np.int64))
        with pytest.raises(ValueError):
            evaluate_population(m, np.zeros((2, m.num_layers + 1),
                                            dtype=np.int64))


def sequential_rows(x):
    """The per-layer loop ``evaluate_population`` ran before its single
    reduction: rows added one by one, in order, onto zeros."""
    total = np.zeros(x.shape[1:])
    for row in x:
        total += row
    return total


class TestLayerAxisReduce:
    """The NumPy rule ``evaluate_population`` relies on: a reduction
    over axis 0 of a C-ordered array adds the rows in order, because
    NumPy sums pairwise only along the contiguous innermost axis."""

    @staticmethod
    def hard_array(rng, layers, individuals):
        # Magnitudes 1e-8..1e12 of either sign, a quarter of them zeros
        # (half of those -0.0), so every rounding path is exercised.
        shape = (layers, individuals, 2)
        x = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(
            -8, 12, size=shape)
        zeros = rng.random(shape) < 0.25
        x[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, 0.0, -0.0)
        return x

    def test_matches_sequential_rows_bit_for_bit(self):
        rng = np.random.default_rng(20261019)
        layers = [0, 1, 2, 3, 8, 9, 16, 17, 54, 127, 200]
        layers += rng.integers(0, 201, size=14).tolist()
        pairwise_differs = 0
        for L in layers:
            for P in (0, 1, 2, 127, 1024, 1025):
                x = self.hard_array(rng, L, P)
                want = sequential_rows(x).tobytes()
                assert np.add.reduce(x, axis=0,
                                     initial=0.0).tobytes() == want, (L, P)
                # The evaluator's form: written into a block of a buffer.
                out = np.full((P + 3, 2), np.nan)
                np.add.reduce(x, axis=0, initial=0.0, out=out[1:P + 1])
                assert out[1:P + 1].tobytes() == want, (L, P)
                # A pairwise sum of the same numbers (the layer axis made
                # innermost) rounds differently: this data would catch a
                # NumPy that reduced axis 0 pairwise.
                innermost = np.ascontiguousarray(np.moveaxis(x, 0, -1))
                pairwise_differs += (innermost.sum(axis=-1).tobytes()
                                     != want)
        assert pairwise_differs > len(layers)
