"""Tests for the PIM-Prune reproduction (repro.baselines.pim_prune)."""


import numpy as np
import pytest

from repro.baselines.pim_prune import (
    compact_crossbar_count,
    pim_prune_network,
    structured_row_mask,
)
from repro.models.specs import resnet50_spec, resnet101_spec
from repro.pim.config import DEFAULT_CONFIG


class TestStructuredMask:
    def test_prunes_whole_segments(self, rng):
        matrix = rng.standard_normal((64, 512))
        mask = structured_row_mask(matrix, 0.5)
        # within each 256-col block, every row is fully kept or fully dropped
        for b in range(2):
            seg = mask[:, b * 256:(b + 1) * 256]
            row_any = seg.any(axis=1)
            row_all = seg.all(axis=1)
            np.testing.assert_array_equal(row_any, row_all)

    def test_ratio_respected(self, rng):
        matrix = rng.standard_normal((100, 256))
        mask = structured_row_mask(matrix, 0.3)
        assert abs((~mask).mean() - 0.3) < 0.02

    def test_drops_low_norm_segments(self):
        matrix = np.ones((4, 256))
        matrix[1] = 0.001          # weakest row
        mask = structured_row_mask(matrix, 0.25)
        assert not mask[1].any()
        assert mask[0].all()

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            structured_row_mask(np.ones((2, 2)), 1.5)


class TestCompaction:
    def test_dense_matrix_counts_like_mapping(self):
        mask = np.ones((512, 16), dtype=bool)   # 16 logical cols @ 16 slices
        # FP32: logical block = 256/16 = 16 cols -> one col group, 2 row groups
        assert compact_crossbar_count(mask, 32, DEFAULT_CONFIG) == 2

    def test_half_rows_pruned_halves_crossbars(self):
        mask = np.ones((512, 16), dtype=bool)
        mask[256:, :] = False
        assert compact_crossbar_count(mask, 32, DEFAULT_CONFIG) == 1

    def test_empty_mask(self):
        mask = np.zeros((256, 16), dtype=bool)
        assert compact_crossbar_count(mask, 32, DEFAULT_CONFIG) == 0

    def test_unstructured_mask_cannot_compact(self, rng):
        """Scattered element sparsity leaves every row alive — the reason
        PIM-Prune needs structure."""
        matrix = rng.standard_normal((512, 16))
        element_mask = np.abs(matrix) > np.median(np.abs(matrix))
        count = compact_crossbar_count(element_mask, 32, DEFAULT_CONFIG)
        assert count == 2     # same as dense

    def test_structured_mask_compacts(self, rng):
        matrix = rng.standard_normal((512, 256))
        mask = structured_row_mask(matrix, 0.5)
        full = compact_crossbar_count(np.ones_like(mask), 32, DEFAULT_CONFIG)
        pruned = compact_crossbar_count(mask, 32, DEFAULT_CONFIG)
        assert pruned < full


class TestPimPruneNetwork:
    def test_paper_anchor_resnet50(self):
        result = pim_prune_network(resnet50_spec(), 0.5)
        # paper: param CR 1.80 (50%); crossbar CR 2.18
        assert abs(result.param_compression - 1.80) < 0.1
        assert 1.3 < result.crossbar_compression < 2.5

    def test_75_percent(self):
        result = pim_prune_network(resnet50_spec(), 0.75)
        assert abs(result.param_compression - 3.38) < 0.3
        # paper: 3.24 for ResNet-101
        result = pim_prune_network(resnet101_spec(), 0.75)
        assert abs(result.param_compression - 3.24) < 0.3

    def test_resnet101(self):
        result = pim_prune_network(resnet101_spec(), 0.5)
        assert abs(result.param_compression - 1.78) < 0.1

    def test_higher_ratio_more_compression(self):
        r50 = pim_prune_network(resnet50_spec(), 0.5)
        r75 = pim_prune_network(resnet50_spec(), 0.75)
        assert r75.param_compression > r50.param_compression
        assert r75.crossbars < r50.crossbars

    def test_deterministic(self):
        a = pim_prune_network(resnet50_spec(), 0.5, seed=1)
        b = pim_prune_network(resnet50_spec(), 0.5, seed=1)
        assert a.crossbars == b.crossbars

    def test_supplied_weights_used(self, rng):
        spec = resnet50_spec()
        layer = spec[1]
        weights = {layer.name: rng.standard_normal(
            (layer.weight_rows, layer.weight_cols))}
        result = pim_prune_network(spec, 0.5, weights=weights)
        assert result.param_compression > 1.0

    def test_supplied_weights_shape_checked(self):
        spec = resnet50_spec()
        with pytest.raises(ValueError):
            pim_prune_network(spec, 0.5,
                              weights={spec[1].name: np.zeros((2, 2))})

    def test_layer_results_consistent(self):
        result = pim_prune_network(resnet50_spec(), 0.5)
        assert result.kept < result.num_weights
        assert all(l.crossbars_after <= l.crossbars_before
                   for l in result.layers)
