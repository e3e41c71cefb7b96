"""Tests for the accuracy workbench plumbing (repro.analysis.accuracy).

Training-heavy paths run in ``tests/analysis/test_experiments.py`` and
``tests/test_integration.py``; these tests cover the cheap invariants:
preset registry, dataset determinism, caching, quantization-grouping
hardware config, and the scale-free HAWQ cost model.
"""

import numpy as np
import pytest

from repro.analysis.accuracy import PRESETS, AccuracyWorkbench


class TestPresets:
    def test_registry_names(self):
        assert set(PRESETS) == {"smoke", "default", "full"}
        for name, preset in PRESETS.items():
            assert preset.name == name

    def test_scales_ordered(self):
        assert (PRESETS["smoke"].num_train <= PRESETS["default"].num_train
                <= PRESETS["full"].num_train)
        assert PRESETS["smoke"].epochs <= PRESETS["full"].epochs

    def test_train_config_overrides(self):
        preset = PRESETS["smoke"]
        cfg = preset.train_config(epochs=1, lr=0.5)
        assert cfg.epochs == 1
        assert cfg.lr == 0.5
        default_cfg = preset.train_config()
        assert default_cfg.epochs == preset.epochs


class TestWorkbenchPlumbing:
    @pytest.fixture(scope="class")
    def bench(self):
        return AccuracyWorkbench(PRESETS["smoke"])

    def test_datasets_built(self, bench):
        assert len(bench.train_set) == PRESETS["smoke"].num_train
        assert len(bench.val_set) == PRESETS["smoke"].num_val

    def test_loaders_deterministic(self, bench):
        loader_a, _ = bench.loaders()
        loader_b, _ = bench.loaders()
        batch_a = next(iter(loader_a))
        batch_b = next(iter(loader_b))
        np.testing.assert_array_equal(batch_a[0], batch_b[0])

    def test_quant_hardware_config_scaled(self, bench):
        config = bench.quant_hardware_config()
        assert config.xbar_rows == PRESETS["smoke"].quant_xbar
        assert config.xbar_cols == PRESETS["smoke"].quant_xbar
        assert config.xbar_cols % config.adc_share == 0

    def test_fresh_epitome_model_respects_rows_cols(self, bench):
        from repro.core.designer import epitome_layers
        small = bench._fresh_epitome_model(rows_cols=(64, 16))
        large = bench._fresh_epitome_model(rows_cols=(256, 64))
        assert (small.num_parameters() < large.num_parameters())
        assert epitome_layers(small)

    def test_epitome_models_reproducible(self, bench):
        a = bench._fresh_epitome_model()
        b = bench._fresh_epitome_model()
        for (_, pa), (_, pb) in zip(a.named_parameters(),
                                    b.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)


class TestHawqCostModel:
    def test_cost_scale_free(self):
        """The mixed-precision cost is in cells, so layers too small to
        fill a crossbar still exert budget pressure."""
        bench = AccuracyWorkbench(PRESETS["smoke"])
        model = bench._fresh_epitome_model()
        cell_bits = bench.quant_hardware_config().cell_bits
        from repro.core.designer import epitome_layers
        name, module = epitome_layers(model)[0]
        shape = module.epitome_shape
        cost3 = shape.rows * shape.cols * (-(-3 // cell_bits))
        cost5 = shape.rows * shape.cols * (-(-5 // cell_bits))
        assert cost5 > cost3
