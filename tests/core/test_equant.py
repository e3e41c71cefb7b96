"""Tests for epitome-aware quantization (repro.core.equant) — Eqs. 4-5."""

import numpy as np
import pytest

from repro.core.designer import convert_model, epitome_layers
from repro.core.epitome import EpitomeShape
from repro.core.equant import (
    EpitomeQuantConfig,
    apply_epitome_quantization,
    crossbar_group_ids,
    epitome_scales,
    make_epitome_quant_hook,
    remove_epitome_quantization,
    weighted_range,
)
from repro.core.layers import EpitomeConv2d
from repro.models.resnet import resnet20
from repro.nn.tensor import Tensor


def big_layer():
    shape = EpitomeShape.from_rows_cols(1024, 256, (3, 3), 512)
    return EpitomeConv2d(512, 512, 3, padding=1, epitome_shape=shape,
                         rng=np.random.default_rng(0))


class TestConfig:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            EpitomeQuantConfig(mode="bogus")

    def test_bits_validation(self):
        with pytest.raises(ValueError):
            EpitomeQuantConfig(bits=1)


class TestCrossbarGroupIds:
    def test_ids_partition_epitome(self):
        shape = EpitomeShape.from_rows_cols(1024, 256, (3, 3), 512)
        ids = crossbar_group_ids(shape)
        assert ids.shape == shape.as_tuple()
        # 1024 rows / 256 = 4 row groups x 1 col group = 4 crossbars
        assert ids.min() == 0 and ids.max() == 3

    def test_matrix_layout_consistency(self):
        """Group of element (eo, ci, h, w) matches its crossbar tile in the
        (rows, cols) matrix layout used by the datapath."""
        shape = EpitomeShape(4, 300, 1, 1)       # rows=300 -> 2 row groups
        ids = crossbar_group_ids(shape)
        assert ids[0, 0, 0, 0] == 0
        assert ids[0, 299, 0, 0] == 1

    def test_column_groups(self):
        shape = EpitomeShape(512, 256, 1, 1)     # cols 512 -> 2 col groups
        ids = crossbar_group_ids(shape)
        assert ids[0, 0, 0, 0] == 0
        assert ids[511, 0, 0, 0] == 1

    def test_small_epitome_single_group(self):
        shape = EpitomeShape(8, 16, 3, 3)
        assert crossbar_group_ids(shape).max() == 0


class TestWeightedRange:
    def test_blend(self):
        values = np.array([-1.0, -0.2, 0.3, 2.0])
        mask = np.array([False, True, True, False])
        lo, hi = weighted_range(values, mask, w1=0.7, w2=0.3)
        assert lo == pytest.approx(0.7 * -0.2 + 0.3 * -1.0)
        assert hi == pytest.approx(0.7 * 0.3 + 0.3 * 2.0)

    def test_w1_one_uses_overlap_only(self):
        values = np.array([-1.0, -0.2, 0.3, 2.0])
        mask = np.array([False, True, True, False])
        lo, hi = weighted_range(values, mask, w1=1.0, w2=0.0)
        assert (lo, hi) == (-0.2, 0.3)

    def test_empty_overlap_falls_back(self):
        values = np.array([1.0, 2.0])
        mask = np.array([False, False])
        assert weighted_range(values, mask, 0.7, 0.3) == (1.0, 2.0)

    def test_empty_others_falls_back(self):
        values = np.array([1.0, 2.0])
        mask = np.array([True, True])
        assert weighted_range(values, mask, 0.7, 0.3) == (1.0, 2.0)

    def test_range_never_inverted(self, rng):
        values = rng.standard_normal(50)
        mask = rng.random(50) > 0.5
        lo, hi = weighted_range(values, mask, 0.7, 0.3)
        assert lo <= hi


class TestEpitomeScales:
    def test_naive_single_scale(self):
        layer = big_layer()
        scales, ids = epitome_scales(layer, EpitomeQuantConfig(mode="naive"))
        assert scales.shape == (1,)
        assert ids.max() == 0

    def test_crossbar_mode_scale_per_tile(self):
        layer = big_layer()
        scales, ids = epitome_scales(layer,
                                     EpitomeQuantConfig(mode="crossbar"))
        assert scales.shape == (4,)
        assert np.all(scales > 0)

    def test_overlap_mode_narrows_range(self):
        """The overlap-weighted range is never wider than plain min/max."""
        layer = big_layer()
        xb_scales, _ = epitome_scales(layer,
                                      EpitomeQuantConfig(mode="crossbar"))
        ov_scales, _ = epitome_scales(
            layer, EpitomeQuantConfig(mode="crossbar_overlap"))
        assert np.all(ov_scales <= xb_scales + 1e-12)

    def test_crossbar_scales_bound_by_naive(self):
        """Per-tile ranges are subsets of the global range."""
        layer = big_layer()
        naive, _ = epitome_scales(layer, EpitomeQuantConfig(mode="naive"))
        tiles, _ = epitome_scales(layer, EpitomeQuantConfig(mode="crossbar"))
        assert np.all(tiles <= naive[0] + 1e-12)


class TestHooksOnModels:
    def _converted(self):
        model = resnet20()
        convert_model(model, rows=128, cols=32)
        return model

    def test_apply_and_remove(self):
        model = self._converted()
        n = apply_epitome_quantization(model, EpitomeQuantConfig(bits=3))
        assert n == len(epitome_layers(model))
        assert all(m.quantize_hook is not None for _, m in epitome_layers(model))
        removed = remove_epitome_quantization(model)
        assert removed == n
        assert all(m.quantize_hook is None for _, m in epitome_layers(model))

    def test_quantization_changes_outputs(self, rng):
        model = self._converted()
        x = Tensor(rng.standard_normal((2, 3, 16, 16)).astype(np.float32))
        model.eval()
        before = model(x).data.copy()
        apply_epitome_quantization(model, EpitomeQuantConfig(bits=2))
        after = model(x).data
        assert not np.allclose(before, after)

    def test_bit_map_per_layer(self):
        model = self._converted()
        names = [name for name, _ in epitome_layers(model)]
        bit_map = {names[0]: 8}
        apply_epitome_quantization(model, EpitomeQuantConfig(bits=2),
                                   bit_map=bit_map)
        # 8-bit layer has much finer scales than the 2-bit ones
        layers = dict(epitome_layers(model))
        first = layers[names[0]]
        e = first.epitome
        out = first.quantize_hook(e)
        err_first = np.abs(out.data - e.data).max()
        second = layers[names[1]]
        err_second = np.abs(second.quantize_hook(second.epitome).data
                            - second.epitome.data).max()
        assert err_first < err_second

    def test_quantized_error_smaller_with_more_bits(self):
        layer = big_layer()
        for mode in ("naive", "crossbar", "crossbar_overlap"):
            hook3 = make_epitome_quant_hook(layer,
                                            EpitomeQuantConfig(bits=3,
                                                               mode=mode))
            hook8 = make_epitome_quant_hook(layer,
                                            EpitomeQuantConfig(bits=8,
                                                               mode=mode))
            err3 = np.abs(hook3(layer.epitome).data - layer.epitome.data).mean()
            err8 = np.abs(hook8(layer.epitome).data - layer.epitome.data).mean()
            assert err8 < err3

    def test_overlap_mode_reduces_weighted_error(self):
        """The paper's rationale: error weighted by repetition count drops
        when the range hugs the highly-repeated region.  Per-crossbar
        scales already beat one scale (Table 2's first step); every swept
        blend weight ``w1`` and overlap quantile beats them, and the
        default ``w1 = 0.7`` is within 10% of the best swept ``w1``."""
        layer = big_layer()
        counts = layer.repetition_counts().astype(np.float64)

        def weighted_error(**quant):
            hook = make_epitome_quant_hook(
                layer, EpitomeQuantConfig(bits=3, **quant))
            out = hook(layer.epitome).data
            return float((counts * (out - layer.epitome.data) ** 2).sum())

        errs = {mode: weighted_error(mode=mode)
                for mode in ("naive", "crossbar", "crossbar_overlap")}
        assert errs["crossbar"] <= errs["naive"]
        assert errs["crossbar_overlap"] <= errs["crossbar"] * 1.05
        by_w1 = {w1: weighted_error(mode="crossbar_overlap", w1=w1,
                                    w2=1.0 - w1)
                 for w1 in (0.3, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)}
        assert max(by_w1.values()) < errs["crossbar"]
        assert by_w1[0.7] <= min(by_w1.values()) * 1.10
        for quantile in (0.25, 0.75):
            assert weighted_error(mode="crossbar_overlap",
                                  overlap_quantile=quantile) < errs["crossbar"]
