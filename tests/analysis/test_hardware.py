"""Structural tests for the hardware experiment runners.

These encode the *shape claims* of the paper that the reproduction must
uphold: orderings, monotonicities and win/lose relations in Table 1,
Figure 3 and Figure 4.  :class:`TestPaperGoldens` pins the numbers
themselves: Table 1's hardware columns for ResNet-50 and ResNet-101 and
Figure 3, each float written with ``float.hex``
(``tests/analysis/test_experiments.py`` pins Figure 4 on the default
ladder the same way, on the run it already renders).  Fixtures live under
``tests/baselines/paper/``; refresh them with ``pytest --update-goldens``
only when a change is meant to move the paper's outputs.
"""

from dataclasses import asdict, fields, replace
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro.analysis.hardware as hardware
from repro.analysis.hardware import (
    FIGURE3_LAYERS,
    figure3_layers,
    figure3_rows,
    figure4_series,
    mixed_precision_bit_map,
    table1_hardware_rows,
)
from repro.core.designer import uniform_assignment
from repro.search import EvoSearchConfig
from repro.models.specs import get_network_spec, resnet50_spec
from repro.pim.lut import DEFAULT_LUT

from tests.helpers import check_json_golden

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "baselines" / "paper"


@pytest.fixture(scope="module")
def t1_rows():
    # Default (full-effort) search config: the -Opt rows' orderings are a
    # paper claim, and under-powered searches make them flaky.
    return table1_hardware_rows("resnet50")


def by_label(rows, model_sub, bitwidth):
    for row in rows:
        if model_sub in row.model and row.bitwidth == bitwidth:
            return row
    raise KeyError((model_sub, bitwidth))


class TestTable1Shape:
    def test_baseline_matches_paper_calibration(self, t1_rows):
        base = by_label(t1_rows, "ResNet50", "FP32")
        assert base.cr == 1.0
        assert abs(base.latency_ms - 139.8) / 139.8 < 0.05
        assert abs(base.energy_mj - 214.0) / 214.0 < 0.05

    def test_cr_ladder_monotone(self, t1_rows):
        crs = [by_label(t1_rows, "EPIM-ResNet50", bw).cr
               for bw in ("FP32", "W9A9", "W7A9", "W5A9", "W3mpA9", "W3A9")]
        assert all(b > a for a, b in zip(crs, crs[1:]))

    def test_epitome_fp32_latency_above_baseline(self, t1_rows):
        base = by_label(t1_rows, "ResNet50", "FP32")
        ep = by_label(t1_rows, "EPIM-ResNet50", "FP32")
        assert ep.latency_ms > base.latency_ms

    def test_epitome_fp32_energy_below_baseline(self, t1_rows):
        """The paper's leakage effect: fewer crossbars beat longer runtime."""
        base = by_label(t1_rows, "ResNet50", "FP32")
        ep = by_label(t1_rows, "EPIM-ResNet50", "FP32")
        assert ep.energy_mj < base.energy_mj

    def test_quantized_epim_far_below_baseline(self, t1_rows):
        base = by_label(t1_rows, "ResNet50", "FP32")
        w3 = by_label(t1_rows, "EPIM-ResNet50", "W3A9")
        assert w3.latency_ms < base.latency_ms / 3
        assert w3.energy_mj < base.energy_mj / 10
        assert w3.cr > 15

    def test_latency_opt_is_fastest_w9(self, t1_rows):
        rows9 = [r for r in t1_rows if r.bitwidth == "W9A9"]
        fastest = min(rows9, key=lambda r: r.latency_ms)
        assert "Latency-Opt" in fastest.model

    def test_energy_opt_is_most_efficient_w9(self, t1_rows):
        rows9 = [r for r in t1_rows if r.bitwidth == "W9A9"]
        best = min(rows9, key=lambda r: r.energy_mj)
        assert "Energy-Opt" in best.model

    def test_opt_rows_compress_more_than_uniform(self, t1_rows):
        uniform = by_label(t1_rows, "EPIM-ResNet50", "W9A9")
        for row in t1_rows:
            if "Opt" in row.model:
                assert row.cr > uniform.cr

    def test_pim_prune_row_present_with_lower_cr(self, t1_rows):
        prune = next(r for r in t1_rows if "PIM-Prune" in r.model)
        ep = by_label(t1_rows, "EPIM-ResNet50", "FP32")
        assert prune.cr < ep.cr

    def test_utilizations_realistic(self, t1_rows):
        for row in t1_rows:
            if row.utilization is not None:
                assert 0.6 < row.utilization <= 1.0

    def test_mixed_precision_between_w3_and_w5(self, t1_rows):
        w3 = by_label(t1_rows, "EPIM-ResNet50", "W3A9")
        w5 = by_label(t1_rows, "EPIM-ResNet50", "W5A9")
        mp = by_label(t1_rows, "EPIM-ResNet50", "W3mpA9")
        assert w5.xbars <= mp.xbars or mp.xbars <= w3.xbars * 1.5
        assert w5.cr < mp.cr < w3.cr


class TestScaleFactors:
    """What the two calibration factors of ``ComponentLUT`` move, on
    Table 1's ResNet-50 rows (the ``-Opt`` rows search, so their designs
    may change with the LUT; they are left out).  Doubling a float is
    exact, so where a ratio does not depend on a factor it is bit-equal.
    """

    @staticmethod
    def rows(lut):
        """``(latency, energy)`` of each simulated row, baseline first."""
        return [(row.latency_ms, row.energy_mj) for row in
                table1_hardware_rows("resnet50", lut=lut,
                                     include_opt_rows=False)
                if row.latency_ms is not None]

    @staticmethod
    def ratios(rows, column):
        return [row[column] / rows[0][column] for row in rows]

    @pytest.fixture(scope="class")
    def runs(self):
        no_leak = replace(DEFAULT_LUT, p_leak_per_xbar_uw=0.0)
        luts = {
            "default": DEFAULT_LUT,
            "2x latency": DEFAULT_LUT.scaled(
                latency_scale=2 * DEFAULT_LUT.latency_scale),
            "2x energy": DEFAULT_LUT.scaled(
                energy_scale=2 * DEFAULT_LUT.energy_scale),
            "no leak": no_leak,
            "no leak, 2x latency": no_leak.scaled(
                latency_scale=2 * no_leak.latency_scale),
        }
        # The PIM-Prune row has no latency or energy, and its seeded
        # mask draw is most of a call's time: stand it in.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hardware, "pim_prune_network", lambda *args, **kw:
                          SimpleNamespace(crossbar_compression=None))
            return {name: self.rows(lut) for name, lut in luts.items()}

    def test_latency_ratios_ignore_both_factors(self, runs):
        assert len(runs["default"]) == 7    # FP32, EPIM FP32, W9/7/5/3mp/3
        default = self.ratios(runs["default"], 0)
        assert self.ratios(runs["2x latency"], 0) == default
        assert self.ratios(runs["2x energy"], 0) == default

    def test_energy_ratios_ignore_energy_scale(self, runs):
        assert self.ratios(runs["2x energy"], 1) \
            == self.ratios(runs["default"], 1)

    def test_energy_ratios_move_with_latency_scale_through_leakage(
            self, runs):
        default = self.ratios(runs["default"], 1)
        doubled = self.ratios(runs["2x latency"], 1)
        assert default[2] == pytest.approx(0.0644, abs=5e-5)    # W9A9
        assert doubled[2] == pytest.approx(0.0512, abs=5e-5)
        # leakage is a larger share of the baseline's energy than of any
        # EPIM row's, so doubling it lowers every EPIM row's ratio
        assert all(d < r for d, r in zip(doubled[1:], default[1:]))
        # without leakage, energy does not depend on latency_scale
        assert runs["no leak, 2x latency"] == [
            (2 * latency, energy) for latency, energy in runs["no leak"]]
        # the doubled run's energy is dynamic energy plus twice the leakage
        for (_, energy), (_, dynamic), (_, doubled_energy) in zip(
                runs["default"], runs["no leak"], runs["2x latency"]):
            assert doubled_energy == pytest.approx(
                dynamic + 2 * (energy - dynamic), rel=1e-12)


class TestMixedPrecisionMap:
    def test_allocates_both_precisions(self):
        spec = resnet50_spec()
        bit_map = mixed_precision_bit_map(spec, uniform_assignment(spec))
        values = set(bit_map.values())
        assert values <= {3, 5}
        assert len(values) == 2


class TestFigure3Shape:
    @pytest.fixture(scope="class")
    def rows(self):
        return figure3_rows()

    def test_three_layers(self, rows):
        assert [r.paper_index for r in rows] == sorted(FIGURE3_LAYERS)

    def test_late_layer_saves_most_params(self, rows):
        by_idx = {r.paper_index: r for r in rows}
        assert by_idx[67].params_saved_k > by_idx[41].params_saved_k
        assert by_idx[41].params_saved_k > by_idx[9].params_saved_k

    def test_early_layer_worst_tradeoff(self, rows):
        """Params saved per ms of latency added: L67 >> L9 (the motivation
        for layer-wise design, section 5.2)."""
        by_idx = {r.paper_index: r for r in rows}

        def efficiency(row):
            return row.params_saved_k / max(row.latency_increase_ms, 1e-9)

        assert efficiency(by_idx[67]) > 10 * efficiency(by_idx[9])

    def test_epitome_increases_latency_and_energy_per_layer(self, rows):
        for row in rows:
            assert row.epitome_latency_ms > row.conv_latency_ms
            assert row.epitome_energy_01mj > row.conv_energy_01mj


class TestFigure3Layers:
    """The default map was chosen on ResNet-50: a model is refused unless
    every mapped layer has the same kernel and channels there."""

    @pytest.mark.parametrize("model", ["resnet50", "resnet101"])
    def test_bottleneck_resnets_match(self, model):
        assert figure3_layers(get_network_spec(model)) == FIGURE3_LAYERS

    def test_resnet34_layer67_is_another_shape(self):
        with pytest.raises(ValueError) as info:
            figure3_layers(get_network_spec("resnet34"))
        assert str(info.value) == (
            "layer4.2.conv1 is a 3x3 512->512 conv in ResNet34, not the "
            "1x1 2048->512 conv of ResNet50 that figure 3 plots as layer 67")


class TestFigure4Shape:
    @pytest.fixture(scope="class")
    def points(self):
        return figure4_series(
            ladder=[(1024, 256), (512, 128), (256, 64)],
            search=EvoSearchConfig(population_size=32, iterations=20))

    def test_compression_increases_along_ladder(self, points):
        crs = [p.compression for p in points]
        assert all(b > a for a, b in zip(crs, crs[1:]))

    def test_uniform_latency_grows_with_compression(self, points):
        lats = [p.metrics["Uniform"][0] for p in points]
        assert all(b > a for a, b in zip(lats, lats[1:]))

    def test_wrapping_never_hurts(self, points):
        for p in points:
            assert p.metrics["EPIM-CW"][0] <= p.metrics["Uniform"][0] * 1.001
            assert p.metrics["EPIM-CW"][1] <= p.metrics["Uniform"][1] * 1.001

    def test_opt_dominates_uniform(self, points):
        for p in points:
            assert p.metrics["EPIM-Opt"][2] < p.metrics["Uniform"][2]

    def test_paper_scale_gains_at_high_compression(self, points):
        """Paper: up to 3.07x speedup, 2.36x energy, 7.13x EDP."""
        last = points[-1]
        speedup = last.metrics["Uniform"][0] / last.metrics["EPIM-Opt"][0]
        energy_gain = last.metrics["Uniform"][1] / last.metrics["EPIM-Opt"][1]
        edp_gain = last.metrics["Uniform"][2] / last.metrics["EPIM-Opt"][2]
        assert speedup > 1.5
        assert energy_gain > 1.5
        assert edp_gain > 3.0


def _hexed(record):
    """``record`` with every float written by ``float.hex``."""
    return {key: value.hex() if isinstance(value, float) else value
            for key, value in record.items()}


def _table1_payload(rows):
    return [_hexed({field.name: getattr(row, field.name)
                    for field in fields(row) if field.name != "report"})
            for row in rows]


class TestPaperGoldens:
    def test_table1_resnet50(self, t1_rows, update_goldens):
        check_json_golden(GOLDEN_DIR / "table1-resnet50.json",
                          _table1_payload(t1_rows), update_goldens)

    def test_table1_resnet101(self, update_goldens):
        check_json_golden(GOLDEN_DIR / "table1-resnet101.json",
                          _table1_payload(table1_hardware_rows("resnet101")),
                          update_goldens)

    def test_figure3(self, update_goldens):
        check_json_golden(GOLDEN_DIR / "figure3-resnet50.json",
                          [_hexed(asdict(row)) for row in figure3_rows()],
                          update_goldens)
