"""Tests for the behaviour-level performance model (repro.pim.simulator)."""

import pytest

from repro.core.designer import build_deployments, uniform_assignment
from repro.core.epitome import EpitomeShape, build_plan
from repro.models.specs import LayerSpec, resnet50_spec
from repro.pim.config import DEFAULT_CONFIG, HardwareConfig
from repro.pim.simulator import (
    baseline_deployment,
    epitome_deployment_from_plan,
    simulate_layer,
    simulate_network,
)


def conv_spec(cin=512, cout=512, k=3, size=14):
    return LayerSpec("test", "conv", cin, cout, (k, k), 1,
                     (size, size), (size, size))


def epitome_dep(spec, rows=1024, cols=256, w_bits=9, a_bits=9, wrap=False):
    shape = EpitomeShape.from_rows_cols(rows, cols, spec.kernel_size,
                                        spec.in_channels)
    plan = build_plan((spec.out_channels, spec.in_channels,
                       *spec.kernel_size), shape, with_index_map=False)
    return epitome_deployment_from_plan(spec, plan, weight_bits=w_bits,
                                        activation_bits=a_bits,
                                        use_wrapping=wrap)


def resnet50_w9a9(config, epitome):
    spec = resnet50_spec()
    if epitome:
        deps = build_deployments(spec, uniform_assignment(spec),
                                 weight_bits=9, activation_bits=9,
                                 use_wrapping=True, config=config)
    else:
        deps = [baseline_deployment(l, 9, 9, config=config) for l in spec]
    return simulate_network(deps, config)


class TestBaselineDeployment:
    def test_exec_stats(self):
        dep = baseline_deployment(conv_spec(), weight_bits=9,
                                  activation_bits=9)
        assert dep.exec_rounds == 1
        assert dep.exec_rows == 512 * 9
        assert dep.exec_cols == 512
        assert dep.exec_cells == 512 * 9 * 512

    def test_fp32_defaults(self):
        dep = baseline_deployment(conv_spec())
        assert dep.weight_bits is None
        assert dep.activation_bits == 32
        assert dep.resolved_weight_bits(DEFAULT_CONFIG) == 32


class TestEpitomeDeployment:
    def test_rounds_multiply(self):
        dep = epitome_dep(conv_spec())
        # 512*9=4608 rows -> n_ci = ceil(512/64) = 8; cout 512/256 -> n_co=2
        assert dep.n_ci_blocks == 8
        assert dep.n_co_blocks == 2
        assert dep.exec_rounds == 16

    def test_wrapping_drops_co_factor(self):
        plain = epitome_dep(conv_spec(), wrap=False)
        wrapped = epitome_dep(conv_spec(), wrap=True)
        assert wrapped.exec_rounds == plain.exec_rounds // plain.n_co_blocks
        assert wrapped.exec_cols < plain.exec_cols

    def test_total_cells_preserved(self):
        """Executed MACs (cells over all rounds) equal the virtual conv's."""
        spec = conv_spec()
        dep = epitome_dep(spec)
        assert dep.exec_cells == spec.weight_rows * spec.weight_cols


class TestSimulateLayer:
    def test_epitome_latency_scales_with_rounds(self):
        spec = conv_spec()
        base = simulate_layer(baseline_deployment(spec, 9, 9))
        ep = simulate_layer(epitome_dep(spec))
        ratio = ep.latency_ns / base.latency_ns
        assert 12 < ratio < 20     # ~16 rounds plus index-table overhead

    def test_epitome_uses_fewer_crossbars(self):
        spec = conv_spec()
        base = simulate_layer(baseline_deployment(spec, 9, 9))
        ep = simulate_layer(epitome_dep(spec))
        assert ep.num_crossbars < base.num_crossbars

    def test_wrapping_reduces_latency_and_buffer_energy(self):
        spec = conv_spec()
        plain = simulate_layer(epitome_dep(spec, wrap=False))
        wrapped = simulate_layer(epitome_dep(spec, wrap=True))
        assert wrapped.latency_ns < plain.latency_ns
        assert (wrapped.energy_breakdown["buffer_out"]
                < plain.energy_breakdown["buffer_out"])
        # wrapping does not change the crossbar allocation
        assert wrapped.num_crossbars == plain.num_crossbars

    def test_fewer_weight_bits_less_latency_and_energy(self):
        spec = conv_spec()
        r9 = simulate_layer(epitome_dep(spec, w_bits=9))
        r3 = simulate_layer(epitome_dep(spec, w_bits=3))
        assert r3.latency_ns < r9.latency_ns
        assert r3.energy_pj < r9.energy_pj
        assert r3.num_crossbars < r9.num_crossbars

    def test_fewer_activation_bits_less_latency(self):
        spec = conv_spec()
        a9 = simulate_layer(epitome_dep(spec, a_bits=9))
        a4 = simulate_layer(epitome_dep(spec, a_bits=4))
        assert a4.latency_ns < a9.latency_ns

    def test_breakdown_keys(self):
        report = simulate_layer(epitome_dep(conv_spec()))
        for key in ("xbar", "dac", "adc", "shift_add", "buffer_in",
                    "buffer_out", "joint", "index_tables"):
            assert key in report.energy_breakdown
        assert report.energy_pj == pytest.approx(
            sum(report.energy_breakdown.values()))

    def test_fc_layer(self):
        fc = LayerSpec("fc", "fc", 2048, 1000, (1, 1), 1, (1, 1), (1, 1))
        report = simulate_layer(baseline_deployment(fc, 9, 9))
        assert report.positions == 1
        assert report.num_crossbars > 0


class TestSimulateNetwork:
    def test_resnet50_baseline_calibration(self):
        """The calibrated LUT lands the FP32 baseline on the paper's row."""
        spec = resnet50_spec()
        report = simulate_network([baseline_deployment(l) for l in spec])
        assert abs(report.latency_ms - 139.8) / 139.8 < 0.05
        assert abs(report.energy_mj - 214.0) / 214.0 < 0.05
        assert 0.9 < report.utilization <= 1.0

    def test_static_energy_positive(self):
        spec = resnet50_spec()
        report = simulate_network([baseline_deployment(l) for l in spec])
        assert report.static_energy_mj > 0
        assert report.energy_mj == pytest.approx(
            report.dynamic_energy_mj + report.static_energy_mj)

    def test_compression_vs(self):
        """An epitome compresses one layer, and the uniform-epitome
        ResNet-50 at W9A9 on 128/256/512-square arrays, where smaller
        arrays fragment the baseline no more than larger ones.  Denser
        cells need fewer column slices, so fewer crossbars."""
        spec = conv_spec()
        base = simulate_network([baseline_deployment(spec, 9, 9)])
        ep = simulate_network([epitome_dep(spec)])
        assert ep.compression_vs(base) > 1.0

        utilization = {}
        for size in (128, 256, 512):
            config = HardwareConfig(xbar_rows=size, xbar_cols=size)
            base = resnet50_w9a9(config, epitome=False)
            assert resnet50_w9a9(config, epitome=True).compression_vs(base) > 1.0
            utilization[size] = base.utilization
        assert utilization[128] >= utilization[512]
        crossbars = [resnet50_w9a9(HardwareConfig(cell_bits=bits),
                                   epitome=True).num_crossbars
                     for bits in (1, 2, 4)]
        assert crossbars[0] >= crossbars[1] >= crossbars[2]

    def test_layer_by_name(self):
        spec = resnet50_spec()
        report = simulate_network([baseline_deployment(l) for l in spec])
        assert report.layer_by_name("conv1").name == "conv1"
        with pytest.raises(KeyError):
            report.layer_by_name("ghost")

    def test_edp(self):
        report = simulate_network([baseline_deployment(conv_spec(), 9, 9)])
        assert report.edp == pytest.approx(report.latency_ms * report.energy_mj)


class TestEmptyNetwork:
    """simulate_network([]) must degrade consistently, not raise from max()."""

    def test_zero_valued_properties(self):
        report = simulate_network([])
        assert report.num_crossbars == 0
        assert report.latency_ms == 0.0
        assert report.energy_mj == 0.0
        assert report.bottleneck_latency_ms == 0.0
        assert report.pipelined_throughput_fps == 0.0
        assert report.datapath_overhead_ms == 0.0
        assert report.image_interval_ms == 0.0
