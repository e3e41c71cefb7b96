"""Tests for multi-chip shard planning (repro.serve.sharding)."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.designer import build_deployments, uniform_assignment
from repro.models.specs import resnet18_spec, resnet50_spec
from repro.pim.config import DEFAULT_CONFIG
from repro.pim.noc import layer_tiles
from repro.pim.simulator import baseline_deployment, simulate_network
from repro.serve.sharding import (
    _partition_tables,
    partition_layers,
    plan_sharding,
)


@pytest.fixture(scope="module")
def small_report():
    """ResNet-18 epitome deployment: fits one default chip."""
    spec = resnet18_spec()
    deployments = build_deployments(spec, uniform_assignment(spec),
                                    weight_bits=9, activation_bits=9,
                                    use_wrapping=True)
    return simulate_network(deployments)


@pytest.fixture(scope="module")
def big_report():
    """ResNet-50 epitome deployment: needs multiple default chips."""
    spec = resnet50_spec()
    deployments = build_deployments(spec, uniform_assignment(spec),
                                    weight_bits=9, activation_bits=9,
                                    use_wrapping=True)
    return simulate_network(deployments)


class TestPartitionLayers:
    def test_partition_is_contiguous_and_complete(self, big_report):
        parts = partition_layers(big_report, 4)
        flat = [i for part in parts for i in part]
        assert flat == list(range(len(big_report.layers)))
        assert all(part for part in parts)

    def test_partition_balances_latency(self, big_report):
        parts = partition_layers(big_report, 3)
        lat = [layer.latency_ns for layer in big_report.layers]
        shard_lat = [sum(lat[i] for i in part) for part in parts]
        # DP optimum: the bottleneck shard is far below the full network
        # and at least the heaviest single layer.
        assert max(shard_lat) < sum(lat)
        assert max(shard_lat) >= max(lat)

    def test_single_part_is_whole_network(self, big_report):
        parts = partition_layers(big_report, 1)
        assert parts == [list(range(len(big_report.layers)))]

    def test_too_many_parts_raises(self, small_report):
        with pytest.raises(ValueError):
            partition_layers(small_report, len(small_report.layers) + 1)


class TestPlanSharding:
    def test_small_model_auto_replicates(self, small_report):
        plan = plan_sharding(small_report, num_chips=2)
        assert plan.mode == "replica"
        assert plan.num_replicas == 2
        assert plan.chips_per_replica == 1
        assert plan.fits
        # replica throughput scales linearly with chips
        single = plan_sharding(small_report, num_chips=1)
        assert plan.throughput_fps == pytest.approx(
            2 * single.throughput_fps)

    def test_big_model_auto_goes_layer_wise(self, big_report):
        plan = plan_sharding(big_report, num_chips=2)
        assert plan.mode == "layer"
        assert plan.chips_per_replica == 2
        assert plan.fits
        assert all(s.num_tiles <= DEFAULT_CONFIG.tiles_per_chip
                   for s in plan.shards)
        # shards cover every layer in order
        names = [n for s in plan.shards for n in s.layer_names]
        assert names == [layer.name for layer in big_report.layers]

    def test_auto_replicates_layer_groups(self, big_report):
        plan = plan_sharding(big_report, num_chips=4)
        assert plan.mode == "layer"
        assert plan.chips_per_replica == 2
        assert plan.num_replicas == 2
        two_chip = plan_sharding(big_report, num_chips=2)
        assert plan.throughput_fps == pytest.approx(
            2 * two_chip.throughput_fps)

    def test_layer_mode_pays_interchip_transfer(self, big_report):
        plan = plan_sharding(big_report, num_chips=2, mode="layer")
        assert plan.interchip_latency_ms > 0
        assert plan.per_image_latency_ms > big_report.latency_ms

    def test_forced_replica_flags_capacity_overflow(self, big_report):
        plan = plan_sharding(big_report, num_chips=2, mode="replica")
        assert plan.mode == "replica"
        assert not plan.fits

    def test_auto_picks_max_throughput_fitting_plan(self, small_report):
        auto = plan_sharding(small_report, num_chips=2, mode="auto")
        layer = plan_sharding(small_report, num_chips=2, mode="layer")
        assert auto.fits
        assert auto.throughput_fps >= layer.throughput_fps

    def test_baseline_fp32_resnet50_spreads(self):
        spec = resnet50_spec()
        report = simulate_network([baseline_deployment(l) for l in spec])
        plan = plan_sharding(report, num_chips=8)
        assert plan.fits
        assert plan.chips_per_replica > 1

    def test_validation(self, small_report):
        with pytest.raises(ValueError):
            plan_sharding(small_report, num_chips=0)
        with pytest.raises(ValueError):
            plan_sharding(small_report, 2, mode="diagonal")

    def test_summary_renders(self, big_report):
        text = plan_sharding(big_report, num_chips=2).summary()
        assert "sharding" in text
        assert "throughput" in text

    def test_agrees_with_chips_required(self, small_report, big_report):
        """Provisioning exactly chips_required() chips must always yield a
        fitting plan — both APIs share the placement tile convention."""
        from repro.pim.accelerator import chips_required
        for report in (small_report, big_report):
            need = chips_required(report)
            plan = plan_sharding(report, num_chips=need)
            assert plan.fits
            assert plan.chips_per_replica == need


def reference_tables(lat_ns, tiles, num_parts, max_tiles):
    """The triple-loop DP ``partition_layers`` ran before its matrix
    form, kept as the reference: ``(best, cut, prefix_lat, prefix_tiles)``
    as lists."""
    n = len(lat_ns)
    lat = [x / 1e6 for x in lat_ns]
    prefix_lat = [0.0]
    prefix_tiles = [0]
    for i in range(n):
        prefix_lat.append(prefix_lat[-1] + lat[i])
        prefix_tiles.append(prefix_tiles[-1] + tiles[i])

    def seg_cost(i, j):
        cost = prefix_lat[j] - prefix_lat[i]
        if (max_tiles is not None
                and prefix_tiles[j] - prefix_tiles[i] > max_tiles):
            return float("inf")
        return cost

    INF = float("inf")
    best = [[INF] * (n + 1) for _ in range(num_parts + 1)]
    cut = [[0] * (n + 1) for _ in range(num_parts + 1)]
    best[0][0] = 0.0
    for k in range(1, num_parts + 1):
        for j in range(k, n + 1):
            for i in range(k - 1, j):
                if best[k - 1][i] == INF:
                    continue
                cand = max(best[k - 1][i], seg_cost(i, j))
                if cand < best[k][j]:
                    best[k][j] = cand
                    cut[k][j] = i
    return best, cut, prefix_lat, prefix_tiles


def reference_partition(lat_ns, tiles, num_parts, max_tiles):
    """The reference DP's partition, unconstrained fallback included."""
    n = len(lat_ns)
    best, cut, _, _ = reference_tables(lat_ns, tiles, num_parts, max_tiles)
    if best[num_parts][n] == float("inf") and max_tiles is not None:
        return reference_partition(lat_ns, tiles, num_parts, None)
    bounds = [n]
    j = n
    for k in range(num_parts, 0, -1):
        j = cut[k][j]
        bounds.append(j)
    bounds.reverse()
    return [list(range(bounds[k], bounds[k + 1]))
            for k in range(num_parts)]


def fake_report(lat_ns, crossbars):
    """The two fields of each layer report the partitioner reads."""
    return SimpleNamespace(layers=[
        SimpleNamespace(latency_ns=lat, num_crossbars=xb)
        for lat, xb in zip(lat_ns, crossbars)])


def random_case(rng):
    """Layer latencies (ns) and crossbar counts drawn from few values,
    so equal stage costs (ties) and zero-latency layers are common."""
    n = int(rng.integers(1, 25))
    scale = float(rng.choice([1.0, 1e5, 3.7e5, 1e9]))
    lat_ns = (rng.integers(0, 4, size=n) * scale).tolist()
    per_tile = DEFAULT_CONFIG.xbars_per_pe * DEFAULT_CONFIG.pes_per_tile
    crossbars = (rng.integers(1, 5, size=n) * per_tile
                 - rng.integers(0, 2, size=n)).tolist()
    return lat_ns, crossbars


def budgets(rng, tiles):
    """No budget, a binding one, and one no split fits (the fallback)."""
    top, total = max(tiles), sum(tiles)
    return [None, int(rng.integers(top, total + 1)), top - 1]


class TestPartitionAgainstReference:
    """The matrix DP against the triple loop it replaced."""

    def test_tables_match_loop(self):
        rng = np.random.default_rng(20261019)
        for _ in range(400):
            lat_ns, crossbars = random_case(rng)
            tiles = [layer_tiles(xb) for xb in crossbars]
            for max_tiles in budgets(rng, tiles):
                for parts in range(1, min(5, len(lat_ns)) + 1):
                    best, cut, prefix_lat, prefix_tiles = reference_tables(
                        lat_ns, tiles, parts, max_tiles)
                    got_best, got_cut = _partition_tables(
                        np.array(prefix_lat), np.array(prefix_tiles),
                        parts, max_tiles)
                    assert got_best.tolist() == best
                    assert got_cut.tolist() == cut

    def test_partitions_match_loop(self):
        rng = np.random.default_rng(7)
        fallbacks = 0
        for _ in range(400):
            lat_ns, crossbars = random_case(rng)
            report = fake_report(lat_ns, crossbars)
            tiles = [layer_tiles(xb) for xb in crossbars]
            for max_tiles in budgets(rng, tiles):
                for parts in range(1, min(5, len(lat_ns)) + 1):
                    expected = reference_partition(lat_ns, tiles, parts,
                                                   max_tiles)
                    assert partition_layers(report, parts,
                                            max_tiles=max_tiles) == expected
                    fallbacks += max_tiles is not None and max(tiles) > max_tiles
        assert fallbacks > 0

    def test_ties_go_to_the_earliest_cut(self):
        # Four equal layers in two parts: every split but 2+2 is worse,
        # and with a zero-latency layer several cuts tie.
        report = fake_report([1e6, 1e6, 1e6, 1e6], [1, 1, 1, 1])
        assert partition_layers(report, 2) == [[0, 1], [2, 3]]
        report = fake_report([1e6, 0.0, 0.0, 1e6], [1, 1, 1, 1])
        assert partition_layers(report, 2) == [[0], [1, 2, 3]]

    @pytest.mark.parametrize("parts", [1, 2, 3, 4, 5])
    def test_real_reports_match_loop(self, small_report, big_report, parts):
        for report in (small_report, big_report):
            lat_ns = [layer.latency_ns for layer in report.layers]
            tiles = [layer_tiles(layer.num_crossbars)
                     for layer in report.layers]
            for max_tiles in (None, DEFAULT_CONFIG.tiles_per_chip,
                              max(tiles) - 1):
                assert (partition_layers(report, parts, max_tiles=max_tiles)
                        == reference_partition(lat_ns, tiles, parts,
                                               max_tiles))
