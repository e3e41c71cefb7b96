"""Tests for the NoC/tile placement model (repro.pim.noc)."""

import math

import pytest

from repro.core.designer import build_deployments, uniform_assignment
from repro.models.specs import resnet50_spec
from repro.pim.config import DEFAULT_CONFIG
from repro.pim.noc import analyze_noc, place_tiles
from repro.pim.simulator import baseline_deployment, simulate_network


@pytest.fixture(scope="module")
def base_report():
    spec = resnet50_spec()
    return simulate_network([baseline_deployment(l, 9, 9) for l in spec])


@pytest.fixture(scope="module")
def epim_report():
    spec = resnet50_spec()
    return simulate_network(build_deployments(
        spec, uniform_assignment(spec), weight_bits=9, activation_bits=9))


class TestPlacement:
    def test_every_layer_placed(self, base_report):
        placements, total, side = place_tiles(base_report)
        assert len(placements) == len(base_report.layers)
        assert side * side >= total

    def test_layers_do_not_share_tiles(self, base_report):
        placements, total, _ = place_tiles(base_report)
        occupied = []
        for p in placements:
            occupied.extend(range(p.first_tile, p.first_tile + p.num_tiles))
        assert len(occupied) == len(set(occupied)) == total

    def test_tile_capacity_respected(self, base_report):
        per_tile = DEFAULT_CONFIG.xbars_per_pe * DEFAULT_CONFIG.pes_per_tile
        placements, _, _ = place_tiles(base_report)
        for p, layer in zip(placements, base_report.layers):
            assert p.num_tiles == max(1, math.ceil(layer.num_crossbars
                                                   / per_tile))

    def test_centroids_inside_mesh(self, base_report):
        placements, _, side = place_tiles(base_report)
        for p in placements:
            assert 0.0 <= p.centroid[0] <= side - 1
            assert 0.0 <= p.centroid[1] <= side - 1


class TestAnalyzeNoc:
    def test_transition_count(self, base_report):
        noc = analyze_noc(base_report)
        assert len(noc.transitions) == len(base_report.layers) - 1

    def test_traffic_volume_is_feature_map_sizes(self, base_report):
        noc = analyze_noc(base_report)
        expected = sum(
            layer.positions * layer.deployment.spec.out_channels
            for layer in base_report.layers[:-1])
        assert noc.total_values == expected

    def test_positive_costs(self, base_report):
        """Positive, and second-order: moving feature maps costs a small
        fraction of the compute energy, as MNSIM reports for CNNs."""
        noc = analyze_noc(base_report)
        assert noc.energy_mj > 0
        assert noc.latency_ms > 0
        assert noc.mean_hops > 0
        assert noc.energy_mj < 0.25 * base_report.energy_mj

    def test_epitome_shrinks_mesh_and_energy(self, base_report, epim_report):
        """Fewer crossbars -> fewer tiles -> smaller mesh -> cheaper moves,
        even though the moved feature-map volume is identical."""
        base_noc = analyze_noc(base_report)
        epim_noc = analyze_noc(epim_report)
        assert epim_noc.total_tiles < base_noc.total_tiles
        assert epim_noc.total_values == base_noc.total_values
        assert epim_noc.mean_hops <= base_noc.mean_hops
        assert epim_noc.energy_mj < base_noc.energy_mj

    def test_summary_renders(self, base_report):
        text = analyze_noc(base_report).summary()
        assert "mesh" in text
        assert "mJ" in text
