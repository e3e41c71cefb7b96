"""Network-on-chip model: tile placement and inter-layer traffic.

MNSIM-class simulators price not only the crossbar arithmetic but the
movement of feature maps between the tiles holding consecutive layers.
This module adds that missing dimension:

1. **Placement** — each layer's crossbars are packed onto PEs/tiles in
   layer order (the standard MNSIM floorplan); tiles sit on a square mesh.
2. **Traffic** — layer ``i``'s output feature map travels from its tile
   centroid to layer ``i+1``'s, paying Manhattan-distance hops per value.
3. **Cost** — per-hop energy and link-bandwidth latency from the component
   LUT.

A structural consequence worth measuring: epitome deployments occupy far
fewer tiles, so their mesh is smaller and mean hop distances shrink —
communication energy falls with the crossbar compression even though the
feature-map volume is unchanged.

Behaviour-level simplifications (documented contract): traffic follows the
sequential layer order (residual shortcuts ride along the main path), and
links are modelled by bandwidth, not contention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from .config import DEFAULT_CONFIG, HardwareConfig
from .lut import DEFAULT_LUT, ComponentLUT
from .simulator import NetworkReport

__all__ = ["TilePlacement", "NocReport", "layer_tiles", "place_tiles",
           "analyze_noc"]


def layer_tiles(num_crossbars: int,
                config: HardwareConfig = DEFAULT_CONFIG) -> int:
    """Tiles one layer occupies: layers never share a tile (the MNSIM
    placement convention), so even a single-crossbar layer takes one.

    This is the capacity convention shared by :func:`place_tiles`, the
    serving shard planner and :func:`repro.pim.accelerator.chips_required`.
    """
    per_tile = config.xbars_per_pe * config.pes_per_tile
    return max(1, math.ceil(num_crossbars / per_tile))


@dataclass(frozen=True)
class TilePlacement:
    """Where one layer's crossbars live on the tile mesh."""

    layer_name: str
    first_tile: int
    num_tiles: int
    centroid: Tuple[float, float]


@dataclass
class NocReport:
    """Inter-tile communication summary for one deployed network."""

    mesh_side: int
    total_tiles: int
    placements: List[TilePlacement]
    # per layer-transition: (src, dst, values, hops)
    transitions: List[Tuple[str, str, int, float]]
    energy_pj: float
    latency_ns: float

    @property
    def energy_mj(self) -> float:
        return self.energy_pj / 1e9

    @property
    def latency_ms(self) -> float:
        return self.latency_ns / 1e6

    @property
    def total_values(self) -> int:
        return sum(values for _, _, values, _ in self.transitions)

    @property
    def mean_hops(self) -> float:
        total = self.total_values
        if total == 0:
            return 0.0
        weighted = sum(values * hops
                       for _, _, values, hops in self.transitions)
        return weighted / total

    def summary(self) -> str:
        lines = [f"NoC: {self.total_tiles} tiles on a "
                 f"{self.mesh_side}x{self.mesh_side} mesh, "
                 f"{self.total_values / 1e6:.2f} M values moved, "
                 f"mean {self.mean_hops:.2f} hops",
                 f"energy {self.energy_mj:.3f} mJ, "
                 f"latency {self.latency_ms:.3f} ms"]
        return "\n".join(lines)


def _tile_coords(index: int, side: int) -> Tuple[int, int]:
    """Serpentine (boustrophedon) mesh coordinates.

    Consecutive tile indices are always physically adjacent — rows are
    traversed alternately left-to-right and right-to-left — so a layer
    placed after another sits next to it regardless of row boundaries.
    """
    row = index // side
    col = index % side
    if row % 2 == 1:
        col = side - 1 - col
    return col, row


def place_tiles(report: NetworkReport,
                config: HardwareConfig = DEFAULT_CONFIG
                ) -> Tuple[List[TilePlacement], int, int]:
    """Pack every layer's crossbars onto tiles in layer order.

    Returns ``(placements, total_tiles, mesh_side)``.  A tile holds
    ``xbars_per_pe * pes_per_tile`` crossbars; layers never share a tile
    (the MNSIM convention, consistent with the one-layer-per-crossbar
    mapping rule).
    """
    placements: List[TilePlacement] = []
    cursor = 0
    for layer in report.layers:
        tiles = layer_tiles(layer.num_crossbars, config)
        placements.append(TilePlacement(
            layer_name=layer.name, first_tile=cursor, num_tiles=tiles,
            centroid=(0.0, 0.0)))   # placeholder, fixed below
        cursor += tiles
    total_tiles = cursor
    side = max(1, math.ceil(math.sqrt(total_tiles)))

    placed: List[TilePlacement] = []
    for placement in placements:
        xs, ys = [], []
        for t in range(placement.first_tile,
                       placement.first_tile + placement.num_tiles):
            x, y = _tile_coords(t, side)
            xs.append(x)
            ys.append(y)
        centroid = (sum(xs) / len(xs), sum(ys) / len(ys))
        placed.append(TilePlacement(
            layer_name=placement.layer_name,
            first_tile=placement.first_tile,
            num_tiles=placement.num_tiles,
            centroid=centroid))
    return placed, total_tiles, side


def analyze_noc(report: NetworkReport,
                config: HardwareConfig = DEFAULT_CONFIG,
                lut: ComponentLUT = DEFAULT_LUT) -> NocReport:
    """Compute inter-layer NoC traffic, energy and latency for a network."""
    placements, total_tiles, side = place_tiles(report, config)

    transitions: List[Tuple[str, str, int, float]] = []
    energy = 0.0
    latency = 0.0
    for src, dst in zip(placements, placements[1:]):
        src_layer = next(l for l in report.layers if l.name == src.layer_name)
        # values produced by src = positions x logical output channels
        values = src_layer.positions * src_layer.deployment.spec.out_channels
        hops = (abs(src.centroid[0] - dst.centroid[0])
                + abs(src.centroid[1] - dst.centroid[1]))
        hops = max(hops, 1.0) if src.first_tile != dst.first_tile else hops
        transitions.append((src.layer_name, dst.layer_name, values, hops))
        energy += values * hops * lut.e_noc
        latency += values * hops / lut.noc_bandwidth_values_per_ns

    return NocReport(
        mesh_side=side,
        total_tiles=total_tiles,
        placements=placements,
        transitions=transitions,
        energy_pj=energy * lut.energy_scale,
        latency_ns=latency * lut.latency_scale,
    )
