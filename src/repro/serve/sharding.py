"""Multi-chip sharding: place a deployed network onto N simulated chips.

Two physical layouts, mirroring how weight-stationary PIM actually scales:

- **replica** — every chip programs the full network; throughput scales
  linearly with chip count (weights are stationary, so replication costs
  only silicon, not bandwidth).  Requires the whole deployment to fit one
  chip's tile budget (:attr:`~repro.pim.config.HardwareConfig.tiles_per_chip`).
- **layer** — the layer pipeline is cut into contiguous shards, one chip
  per shard; consecutive shards hand feature maps across an inter-chip
  link priced off the NoC LUT costs.  This is the capacity escape hatch:
  a network too big for one chip is split so each shard fits, and the
  split chosen is the one that maximizes steady-state
  ``pipelined_throughput_fps`` (balanced stage intervals, cheap
  boundaries) among fitting partitions.

``plan_sharding(mode="auto")`` composes both: it finds the minimum chips
per copy (1 if the network fits a single chip), then replicates that group
across the provisioned chips — e.g. 4 chips holding 2 replicas of a
2-chip layer pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..pim.accelerator import build_floorplan, chips_required
from ..pim.config import DEFAULT_CONFIG, HardwareConfig
from ..pim.lut import DEFAULT_LUT, ComponentLUT
from ..pim.noc import layer_tiles
from ..pim.simulator import LayerReport, NetworkReport

__all__ = ["ChipShard", "ShardPlan", "plan_sharding", "partition_layers",
           "recommended_chips"]

# Off-chip serdes is slower than the on-chip mesh; boundary traffic pays
# this multiple of the per-link NoC latency.
INTERCHIP_LATENCY_FACTOR = 8.0


@dataclass(frozen=True)
class ChipShard:
    """One chip's slice of a replica group.

    ``num_tiles`` follows the NoC placement convention (layers never share
    a tile, see :func:`repro.pim.noc.place_tiles`) — the same accounting
    the partitioner's capacity checks use.
    """

    chip_index: int                 # position within the replica group
    layer_names: Tuple[str, ...]
    latency_ms: float               # per-image fill through this shard
    image_interval_ms: float        # shard bottleneck stage + datapath cost
    num_tiles: int
    num_crossbars: int
    utilization: float              # crossbar cell utilization
    area_mm2: float                 # silicon area (ChipFloorplan pricing)


@dataclass(frozen=True)
class ShardPlan:
    """How a deployment occupies ``num_chips`` chips."""

    mode: str                       # "replica" | "layer"
    num_chips: int                  # chips provisioned
    chips_per_replica: int
    num_replicas: int
    shards: Tuple[ChipShard, ...]   # one replica group's shards, in order
    per_image_latency_ms: float     # fill through one group incl. transfers
    image_interval_ms: float        # steady-state interval of one group
    interchip_latency_ms: float     # per-image boundary transfer total
    fits: bool                      # every shard within tiles_per_chip

    @property
    def throughput_fps(self) -> float:
        """Aggregate steady-state images/second across replicas."""
        if self.image_interval_ms <= 0:
            return float("inf")
        return self.num_replicas * 1000.0 / self.image_interval_ms

    @property
    def chips_used(self) -> int:
        return self.chips_per_replica * self.num_replicas

    def replica_groups(self) -> Tuple[Tuple[int, ...], ...]:
        """Chip ids per replica group, in replica order.

        This is the placement contract the engine's executors and the
        fault-injection layer share: chip ``k`` belongs to replica
        ``k // chips_per_replica``, so a chip failure takes down exactly
        one replica group and the survivors keep serving.
        """
        groups = []
        chip = 0
        for _ in range(self.num_replicas):
            groups.append(tuple(range(chip, chip + self.chips_per_replica)))
            chip += self.chips_per_replica
        return tuple(groups)

    def replica_of_chip(self, chip_id: int) -> Optional[int]:
        """The replica group owning ``chip_id`` (None for a provisioned
        chip outside every group — replication remainders)."""
        if 0 <= chip_id < self.chips_used:
            return chip_id // self.chips_per_replica
        return None

    def summary(self) -> str:
        shard_text = ", ".join(
            f"chip{s.chip_index}:{len(s.layer_names)}L/{s.num_tiles}T"
            for s in self.shards)
        return (f"{self.mode} sharding: {self.num_replicas} replica(s) x "
                f"{self.chips_per_replica} chip(s) on {self.num_chips} "
                f"provisioned ({shard_text}); "
                f"interval {self.image_interval_ms:.3f} ms, "
                f"fill {self.per_image_latency_ms:.3f} ms, "
                f"throughput {self.throughput_fps:.1f} fps"
                + ("" if self.fits else " [OVER CAPACITY]"))


# ----------------------------------------------------------------------
# Partitioning
# ----------------------------------------------------------------------

def _sub_report(report: NetworkReport,
                layers: Sequence[LayerReport]) -> NetworkReport:
    return NetworkReport(layers=list(layers), lut=report.lut)


def _layer_tiles(layer: LayerReport, config: HardwareConfig) -> int:
    return layer_tiles(layer.num_crossbars, config)


def partition_layers(report: NetworkReport, num_parts: int,
                     config: HardwareConfig = DEFAULT_CONFIG,
                     max_tiles: Optional[int] = None) -> List[List[int]]:
    """Contiguously partition layers into ``num_parts`` balanced shards.

    Classic linear-partition DP minimizing the maximum shard latency (the
    stage time that bounds pipelined throughput), with shards exceeding
    ``max_tiles`` forbidden when a feasible split exists.  Returns lists of
    layer indices; parts are never empty (``num_parts`` must not exceed
    the layer count).

    The DP runs in matrix form (:func:`_partition_tables`): one
    ``(n+1, n+1)`` matrix of stage costs, then per part count one
    elementwise maximum and one ``argmin`` over where the last stage
    starts.  Among equal splits the earliest cut wins, as ``argmin``
    returns the first minimum.
    """
    n = len(report.layers)
    if num_parts < 1:
        raise ValueError("num_parts must be >= 1")
    if num_parts > n:
        raise ValueError(f"cannot split {n} layers into {num_parts} shards")

    lat = np.array([layer.latency_ns for layer in report.layers]) / 1e6
    tiles = [_layer_tiles(layer, config) for layer in report.layers]
    # Sequential prefix sums from 0.0, the order a running total adds in.
    prefix_lat = np.add.accumulate(np.concatenate(([0.0], lat)))
    prefix_tiles = np.concatenate(([0], np.cumsum(tiles, dtype=np.int64)))
    best, cut = _partition_tables(prefix_lat, prefix_tiles, num_parts,
                                  max_tiles)
    if best[num_parts, n] == np.inf and max_tiles is not None:
        # No fitting split exists (some single layer busts the budget);
        # fall back to the unconstrained balanced partition.
        best, cut = _partition_tables(prefix_lat, prefix_tiles, num_parts,
                                      None)

    bounds: List[int] = [n]
    j = n
    for k in range(num_parts, 0, -1):
        j = int(cut[k, j])
        bounds.append(j)
    bounds.reverse()
    return [list(range(bounds[k], bounds[k + 1]))
            for k in range(num_parts)]


def _partition_tables(prefix_lat: np.ndarray, prefix_tiles: np.ndarray,
                      num_parts: int, max_tiles: Optional[int]
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """The linear-partition DP over ``n`` layers given their prefix sums.

    ``best[k, j]`` is the least maximum stage cost of splitting the first
    ``j`` layers into ``k`` non-empty contiguous stages (inf when no split
    keeps every stage within ``max_tiles``), and ``cut[k, j]`` is where
    that split's last stage starts (0 when there is none).  Row ``k``
    takes the last stage ``[i, j)`` with ``k-1 <= i < j`` that minimizes
    ``max(best[k-1, i], cost[i, j])``, the smallest such ``i`` on a tie.
    """
    n = len(prefix_lat) - 1
    # cost[i, j]: stage cost of layers [i, j); inf for an empty or
    # reversed range (i >= j) and for one over the tile budget.
    cost = prefix_lat[None, :] - prefix_lat[:, None]
    barred = np.tri(n + 1, dtype=bool)
    if max_tiles is not None:
        barred |= prefix_tiles[None, :] - prefix_tiles[:, None] > max_tiles
    cost[barred] = np.inf
    best = np.full((num_parts + 1, n + 1), np.inf)
    cut = np.zeros((num_parts + 1, n + 1), dtype=np.int64)
    best[0, 0] = 0.0
    for k in range(1, num_parts + 1):
        # Rows: start i in [k-1, n); columns: end j in [k, n].
        stage = np.maximum(best[k - 1, k - 1:n, None], cost[k - 1:n, k:])
        start = stage.argmin(axis=0)
        low = stage[start, np.arange(n - k + 1)]
        # Where every start is barred, the row keeps inf and cut 0.
        found = low < np.inf
        best[k, k:][found] = low[found]
        cut[k, k:][found] = start[found] + (k - 1)
    return best, cut


def _min_fitting_parts(report: NetworkReport, config: HardwareConfig,
                       max_parts: int) -> Optional[int]:
    """Smallest contiguous shard count where every shard fits a chip
    (:func:`repro.pim.accelerator.chips_required`).  None when even
    single-layer shards bust the budget or more than ``max_parts`` chips
    would be needed."""
    budget = config.tiles_per_chip
    if any(_layer_tiles(layer, config) > budget for layer in report.layers):
        return None
    parts = chips_required(report, config)
    return parts if parts <= max_parts else None


def recommended_chips(report: NetworkReport,
                      config: HardwareConfig = DEFAULT_CONFIG,
                      replicas: int = 1) -> int:
    """Fleet size derived from a deployment's crossbar demand: the minimum
    chips one full copy needs (tile accounting via
    :func:`repro.pim.accelerator.chips_required`), times ``replicas``.

    This is how ``repro serve --from-search`` provisions when the operator
    does not pin ``--num-chips``: the searched assignment decides its own
    capacity floor, and replicas scale throughput from there.
    """
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    return chips_required(report, config) * replicas


# ----------------------------------------------------------------------
# Plan construction
# ----------------------------------------------------------------------

def _boundary_transfer_ms(last_layer: LayerReport,
                          lut: ComponentLUT) -> float:
    """Per-image feature-map handoff across one inter-chip boundary."""
    values = last_layer.positions * last_layer.deployment.spec.out_channels
    ns = values / lut.noc_bandwidth_values_per_ns * INTERCHIP_LATENCY_FACTOR
    return ns * lut.latency_scale / 1e6


def _build_shards(report: NetworkReport, parts: List[List[int]],
                  config: HardwareConfig) -> Tuple[ChipShard, ...]:
    shards: List[ChipShard] = []
    for chip_index, indices in enumerate(parts):
        layers = [report.layers[i] for i in indices]
        sub = _sub_report(report, layers)
        floorplan = build_floorplan(sub, config, report.lut)
        shards.append(ChipShard(
            chip_index=chip_index,
            layer_names=tuple(layer.name for layer in layers),
            latency_ms=sub.latency_ms,
            image_interval_ms=sub.image_interval_ms,
            num_tiles=sum(_layer_tiles(layer, config) for layer in layers),
            num_crossbars=sub.num_crossbars,
            utilization=sub.utilization,
            area_mm2=floorplan.total_area_mm2,
        ))
    return tuple(shards)


def _group_plan(report: NetworkReport, parts: List[List[int]],
                num_chips: int, mode: str,
                config: HardwareConfig, lut: ComponentLUT) -> ShardPlan:
    """Assemble a plan from one replica group's contiguous partition."""
    shards = _build_shards(report, parts, config)
    chips_per_replica = len(parts)
    num_replicas = max(1, num_chips // chips_per_replica)

    transfers = [_boundary_transfer_ms(report.layers[parts[i][-1]], lut)
                 for i in range(len(parts) - 1)]
    interchip = sum(transfers)
    fill = sum(s.latency_ms for s in shards) + interchip
    interval = max([s.image_interval_ms for s in shards]
                   + (transfers if transfers else [0.0]))
    fits = all(s.num_tiles <= config.tiles_per_chip for s in shards)
    return ShardPlan(
        mode=mode,
        num_chips=num_chips,
        chips_per_replica=chips_per_replica,
        num_replicas=num_replicas,
        shards=shards,
        per_image_latency_ms=fill,
        image_interval_ms=interval,
        interchip_latency_ms=interchip,
        fits=fits,
    )


def plan_sharding(report: NetworkReport, num_chips: int,
                  mode: str = "auto",
                  config: HardwareConfig = DEFAULT_CONFIG,
                  lut: ComponentLUT = DEFAULT_LUT) -> ShardPlan:
    """Choose how a deployed network occupies ``num_chips`` chips.

    ``mode="replica"`` forces full copies (flagged unfit when a copy
    exceeds one chip), ``mode="layer"`` forces a single layer-pipelined
    group across all chips, and ``mode="auto"`` picks the fitting plan
    with the highest aggregate :attr:`ShardPlan.throughput_fps` —
    replicate when the network fits one chip, otherwise replicate the
    smallest fitting layer-sharded group.
    """
    if num_chips < 1:
        raise ValueError("num_chips must be >= 1")
    if not report.layers:
        raise ValueError("cannot shard an empty network")
    if mode not in ("auto", "replica", "layer"):
        raise ValueError("mode must be auto|replica|layer")

    n = len(report.layers)
    all_layers = [list(range(n))]

    if mode == "replica":
        return _group_plan(report, all_layers, num_chips, "replica",
                           config, lut)
    if mode == "layer":
        parts = partition_layers(report, min(num_chips, n), config,
                                 max_tiles=config.tiles_per_chip)
        plan_mode = "layer" if len(parts) > 1 else "replica"
        return _group_plan(report, parts, num_chips, plan_mode, config, lut)

    # auto: smallest fitting group, replicated.
    min_parts = _min_fitting_parts(report, config, max_parts=num_chips)
    if min_parts is None:
        # Nothing fits even layer-by-layer (or needs more chips than
        # provisioned): best effort with every chip in one group.
        parts = partition_layers(report, min(num_chips, n), config,
                                 max_tiles=config.tiles_per_chip)
        plan_mode = "layer" if len(parts) > 1 else "replica"
        return _group_plan(report, parts, num_chips, plan_mode, config, lut)
    if min_parts == 1:
        return _group_plan(report, all_layers, num_chips, "replica",
                           config, lut)
    # DP-balance the fitting group size for the best stage intervals.
    parts = partition_layers(report, min_parts, config,
                             max_tiles=config.tiles_per_chip)
    return _group_plan(report, parts, num_chips, "layer", config, lut)
