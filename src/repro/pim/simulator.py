"""Behaviour-level performance model (latency / energy / area / utilization).

This is the MNSIM-2.0-style half of the simulator: behaviour counts (output
positions, crossbar activation rounds, ADC conversions, buffer accesses)
multiplied by the per-component costs of :mod:`repro.pim.lut`.

Each layer is described by a :class:`LayerDeployment` — either a baseline
convolution (the whole virtual weight stored; one activation round per
output position, row/column crossbar groups operating in parallel) or an
epitome (only the epitome stored; ``n_ci * n_co`` sequential activation
rounds per position, or ``n_ci`` with output channel wrapping).

The key structural behaviours the model encodes (paper sections 5.1-5.3):

- epitome **latency** grows proportionally with the number of activation
  rounds, i.e. roughly with the layer compression rate (Fig. 4a);
- epitome **energy** grows because every round re-digitises partial sums
  (ADC) and writes them to the output buffer (Fig. 4b and the "output
  buffer written four times more" discussion);
- **channel wrapping** removes the output-channel replication factor from
  both (section 5.3), cutting buffer writes by ``r``;
- crossbar count shrinks by the stored-tensor ratio — the paper's
  compression rate of crossbars (Table 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..models.specs import LayerSpec
from .config import HardwareConfig, DEFAULT_CONFIG
from .lut import ComponentLUT, DEFAULT_LUT
from .mapping import CrossbarAllocation, map_matrix

__all__ = [
    "LayerDeployment",
    "LayerReport",
    "BatchReport",
    "NetworkReport",
    "SimCounters",
    "simulate_layer",
    "simulate_network",
    "baseline_deployment",
    "epitome_deployment_from_plan",
    "epitome_deployment_from_shape",
    "sim_counters",
    "reset_sim_counters",
]


@dataclass
class SimCounters:
    """Lightweight work counters accumulated by :func:`simulate_layer`.

    The benchmark harness reads these so perf numbers report *work done*
    (layers simulated, activation rounds walked, analog cell activations
    modelled, crossbar tiles allocated), not just seconds.  Counting is a
    handful of integer adds per layer — negligible next to the per-layer
    arithmetic — and monotone until :func:`reset_sim_counters`.

    The counters are per process, and every simulation runs in the
    calling process: the candidate-grid build is in-process, and the
    search's pooled restarts only read an already-built grid.  So these
    counts are the whole run's simulation work.
    """

    layers: int = 0
    positions: int = 0
    activation_rounds: int = 0
    analog_mac_ops: int = 0
    crossbar_tiles: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "layers": self.layers,
            "positions": self.positions,
            "activation_rounds": self.activation_rounds,
            "analog_mac_ops": self.analog_mac_ops,
            "crossbar_tiles": self.crossbar_tiles,
        }

    def reset(self) -> None:
        self.layers = 0
        self.positions = 0
        self.activation_rounds = 0
        self.analog_mac_ops = 0
        self.crossbar_tiles = 0

    def publish(self, registry=None) -> None:
        """Mirror the counters into a
        :class:`~repro.obs.metrics.MetricsRegistry` as
        ``pim.simulator.*`` gauges (default: the installed registry).

        Gauges, not counters: these values are process-global and
        monotone only between resets, so last-write-wins snapshots are
        the honest exposition.  CLIs call this once before exporting.
        """
        from ..obs.catalog import publish
        if registry is None:
            from ..obs.runtime import get_metrics
            registry = get_metrics()
        publish(registry, "pim.simulator", self.as_dict())


_COUNTERS = SimCounters()


def sim_counters() -> SimCounters:
    """The process-global simulator work counters (read-mostly)."""
    return _COUNTERS


def reset_sim_counters() -> SimCounters:
    """Zero the counters and return them (fluent for delta measurement)."""
    _COUNTERS.reset()
    return _COUNTERS


@dataclass(frozen=True)
class LayerDeployment:
    """How one layer is placed on the PIM fabric.

    For ``style == "conv"`` the aggregate execution statistics are derived
    automatically; for ``style == "epitome"`` they are exact sums over the
    sampled patches, including partial edge blocks, computed by one of two
    constructors that agree field for field:
    :func:`epitome_deployment_from_plan` sums a layer's
    :class:`~repro.core.epitome.EpitomePlan` (runnable models, which carry
    real plans), and :func:`epitome_deployment_from_shape` gives the same
    sums in closed form from the epitome shape alone (the designer and the
    candidate grid).

    Attributes
    ----------
    spec:
        The layer's shape record.
    style:
        ``"conv"`` (baseline) or ``"epitome"``.
    weight_bits / activation_bits:
        Deployment precision (``config.fp_equivalent_bits`` is substituted
        for FP32 when ``weight_bits`` is ``None``).
    stored_rows / stored_cols:
        Dimensions of the tensor actually programmed into crossbars.
    exec_rounds:
        Crossbar activation rounds per output position.
    exec_rows / exec_cols / exec_cells:
        Per-position sums over executed rounds of: active word lines,
        produced logical columns (partial sums), active cells
        (rows x logical cols).
    n_co_blocks / n_ci_blocks:
        Epitome tiling factors (1 for baseline).
    use_wrapping:
        Output channel wrapping enabled (epitome only).
    """

    spec: LayerSpec
    style: str
    weight_bits: Optional[int]
    activation_bits: int
    stored_rows: int
    stored_cols: int
    exec_rounds: int
    exec_rows: int
    exec_cols: int
    exec_cells: int
    n_co_blocks: int = 1
    n_ci_blocks: int = 1
    use_wrapping: bool = False

    def resolved_weight_bits(self, config: HardwareConfig) -> int:
        return self.weight_bits if self.weight_bits is not None \
            else config.fp_equivalent_bits


def baseline_deployment(spec: LayerSpec, weight_bits: Optional[int] = None,
                        activation_bits: Optional[int] = None,
                        config: HardwareConfig = DEFAULT_CONFIG
                        ) -> LayerDeployment:
    """Deploy a layer as a plain convolution (or fc matrix)."""
    a_bits = activation_bits if activation_bits is not None \
        else (config.fp_equivalent_bits if weight_bits is None
              else config.default_activation_bits)
    rows = spec.weight_rows
    cols = spec.weight_cols
    return LayerDeployment(
        spec=spec, style="conv", weight_bits=weight_bits,
        activation_bits=a_bits,
        stored_rows=rows, stored_cols=cols,
        exec_rounds=1, exec_rows=rows, exec_cols=cols,
        exec_cells=rows * cols,
    )


def epitome_deployment_from_shape(spec: LayerSpec,
                                  shape: Sequence[int],
                                  weight_bits: Optional[int] = None,
                                  activation_bits: Optional[int] = None,
                                  use_wrapping: bool = False,
                                  config: HardwareConfig = DEFAULT_CONFIG
                                  ) -> LayerDeployment:
    """Closed-form twin of :func:`epitome_deployment_from_plan`.

    The deployment only needs the *sums* of the plan's patch sizes, and
    those have exact closed forms: the channel blocks tile the layer
    exactly, so ``sum(ci_size) == ci`` and ``sum(co_size) == co``
    regardless of partial edge blocks, and sampling offsets never enter.
    Grid construction and :func:`repro.core.designer.build_deployments`
    use this to skip building the patch schedule entirely. Results are
    bit-for-bit identical to the plan-based path: the grid is pinned
    against its serial reference by ``tests/search/test_gridcache.py``,
    the designer's deployments against the plan path by
    ``tests/core/test_designer_property.py``.

    ``shape`` is the resolved epitome as ``(eo, ei, eh, ew)`` — e.g.
    ``EpitomeShape.as_tuple()`` from the designer.
    """
    a_bits = activation_bits if activation_bits is not None \
        else (config.fp_equivalent_bits if weight_bits is None
              else config.default_activation_bits)
    eo, ei, eh, ew = (int(x) for x in shape)
    co, ci = spec.out_channels, spec.in_channels
    kh, kw = spec.kernel_size
    n_co = math.ceil(co / eo)
    n_ci = math.ceil(ci / ei)
    if use_wrapping:
        # Only the co_block == 0 patches execute (one per ci block).
        co_tile = min(eo, co)
        exec_rounds = n_ci
        exec_rows = ci * kh * kw
        exec_cols = n_ci * co_tile
        exec_cells = ci * kh * kw * co_tile
    else:
        exec_rounds = n_ci * n_co
        exec_rows = n_co * ci * kh * kw
        exec_cols = n_ci * co
        exec_cells = ci * kh * kw * co
    return LayerDeployment(
        spec=spec, style="epitome", weight_bits=weight_bits,
        activation_bits=a_bits,
        stored_rows=ei * eh * ew,
        stored_cols=eo,
        exec_rounds=exec_rounds, exec_rows=exec_rows,
        exec_cols=exec_cols, exec_cells=exec_cells,
        n_co_blocks=n_co, n_ci_blocks=n_ci,
        use_wrapping=use_wrapping,
    )


def epitome_deployment_from_plan(spec: LayerSpec, plan,
                                 weight_bits: Optional[int] = None,
                                 activation_bits: Optional[int] = None,
                                 use_wrapping: bool = False,
                                 config: HardwareConfig = DEFAULT_CONFIG
                                 ) -> LayerDeployment:
    """Deploy a layer as an epitome described by an ``EpitomePlan``."""
    a_bits = activation_bits if activation_bits is not None \
        else (config.fp_equivalent_bits if weight_bits is None
              else config.default_activation_bits)
    kh, kw = plan.kernel_size
    patches = plan.patches
    if use_wrapping:
        patches = [p for p in patches if p.co_block == 0]
    exec_rounds = len(patches)
    exec_rows = sum(p.ci_size * kh * kw for p in patches)
    exec_cols = sum(p.co_size for p in patches)
    exec_cells = sum(p.ci_size * kh * kw * p.co_size for p in patches)
    return LayerDeployment(
        spec=spec, style="epitome", weight_bits=weight_bits,
        activation_bits=a_bits,
        stored_rows=plan.epitome_shape.rows,
        stored_cols=plan.epitome_shape.cols,
        exec_rounds=exec_rounds, exec_rows=exec_rows,
        exec_cols=exec_cols, exec_cells=exec_cells,
        n_co_blocks=plan.n_co_blocks, n_ci_blocks=plan.n_ci_blocks,
        use_wrapping=use_wrapping,
    )


@dataclass
class LayerReport:
    """Per-layer hardware results."""

    deployment: LayerDeployment
    allocation: CrossbarAllocation
    latency_ns: float
    energy_pj: float
    energy_breakdown: Dict[str, float]
    positions: int
    rounds_per_position: int

    @property
    def name(self) -> str:
        return self.deployment.spec.name

    @property
    def num_crossbars(self) -> int:
        return self.allocation.num_crossbars

    @property
    def stored_params(self) -> int:
        return self.deployment.stored_rows * self.deployment.stored_cols


@dataclass(frozen=True)
class BatchReport:
    """Timing/energy of one micro-batch streamed through a layer pipeline.

    Weight-stationary PIM serves a batch by streaming images through the
    already-programmed crossbars: the first image pays the full pipeline
    fill latency, every further image enters one bottleneck-stage interval
    later.  The interval is batch-size-dependent through the per-image
    datapath cost (buffer swap at each stage handoff plus the index-table
    reload on epitome stages) — the peripheral/runtime overhead the
    Neural-PIM line of work flags as dominant once crossbar compute is
    optimized.
    """

    batch_size: int
    latency_ms: float           # first image in -> last image out
    image_interval_ms: float    # steady-state spacing between images
    energy_mj: float            # dynamic x batch + leakage over latency

    @property
    def throughput_fps(self) -> float:
        """Achieved images/second for this batch in isolation."""
        return self.batch_size / self.latency_ms * 1000.0 \
            if self.latency_ms > 0 else float("inf")

    @property
    def amortized_latency_ms(self) -> float:
        return self.latency_ms / self.batch_size

    @property
    def energy_per_image_mj(self) -> float:
        return self.energy_mj / self.batch_size


@dataclass
class NetworkReport:
    """Whole-network hardware results (one Table 1 row).

    Dynamic energy is the sum of per-layer component energies; static
    energy is the idle-periphery leakage of every allocated crossbar over
    the whole inference (``p_leak_per_xbar_uw x num_crossbars x latency``),
    which is what lets a small-footprint epitome deployment beat the
    baseline on energy despite running longer.
    """

    layers: List[LayerReport]
    lut: ComponentLUT = field(default_factory=lambda: DEFAULT_LUT)

    @property
    def num_crossbars(self) -> int:
        return sum(layer.num_crossbars for layer in self.layers)

    @property
    def latency_ms(self) -> float:
        return sum(layer.latency_ns for layer in self.layers) / 1e6

    @property
    def dynamic_energy_mj(self) -> float:
        return sum(layer.energy_pj for layer in self.layers) / 1e9

    @property
    def static_energy_mj(self) -> float:
        # uW * ms = nJ; convert to mJ.
        leak_uw = self.lut.p_leak_per_xbar_uw * self.num_crossbars
        return leak_uw * self.latency_ms * 1e-6 * self.lut.energy_scale

    @property
    def energy_mj(self) -> float:
        return self.dynamic_energy_mj + self.static_energy_mj

    @property
    def edp(self) -> float:
        """Energy-delay product in mJ*ms (Fig. 4c's metric)."""
        return self.latency_ms * self.energy_mj

    @property
    def bottleneck_latency_ms(self) -> float:
        """Slowest layer's latency — the stage time of a layer-pipelined
        dataflow (every layer on its own crossbar groups, images streamed).

        An empty report has no pipeline stage, so its bottleneck is 0 —
        consistent with the sibling sums rather than a bare ``max()``
        ValueError."""
        if not self.layers:
            return 0.0
        return max(layer.latency_ns for layer in self.layers) / 1e6

    @property
    def pipelined_throughput_fps(self) -> float:
        """Steady-state images/second when layers are pipelined.

        Epitome layers multiply their own activation rounds, so they deepen
        the pipeline bottleneck disproportionately — the pipelined view of
        the section 5.1 latency analysis.  An empty network computes
        nothing and therefore serves nothing: 0 fps, matching the 0-valued
        sibling properties.
        """
        bottleneck = self.bottleneck_latency_ms
        return 1000.0 / bottleneck if bottleneck > 0 else 0.0

    @property
    def datapath_overhead_ms(self) -> float:
        """Per-image pipeline handoff cost: every stage swaps its input and
        output buffer banks between consecutive images, and epitome stages
        re-arm their IFAT/IFRT/OFAT walk.  Tiny per stage, but it scales
        with batch size and network depth — the batch-dependent half of the
        serving latency model."""
        ns = sum(2.0 * self.lut.t_buffer_access
                 + (self.lut.t_index_table
                    if layer.deployment.style == "epitome" else 0.0)
                 for layer in self.layers)
        return ns * self.lut.latency_scale / 1e6

    @property
    def image_interval_ms(self) -> float:
        """Steady-state spacing between pipelined images (bottleneck stage
        time plus the per-image datapath overhead)."""
        return self.bottleneck_latency_ms + self.datapath_overhead_ms

    def batch_latency_ms(self, batch_size: int) -> float:
        """First-in to last-out latency of a ``batch_size`` micro-batch.

        Classic pipeline fill + drain: the first image traverses every
        stage (``latency_ms``); each further image exits one
        :attr:`image_interval_ms` later.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        return self.latency_ms + (batch_size - 1) * self.image_interval_ms

    def batch_report(self, batch_size: int) -> BatchReport:
        """Full timing/energy summary for one micro-batch."""
        latency = self.batch_latency_ms(batch_size)
        leak_uw = self.lut.p_leak_per_xbar_uw * self.num_crossbars
        static = leak_uw * latency * 1e-6 * self.lut.energy_scale
        return BatchReport(
            batch_size=batch_size,
            latency_ms=latency,
            image_interval_ms=self.image_interval_ms,
            energy_mj=batch_size * self.dynamic_energy_mj + static,
        )

    @property
    def utilization(self) -> float:
        used = sum(layer.allocation.used_cells for layer in self.layers)
        allocated = sum(layer.allocation.allocated_cells for layer in self.layers)
        return used / allocated if allocated else 0.0

    @property
    def stored_params(self) -> int:
        return sum(layer.stored_params for layer in self.layers)

    def energy_breakdown(self) -> Dict[str, float]:
        total: Dict[str, float] = {}
        for layer in self.layers:
            for key, value in layer.energy_breakdown.items():
                total[key] = total.get(key, 0.0) + value
        total["static_leakage"] = self.static_energy_mj * 1e9
        return total

    def compression_vs(self, baseline: "NetworkReport") -> float:
        """Crossbar compression rate relative to a baseline deployment."""
        return baseline.num_crossbars / self.num_crossbars

    def layer_by_name(self, name: str) -> LayerReport:
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise KeyError(f"no layer named {name!r}")


def simulate_layer(deployment: LayerDeployment,
                   config: HardwareConfig = DEFAULT_CONFIG,
                   lut: ComponentLUT = DEFAULT_LUT) -> LayerReport:
    """Estimate latency/energy/allocation for one deployed layer."""
    spec = deployment.spec
    w_bits = deployment.resolved_weight_bits(config)
    slices = config.slices_for(w_bits)
    cycles = config.cycles_for(deployment.activation_bits)
    positions = spec.output_positions

    allocation = map_matrix(deployment.stored_rows, deployment.stored_cols,
                            w_bits, config)

    # ---- latency ------------------------------------------------------
    # One activation round: bit-serial cycles, each paying DAC drive, the
    # analogue read, the shared-ADC conversion sweep, and the shift-add
    # merge of the weight slices (more slices -> wider merge -> the
    # latency advantage of low-bit deployments in Table 1).
    adc_sweep = config.adc_share * lut.t_adc
    slice_merge = slices * lut.t_slice_merge
    round_latency = cycles * (lut.t_dac + lut.t_xbar + adc_sweep
                              + slice_merge)
    extras = 0.0
    if deployment.style == "epitome":
        extras = lut.t_index_table + lut.t_joint
    latency = positions * deployment.exec_rounds * (round_latency + extras)
    # Row groups beyond one need a partial-sum merge step per position.
    if allocation.row_groups > 1:
        latency += positions * math.ceil(math.log2(allocation.row_groups)) \
            * lut.t_shift_add * deployment.exec_rounds
    latency *= lut.latency_scale

    # ---- energy ---------------------------------------------------------
    breakdown = {
        "xbar": positions * cycles * deployment.exec_cells * slices * lut.e_cell,
        "dac": positions * cycles * deployment.exec_rows * lut.e_dac,
        "adc": positions * cycles * deployment.exec_cols * slices * lut.e_adc,
        "shift_add": positions * cycles * deployment.exec_cols * slices
                     * lut.e_shift_add,
        "buffer_in": positions * deployment.exec_rows * lut.e_buffer_read,
        "buffer_out": positions * deployment.exec_cols * lut.e_buffer_write,
    }
    if deployment.style == "epitome":
        breakdown["joint"] = positions * deployment.exec_cols * lut.e_joint
        breakdown["index_tables"] = (positions * deployment.exec_rounds * 3
                                     * lut.e_index_table)
    breakdown = {key: value * lut.energy_scale
                 for key, value in breakdown.items()}
    energy = sum(breakdown.values())

    _COUNTERS.layers += 1
    _COUNTERS.positions += positions
    _COUNTERS.activation_rounds += positions * deployment.exec_rounds
    _COUNTERS.analog_mac_ops += positions * deployment.exec_cells
    _COUNTERS.crossbar_tiles += allocation.num_crossbars

    return LayerReport(
        deployment=deployment,
        allocation=allocation,
        latency_ns=latency,
        energy_pj=energy,
        energy_breakdown=breakdown,
        positions=positions,
        rounds_per_position=deployment.exec_rounds,
    )


def simulate_network(deployments: Sequence[LayerDeployment],
                     config: HardwareConfig = DEFAULT_CONFIG,
                     lut: ComponentLUT = DEFAULT_LUT) -> NetworkReport:
    """Simulate every layer and aggregate into a :class:`NetworkReport`."""
    return NetworkReport(layers=[simulate_layer(dep, config, lut)
                                 for dep in deployments],
                         lut=lut)
