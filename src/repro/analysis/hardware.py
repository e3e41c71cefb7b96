"""Hardware-side experiment runners (exact, shape-level, no training).

Everything in this module operates on the full-size ResNet-50/101 layer
shapes at 224x224 — crossbar counts, compression rates, latency, energy and
utilization are functions of shapes and the mapping only, so these are the
*exact* reproductions of the paper's hardware columns:

- :func:`table1_hardware_rows` — Table 1 minus the accuracy column;
- :func:`figure3_rows` — Fig. 3's per-layer params/latency/energy bars;
- :func:`figure4_series` — Fig. 4's latency/energy/EDP sweep comparing
  Uniform / +Channel-Wrapping / +Evo-Search / EPIM-Opt.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple


from ..baselines.pim_prune import pim_prune_network
from ..core.designer import build_deployments, uniform_assignment
from ..search import (
    EvoSearchConfig,
    GridCache,
    build_candidate_grid,
    evolution_search,
    uniform_budget,
)
from ..models.specs import NetworkSpec, get_network_spec
from ..pim.config import DEFAULT_CONFIG, HardwareConfig
from ..pim.lut import DEFAULT_LUT, ComponentLUT
from ..pim.simulator import NetworkReport, simulate_network
from ..quant.hawq import LayerSensitivity, allocate_bits

__all__ = [
    "HardwareRow",
    "table1_hardware_rows",
    "figure3_rows",
    "Figure4Point",
    "figure4_series",
    "mixed_precision_bit_map",
    "FIGURE3_LAYERS",
    "figure3_layers",
]

# Paper Fig. 3 uses layers 9 / 41 / 67 of its (differently enumerated)
# ResNet-50.  We map them to shape-equivalent layers of our 54-layer
# enumeration, chosen to match the parameter savings the paper reports:
# L9  -> an early 3x3 64-ch conv   (epitome saves only ~20 k params),
# L41 -> a middle 3x3 256-ch conv,
# L67 -> a late 1x1 2048->512 conv (epitome saves ~1 M params).
FIGURE3_LAYERS = {
    9: "layer1.1.conv2",
    41: "layer3.2.conv2",
    67: "layer4.2.conv1",
}


@dataclass
class HardwareRow:
    """One Table 1 row (hardware columns)."""

    model: str
    bitwidth: str
    epitome: str
    xbars: Optional[int]
    cr: Optional[float]
    latency_ms: Optional[float]
    energy_mj: Optional[float]
    utilization: Optional[float]
    report: Optional[NetworkReport] = None

    def as_dict(self) -> Dict[str, object]:
        return {
            "Model": self.model,
            "Bitwidth": self.bitwidth,
            "Epitome": self.epitome,
            "#XBs": self.xbars,
            "CR of XBs": self.cr,
            "Latency(ms)": self.latency_ms,
            "Energy(mJ)": self.energy_mj,
            "Utilization(%)": (self.utilization * 100
                               if self.utilization is not None else None),
        }


def mixed_precision_bit_map(spec: NetworkSpec,
                            assignment: Dict[str, Tuple[int, int]],
                            bits_low: int = 3, bits_high: int = 5,
                            budget_fraction: float = 0.5,
                            sensitivities: Optional[Sequence[LayerSensitivity]] = None,
                            config: HardwareConfig = DEFAULT_CONFIG
                            ) -> Dict[str, int]:
    """HAWQ-style mixed-precision allocation for a shape-level network.

    When real Hessian traces are unavailable (the full-size nets are
    shape-only), the standard small-layers-are-sensitive proxy is used:
    ``trace ~ 1 / num_weights`` (early narrow layers get the high bits) —
    the accuracy-side experiments use genuine FD-HVP traces instead.

    The crossbar budget interpolates between the all-low and all-high
    deployments by ``budget_fraction``.  The candidate grid is ``{low,
    high}``: with 2-bit cells the intermediate 4-bit precision costs the
    same as 3-bit, so the paper's "3-5 bit" mix is literally 3s and 5s.
    """
    candidate_bits = [bits_low, bits_high]

    cost_cache: Dict[Tuple[str, int], float] = {}

    def cost_fn(name: str, bits: int) -> float:
        key = (name, bits)
        if key not in cost_cache:
            layer = spec.by_name(name)
            deps = build_deployments(
                NetworkSpec(name="one", input_size=spec.input_size,
                            layers=[layer]),
                assignment={name: assignment[name]} if name in assignment else None,
                weight_bits=bits, activation_bits=9, config=config)
            cost_cache[key] = float(simulate_network(deps, config).num_crossbars)
        return cost_cache[key]

    names = [layer.name for layer in spec if layer.kind == "conv"]
    if sensitivities is None:
        sensitivities = [
            LayerSensitivity(name=name,
                             trace=1.0 / spec.by_name(name).num_weights,
                             num_params=spec.by_name(name).num_weights)
            for name in names]

    low_total = sum(cost_fn(name, bits_low) for name in names)
    high_total = sum(cost_fn(name, bits_high) for name in names)
    budget = low_total + budget_fraction * (high_total - low_total)
    return allocate_bits(sensitivities, candidate_bits, cost_fn, budget)


def _simulate(spec: NetworkSpec, assignment=None, weight_bits=None,
              activation_bits=None, use_wrapping=False, bit_map=None,
              config=DEFAULT_CONFIG, lut=DEFAULT_LUT) -> NetworkReport:
    deps = build_deployments(spec, assignment=assignment,
                             weight_bits=weight_bits,
                             activation_bits=activation_bits,
                             use_wrapping=use_wrapping, bit_map=bit_map,
                             config=config)
    return simulate_network(deps, config, lut)


def table1_hardware_rows(model_name: str = "resnet50",
                         uniform_rows: int = 1024, uniform_cols: int = 256,
                         opt_budget_fraction: float = 0.78,
                         config: HardwareConfig = DEFAULT_CONFIG,
                         lut: ComponentLUT = DEFAULT_LUT,
                         search: EvoSearchConfig = EvoSearchConfig(),
                         include_opt_rows: bool = True,
                         grid_cache: Optional[GridCache] = None
                         ) -> List[HardwareRow]:
    """Regenerate the hardware columns of Table 1 for one model.

    Rows (matching the paper): FP32 baseline; EPIM FP32 uniform; PIM-Prune
    (CR only); EPIM W9A9 uniform; latency-/energy-optimized layer-wise
    designs at W9A9; EPIM W7/W5/W3mp/W3 at A9.  ``grid_cache`` persists
    the "-Opt" rows' candidate-grid simulations (see
    :func:`repro.search.build_candidate_grid`).
    """
    spec = get_network_spec(model_name)
    model = spec.name
    uniform = uniform_assignment(spec, uniform_rows, uniform_cols)
    epitome_label = f"{uniform_rows}x{uniform_cols}"
    rows: List[HardwareRow] = []

    base = _simulate(spec, config=config, lut=lut)
    rows.append(HardwareRow(model, "FP32", "-", base.num_crossbars, 1.0,
                            base.latency_ms, base.energy_mj,
                            base.utilization, base))

    def add(name_model: str, bitwidth: str, label: str,
            report: NetworkReport) -> None:
        rows.append(HardwareRow(
            name_model, bitwidth, label, report.num_crossbars,
            base.num_crossbars / report.num_crossbars,
            report.latency_ms, report.energy_mj, report.utilization, report))

    ep_fp = _simulate(spec, uniform, config=config, lut=lut)
    add(f"EPIM-{model}", "FP32", epitome_label, ep_fp)

    prune = pim_prune_network(spec, 0.5, config=config)
    rows.append(HardwareRow(f"PIM-Prune-{model}", "FP32", "-", None,
                            prune.crossbar_compression, None, None, None))

    ep_w9 = _simulate(spec, uniform, weight_bits=9, activation_bits=9,
                      config=config, lut=lut)
    add(f"EPIM-{model}", "W9A9", epitome_label, ep_w9)

    if include_opt_rows:
        grid = build_candidate_grid(spec, weight_bits=9, activation_bits=9,
                                    use_wrapping=True, config=config,
                                    lut=lut, cache=grid_cache)
        budget = uniform_budget(grid, uniform_rows, uniform_cols,
                                opt_budget_fraction, lut)
        for objective, tag in (("latency", "Latency-Opt"),
                               ("energy", "Energy-Opt")):
            result = evolution_search(
                grid, budget, replace(search, objective=objective), lut=lut)
            report = _simulate(spec, result.assignment, weight_bits=9,
                               activation_bits=9, use_wrapping=True,
                               config=config, lut=lut)
            rows.append(HardwareRow(
                f"EPIM-{model}-{tag}", "W9A9", "layer-wise",
                report.num_crossbars,
                base.num_crossbars / report.num_crossbars,
                report.latency_ms, report.energy_mj, report.utilization,
                report))

    for bits, label in ((7, "W7A9"), (5, "W5A9")):
        report = _simulate(spec, uniform, weight_bits=bits, activation_bits=9,
                           config=config, lut=lut)
        add(f"EPIM-{model}", label, epitome_label, report)

    bit_map = mixed_precision_bit_map(spec, uniform, config=config)
    mp = _simulate(spec, uniform, weight_bits=3, activation_bits=9,
                   bit_map=bit_map, config=config, lut=lut)
    add(f"EPIM-{model}", "W3mpA9", epitome_label, mp)

    w3 = _simulate(spec, uniform, weight_bits=3, activation_bits=9,
                   config=config, lut=lut)
    add(f"EPIM-{model}", "W3A9", epitome_label, w3)
    return rows


@dataclass
class Figure3Row:
    """One bar group of Fig. 3: a layer, conv vs epitome."""

    paper_index: int
    layer_name: str
    conv_params_k: float
    epitome_params_k: float
    conv_latency_ms: float
    epitome_latency_ms: float
    conv_energy_01mj: float
    epitome_energy_01mj: float

    @property
    def params_saved_k(self) -> float:
        return self.conv_params_k - self.epitome_params_k

    @property
    def latency_increase_ms(self) -> float:
        return self.epitome_latency_ms - self.conv_latency_ms

    @property
    def energy_increase_01mj(self) -> float:
        return self.epitome_energy_01mj - self.conv_energy_01mj


def figure3_layers(spec: NetworkSpec,
                   layers: Optional[Dict[int, str]] = None) -> Dict[int, str]:
    """The Fig. 3 layer map (``layers`` or :data:`FIGURE3_LAYERS`) for
    ``spec``; ValueError names the model and every layer it lacks."""
    layer_map = layers if layers is not None else FIGURE3_LAYERS
    names = {layer.name for layer in spec}
    missing = [name for _, name in sorted(layer_map.items())
               if name not in names]
    if missing:
        raise ValueError(
            f"{spec.name} has no layer named "
            f"{' or '.join(map(repr, missing))}, which figure 3 plots")
    return layer_map


def figure3_rows(model_name: str = "resnet50",
                 uniform_rows: int = 1024, uniform_cols: int = 256,
                 layers: Optional[Dict[int, str]] = None,
                 config: HardwareConfig = DEFAULT_CONFIG,
                 lut: ComponentLUT = DEFAULT_LUT) -> List[Figure3Row]:
    """Per-layer params/latency/energy with and without the epitome (Fig. 3).

    Energies are per-layer dynamic energies (the static leakage term is a
    network-level quantity), reported in the paper's 0.1 mJ units.
    """
    spec = get_network_spec(model_name)
    layer_map = figure3_layers(spec, layers)
    uniform = uniform_assignment(spec, uniform_rows, uniform_cols)

    base_report = _simulate(spec, config=config, lut=lut)
    ep_report = _simulate(spec, uniform, config=config, lut=lut)

    rows: List[Figure3Row] = []
    for paper_index, name in sorted(layer_map.items()):
        base_layer = base_report.layer_by_name(name)
        ep_layer = ep_report.layer_by_name(name)
        rows.append(Figure3Row(
            paper_index=paper_index,
            layer_name=name,
            conv_params_k=base_layer.stored_params / 1e3,
            epitome_params_k=ep_layer.stored_params / 1e3,
            conv_latency_ms=base_layer.latency_ns / 1e6,
            epitome_latency_ms=ep_layer.latency_ns / 1e6,
            conv_energy_01mj=base_layer.energy_pj / 1e8,
            epitome_energy_01mj=ep_layer.energy_pj / 1e8,
        ))
    return rows


@dataclass
class Figure4Point:
    """One compression level of Fig. 4, all four methods x three metrics."""

    target_crossbars: int
    uniform_shape: Tuple[int, int]
    compression: float
    # method -> (latency_ms, energy_mj, edp)
    metrics: Dict[str, Tuple[float, float, float]] = field(default_factory=dict)
    # method -> crossbars of the design behind ``metrics[method]``
    crossbars: Dict[str, int] = field(default_factory=dict)

    def feasible(self, method: str) -> bool:
        """Whether ``method``'s design fits the point's crossbar budget,
        so that it compares at equal compression."""
        return self.crossbars[method] <= self.target_crossbars


# Uniform ladder swept by Fig. 4 (largest to smallest epitome).
FIGURE4_UNIFORM_LADDER: List[Tuple[int, int]] = [
    (2048, 512), (1024, 256), (512, 128), (256, 64), (128, 32),
]


def figure4_series(model_name: str = "resnet50",
                   ladder: Sequence[Tuple[int, int]] = tuple(FIGURE4_UNIFORM_LADDER),
                   weight_bits: int = 9, activation_bits: int = 9,
                   config: HardwareConfig = DEFAULT_CONFIG,
                   lut: ComponentLUT = DEFAULT_LUT,
                   search: EvoSearchConfig = EvoSearchConfig(),
                   grid_cache: Optional[GridCache] = None
                   ) -> List[Figure4Point]:
    """Regenerate Fig. 4: uniform vs wrapping vs evo-search vs EPIM-Opt.

    For every uniform design on the ladder, the three optimized methods are
    constrained to the same crossbar count, so every point compares equal
    compression — matching the paper's "similar compression with up to
    3.07x speedup / 2.36x energy / 7.13x EDP" claim structure.  A search
    whose budget no candidate design meets still returns its best design;
    :meth:`Figure4Point.feasible` tells such a cell apart.
    """
    spec = get_network_spec(model_name)
    base = _simulate(spec, weight_bits=weight_bits,
                     activation_bits=activation_bits, config=config, lut=lut)

    grid_plain = build_candidate_grid(spec, weight_bits=weight_bits,
                                      activation_bits=activation_bits,
                                      use_wrapping=False, config=config,
                                      lut=lut, cache=grid_cache)
    grid_wrap = build_candidate_grid(spec, weight_bits=weight_bits,
                                     activation_bits=activation_bits,
                                     use_wrapping=True, config=config,
                                     lut=lut, cache=grid_cache)

    points: List[Figure4Point] = []
    for rows, cols in ladder:
        assignment = uniform_assignment(spec, rows, cols)
        uniform = _simulate(spec, assignment, weight_bits=weight_bits,
                            activation_bits=activation_bits, config=config,
                            lut=lut)
        wrapped = _simulate(spec, assignment, weight_bits=weight_bits,
                            activation_bits=activation_bits,
                            use_wrapping=True, config=config, lut=lut)
        budget = uniform.num_crossbars
        point = Figure4Point(
            target_crossbars=budget, uniform_shape=(rows, cols),
            compression=base.num_crossbars / uniform.num_crossbars)
        for tag, report in (("Uniform", uniform), ("EPIM-CW", wrapped)):
            point.metrics[tag] = (report.latency_ms, report.energy_mj,
                                  report.edp)
            point.crossbars[tag] = report.num_crossbars
        for grid, tag in ((grid_plain, "EPIM-Evo"), (grid_wrap, "EPIM-Opt")):
            result = evolution_search(
                grid, budget, replace(search, objective="edp"), lut=lut)
            point.metrics[tag] = (result.eval.latency_ms,
                                  result.eval.energy_mj, result.eval.edp)
            point.crossbars[tag] = result.eval.crossbars
        points.append(point)
    return points
