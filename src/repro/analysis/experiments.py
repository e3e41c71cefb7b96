"""Top-level experiment runners — one function per paper table/figure.

Each runner returns structured data *and* prints a paper-style table via
:mod:`repro.analysis.tables`, so the tests and the ``python -m repro``
commands share one source of truth.

Hardware columns are exact (full-size ResNet-50/101 shapes); accuracy
columns come from the synthetic-task workbench at a chosen preset (see
:mod:`repro.analysis.accuracy` and :mod:`repro.data.synthetic` on the
ImageNet substitution).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .presets import PRESETS, AccuracyPreset
from .tables import Table, series_block
from ..models.specs import get_network_spec
from ..pim.config import DEFAULT_CONFIG, HardwareConfig
from ..pim.lut import DEFAULT_LUT, ComponentLUT
from ..search import (
    EvoSearchConfig,
    GridBuildStats,
    GridCache,
    ParetoPoint,
    SearchResult,
    build_candidate_grid,
    evaluate_assignment,
    evolution_search,
    uniform_budget,
)

if TYPE_CHECKING:       # pragma: no cover - typing only
    from .accuracy import AccuracyWorkbench
    from .hardware import Figure4Point, HardwareRow

__all__ = [
    "run_table1",
    "run_table2",
    "run_table3",
    "run_figure3",
    "run_figure4",
    "run_search",
    "run_search_then_serve",
    "SearchRunResult",
    "SearchThenServeResult",
    "PRESETS",
]


@dataclass
class Table1Result:
    hardware_rows: List[HardwareRow]
    accuracy: Dict[str, float]
    rendered: str


def run_table1(model_name: str = "resnet50",
               preset: AccuracyPreset = PRESETS["default"],
               with_accuracy: bool = True,
               workbench: Optional[AccuracyWorkbench] = None,
               verbose: bool = True) -> Table1Result:
    """Regenerate Table 1 (hardware columns exact; accuracy from the
    synthetic workbench, reported as the accuracy *of this substrate*)."""
    from .hardware import table1_hardware_rows

    rows = table1_hardware_rows(model_name)

    accuracy: Dict[str, float] = {}
    if with_accuracy:
        from .accuracy import AccuracyWorkbench

        bench = workbench or AccuracyWorkbench(preset)
        _, accuracy["FP32 baseline"] = bench.baseline()
        _, accuracy["EPIM FP32"] = bench.epitome_fp()
        accuracy["EPIM W9A9"] = bench.quantized_accuracy(9)
        accuracy["EPIM W7A9"] = bench.quantized_accuracy(7)
        accuracy["EPIM W5A9"] = bench.quantized_accuracy(5)
        bit_map = bench.hawq_bit_map()
        accuracy["EPIM W3mpA9"] = bench.quantized_accuracy(
            3, bit_map=bit_map, cache_key="quant-3mp")
        accuracy["EPIM W3A9"] = bench.quantized_accuracy(3)
        acc_prune, _ = bench.pruned_baseline_accuracy(0.5)
        accuracy["PIM-Prune"] = acc_prune

    def acc_for(row: HardwareRow) -> Optional[float]:
        mapping = {
            ("FP32", False): "FP32 baseline",
            ("FP32", True): "EPIM FP32",
            ("W9A9", True): "EPIM W9A9",
            ("W7A9", True): "EPIM W7A9",
            ("W5A9", True): "EPIM W5A9",
            ("W3mpA9", True): "EPIM W3mpA9",
            ("W3A9", True): "EPIM W3A9",
        }
        if row.model.startswith("PIM-Prune"):
            return accuracy.get("PIM-Prune")
        if "Opt" in row.model:
            return accuracy.get("EPIM W9A9")
        key = (row.bitwidth, row.model.startswith("EPIM"))
        name = mapping.get(key)
        return accuracy.get(name) if name else None

    table = Table(
        ["Model", "Bitwidth", "Epitome", "Accuracy(%)", "#XBs", "CR of XBs",
         "Latency(ms)", "Energy(mJ)", "Utilization(%)"],
        title=f"Table 1 — {model_name} on PIM "
              f"(accuracy: synthetic substrate{'' if with_accuracy else ' skipped'})")
    for row in rows:
        record = row.as_dict()
        acc = acc_for(row)
        table.add_row(record["Model"], record["Bitwidth"], record["Epitome"],
                      acc * 100 if acc is not None else None,
                      record["#XBs"], record["CR of XBs"],
                      record["Latency(ms)"], record["Energy(mJ)"],
                      record["Utilization(%)"])
    rendered = table.render()
    if verbose:
        print(rendered)
    return Table1Result(hardware_rows=rows, accuracy=accuracy,
                        rendered=rendered)


@dataclass
class Table2Result:
    accuracies: Dict[Tuple[str, str], float]   # (scenario, mode) -> accuracy
    ptq_accuracies: Dict[str, float]           # mode -> PTQ accuracy
    rendered: str


def run_table2(preset: AccuracyPreset = PRESETS["default"],
               workbench: Optional[AccuracyWorkbench] = None,
               ptq_bits: int = 3,
               verbose: bool = True) -> Table2Result:
    """Regenerate Table 2: the quantization ablation.

    Columns: naive quant -> + per-crossbar scales -> + overlap weighting;
    rows: 3-bit uniform and 3-5-bit mixed precision (QAT fine-tuned, like
    the paper's retrained models), plus a post-training-quantization row at
    ``ptq_bits`` where the range-setting mechanism shows without QAT
    recovery masking it.
    """
    from .accuracy import AccuracyWorkbench

    bench = workbench or AccuracyWorkbench(preset)
    modes = [("naive", "Naive Quant"),
             ("crossbar", "+ Adjust with Crossbars"),
             ("crossbar_overlap", "+ Adjusted with Overlap")]
    accuracies: Dict[Tuple[str, str], float] = {}
    ptq: Dict[str, float] = {}

    bit_map = bench.hawq_bit_map()
    for mode, _label in modes:
        accuracies[("3-bit", mode)] = bench.quantized_accuracy(
            3, mode=mode, cache_key=f"t2-3bit-{mode}")
        accuracies[("3-5 bit", mode)] = bench.quantized_accuracy(
            3, mode=mode, bit_map=bit_map, cache_key=f"t2-mp-{mode}")
        ptq[mode] = bench.ptq_accuracy(ptq_bits, mode=mode)

    table = Table(["Model", *[label for _, label in modes]],
                  title="Table 2 — epitome quantization ablation "
                        "(accuracy %, synthetic substrate)")
    for scenario in ("3-bit", "3-5 bit"):
        table.add_row(f"ResNet-20-epitome ({scenario}, QAT)",
                      *[accuracies[(scenario, mode)] * 100
                        for mode, _ in modes])
    table.add_row(f"ResNet-20-epitome ({ptq_bits}-bit, PTQ)",
                  *[ptq[mode] * 100 for mode, _ in modes])
    rendered = table.render()
    if verbose:
        print(rendered)
    return Table2Result(accuracies=accuracies, ptq_accuracies=ptq,
                        rendered=rendered)


@dataclass
class Table3Result:
    rows: List[Dict[str, float]]
    rendered: str


def run_table3(preset: AccuracyPreset = PRESETS["default"],
               workbench: Optional[AccuracyWorkbench] = None,
               prune_ratio: float = 0.5,
               gentle_epitome: Tuple[int, int] = (256, 64),
               verbose: bool = True) -> Table3Result:
    """Regenerate Table 3: epitome vs epitome+pruning vs PIM-Prune.

    The epitome here uses a *gentler* budget than Table 1's so its
    parameter compression (~1.7-2x) matches PIM-Prune 50%'s (~1.8x) — the
    paper's comparison is at matched compression (2.25x vs 1.80x).
    Parameter compression rates are computed the same way as the paper
    (epitome virtual/actual; pruning survivors + index overhead).
    """
    from .accuracy import AccuracyWorkbench

    bench = workbench or AccuracyWorkbench(preset)
    rows: List[Dict[str, float]] = []

    _, ep_acc = bench.epitome_fp(rows_cols=gentle_epitome,
                                 cache_key=f"epitome_fp-{gentle_epitome}")
    rows.append({"Method": "Epitome",
                 "Accuracy(%)": ep_acc * 100,
                 "Compress. Rate":
                     bench.epitome_param_compression(gentle_epitome)})

    acc, cr = bench.epitome_pruned_accuracy(prune_ratio,
                                            rows_cols=gentle_epitome)
    rows.append({"Method": f"Epitome + Pruning {int(prune_ratio*100)}%",
                 "Accuracy(%)": acc * 100, "Compress. Rate": cr})

    acc50, cr50 = bench.pruned_baseline_accuracy(0.5)
    rows.append({"Method": "PIM-Prune 50%", "Accuracy(%)": acc50 * 100,
                 "Compress. Rate": cr50})
    acc75, cr75 = bench.pruned_baseline_accuracy(0.75)
    rows.append({"Method": "PIM-Prune 75%", "Accuracy(%)": acc75 * 100,
                 "Compress. Rate": cr75})

    table = Table(["Method", "Accuracy(%)", "Compress. Rate"],
                  title="Table 3 — epitome vs pruning "
                        "(accuracy %, synthetic substrate; param CR)")
    for row in rows:
        table.add_dict_row(row)
    rendered = table.render()
    if verbose:
        print(rendered)
    return Table3Result(rows=rows, rendered=rendered)


@dataclass
class Figure3Result:
    rows: list
    rendered: str


def run_figure3(model_name: str = "resnet50", verbose: bool = True
                ) -> Figure3Result:
    """Regenerate Figure 3: per-layer params/latency/energy, conv vs epitome."""
    from .hardware import figure3_rows

    rows = figure3_rows(model_name)
    table = Table(["Layer", "Params(k) conv", "Params(k) epitome",
                   "Latency(ms) conv", "Latency(ms) epitome",
                   "Energy(0.1mJ) conv", "Energy(0.1mJ) epitome"],
                  title=f"Figure 3 — per-layer cost, {model_name} "
                        "(paper layers 9/41/67 mapped to shape equivalents)")
    for row in rows:
        table.add_row(f"L{row.paper_index} ({row.layer_name})",
                      row.conv_params_k, row.epitome_params_k,
                      row.conv_latency_ms, row.epitome_latency_ms,
                      row.conv_energy_01mj, row.epitome_energy_01mj)
    rendered = table.render()
    if verbose:
        print(rendered)
    return Figure3Result(rows=rows, rendered=rendered)


@dataclass
class SearchRunResult:
    """Output of :func:`run_search` — one design-space search run."""

    model: str
    objective: str
    budget: int
    baseline_crossbars: int
    design_space_size: int
    result: SearchResult
    front: Optional[List[ParetoPoint]]
    rendered: str
    grid_stats: Optional[GridBuildStats] = None
    """Grid construction accounting (build seconds, dedup ratio, cache
    hit/miss counts) — surfaced by ``repro search --json``."""
    layers: Optional[List[str]] = None
    """Layer names in genome order — the key the serving deployment loader
    uses to rebuild per-layer assignments from serialized genomes."""
    weight_bits: Optional[int] = 9
    activation_bits: Optional[int] = 9
    use_wrapping: bool = True


def run_search(model_name: str = "resnet50",
               objective: str = "latency",
               budget: Optional[int] = None,
               budget_fraction: float = 0.78,
               search: EvoSearchConfig = EvoSearchConfig(),
               weight_bits: Optional[int] = 9,
               activation_bits: Optional[int] = 9,
               use_wrapping: bool = True,
               uniform_rows: int = 1024, uniform_cols: int = 256,
               config: HardwareConfig = DEFAULT_CONFIG,
               lut: ComponentLUT = DEFAULT_LUT,
               grid_cache: Optional[GridCache] = None,
               verbose: bool = True) -> SearchRunResult:
    """Run the section 5.2 design-space search end to end and render it.

    The crossbar budget defaults to ``budget_fraction`` of the uniform
    ``uniform_rows x uniform_cols`` design's demand — the same convention
    as Table 1's "-Opt" rows.  ``objective="pareto"`` renders the whole
    latency x energy x crossbars front; scalar objectives render the
    single best design next to the no-epitome baseline.

    The candidate grid is built in this process; ``search.workers``
    fans out only the search's restarts.  ``grid_cache`` serves and
    stores per-(signature, candidate) simulation results on disk so
    repeat sweeps — the "re-search after a hardware-config tweak" loop —
    skip grid construction almost entirely.
    """
    if not math.isfinite(budget_fraction):
        raise ValueError(f"budget_fraction must be finite, got "
                         f"{budget_fraction!r}")
    spec = get_network_spec(model_name)
    grid = build_candidate_grid(spec, weight_bits=weight_bits,
                                activation_bits=activation_bits,
                                use_wrapping=use_wrapping,
                                config=config, lut=lut, cache=grid_cache)
    baseline = evaluate_assignment(grid, [None] * len(spec), lut)
    if budget is None:
        budget = uniform_budget(grid, uniform_rows, uniform_cols,
                                budget_fraction, lut)

    result = evolution_search(grid, budget,
                              replace(search, objective=objective), lut)

    header = (f"Design-space search — {spec.name}, objective={objective}, "
              f"budget={budget} XBs "
              f"({grid.design_space_size:.2e} combinations)")
    columns = ["Design", "#XBs", "CR of XBs", "Latency(ms)", "Energy(mJ)",
               "EDP", "Feasible"]
    table = Table(columns, title=header)

    def add_row(label: str, ev, feasible: bool) -> None:
        table.add_row(label, ev.crossbars,
                      baseline.crossbars / max(ev.crossbars, 1),
                      ev.latency_ms, ev.energy_mj, ev.edp,
                      "yes" if feasible else "NO")

    add_row("baseline (no epitome)", baseline, True)
    if result.front is not None:
        for i, point in enumerate(result.front):
            knee = point.eval == result.eval
            add_row(f"front[{i}]{' *knee' if knee else ''}", point.eval,
                    point.eval.crossbars <= budget)
    else:
        add_row(f"{objective}-opt ({len(result.assignment)} layers "
                f"converted)", result.eval, result.feasible)
    rendered = table.render()
    if verbose:
        print(rendered)
    return SearchRunResult(model=model_name, objective=objective,
                           budget=budget,
                           baseline_crossbars=baseline.crossbars,
                           design_space_size=grid.design_space_size,
                           result=result, front=result.front,
                           rendered=rendered, grid_stats=grid.build_stats,
                           layers=[layer.name for layer in spec],
                           weight_bits=weight_bits,
                           activation_bits=activation_bits,
                           use_wrapping=use_wrapping)


@dataclass
class SearchThenServeResult:
    """Output of :func:`run_search_then_serve` — the closed loop."""

    search: SearchRunResult
    policies: Tuple[str, ...]
    points: Dict[str, object]           # policy -> serve.deploy.OperatingPoint
    rows: List[Dict]
    rendered: str


def run_search_then_serve(model_name: str = "resnet18",
                          policies: Tuple[str, ...] = ("latency-opt",
                                                       "energy-opt"),
                          budget: Optional[int] = None,
                          budget_fraction: float = 0.78,
                          search: EvoSearchConfig = EvoSearchConfig(),
                          num_chips: Optional[int] = None,
                          num_requests: int = 400,
                          load_factors: Tuple[float, ...] = (0.5, 0.8),
                          seed: int = 0,
                          config: HardwareConfig = DEFAULT_CONFIG,
                          lut: ComponentLUT = DEFAULT_LUT,
                          grid_cache: Optional[GridCache] = None,
                          verbose: bool = True) -> SearchThenServeResult:
    """Search a model's design space, then A/B the chosen operating points
    under serving load — the whole ``search -> serve`` loop in one call.

    Runs a Pareto search, serializes it through the *same* versioned
    payload the ``repro search --json`` CLI writes (so this experiment
    exercises the real hand-off contract, not a shortcut), picks one
    operating point per ``policies`` entry, deploys each as a serving
    fleet and replays identical Poisson traces against all of them at
    ``load_factors`` x the slowest fleet's capacity.  Returns per-policy
    p50/p99 latency, achieved throughput and energy per request.
    """
    # Imported here: of the runners, only this loop uses the serving
    # runtime.
    from ..search.cli import search_result_payload
    from ..serve.deploy import (
        ab_offered_load_sweep,
        engine_from_search,
        load_search_result,
        render_ab,
    )

    outcome = run_search(model_name, objective="pareto", budget=budget,
                         budget_fraction=budget_fraction, search=search,
                         config=config, lut=lut, grid_cache=grid_cache,
                         verbose=False)
    loaded = load_search_result(search_result_payload(outcome))
    engines = {}
    points = {}
    for policy in policies:
        engines[policy] = engine_from_search(
            loaded, policy=policy, num_chips=num_chips,
            config=config, lut=lut)
        points[policy] = loaded.select(policy)
    rows = ab_offered_load_sweep(engines, num_requests=num_requests,
                                 load_factors=load_factors, seed=seed)
    rendered = render_ab(rows, title=f"search -> serve A/B — {model_name}, "
                                     f"budget={outcome.budget} XBs")
    if verbose:
        print(outcome.rendered)
        print()
        print(rendered)
    return SearchThenServeResult(search=outcome, policies=tuple(policies),
                                 points=points, rows=rows,
                                 rendered=rendered)


@dataclass
class Figure4Result:
    points: List[Figure4Point]
    rendered: str


def run_figure4(model_name: str = "resnet50", verbose: bool = True,
                **kwargs) -> Figure4Result:
    """Regenerate Figure 4: latency/energy/EDP vs compression for the four
    methods (Uniform, +Channel Wrapping, +Evo-Search, EPIM-Opt)."""
    from .hardware import figure4_series

    points = figure4_series(model_name, **kwargs)
    methods = ["Uniform", "EPIM-CW", "EPIM-Evo", "EPIM-Opt"]
    blocks = []
    for metric_index, metric in enumerate(("Latency(ms)", "Energy(mJ)",
                                           "EDP(mJ*ms)")):
        series = {method: [p.metrics[method][metric_index]
                           if p.feasible(method) else None for p in points]
                  for method in methods}
        blocks.append(series_block(
            f"Figure 4{chr(ord('a') + metric_index)} — {metric} vs compression",
            "CR", [round(p.compression, 2) for p in points], series))
    rendered = "\n\n".join(blocks) + (
        "\n- : no design found within the uniform design's crossbar count")
    if verbose:
        print(rendered)
    return Figure4Result(points=points, rendered=rendered)
