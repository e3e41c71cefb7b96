"""Candidate grids and the vectorized population evaluator.

The design space of section 5.2 is a per-layer choice out of a candidate
set ``C`` (``None`` keeps the conv layer as-is).  A layer's hardware cost
(crossbars, latency, dynamic energy) depends only on its own deployment,
so the whole space is captured by three ``(layers, candidates)`` lookup
matrices.  A genome is then an integer index per layer, a population is an
``(P, L)`` integer array, and scoring a generation is one flat gather per
matrix into an ``(L, P)`` array plus one reduction over its layer axis —
no per-individual or per-layer Python loop.

:func:`evaluate_population` reduces the layer axis with
``np.add.reduce(..., axis=0)``.  NumPy sums pairwise only along the
contiguous innermost axis of a reduction; axis 0 of a C-ordered
``(L, P, 2)`` array is the outermost, so its rows are added one after
another in layer order.  The sums are therefore *bit-for-bit identical*
to the scalar :func:`evaluate_assignment` loop (same IEEE-754 operation
sequence), and reward orderings of the two paths agree exactly.
``tests/search/test_grid.py`` pins both the rule
(``TestLayerAxisReduce``, against a sequential row loop) and the
agreement with the scalar path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..models.specs import LayerSpec, NetworkSpec
from ..obs.catalog import publish
from ..obs.runtime import get_metrics
from ..pim.config import DEFAULT_CONFIG, HardwareConfig
from ..pim.lut import DEFAULT_LUT, ComponentLUT
from ..pim.simulator import (
    baseline_deployment,
    epitome_deployment_from_plan,
    epitome_deployment_from_shape,
    simulate_layer,
)
from .gridcache import GridCache
from .signature import (
    BASELINE_KEY,
    grid_context_key,
    layer_signature,
    resolved_shape_key,
)

__all__ = [
    "Candidate",
    "DEFAULT_CANDIDATES",
    "CandidateGrid",
    "GridBuildStats",
    "GridMatrices",
    "EvalResult",
    "PopulationEval",
    "build_candidate_grid",
    "build_candidate_grid_serial",
    "evaluate_assignment",
    "evaluate_population",
    "population_rewards",
    "encode_genome",
    "decode_genome",
    "uniform_budget",
]

# A candidate is a (rows, cols) epitome description or None (keep conv).
Candidate = Optional[Tuple[int, int]]

DEFAULT_CANDIDATES: List[Candidate] = [
    None,
    (2048, 512), (2048, 256),
    (1024, 512), (1024, 256), (1024, 128),
    (512, 256), (512, 128),
    (256, 128), (256, 64),
]

OBJECTIVES = ("latency", "energy", "edp")


@dataclass(frozen=True)
class GridMatrices:
    """Per-layer hardware cache encoded as numpy lookup matrices.

    Rows are layers (grid/spec order); columns index each layer's valid
    candidate list.  ``num_options[i]`` columns are meaningful in row
    ``i``; the padding beyond them is never indexed because genomes hold
    in-range option indices.
    """

    layer_names: Tuple[str, ...]
    options: Tuple[Tuple[Candidate, ...], ...]
    num_options: np.ndarray     # (L,) int64
    crossbars: np.ndarray       # (L, K) int64
    latency_ns: np.ndarray      # (L, K) float64
    dynamic_pj: np.ndarray      # (L, K) float64

    @property
    def num_layers(self) -> int:
        return len(self.layer_names)

    def option_index(self, layer: int, candidate: Candidate) -> int:
        return self.options[layer].index(candidate)

    @cached_property
    def float_cells(self) -> np.ndarray:
        """``(L*K, 2)`` table of each flat ``(layer, option)`` cell's
        ``(latency_ns, dynamic_pj)``, so one gather serves both float
        sums.  Built on first use and kept, like the grid's matrices."""
        L, K = self.latency_ns.shape
        return np.stack((self.latency_ns, self.dynamic_pj),
                        axis=-1).reshape(L * K, 2)

    @cached_property
    def layer_offsets(self) -> np.ndarray:
        """``(L, 1)`` flat index of each layer's option 0, ``l * K``."""
        L, K = self.crossbars.shape
        return np.arange(L)[:, None] * K

    @cached_property
    def candidate_options(self) -> np.ndarray:
        """``(C, L)`` option index of each epitome candidate in each
        layer, -1 where the layer lacks it; rows follow the sorted
        candidates of all layers.  Built on first use and kept."""
        candidates = sorted({cand for opts in self.options
                             for cand in opts if cand is not None})
        row = {cand: i for i, cand in enumerate(candidates)}
        table = np.full((len(candidates), self.num_layers), -1,
                        dtype=np.int64)
        for li, opts in enumerate(self.options):
            for ki, cand in enumerate(opts):
                # A candidate listed twice keeps its first index.
                if cand is not None and table[row[cand], li] < 0:
                    table[row[cand], li] = ki
        return table


@dataclass(frozen=True)
class GridBuildStats:
    """What one :func:`build_candidate_grid` call actually did.

    ``sim_tasks_total`` is the number of ``simulate_layer`` calls the
    serial reference would make; ``sim_tasks_unique`` is what remains
    after shape-signature + resolved-shape dedup; ``simulated`` is how
    many of those were *not* served by the persistent cache.  Cache
    hit/miss counts are per unique task, i.e. simulations avoided/run.
    """

    build_s: float
    layers: int
    unique_signatures: int
    sim_tasks_total: int
    sim_tasks_unique: int
    simulated: int
    cache_hits: int = 0
    cache_misses: int = 0
    cache_enabled: bool = False


@dataclass
class CandidateGrid:
    """Valid candidates per layer, plus cached per-layer hardware results."""

    spec: NetworkSpec
    candidates: Dict[str, List[Candidate]]
    # (layer name, candidate) -> (crossbars, latency_ns, dynamic_energy_pj)
    cache: Dict[Tuple[str, Candidate], Tuple[int, float, float]]
    # How this grid was built (timing/dedup/cache accounting).  Excluded
    # from equality so differently built but identical grids compare equal.
    build_stats: Optional[GridBuildStats] = field(default=None, compare=False,
                                                  repr=False)

    def __post_init__(self):
        # Memoization slot for matrices(); a plain attribute (not a
        # dataclass field) so it stays out of equality, and dropped from
        # pickles via __getstate__ so pickled grids stay compact.
        self._matrices: Optional[GridMatrices] = None

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_matrices"] = None
        return state

    @property
    def design_space_size(self) -> int:
        size = 1
        for options in self.candidates.values():
            size *= len(options)
        return size

    def matrices(self) -> GridMatrices:
        """The grid's cache as lookup matrices (built once, then cached)."""
        if self._matrices is None:
            self._matrices = build_matrices(self)
        return self._matrices


def build_candidate_grid(spec: NetworkSpec,
                         candidates: Sequence[Candidate] = tuple(DEFAULT_CANDIDATES),
                         weight_bits: Optional[int] = None,
                         activation_bits: Optional[int] = None,
                         use_wrapping: bool = False,
                         config: HardwareConfig = DEFAULT_CONFIG,
                         lut: ComponentLUT = DEFAULT_LUT,
                         cache: Optional[GridCache] = None) -> CandidateGrid:
    """Enumerate valid candidates per layer and pre-simulate each one.

    Two-stage fast path (bit-for-bit identical to
    :func:`build_candidate_grid_serial`, which tests pin):

    1. **shape-signature dedup** — layers are grouped by their
       simulation-relevant shape signature and candidates by the concrete
       epitome shape they resolve to, so each unique (signature, shape)
       pair is simulated exactly once, in this process, and fanned back
       out (ResNet-50: 407 serial simulations collapse to 115 unique
       ones).  The cost model is closed form, so the whole build takes
       milliseconds and a process pool could only add start-up cost;
    2. **persistent cache** — ``cache`` serves previously simulated
       (signature, candidate) cells from disk and stores new ones, so a
       warm rebuild simulates nothing and partial hits survive
       candidate-list or spec edits (see :mod:`repro.search.gridcache`).

    The build's timing/dedup/cache accounting lands on
    ``CandidateGrid.build_stats``.
    """
    from ..core.designer import choose_epitome_shape

    t_start = time.perf_counter()
    context = grid_context_key(weight_bits, activation_bits, use_wrapping,
                               config, lut)

    # --- stage 1: group layers by shape signature -----------------------
    sig_of: Dict[str, str] = {}                  # layer name -> signature
    rep_of: Dict[str, LayerSpec] = {}            # signature -> representative
    sig_order: List[str] = []                    # first-seen signature order
    for layer in spec:
        sig = layer_signature(layer, context)
        sig_of[layer.name] = sig
        if sig not in rep_of:
            rep_of[sig] = layer
            sig_order.append(sig)

    # Per signature: valid candidates (serial order) and each candidate's
    # task key.  Distinct candidates clamping to the same concrete epitome
    # shape share one key — a second dedup level on top of the signature
    # grouping (ResNet-50: 168 signature-unique tasks -> 115 shape-unique).
    options_of: Dict[str, List[Candidate]] = {}
    keymap_of: Dict[str, Dict[Candidate, str]] = {}
    # (signature, task key) -> (representative layer, resolved shape tuple)
    tasks: Dict[Tuple[str, str], Tuple[LayerSpec,
                                       Optional[Tuple[int, ...]]]] = {}
    for sig in sig_order:
        rep = rep_of[sig]
        options: List[Candidate] = [None]
        keymap: Dict[Candidate, str] = {None: BASELINE_KEY}
        tasks.setdefault((sig, BASELINE_KEY), (rep, None))
        if rep.kind == "conv":
            for cand in candidates:
                if cand is None:
                    continue
                shape = choose_epitome_shape(rep, cand[0], cand[1], config)
                if shape is None:
                    continue
                options.append(cand)
                resolved = shape.as_tuple()
                key = resolved_shape_key(resolved)
                keymap[cand] = key
                tasks.setdefault((sig, key), (rep, resolved))
        options_of[sig] = options
        keymap_of[sig] = keymap

    # --- stage 2 (probe): partial hits from the persistent cache --------
    results: Dict[Tuple[str, str], Tuple[int, float, float]] = {}
    hits = misses = 0
    if cache is not None:
        loaded = {sig: cache.load(sig) for sig in sig_order}
        for sig, key in tasks:
            cell = loaded[sig].get(key)
            if cell is not None:
                results[(sig, key)] = cell
                hits += 1
            else:
                misses += 1
        cache.stats.hits += hits
        cache.stats.misses += misses

    # --- simulate each remaining unique task, in this process ----------
    # ``shape`` is None for the keep-conv baseline, else the resolved
    # ``(eo, ei, eh, ew)``: the deployment is closed form, with no
    # designer call and no patch schedule.
    todo = [task for task in tasks if task not in results]
    for task in todo:
        rep, shape = tasks[task]
        if shape is None:
            dep = baseline_deployment(rep, weight_bits=weight_bits,
                                      activation_bits=activation_bits,
                                      config=config)
        else:
            dep = epitome_deployment_from_shape(
                rep, shape, weight_bits=weight_bits,
                activation_bits=activation_bits,
                use_wrapping=use_wrapping, config=config)
        report = simulate_layer(dep, config, lut)
        results[task] = (report.num_crossbars, report.latency_ns,
                         report.energy_pj)

    # --- stage 2 (write-back): persist newly simulated cells ------------
    if cache is not None and todo:
        new_by_sig: Dict[str, Dict[str, Tuple[int, float, float]]] = {}
        for sig, key in todo:
            new_by_sig.setdefault(sig, {})[key] = results[(sig, key)]
        for sig, entries in new_by_sig.items():
            cache.store(sig, entries)

    # --- fan out to every layer sharing each signature ------------------
    per_layer: Dict[str, List[Candidate]] = {}
    cell_cache: Dict[Tuple[str, Candidate], Tuple[int, float, float]] = {}
    total_tasks = 0
    for layer in spec:
        sig = sig_of[layer.name]
        options = list(options_of[sig])
        keymap = keymap_of[sig]
        per_layer[layer.name] = options
        total_tasks += len(options)
        for cand in options:
            cell_cache[(layer.name, cand)] = results[(sig, keymap[cand])]

    stats = GridBuildStats(
        build_s=time.perf_counter() - t_start,
        layers=len(spec),
        unique_signatures=len(sig_order),
        sim_tasks_total=total_tasks,
        sim_tasks_unique=len(tasks),
        simulated=len(todo),
        cache_hits=hits,
        cache_misses=misses,
        cache_enabled=cache is not None,
    )
    publish(get_metrics(), "search.gridcache",
            {"hits": hits, "misses": misses, "simulated": len(todo)})
    return CandidateGrid(spec=spec, candidates=per_layer, cache=cell_cache,
                         build_stats=stats)


def build_candidate_grid_serial(spec: NetworkSpec,
                                candidates: Sequence[Candidate] = tuple(DEFAULT_CANDIDATES),
                                weight_bits: Optional[int] = None,
                                activation_bits: Optional[int] = None,
                                use_wrapping: bool = False,
                                config: HardwareConfig = DEFAULT_CONFIG,
                                lut: ComponentLUT = DEFAULT_LUT
                                ) -> CandidateGrid:
    """The retained serial reference: every (layer, candidate) pair
    simulated from scratch in spec order.

    Kept permanently (like the scalar population evaluator) so the
    deduped/cached pipeline's bit-for-bit equality stays a
    measured property — ``tests/search/test_gridcache.py`` compares the
    two paths exactly, and ``search.grid_build`` benchmarks this path as
    the cold baseline.
    """
    from ..core.designer import choose_epitome_shape
    from ..core.epitome import build_plan

    per_layer: Dict[str, List[Candidate]] = {}
    cache: Dict[Tuple[str, Candidate], Tuple[int, float, float]] = {}
    for layer in spec:
        options: List[Candidate] = [None]
        report = simulate_layer(baseline_deployment(
            layer, weight_bits=weight_bits, activation_bits=activation_bits,
            config=config), config, lut)
        cache[(layer.name, None)] = (report.num_crossbars, report.latency_ns,
                                     report.energy_pj)
        if layer.kind == "conv":
            for cand in candidates:
                if cand is None:
                    continue
                shape = choose_epitome_shape(layer, cand[0], cand[1], config)
                if shape is None:
                    continue
                plan = build_plan(
                    (layer.out_channels, layer.in_channels, *layer.kernel_size),
                    shape, with_index_map=False)
                dep = epitome_deployment_from_plan(
                    layer, plan, weight_bits=weight_bits,
                    activation_bits=activation_bits,
                    use_wrapping=use_wrapping, config=config)
                report = simulate_layer(dep, config, lut)
                options.append(cand)
                cache[(layer.name, cand)] = (report.num_crossbars,
                                             report.latency_ns,
                                             report.energy_pj)
        per_layer[layer.name] = options
    return CandidateGrid(spec=spec, candidates=per_layer, cache=cache)


def build_matrices(grid: CandidateGrid) -> GridMatrices:
    """Encode a grid's per-layer cache into ``(L, K)`` lookup matrices."""
    layer_names = tuple(layer.name for layer in grid.spec)
    options = tuple(tuple(grid.candidates[name]) for name in layer_names)
    num_options = np.array([len(opts) for opts in options], dtype=np.int64)
    L, K = len(layer_names), int(num_options.max()) if len(layer_names) else 0
    crossbars = np.zeros((L, K), dtype=np.int64)
    latency_ns = np.zeros((L, K), dtype=np.float64)
    dynamic_pj = np.zeros((L, K), dtype=np.float64)
    for li, (name, opts) in enumerate(zip(layer_names, options)):
        for ki, cand in enumerate(opts):
            xb, lat, dyn = grid.cache[(name, cand)]
            crossbars[li, ki] = xb
            latency_ns[li, ki] = lat
            dynamic_pj[li, ki] = dyn
    return GridMatrices(layer_names=layer_names, options=options,
                        num_options=num_options, crossbars=crossbars,
                        latency_ns=latency_ns, dynamic_pj=dynamic_pj)


@dataclass(frozen=True)
class EvalResult:
    """Aggregated hardware numbers for one individual."""

    crossbars: int
    latency_ms: float
    energy_mj: float

    @property
    def edp(self) -> float:
        return self.latency_ms * self.energy_mj


@dataclass(frozen=True)
class PopulationEval:
    """Aggregated hardware numbers for a whole population (one array per
    metric, aligned with the population's row order)."""

    crossbars: np.ndarray       # (P,) int64
    latency_ms: np.ndarray      # (P,) float64
    energy_mj: np.ndarray       # (P,) float64

    def __len__(self) -> int:
        return len(self.crossbars)

    @property
    def edp(self) -> np.ndarray:
        return self.latency_ms * self.energy_mj

    def result(self, i: int) -> EvalResult:
        return EvalResult(crossbars=int(self.crossbars[i]),
                          latency_ms=float(self.latency_ms[i]),
                          energy_mj=float(self.energy_mj[i]))


def evaluate_assignment(grid: CandidateGrid, genome: Sequence[Candidate],
                        lut: ComponentLUT = DEFAULT_LUT) -> EvalResult:
    """Sum cached per-layer results + the network-level static energy."""
    xbars = 0
    latency_ns = 0.0
    dynamic_pj = 0.0
    for layer, cand in zip(grid.spec, genome):
        cell = grid.cache[(layer.name, cand)]
        xbars += cell[0]
        latency_ns += cell[1]
        dynamic_pj += cell[2]
    latency_ms = latency_ns / 1e6
    static_mj = (lut.p_leak_per_xbar_uw * xbars * latency_ms * 1e-6
                 * lut.energy_scale)
    return EvalResult(crossbars=xbars, latency_ms=latency_ms,
                      energy_mj=dynamic_pj / 1e9 + static_mj)


# Individuals scored per block: keeps each block's (L, block) gathers
# cache-resident however large the population grows.
_EVAL_BLOCK = 1024


# reprolint: hot-loop -- vectorized evaluator (14-23x over scalar, PR 3)
def evaluate_population(matrices: GridMatrices, genomes: np.ndarray,
                        lut: ComponentLUT = DEFAULT_LUT) -> PopulationEval:
    """Score a ``(P, L)`` index-array population in one pass.

    Per block of individuals, one flat gather per lookup matrix yields
    an ``(L, block)`` array of per-layer cells (row ``l`` holds layer
    ``l``'s cell for every individual), and one ``np.add.reduce`` over
    axis 0 sums them onto zeroed totals.  That reduction adds the rows
    in layer order, layer 0 first — NumPy sums pairwise only along the
    contiguous innermost axis, and axis 0 of the C-ordered gather is the
    outermost (``TestLayerAxisReduce`` in ``tests/search/test_grid.py``
    pins this).  It is the scalar :func:`evaluate_assignment` loop's
    exact IEEE-754 operation sequence, vectorized across the population,
    so every individual's totals match it bit-for-bit.
    """
    genomes = np.asarray(genomes)
    if genomes.ndim != 2:
        raise ValueError(f"genomes must be (P, L), got shape {genomes.shape}")
    P, L = genomes.shape
    if L != matrices.num_layers:
        raise ValueError(f"genome length {L} != {matrices.num_layers} layers")
    float_cells = matrices.float_cells
    offsets = matrices.layer_offsets
    # Every row is written by its block's sum and reduction below.
    xbars = np.empty(P, dtype=np.int64)
    sums = np.empty((P, 2), dtype=np.float64)
    for start in range(0, P, _EVAL_BLOCK):
        stop = start + _EVAL_BLOCK
        # Flat index of (layer l, option genomes[p, l]), laid out (L, block).
        flat = np.add(genomes[start:stop].T, offsets, order="C")
        xbars[start:stop] = np.take(matrices.crossbars, flat).sum(axis=0)
        np.add.reduce(np.take(float_cells, flat, axis=0), axis=0,
                      initial=0.0, out=sums[start:stop])
    latency_ns, dynamic_pj = sums[:, 0], sums[:, 1]
    latency_ms = latency_ns / 1e6
    static_mj = (lut.p_leak_per_xbar_uw * xbars * latency_ms * 1e-6
                 * lut.energy_scale)
    return PopulationEval(crossbars=xbars, latency_ms=latency_ms,
                          energy_mj=dynamic_pj / 1e9 + static_mj)


def population_rewards(evals: PopulationEval, budget: Optional[int],
                       objective: str) -> np.ndarray:
    """Vectorized Eqs. 6-7: inverse objective, gated to 0 above budget."""
    if objective == "latency":
        value = evals.latency_ms
    elif objective == "energy":
        value = evals.energy_mj
    elif objective == "edp":
        value = evals.edp
    else:
        raise ValueError(f"unknown objective {objective!r}")
    rewards = np.zeros(len(evals), dtype=np.float64)
    np.divide(1.0, value, out=rewards, where=value > 0)
    if budget is not None:
        rewards[evals.crossbars > budget] = 0.0
    return rewards


def uniform_budget(grid: CandidateGrid, rows: int = 1024, cols: int = 256,
                   fraction: float = 0.78,
                   lut: ComponentLUT = DEFAULT_LUT) -> int:
    """Table 1's budget convention: a fraction of the uniform
    ``rows x cols`` design's crossbar demand (layers lacking the candidate
    stay unconverted).  Single source of truth for the CLI, the
    experiment runner and the bench suite."""
    genome = [(rows, cols) if (rows, cols) in grid.candidates[layer.name]
              else None for layer in grid.spec]
    return max(1, int(evaluate_assignment(grid, genome, lut).crossbars
                      * fraction))


def encode_genome(matrices: GridMatrices,
                  genome: Sequence[Candidate]) -> np.ndarray:
    """Candidate tuples -> per-layer option indices (inverse of decode)."""
    if len(genome) != matrices.num_layers:
        raise ValueError(f"genome length {len(genome)} != "
                         f"{matrices.num_layers} layers")
    return np.array([matrices.option_index(li, cand)
                     for li, cand in enumerate(genome)], dtype=np.int64)


def decode_genome(matrices: GridMatrices,
                  indices: np.ndarray) -> List[Candidate]:
    """Per-layer option indices -> candidate tuples (inverse of encode)."""
    indices = np.asarray(indices, dtype=np.int64)
    if len(indices) != matrices.num_layers:
        raise ValueError(f"genome length {len(indices)} != "
                         f"{matrices.num_layers} layers")
    return [options[ki] for options, ki in zip(matrices.options,
                                               indices.tolist())]
