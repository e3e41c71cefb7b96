"""Pareto-front multi-objective search: latency x energy x crossbars.

The scalar reward of Eqs. 6-7 collapses the design trade-off into one
number per run; serving deployments usually want the *frontier* instead —
every design for which no other design is simultaneously faster, leaner
and more efficient — and pick an operating point per fleet.  This module
replaces the reward with non-dominated selection over the objective
vector ``(latency_ms, energy_mj, crossbars)`` (all minimized):

- an elitist archive keeps the non-dominated set found so far, thinned by
  crowding distance when it outgrows :data:`ARCHIVE_CAPACITY` (extreme
  points are never thinned away);
- parents are drawn from the archive, children bred with the same
  crossover + layer re-roll operators as the scalar mode;
- individuals over the crossbar budget never enter the archive; while no
  feasible individual exists yet, selection pressure is "fewest
  crossbars", which drives the population into the feasible region.

Everything is vectorized: population scoring via
:func:`~repro.search.grid.evaluate_population`, dominance via O(n^2)
boolean comparisons over the (population + archive) set, one ``(n, n)``
matrix per objective folded with ``&``/``|``.  The merged set is
deduplicated by a first-occurrence pass keyed on each genome's bytes,
and the archive counts as changed when the kept positions are anything
but the old archive's own.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..obs.runtime import get_metrics, get_tracer
from ..pim.lut import DEFAULT_LUT, ComponentLUT
from .parallel import parallel_map
from .evolve import (
    EvoSearchConfig,
    SearchResult,
    breed,
    initial_population,
)
from .grid import (
    Candidate,
    CandidateGrid,
    EvalResult,
    decode_genome,
    evaluate_assignment,
    evaluate_population,
)

__all__ = [
    "ARCHIVE_CAPACITY",
    "SELECTION_POLICIES",
    "ParetoPoint",
    "ParetoResult",
    "pareto_search",
    "non_dominated_mask",
    "crowding_distance",
    "select_index",
]

ARCHIVE_CAPACITY = 128

# Operating-point selection policies shared by :meth:`ParetoResult.select`
# and the serving deployment loader (:mod:`repro.serve.deploy`): pick one
# point off a front for a fleet to run.
SELECTION_POLICIES = ("latency-opt", "energy-opt", "knee", "index")


def select_index(metrics: Sequence[Tuple[float, float, float]],
                 policy: str, index: Optional[int] = None) -> int:
    """Pick one operating point from ``(latency_ms, energy_mj, edp)`` rows.

    Policies (ties broken by the other objective, then first occurrence,
    so the pick is deterministic for a fixed front):

    - ``"latency-opt"`` — minimum latency (interactive fleets);
    - ``"energy-opt"`` — minimum energy per image (batch fleets);
    - ``"knee"`` — minimum EDP, the balanced default;
    - ``"index"`` — the explicit ``index``-th point.
    """
    if policy not in SELECTION_POLICIES:
        raise ValueError(f"unknown selection policy {policy!r}; "
                         f"expected one of {SELECTION_POLICIES}")
    if not metrics:
        raise ValueError("cannot select from an empty front")
    if policy == "index":
        if index is None:
            raise ValueError("policy 'index' needs an explicit index")
        if not 0 <= index < len(metrics):
            raise ValueError(f"index {index} out of range for a "
                             f"{len(metrics)}-point front")
        return index
    keys = {
        "latency-opt": lambda m: (m[0], m[1]),
        "energy-opt": lambda m: (m[1], m[0]),
        "knee": lambda m: (m[2], m[0]),
    }
    key = keys[policy]
    return min(range(len(metrics)), key=lambda i: key(metrics[i]))


@dataclass(frozen=True)
class ParetoPoint:
    """One non-dominated design: genome + its aggregated hardware numbers."""

    genome: Tuple[Candidate, ...]
    eval: EvalResult

    @property
    def objectives(self) -> Tuple[float, float, int]:
        return (self.eval.latency_ms, self.eval.energy_mj,
                self.eval.crossbars)


@dataclass
class ParetoResult:
    """The front found by :func:`pareto_search`.

    ``points`` is sorted by latency ascending (therefore roughly energy
    descending — that's what a frontier looks like).  ``history`` records
    the archive size per iteration, concatenated across restarts.
    """

    points: List[ParetoPoint]
    layer_names: Tuple[str, ...]
    history: List[float]
    feasible: bool = True

    def __len__(self) -> int:
        return len(self.points)

    def knee(self) -> ParetoPoint:
        """The front's minimum-EDP point — the balanced default pick."""
        if not self.points:
            raise ValueError("empty Pareto front")
        return min(self.points, key=lambda p: p.eval.edp)

    def select(self, policy: str = "knee",
               index: Optional[int] = None) -> ParetoPoint:
        """Pick one operating point by policy (see :func:`select_index`)."""
        metrics = [(p.eval.latency_ms, p.eval.energy_mj, p.eval.edp)
                   for p in self.points]
        return self.points[select_index(metrics, policy, index)]

    def as_search_result(self) -> SearchResult:
        """The knee point as a :class:`SearchResult`, front attached."""
        point = self.knee()
        assignment = {name: cand
                      for name, cand in zip(self.layer_names, point.genome)
                      if cand is not None}
        return SearchResult(assignment=assignment,
                            genome=list(point.genome),
                            eval=point.eval,
                            history=list(self.history),
                            feasible=self.feasible,
                            front=list(self.points))


def non_dominated_mask(objectives: np.ndarray) -> np.ndarray:
    """Boolean mask of the non-dominated rows of an ``(N, M)`` objective
    matrix (all objectives minimized).

    Row ``i`` dominates row ``j`` when it is <= everywhere and < somewhere.
    """
    objectives = np.asarray(objectives, dtype=np.float64)
    if objectives.ndim != 2:
        raise ValueError("objectives must be (N, M)")
    n = len(objectives)
    # One (N, N) comparison per objective, folded with & / |, instead of
    # an (N, N, M) broadcast reduced over its short last axis.
    leq = np.ones((n, n), dtype=bool)
    lt = np.zeros((n, n), dtype=bool)
    for column in objectives.T:
        mine, theirs = column[:, None], column[None, :]
        leq &= mine <= theirs
        lt |= mine < theirs
    return ~(leq & lt).any(axis=0)


def crowding_distance(objectives: np.ndarray) -> np.ndarray:
    """NSGA-II crowding distance; extreme points get +inf so capacity
    thinning never drops the frontier's end points."""
    objectives = np.asarray(objectives, dtype=np.float64)
    n, m = objectives.shape
    distance = np.zeros(n)
    for k in range(m):
        order = np.argsort(objectives[:, k], kind="stable")
        values = objectives[order, k]
        distance[order[0]] = distance[order[-1]] = np.inf
        spread = values[-1] - values[0]
        if n > 2 and spread > 0:
            distance[order[1:-1]] += (values[2:] - values[:-2]) / spread
    return distance


def _thin(objectives: np.ndarray, capacity: int) -> np.ndarray:
    """Ascending positions of the rows kept when crowding-distance
    thinning cuts ``objectives`` down to ``capacity`` rows."""
    if len(objectives) <= capacity:
        return np.arange(len(objectives))
    keep = np.argsort(-crowding_distance(objectives), kind="stable")[:capacity]
    keep.sort()     # preserve insertion order for determinism
    return keep


def _dedupe(rows: np.ndarray) -> np.ndarray:
    """Positions of each distinct row's first occurrence, in row order
    (rows compare by their bytes)."""
    seen = set()
    first = []
    for i, row in enumerate(rows):
        key = row.tobytes()
        if key not in seen:
            seen.add(key)
            first.append(i)
    return np.array(first, dtype=np.intp)


def _front(objectives: np.ndarray) -> np.ndarray:
    """Ascending positions of the archive kept from deduplicated
    ``objectives``: the non-dominated rows, thinned to capacity."""
    front = np.flatnonzero(non_dominated_mask(objectives))
    return front[_thin(objectives[front], ARCHIVE_CAPACITY)]


def pareto_search(grid: CandidateGrid,
                  crossbar_budget: Optional[int],
                  search: EvoSearchConfig = EvoSearchConfig(),
                  lut: ComponentLUT = DEFAULT_LUT) -> ParetoResult:
    """Evolve the Pareto front of latency x energy x crossbars.

    Restarts evolve independent archives (seeds ``seed, seed+1, ...``,
    fanned across ``search.workers`` processes when asked) whose fronts
    are merged and re-filtered for dominance, so more restarts only ever
    widen or tighten the frontier.
    """
    configs = [replace(search, seed=search.seed + restart, restarts=1)
               for restart in range(search.restarts)]
    payloads = [(grid, crossbar_budget, config, lut) for config in configs]
    runs = parallel_map(_pareto_task, payloads, search.workers)
    matrices = grid.matrices()
    genomes = np.concatenate([g for g, _, _ in runs], axis=0)
    objectives = np.concatenate([o for _, o, _ in runs], axis=0)
    history: List[float] = []
    for _, _, run_history in runs:
        history.extend(run_history)
    feasible = True
    if len(genomes) == 0:
        # Budget unattainable: surface the smallest design, flagged.
        rng = np.random.default_rng(search.seed)
        genomes = initial_population(grid, 1, rng)
        evals = evaluate_population(matrices, genomes, lut)
        objectives = np.stack([evals.latency_ms, evals.energy_mj,
                               evals.crossbars.astype(np.float64)], axis=1)
        feasible = False
    first = _dedupe(genomes)
    keep = first[_front(objectives[first])]
    genomes, objectives = genomes[keep], objectives[keep]
    # Distinct genomes can tie on every objective; keep one per objective
    # vector so the reported front has no duplicate rows.
    unique = _dedupe(objectives)
    genomes, objectives = genomes[unique], objectives[unique]
    order = np.argsort(objectives[:, 0], kind="stable")
    points = []
    for i in order:
        genome = tuple(decode_genome(matrices, genomes[i]))
        points.append(ParetoPoint(genome=genome,
                                  eval=evaluate_assignment(grid, genome, lut)))
    get_metrics().gauge("search.pareto.front_size",
                        help="points on the last merged Pareto front"
                        ).set(len(points))
    return ParetoResult(points=points, layer_names=matrices.layer_names,
                        history=history, feasible=feasible)


def _pareto_task(payload) -> Tuple[np.ndarray, np.ndarray, List[float]]:
    """Module-level so ProcessPoolExecutor can pickle it."""
    grid, crossbar_budget, config, lut = payload
    return _pareto_search_once(grid, crossbar_budget, config, lut)


def _pareto_search_once(grid: CandidateGrid,
                        crossbar_budget: Optional[int],
                        search: EvoSearchConfig,
                        lut: ComponentLUT
                        ) -> Tuple[np.ndarray, np.ndarray, List[float]]:
    """One archive's evolution; returns (genomes, objectives, history).

    Per-generation spans land on the ``pareto seed=N`` track; run totals
    go to ``search.pareto.*`` in the installed registry.
    """
    tracer = get_tracer()
    metrics = get_metrics()
    rng = np.random.default_rng(search.seed)
    matrices = grid.matrices()
    population = initial_population(grid, search.population_size, rng)
    archive_g = np.empty((0, matrices.num_layers), dtype=np.int64)
    archive_o = np.empty((0, 3), dtype=np.float64)
    history: List[float] = []
    track = f"pareto seed={search.seed}"
    stall = 0

    for generation in range(search.iterations):
        span_start = tracer.now_ms() if tracer.enabled else 0.0
        evals = evaluate_population(matrices, population, lut)
        objectives = np.stack([evals.latency_ms, evals.energy_mj,
                               evals.crossbars.astype(np.float64)], axis=1)
        if crossbar_budget is None:
            in_budget = np.ones(len(population), dtype=bool)
        else:
            in_budget = evals.crossbars <= crossbar_budget
        merged_g = np.concatenate([archive_g, population[in_budget]], axis=0)
        merged_o = np.concatenate([archive_o, objectives[in_budget]], axis=0)
        changed = False
        if len(merged_g):
            first = _dedupe(merged_g)
            keep = first[_front(merged_o[first])]
            # The archive's rows are distinct and merged first, so they
            # sit at positions [0, len(archive_g)); the archive is
            # unchanged exactly when those are the positions kept.
            changed = not np.array_equal(keep, np.arange(len(archive_g)))
            archive_g, archive_o = merged_g[keep], merged_o[keep]
        history.append(float(len(archive_g)))
        if tracer.enabled:
            tracer.record(
                f"generation[{generation}]", "search.pareto",
                span_start, tracer.now_ms(), track=track,
                args={"generation": generation, "seed": search.seed,
                      "archive_size": len(archive_g),
                      "population": len(population)})
        if search.patience is not None:
            stall = 0 if changed else stall + 1
            if stall >= search.patience:
                break
        if len(archive_g):
            take = min(search.num_parents, len(archive_g))
            parents = archive_g[rng.permutation(len(archive_g))[:take]]
        else:
            # Nothing feasible yet: march toward the budget.
            order = np.argsort(evals.crossbars, kind="stable")
            parents = population[order[:search.num_parents]]
        population = breed(parents, search, matrices.num_options, rng)

    metrics.counter("search.pareto.generations",
                    help="Pareto generations evaluated"
                    ).inc(len(history))
    metrics.gauge("search.pareto.archive_size",
                  help="archive size at the end of the last run"
                  ).set(len(archive_g))
    return archive_g, archive_o, history
