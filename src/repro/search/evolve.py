"""Evolutionary layer-wise epitome design (paper section 5.2, Algorithm 1).

Each individual in the population is a per-layer epitome choice (one
candidate per layer out of a candidate set ``C``; the full design space is
``N^l`` — the paper quotes 20,676,608 combinations for its grid).  Fitness
follows Eqs. 6-7:

    Reward = m / Latency(E)    or    m / Energy(E),
    m = 0 if #Crossbar(E) > Budget else 1

so any individual over the crossbar budget scores below every feasible one.
Selection keeps the top individuals as parents; children are produced by
(optional) uniform crossover of two parents followed by re-rolling a random
subset of layers (Algorithm 1 lines 9-14).

The whole population lives as a ``(P, L)`` integer index array and is
scored per generation by :func:`~repro.search.grid.evaluate_population`
— gathers and axis-sums over the grid's lookup matrices instead of a
per-individual Python loop — so large populations and many restarts cost
milliseconds.  Restarts can additionally fan out across processes
(``EvoSearchConfig.workers``); the reduction picks the same winner as the
serial order, so parallelism never changes the answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from ..obs.catalog import publish
from ..obs.runtime import get_metrics, get_tracer
from ..pim.lut import DEFAULT_LUT, ComponentLUT
from .parallel import parallel_map
from .grid import (
    OBJECTIVES,
    Candidate,
    CandidateGrid,
    EvalResult,
    PopulationEval,
    decode_genome,
    evaluate_assignment,
    evaluate_population,
    population_rewards,
)

if TYPE_CHECKING:       # pragma: no cover - typing only
    from ..core.designer import EpitomeAssignment
    from .pareto import ParetoPoint

__all__ = ["EvoSearchConfig", "SearchResult", "evolution_search"]


@dataclass(frozen=True)
class EvoSearchConfig:
    """Hyper-parameters of Algorithm 1 (validated at construction).

    Attributes
    ----------
    population_size / iterations / num_parents / mutation_layers:
        Algorithm 1's population knobs; ``mutation_layers`` is how many
        layers a child re-rolls.  At most ``population_size - 1`` parents
        actually survive a generation, so selection pressure exists even
        when ``num_parents >= population_size``.
    objective:
        ``"latency"`` | ``"energy"`` | ``"edp"`` — or ``"pareto"`` to
        replace the scalar reward with the multi-objective front of
        latency x energy x crossbars (see :mod:`repro.search.pareto`).
    crossover_rate:
        Probability a child is bred by uniform crossover of two parents
        before mutation (0 reproduces the paper's mutation-only loop).
    patience:
        Early-stop after this many consecutive iterations without best-
        reward improvement (``None`` disables; the history then always has
        ``iterations`` entries).
    seed / restarts:
        ``restarts`` independent runs seeded ``seed, seed+1, ...``; the
        best one wins.
    workers:
        Processes for the restart fan-out (1 = serial; results are
        identical either way).
    """

    population_size: int = 64
    iterations: int = 60
    num_parents: int = 16
    mutation_layers: int = 3      # layers re-rolled per mutation
    objective: str = "latency"    # "latency" | "energy" | "edp" | "pareto"
    seed: int = 0
    restarts: int = 3             # independent runs; best one wins
    crossover_rate: float = 0.5   # P(child bred from two parents)
    patience: Optional[int] = None
    workers: int = 1              # processes for the restart fan-out

    def __post_init__(self):
        counts = ("population_size", "iterations", "num_parents",
                  "mutation_layers", "restarts", "workers")
        for name in (*counts, "seed", "patience"):
            value = getattr(self, name)
            if name == "patience" and value is None:
                continue
            # A float or bool would only fail (or run a population of
            # True == 1) deep inside the search; NumPy integers are
            # stored as the Python ints they equal.
            if (isinstance(value, bool)
                    or not isinstance(value, (int, np.integer))):
                raise ValueError(f"{name} must be an integer, "
                                 f"got {value!r}")
            object.__setattr__(self, name, int(value))
        for name in counts:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.objective not in (*OBJECTIVES, "pareto"):
            raise ValueError(f"objective must be one of "
                             f"{(*OBJECTIVES, 'pareto')}, "
                             f"got {self.objective!r}")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError("crossover_rate must be in [0, 1]")
        if self.patience is not None and self.patience < 1:
            raise ValueError("patience must be >= 1 (or None)")


@dataclass
class SearchResult:
    """Output of the evolutionary search."""

    assignment: EpitomeAssignment
    genome: List[Candidate]
    eval: EvalResult
    history: List[float] = field(default_factory=list)
    feasible: bool = True
    front: Optional[List["ParetoPoint"]] = None
    """Pareto front (objective="pareto" only): the non-dominated
    latency x energy x crossbars designs; ``eval`` is then the knee point."""


def _reward(result: EvalResult, budget: Optional[int], objective: str) -> float:
    """Eqs. 6-7 for one individual — delegates to the vectorized
    :func:`population_rewards` so the objective dispatch lives in exactly
    one place and restart-winner selection can never disagree with the
    per-generation selection."""
    evals = PopulationEval(
        crossbars=np.array([result.crossbars], dtype=np.int64),
        latency_ms=np.array([result.latency_ms]),
        energy_mj=np.array([result.energy_mj]))
    return float(population_rewards(evals, budget, objective)[0])


def initial_population(grid: CandidateGrid, population_size: int,
                       rng: np.random.Generator) -> np.ndarray:
    """The ``(P, L)`` index-array population of iteration 0.

    Composition (exactly ``population_size`` rows):

    - random genomes fill whatever the seeds below leave free;
    - every "same candidate everywhere" uniform design (falling back to
      the smallest option where a layer lacks the candidate), so the
      search never does worse than the best uniform design;
    - the smallest genome — most aggressive compression everywhere, a
      feasibility anchor so an in-budget individual exists from iteration
      0 whenever the budget is attainable at all.

    With ``population_size == 1`` only the anchor survives; the population
    never exceeds the configured size.
    """
    matrices = grid.matrices()
    counts = matrices.num_options
    L = matrices.num_layers
    # Padding columns (past each layer's options) never win the argmin,
    # which takes each row's first minimum.
    in_range = np.arange(matrices.crossbars.shape[1]) < counts[:, None]
    smallest = np.where(in_range, matrices.crossbars,
                        np.iinfo(np.int64).max).argmin(axis=1).astype(np.int64)
    if population_size == 1:
        return smallest[None, :]

    table = matrices.candidate_options[:max(0, population_size - 2)]
    seeds = np.where(table >= 0, table, smallest)
    n_random = max(0, population_size - 1 - len(seeds))
    rows: List[np.ndarray] = []
    if n_random:
        rows.append(rng.integers(0, counts, size=(n_random, L),
                                 dtype=np.int64))
    rows += [seeds, smallest[None, :]]
    return np.concatenate(rows, axis=0)


def breed(parents: np.ndarray, config: EvoSearchConfig,
          num_options: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Next generation: parents survive (elitism), children fill the rest
    via optional uniform crossover followed by layer re-roll mutation.

    Surviving parents are capped at ``population_size - 1`` (for
    populations of at least 2) so every generation breeds at least one
    child — ``num_parents >= population_size`` would otherwise copy the
    population forward unchanged and the search would never move."""
    n_par, L = parents.shape
    max_survivors = (config.population_size if config.population_size < 2
                     else config.population_size - 1)
    survivors = parents[:max_survivors]
    n_child = config.population_size - len(survivors)
    if n_child == 0:
        return survivors.copy()
    children = parents[rng.integers(n_par, size=n_child)]
    if config.crossover_rate > 0.0 and n_par > 1:
        crossed = rng.random(n_child) < config.crossover_rate
        second = parents[rng.integers(n_par, size=n_child)]
        genes = rng.random((n_child, L)) < 0.5
        children = np.where(crossed[:, None] & genes, second, children)
    positions = rng.integers(L, size=(n_child, config.mutation_layers))
    values = rng.integers(num_options[positions])
    rows = np.arange(n_child)
    # Sequential writes: a layer mutated twice keeps the *last* re-roll,
    # matching a per-child mutation loop.
    for j in range(config.mutation_layers):
        children[rows, positions[:, j]] = values[:, j]
    return np.concatenate([survivors, children], axis=0)


def evolution_search(grid: CandidateGrid,
                     crossbar_budget: Optional[int],
                     search: EvoSearchConfig = EvoSearchConfig(),
                     lut: ComponentLUT = DEFAULT_LUT) -> SearchResult:
    """Run Algorithm 1 over a pre-built candidate grid.

    ``search.restarts`` independent populations are evolved (seeds
    ``seed, seed+1, ...``) and the best result returned — evolutionary
    search is stochastic, and multi-restart is the standard cheap variance
    reduction.  ``search.workers > 1`` fans the restarts out across
    processes without changing the outcome.

    With ``search.objective == "pareto"`` the scalar reward is replaced by
    the multi-objective front: the result is the front's knee (minimum
    EDP) with the whole front attached as ``SearchResult.front``.

    Parameters
    ----------
    grid:
        From :func:`build_candidate_grid` (fixes precision/wrapping).
    crossbar_budget:
        The ``Budget`` of Eq. 7; individuals above it get reward 0.  ``None``
        disables the constraint.
    search:
        Population/mutation hyper-parameters.

    Returns
    -------
    SearchResult
        Best feasible individual across restarts, with the per-iteration
        best-reward history of the winning run.
    """
    if search.objective == "pareto":
        from .pareto import pareto_search
        return pareto_search(grid, crossbar_budget, search,
                             lut).as_search_result()
    # dataclasses.replace keeps every other hyper-parameter — a field
    # added to EvoSearchConfig can never again be dropped on restart.
    configs = [replace(search, seed=search.seed + restart, restarts=1)
               for restart in range(search.restarts)]
    results = _run_restarts(grid, crossbar_budget, configs, lut,
                            search.workers)
    best_result: Optional[SearchResult] = None
    best_reward_overall = -1.0
    for result in results:
        reward = _reward(result.eval, crossbar_budget, search.objective)
        if reward > best_reward_overall:
            best_reward_overall = reward
            best_result = result
    assert best_result is not None
    return best_result


def _restart_task(payload) -> SearchResult:
    """Module-level so ProcessPoolExecutor can pickle it."""
    grid, crossbar_budget, config, lut = payload
    return _evolution_search_once(grid, crossbar_budget, config, lut)


def _run_restarts(grid: CandidateGrid, crossbar_budget: Optional[int],
                  configs: Sequence[EvoSearchConfig], lut: ComponentLUT,
                  workers: int) -> List[SearchResult]:
    """Run restarts serially or across processes (same results, same order).

    Uses the shared :func:`repro.search.parallel.parallel_map`, which
    preserves payload order (the reduction picks the same winner as a
    serial run) and falls back to serial execution when the platform
    refuses to fork.  A restart only reads the pre-built grid, so it
    simulates nothing and its worker's counters have nothing to report.
    """
    payloads = [(grid, crossbar_budget, config, lut) for config in configs]
    return parallel_map(_restart_task, payloads, workers)


def _evolution_search_once(grid: CandidateGrid,
                           crossbar_budget: Optional[int],
                           search: EvoSearchConfig,
                           lut: ComponentLUT) -> SearchResult:
    """One population's evolution (Algorithm 1, vectorized).

    Each generation is traced as a wall-clock span on the
    ``evolve seed=N`` track (restart runs get distinct tracks) and the
    run's totals land under ``search.evolve.*`` in the installed metrics
    registry.  Worker processes inherit the no-op defaults, so the
    fan-out path costs nothing extra.
    """
    tracer = get_tracer()
    metrics = get_metrics()
    rng = np.random.default_rng(search.seed)
    matrices = grid.matrices()
    population = initial_population(grid, search.population_size, rng)
    track = f"evolve seed={search.seed}"

    history: List[float] = []
    best_genome: Optional[np.ndarray] = None
    best_reward = -1.0
    stall = 0

    for generation in range(search.iterations):
        span_start = tracer.now_ms() if tracer.enabled else 0.0
        evals = evaluate_population(matrices, population, lut)
        rewards = population_rewards(evals, crossbar_budget, search.objective)
        order = np.argsort(-rewards, kind="stable")
        improved = rewards[order[0]] > best_reward
        if improved:
            best_reward = float(rewards[order[0]])
            best_genome = population[order[0]].copy()
        history.append(float(rewards[order[0]]))
        if tracer.enabled:
            tracer.record(
                f"generation[{generation}]", "search.evolve",
                span_start, tracer.now_ms(), track=track,
                args={"generation": generation, "seed": search.seed,
                      "best_reward": float(rewards[order[0]]),
                      "population": len(population)})
        if search.patience is not None:
            stall = 0 if improved else stall + 1
            if stall >= search.patience:
                break
        parents = population[order[:search.num_parents]]
        population = breed(parents, search, matrices.num_options, rng)

    publish(metrics, "search.evolve", {
        "generations": len(history),
        "individuals": len(history) * search.population_size,
        "best_reward": best_reward,
    })

    if best_genome is None:      # pragma: no cover - population is never empty
        best_genome = population[0]
    genome = decode_genome(matrices, best_genome)
    final = evaluate_assignment(grid, genome, lut)
    assignment: EpitomeAssignment = {
        name: cand for name, cand in zip(matrices.layer_names, genome)
        if cand is not None}
    return SearchResult(
        assignment=assignment,
        genome=genome,
        eval=final,
        history=history,
        feasible=(crossbar_budget is None or final.crossbars <= crossbar_budget),
    )
