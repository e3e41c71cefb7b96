"""repro.search — the design-space search engine (paper section 5.2).

- :mod:`repro.search.grid` — candidate grids, numpy lookup matrices and
  the vectorized population evaluator (bit-for-bit equal to the scalar
  per-genome path);
- :mod:`repro.search.evolve` — Algorithm 1, vectorized: integer-array
  populations, crossover + layer re-roll mutation, reward-plateau early
  stopping, multiprocess-parallel restarts;
- :mod:`repro.search.pareto` — multi-objective mode: the Pareto front of
  latency x energy x crossbars instead of a single scalar reward;
- :mod:`repro.search.signature` — shape signatures: the content addresses
  behind grid dedup and the persistent cache;
- :mod:`repro.search.gridcache` — the on-disk (signature, candidate)
  grid cache (``~/.cache/repro/grids`` by default);
- :mod:`repro.search.parallel` — the process-pool fan-out of search
  restarts, with an order-preserving merge (the grid is built
  in-process);
- :mod:`repro.search.cli` — the ``python -m repro search`` subcommand.
"""

from .grid import (
    DEFAULT_CANDIDATES,
    OBJECTIVES,
    Candidate,
    CandidateGrid,
    EvalResult,
    GridBuildStats,
    GridMatrices,
    PopulationEval,
    build_candidate_grid,
    build_candidate_grid_serial,
    build_matrices,
    decode_genome,
    encode_genome,
    evaluate_assignment,
    evaluate_population,
    population_rewards,
    uniform_budget,
)
from .gridcache import GridCache, GridCacheStats, default_cache_dir
from .parallel import effective_workers, parallel_map
from .signature import grid_context_key, layer_signature
from .evolve import (
    EvoSearchConfig,
    SearchResult,
    evolution_search,
    initial_population,
)
from .pareto import (
    SELECTION_POLICIES,
    ParetoPoint,
    ParetoResult,
    crowding_distance,
    non_dominated_mask,
    pareto_search,
    select_index,
)

__all__ = [
    "Candidate",
    "CandidateGrid",
    "DEFAULT_CANDIDATES",
    "OBJECTIVES",
    "EvalResult",
    "EvoSearchConfig",
    "GridBuildStats",
    "GridCache",
    "GridCacheStats",
    "GridMatrices",
    "ParetoPoint",
    "ParetoResult",
    "PopulationEval",
    "SELECTION_POLICIES",
    "SearchResult",
    "build_candidate_grid",
    "build_candidate_grid_serial",
    "build_matrices",
    "crowding_distance",
    "decode_genome",
    "default_cache_dir",
    "effective_workers",
    "encode_genome",
    "evaluate_assignment",
    "evaluate_population",
    "evolution_search",
    "grid_context_key",
    "initial_population",
    "layer_signature",
    "non_dominated_mask",
    "parallel_map",
    "pareto_search",
    "population_rewards",
    "select_index",
    "uniform_budget",
]
