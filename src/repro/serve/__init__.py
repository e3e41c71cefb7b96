"""repro.serve — batched multi-chip inference serving on the EPIM simulator.

The serving layer turns one-shot ``simulate_network()`` calls into an
endpoint that answers request traffic:

- :mod:`repro.serve.trace` — request records + Poisson trace synthesis;
- :mod:`repro.serve.scheduler` — bounded-queue micro-batching (FIFO /
  priority, batch-size and window knobs);
- :mod:`repro.serve.sharding` — replica and layer-wise placement of a
  deployment across N chips, chosen for pipelined throughput under the
  per-chip tile budget;
- :mod:`repro.serve.engine` — the discrete-event serving loop;
- :mod:`repro.serve.vectorized` — the whole-trace array replay engine
  (byte-identical summaries at web scale, docs/vectorized-replay.md);
- :mod:`repro.serve.deploy` — deploy ``repro search --json`` results:
  operating-point selection off a Pareto front (latency-opt / energy-opt /
  knee / index) and the A/B offered-load sweep;
- :mod:`repro.serve.scenarios` — named load scenarios (diurnal, flash
  crowd, bursty MMPP, multi-model mix) and the fault-injection layer
  (chip kills with replicated-shard failover, stragglers, cache wipes);
- :mod:`repro.serve.resilience` — adaptive admission control, failover
  retry budgets, per-replica circuit breakers, brownout down-shifts to
  a degraded Pareto point, and the seeded chaos harness;
- :mod:`repro.serve.telemetry` — latency percentiles, queue depth, chip
  utilization, rolling throughput, fault/failover accounting;
- :mod:`repro.serve.cli` — ``python -m repro serve`` trace replay.
"""

from .engine import ENGINES, ServingConfig, ServingEngine
from .deploy import (
    AB_LOAD_FACTORS,
    LoadedSearchResult,
    OperatingPoint,
    SearchResultError,
    ab_offered_load_sweep,
    brownout_plan_from_search,
    engine_from_search,
    load_search_result,
    manifest_from_point,
    render_ab,
    report_from_point,
)
from .resilience import (
    AdmissionPolicy,
    BreakerPolicy,
    BrownoutPlan,
    BrownoutPolicy,
    ResilienceConfig,
    RetryPolicy,
)
from .scenarios import (
    FaultPlan,
    Scenario,
    get_scenario,
    list_scenarios,
    parse_faults,
    register_scenario,
)
from .scheduler import Batch, MicroBatchScheduler, SchedulerConfig
from .sharding import (
    ChipShard,
    ShardPlan,
    partition_layers,
    plan_sharding,
    recommended_chips,
)
from .telemetry import RequestRecord, TelemetryCollector
from .trace import (
    Request,
    TraceArrays,
    arrays_from_requests,
    load_trace,
    save_trace,
    synthetic_trace,
    synthetic_trace_arrays,
)
from .vectorized import replay_vectorized

__all__ = [
    "Request",
    "TraceArrays",
    "arrays_from_requests",
    "synthetic_trace",
    "synthetic_trace_arrays",
    "replay_vectorized",
    "ENGINES",
    "save_trace",
    "load_trace",
    "SchedulerConfig",
    "Batch",
    "MicroBatchScheduler",
    "ChipShard",
    "ShardPlan",
    "plan_sharding",
    "partition_layers",
    "recommended_chips",
    "RequestRecord",
    "TelemetryCollector",
    "ServingConfig",
    "ServingEngine",
    "Scenario",
    "register_scenario",
    "get_scenario",
    "list_scenarios",
    "FaultPlan",
    "parse_faults",
    "AB_LOAD_FACTORS",
    "LoadedSearchResult",
    "OperatingPoint",
    "SearchResultError",
    "ab_offered_load_sweep",
    "brownout_plan_from_search",
    "engine_from_search",
    "load_search_result",
    "manifest_from_point",
    "render_ab",
    "report_from_point",
    "ResilienceConfig",
    "AdmissionPolicy",
    "RetryPolicy",
    "BreakerPolicy",
    "BrownoutPolicy",
    "BrownoutPlan",
]
