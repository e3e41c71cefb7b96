"""repro.serve.resilience — overload and fault resilience for serving.

Four deterministic control loops threaded through the serve engine
(docs/resilience.md), plus a seeded chaos harness:

- :mod:`~repro.serve.resilience.admission` — CoDel-style queue-delay
  shedding + priority-aware token bucket in front of the scheduler;
- :mod:`~repro.serve.resilience.retry` — failover retry budgets with
  seeded exponential backoff (replaces the engine's retry-once set);
- :mod:`~repro.serve.resilience.breaker` — per-replica-group circuit
  breakers driven by the straggler service-factor signal;
- :mod:`~repro.serve.resilience.brownout` — Pareto-degraded serving:
  under sustained overload the engine down-shifts to a cheaper
  operating point off the deployed search front and shifts back on
  recovery;
- :mod:`~repro.serve.resilience.chaos` — ``repro serve chaos --seed N``:
  randomized-but-reproducible scenario x fault plans replayed against
  resilience-on and resilience-off fleets with invariant checks
  (imported lazily by the CLI; not re-exported here to keep this
  package importable from the engine without cycles).

Everything is deterministic given :attr:`ResilienceConfig.seed`, so
resilience-enabled runs keep the same-seed byte-identical contract.
"""

from .admission import AdmissionController
from .breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from .brownout import BrownoutController
from .config import (
    AdmissionPolicy,
    BreakerPolicy,
    BrownoutPlan,
    BrownoutPolicy,
    ResilienceConfig,
    RetryPolicy,
)
from .retry import RetryBudget
from .runtime import ResilienceRuntime

__all__ = [
    "AdmissionPolicy",
    "RetryPolicy",
    "BreakerPolicy",
    "BrownoutPolicy",
    "BrownoutPlan",
    "ResilienceConfig",
    "AdmissionController",
    "RetryBudget",
    "CircuitBreaker",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "BrownoutController",
    "ResilienceRuntime",
]
