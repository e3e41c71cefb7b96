"""Resilience policy knobs: one frozen config per control loop.

Every policy is expressed in *service quanta* rather than absolute
milliseconds: the engine derives a base quantum ``base_ms = pipeline
fill latency + batching window`` from the deployment it actually serves,
and each controller scales its thresholds off that.  A config therefore
transfers unchanged between a 4 ms ResNet-18 fleet and a 50 ms ResNet-50
fleet — the same reason the serve CLI derives its default SLO from the
plan instead of hard-coding a number.

All policies are deterministic given :attr:`ResilienceConfig.seed`
(retry jitter is the only randomized quantity, drawn from a
``SeedSequence``-derived generator) so a resilience-enabled run keeps
the same-seed byte-identical contract ``tools/test_cli_matrix.py``
checks through the CLI.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Optional

__all__ = [
    "AdmissionPolicy",
    "RetryPolicy",
    "BreakerPolicy",
    "BrownoutPolicy",
    "BrownoutPlan",
    "ResilienceConfig",
]


@dataclass(frozen=True)
class AdmissionPolicy:
    """CoDel-style queue-delay controller + token bucket in front of
    :meth:`~repro.serve.scheduler.MicroBatchScheduler.submit`.

    The delay controller targets ``target_factor`` service quanta of
    queue sojourn; once the delay has stayed above target for one
    control interval (``interval_factor`` quanta) it sheds unprotected
    arrivals at the CoDel rate (interval / sqrt(drop count)) until the
    delay recovers.  The token bucket caps the sustained admitted rate
    at ``rate_headroom`` x the plan's capacity with ``burst`` tokens of
    slack — an instantaneous spike is clipped even before any queueing
    delay builds.  Requests with ``priority >= protect_priority`` bypass
    both sheds (they can still be rejected by the bounded queue itself).
    """

    target_factor: float = 3.0      # sojourn target, in service quanta
    interval_factor: float = 4.0    # CoDel control interval, in quanta
    rate_headroom: float = 1.25     # token refill rate, x capacity
    burst: int = 32                 # bucket depth (requests)
    protect_priority: int = 1       # >= this priority is never shed

    def __post_init__(self):
        if self.target_factor <= 0:
            raise ValueError("admission: target_factor must be > 0")
        if self.interval_factor <= 0:
            raise ValueError("admission: interval_factor must be > 0")
        if self.rate_headroom <= 0:
            raise ValueError("admission: rate_headroom must be > 0")
        if self.burst < 1:
            raise ValueError("admission: burst must be >= 1")


@dataclass(frozen=True)
class RetryPolicy:
    """Failover retry budget with exponential backoff.

    The budget is ``ceil(budget_fraction x offered load)`` retry slots
    per run; each in-flight request retracted by a chip kill may be
    rescheduled up to ``max_attempts`` times while slots remain.  The
    ``k``-th attempt waits ``base_factor x 2^(k-1)`` service quanta
    (capped at ``cap_factor`` quanta) times a seeded jitter multiplier
    drawn uniformly from ``[1, 1 + jitter)`` — backoff spreads the
    retry wave out of the post-fault queue spike instead of slamming it
    back into a full queue the way the old retry-once path did.
    """

    budget_fraction: float = 0.1
    max_attempts: int = 3
    base_factor: float = 1.0        # first backoff, in service quanta
    cap_factor: float = 16.0        # backoff ceiling, in quanta
    jitter: float = 0.5             # multiplier spread, [1, 1 + jitter)

    def __post_init__(self):
        if not 0.0 < self.budget_fraction <= 1.0:
            raise ValueError("retry: budget_fraction must be in (0, 1]")
        if self.max_attempts < 1:
            raise ValueError("retry: max_attempts must be >= 1")
        if self.base_factor <= 0:
            raise ValueError("retry: base_factor must be > 0")
        if self.cap_factor < self.base_factor:
            raise ValueError("retry: cap_factor must be >= base_factor")
        if self.jitter < 0:
            raise ValueError("retry: jitter must be >= 0")


@dataclass(frozen=True)
class BreakerPolicy:
    """Per-replica-group circuit breaker (closed -> open -> half-open).

    A replica whose observed service factor reaches ``slow_factor`` on
    ``trip_after`` consecutive dispatches opens its breaker: the engine
    stops routing batches to it for ``cooldown_factor`` service quanta,
    then lets exactly one probe batch through.  A healthy probe closes
    the breaker; a slow one re-opens it for another cooldown.  When
    every live replica's breaker is open the engine fails open and
    serves anyway — the breaker protects the tail only while a healthy
    alternative exists, it never converts degraded capacity into an
    outage.
    """

    slow_factor: float = 2.0        # service factor counted as sick
    trip_after: int = 2             # consecutive slow dispatches to open
    cooldown_factor: float = 8.0    # open hold time, in service quanta

    def __post_init__(self):
        if self.slow_factor <= 1.0:
            raise ValueError("breaker: slow_factor must be > 1")
        if self.trip_after < 1:
            raise ValueError("breaker: trip_after must be >= 1")
        if self.cooldown_factor <= 0:
            raise ValueError("breaker: cooldown_factor must be > 0")


@dataclass(frozen=True)
class BrownoutPolicy:
    """Hysteresis for the Pareto down-shift (brownout) controller.

    The engine enters brownout when queue sojourn has stayed at or above
    ``enter_factor`` service quanta for ``enter_hold_factor`` quanta,
    and exits once it has stayed at or below ``exit_factor`` quanta for
    ``exit_hold_factor`` quanta — enter fast, exit slow, so the mode
    cannot flap on a bursty arrival process.  What it down-shifts *to*
    is a :class:`BrownoutPlan`: attached from a deployed search front
    via :func:`repro.serve.deploy.engine_from_search` (brownout_policy),
    or synthesized from ``interval_scale`` / ``fill_scale`` below when
    the engine serves a spec/manifest deployment with no front.
    """

    enter_factor: float = 6.0       # sojourn that triggers entry
    exit_factor: float = 2.0        # sojourn that allows exit
    enter_hold_factor: float = 2.0  # how long entry must be sustained
    exit_hold_factor: float = 6.0   # how long recovery must hold
    interval_scale: float = 0.7     # fallback degraded point: capacity
    fill_scale: float = 1.3         # fallback degraded point: latency

    def __post_init__(self):
        if self.enter_factor <= self.exit_factor:
            raise ValueError(
                "brownout: enter_factor must exceed exit_factor "
                "(hysteresis needs a dead band)")
        if self.exit_factor < 0:
            raise ValueError("brownout: exit_factor must be >= 0")
        if self.enter_hold_factor < 0 or self.exit_hold_factor < 0:
            raise ValueError("brownout: hold factors must be >= 0")
        if self.interval_scale <= 0:
            raise ValueError("brownout: interval_scale must be > 0")
        if self.fill_scale <= 0:
            raise ValueError("brownout: fill_scale must be > 0")


@dataclass(frozen=True)
class BrownoutPlan:
    """The degraded operating mode brownout down-shifts the engine to.

    ``interval_scale`` multiplies every executor's image interval — the
    aggregate-capacity model of re-packing the fleet onto the cheaper
    point's denser shard plan (a point whose copy needs fewer chips
    fits more replica groups on the same fleet, so scale < 1 means more
    throughput).  ``fill_scale`` multiplies the pipeline fill latency —
    the per-image price of the cheaper point.  ``point`` keeps the
    originating search-front operating point when the plan came off a
    deployed front (:func:`repro.serve.deploy.engine_from_search`);
    ``None`` for synthesized fallback plans.
    """

    interval_scale: float
    fill_scale: float
    label: str = "degraded"
    point: Optional[object] = None  # OperatingPoint, when front-derived

    def __post_init__(self):
        if self.interval_scale <= 0:
            raise ValueError("brownout plan: interval_scale must be > 0")
        if self.fill_scale <= 0:
            raise ValueError("brownout plan: fill_scale must be > 0")


@dataclass(frozen=True)
class ResilienceConfig:
    """The whole resilience subsystem, one frozen knob bundle.

    Passed to :meth:`repro.serve.engine.ServingEngine.serve` (or set on
    :class:`~repro.serve.engine.ServingConfig`) to arm admission
    control, retry budgets, circuit breakers and brownout for a run;
    ``None`` (the default everywhere) keeps the fast path bit-for-bit
    identical to previous releases.
    """

    admission: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker: BreakerPolicy = field(default_factory=BreakerPolicy)
    brownout: BrownoutPolicy = field(default_factory=BrownoutPolicy)
    seed: int = 0

    def __post_init__(self):
        # The seed reaches SeedSequence only when a retry jitter is drawn,
        # so a bad one would otherwise fail mid-replay, or never. NumPy
        # integers are stored as the Python ints they equal.
        if (isinstance(self.seed, bool)
                or not isinstance(self.seed, numbers.Integral)
                or self.seed < 0):
            raise ValueError(f"resilience seed must be a non-negative "
                             f"integer, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))
