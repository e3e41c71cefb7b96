"""Adaptive admission control: CoDel-style delay shedding + token bucket.

The controller sits in front of the scheduler's bounded queue and makes
one decision per arrival: admit, or shed now.  Two complementary
mechanisms (see :class:`~repro.serve.resilience.config.AdmissionPolicy`):

- the **delay controller** watches the queue's sojourn time (now minus
  the oldest queued arrival — the same anchor the batching window uses).
  Like CoDel it keeps a ``first_above`` timestamp: only when the delay
  has stayed at or above target for a full control interval does it
  start shedding, and then at the classic ``interval / sqrt(count)``
  cadence that tightens while overload persists and resets the moment
  the delay recovers below target.  This sheds the *sustained* overload
  a token bucket cannot see.
- the **token bucket** caps the admitted rate at ``rate_headroom`` x
  capacity with ``burst`` tokens of slack.  It clips an instantaneous
  flash-crowd spike before any queueing delay has built — the case the
  delay controller is structurally blind to (CoDel needs an interval of
  sustained delay before it acts).

Both sheds are deterministic functions of the arrival sequence: no
randomness, so a seeded trace replays to byte-identical decisions.
Requests at or above ``protect_priority`` bypass both mechanisms.

Everything is called from the engine's hot loop, so the controller is
plain attribute arithmetic — no allocation, no observability calls; its
counters are published in bulk after the run (``serve.resilience.*``).
"""

from __future__ import annotations

import math

from .config import AdmissionPolicy

__all__ = ["AdmissionController"]


class AdmissionController:
    """One per-run admission gate (simulated milliseconds throughout)."""

    def __init__(self, policy: AdmissionPolicy, base_ms: float,
                 capacity_fps: float):
        self.policy = policy
        self.target_ms = policy.target_factor * base_ms
        self.interval_ms = policy.interval_factor * base_ms
        self.protect_priority = policy.protect_priority
        # Token bucket: refill in tokens/ms, clamped at `burst`.  It
        # starts full, so the first refill (times are >= 0) is clamped
        # straight back to `burst` whatever the clock says.
        self.rate_per_ms = policy.rate_headroom * capacity_fps / 1000.0
        self.burst = float(policy.burst)
        self.tokens = float(policy.burst)
        self.last_refill_ms = 0.0
        # CoDel state: -1.0 is the "not above target" sentinel.
        self.first_above_ms = -1.0
        self.dropping = False
        self.drop_count = 0
        self.drop_next_ms = 0.0
        # Outcome counters (bulk-published post-run).
        self.admitted = 0
        self.shed_delay = 0
        self.shed_rate = 0
        self.protected_bypass = 0

    @property
    def shed(self) -> int:
        """Total arrivals shed by either mechanism."""
        return self.shed_delay + self.shed_rate

    @property
    def overloaded(self) -> bool:
        """True while the delay controller is actively shedding — the
        sustained-overload signal the brownout controller keys off."""
        return self.dropping

    def admit(self, now_ms: float, delay_ms: float, priority: int) -> bool:
        """Admit-or-shed decision for one arrival at ``now_ms`` given the
        queue's current sojourn ``delay_ms``.

        The healthy case (delay under target, token available) is the
        first exit: one refill, two compares, one decrement — this runs
        once per offered request against the <5% arming budget.
        """
        tokens = self.tokens \
            + (now_ms - self.last_refill_ms) * self.rate_per_ms
        if tokens > self.burst:
            tokens = self.burst
        self.last_refill_ms = now_ms

        if delay_ms < self.target_ms:
            self.first_above_ms = -1.0
            self.dropping = False
            if tokens >= 1.0:
                self.tokens = tokens - 1.0
                self.admitted += 1
                return True
            self.tokens = tokens
            if priority >= self.protect_priority:
                self.protected_bypass += 1
                self.admitted += 1
                return True
            self.shed_rate += 1
            return False

        self.tokens = tokens
        if self.first_above_ms < 0.0:
            self.first_above_ms = now_ms + self.interval_ms
        elif not self.dropping and now_ms >= self.first_above_ms - 1e-9:
            self.dropping = True
            self.drop_count = 0
            self.drop_next_ms = now_ms

        protected = priority >= self.protect_priority
        if self.dropping and not protected \
                and now_ms >= self.drop_next_ms - 1e-9:
            self.drop_count += 1
            self.drop_next_ms = now_ms \
                + self.interval_ms / math.sqrt(self.drop_count)
            self.shed_delay += 1
            return False

        if tokens >= 1.0:
            self.tokens = tokens - 1.0
            self.admitted += 1
            return True
        if protected:
            self.protected_bypass += 1
            self.admitted += 1
            return True
        self.shed_rate += 1
        return False
