"""SLO definitions and attainment evaluation.

An :class:`SLO` names two operator targets:

- ``p99_ms`` — the end-to-end p99 latency ceiling (simulated ms for the
  serving replays);
- ``availability`` — the minimum fraction of offered requests that must
  complete (shed requests count against it; the serving engine's bounded
  queue rejects under overload).

:meth:`SLO.evaluate` takes the *observed* numbers (from a
:class:`~repro.serve.telemetry.TelemetryCollector`'s exact columns, or
from a registry :class:`~repro.obs.metrics.Histogram`'s ``quantile``,
exact up to its sample cap) and returns an :class:`SLOReport` with
per-target verdicts and the overall attainment.
Either target may be ``None`` (not enforced); an SLO with no targets is
vacuously attained.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

__all__ = ["SLO", "SLOReport", "DEFAULT_AVAILABILITY"]

# Default availability target used by the serve CLI when only a latency
# target is derived: at most 1% of offered traffic shed.
DEFAULT_AVAILABILITY = 0.99


@dataclass(frozen=True)
class SLOReport:
    """Attainment of one SLO against one run's observations."""

    name: str
    p99_target_ms: Optional[float]
    p99_observed_ms: Optional[float]
    p99_attained: Optional[bool]
    availability_target: Optional[float]
    availability_observed: Optional[float]
    availability_attained: Optional[bool]

    @property
    def attained(self) -> bool:
        """True when every *enforced* target is met (an unmeasurable
        observation — NaN/None — counts as a miss, never a silent pass)."""
        verdicts = [v for v in (self.p99_attained,
                                self.availability_attained)
                    if v is not None]
        return all(verdicts) if verdicts else True

    def as_dict(self) -> Dict[str, Optional[float]]:
        """Flat JSON-safe dict (bools as 0.0/1.0, NaN as None) for the
        serve CLI summary and A/B rows."""
        def scrub(value):
            if value is None:
                return None
            if isinstance(value, bool):
                return 1.0 if value else 0.0
            value = float(value)
            return None if math.isnan(value) else value

        return {
            "slo_name": self.name,
            "slo_p99_target_ms": scrub(self.p99_target_ms),
            "slo_p99_observed_ms": scrub(self.p99_observed_ms),
            "slo_p99_attained": scrub(self.p99_attained),
            "slo_availability_target": scrub(self.availability_target),
            "slo_availability_observed": scrub(self.availability_observed),
            "slo_availability_attained": scrub(self.availability_attained),
            "slo_attained": scrub(self.attained),
        }


@dataclass(frozen=True)
class SLO:
    """A named pair of serving targets; ``None`` disables a target."""

    p99_ms: Optional[float] = None
    availability: Optional[float] = None
    name: str = "default"

    def __post_init__(self):
        # NaN and inf fail this too: every run would read as a miss
        # against a NaN target, and as a pass against an infinite one.
        if self.p99_ms is not None and not 0.0 < self.p99_ms < math.inf:
            raise ValueError("p99_ms target must be finite and > 0")
        if self.availability is not None \
                and not 0.0 < self.availability <= 1.0:
            raise ValueError("availability target must be in (0, 1]")

    def evaluate(self, p99_ms: Optional[float] = None,
                 availability: Optional[float] = None) -> SLOReport:
        """Attainment against observed p99 / availability numbers.

        An enforced target with a missing or NaN observation is a miss:
        "we could not measure it" must never read as "we met it".
        """
        def verdict(target, observed, meet) -> Optional[bool]:
            if target is None:
                return None
            if observed is None or math.isnan(observed):
                return False
            return meet(observed, target)

        return SLOReport(
            name=self.name,
            p99_target_ms=self.p99_ms,
            p99_observed_ms=p99_ms,
            p99_attained=verdict(self.p99_ms, p99_ms,
                                 lambda obs, tgt: obs <= tgt),
            availability_target=self.availability,
            availability_observed=availability,
            availability_attained=verdict(self.availability, availability,
                                          lambda obs, tgt: obs >= tgt),
        )
