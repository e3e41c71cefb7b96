"""The built-in scenario catalog (registered on import).

Shapes are chosen so the default serve run (500 requests at 0.7x fleet
capacity) shows each scenario's signature behavior: the diurnal curve
breathes, the flash crowd sheds against the bounded queue, the MMPP
bursts stress batch formation, and the multi-model mix exercises the
priority scheduler.  All of them honor their declared mean rate — the
profile grid is normalized to mean 1 before inversion (see
:mod:`~repro.serve.scenarios.base`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .base import PROFILE_GRID, ProfileScenario
from .registry import register_scenario

__all__ = [
    "BUILTIN_SCENARIOS",
    "SteadyPoisson",
    "Diurnal",
    "FlashCrowd",
    "BurstyMMPP",
    "MultiModelMix",
]


class SteadyPoisson(ProfileScenario):
    """Homogeneous Poisson arrivals — the classic open-loop baseline."""

    def __init__(self):
        super().__init__(
            "steady-poisson",
            "homogeneous Poisson arrivals at the declared rate")


class Diurnal(ProfileScenario):
    """A day-curve: sinusoidal load swinging around the mean.

    One full period spans the nominal trace; the trough bottoms out at
    ``1 - amplitude`` and the peak reaches ``1 + amplitude`` of the mean
    rate — the shape capacity planners provision against.
    """

    def __init__(self, amplitude: float = 0.65):
        if not 0.0 < amplitude < 1.0:
            raise ValueError("amplitude must be in (0, 1)")
        self.amplitude = amplitude
        super().__init__(
            "diurnal",
            f"sinusoidal day-curve, peak {1 + amplitude:.2f}x / trough "
            f"{1 - amplitude:.2f}x the mean rate")

    def profile(self, u: np.ndarray) -> np.ndarray:
        # Peak at 1/4 span ("midday"), trough at 3/4 span.
        return 1.0 + self.amplitude * np.sin(2.0 * np.pi * u)


class FlashCrowd(ProfileScenario):
    """Baseline traffic with a sudden spike — the thundering herd.

    Inside ``window`` (fractions of the span) the rate jumps to ``peak``
    times the baseline; normalization then folds the spike into the
    declared mean, so the spike's *absolute* rate exceeds the mean by
    ``peak / raw_mean``.  With the defaults the spike offers ~4x the
    mean rate for 16% of the span — enough to drive a 0.7-loaded fleet
    deep into load shedding, which is the point: availability under a
    flash crowd is what the bounded queue exists to defend.
    """

    def __init__(self, peak: float = 16.0,
                 window: Tuple[float, float] = (0.42, 0.58)):
        if peak <= 1.0:
            raise ValueError("peak must be > 1")
        lo, hi = window
        if not 0.0 <= lo < hi <= 1.0:
            raise ValueError("window must satisfy 0 <= lo < hi <= 1")
        self.peak = peak
        self.window = (lo, hi)
        super().__init__(
            "flash-crowd",
            f"{peak:.0f}x spike over span fraction [{lo:.2f}, {hi:.2f})")

    def profile(self, u: np.ndarray) -> np.ndarray:
        lo, hi = self.window
        return np.where((u >= lo) & (u < hi), self.peak, 1.0)


class BurstyMMPP(ProfileScenario):
    """Markov-modulated Poisson process: two-state bursty arrivals.

    The rate alternates between a quiet and a burst state with
    exponentially distributed dwell times (mean ``span / mean_switches``
    each).  The realized piecewise profile is random per seed but
    normalized to mean 1 after sampling, so the declared rate still
    holds for every draw.
    """

    def __init__(self, quiet: float = 0.35, burst: float = 3.5,
                 mean_switches: int = 12):
        if not 0.0 < quiet < burst:
            raise ValueError("need 0 < quiet < burst")
        if mean_switches < 2:
            raise ValueError("mean_switches must be >= 2")
        self.quiet = quiet
        self.burst = burst
        self.mean_switches = mean_switches
        super().__init__(
            "bursty-mmpp",
            f"2-state MMPP, {quiet:.2f}x/{burst:.2f}x rates, "
            f"~{mean_switches} switches per span")

    def multiplier_grid(self, rng: np.random.Generator) -> np.ndarray:
        grid = np.empty(PROFILE_GRID)
        mean_dwell = PROFILE_GRID / self.mean_switches
        state = int(rng.integers(0, 2))
        pos = 0
        while pos < PROFILE_GRID:
            dwell = max(1, int(round(rng.exponential(mean_dwell))))
            level = self.burst if state else self.quiet
            grid[pos:pos + dwell] = level
            pos += dwell
            state = 1 - state
        return self._normalize(grid)


class MultiModelMix(ProfileScenario):
    """Steady arrivals serving a weighted mix of model classes.

    Each request is tagged with a model drawn from ``mix`` and the
    priority of its class (interactive small models outrank batch-sized
    ones), exercising the priority scheduler and the per-model
    accounting of the multi-tenant roadmap item.  Arrivals themselves
    are homogeneous — the diversity here is *what* is asked for, not
    when.
    """

    DEFAULT_MIX: Sequence[Tuple[str, float, int]] = (
        ("resnet18", 0.60, 1),      # interactive: small + urgent
        ("resnet34", 0.25, 0),
        ("resnet50", 0.15, 0),      # batch: big + patient
    )

    def __init__(self, mix: Optional[Sequence[Tuple[str, float, int]]] = None):
        mix = tuple(mix) if mix is not None else tuple(self.DEFAULT_MIX)
        if not mix:
            raise ValueError("mix must be non-empty")
        weights = np.array([w for _, w, _ in mix], dtype=float)
        if (weights <= 0).any():
            raise ValueError("mix weights must be > 0")
        self.mix = mix
        self._weights = weights / weights.sum()
        share = ", ".join(f"{name} {w:.0%}"
                          for (name, _, _), w in zip(mix, self._weights))
        super().__init__("multi-model-mix",
                         f"steady arrivals over a model mix ({share})")

    def annotate(self, num_requests: int, rng: np.random.Generator
                 ) -> Tuple[np.ndarray, Optional[List[str]]]:
        choice = rng.choice(len(self.mix), size=num_requests,
                            p=self._weights)
        priorities = np.array([self.mix[c][2] for c in choice], dtype=int)
        models = [self.mix[c][0] for c in choice]
        return priorities, models


BUILTIN_SCENARIOS = (
    SteadyPoisson(),
    Diurnal(),
    FlashCrowd(),
    BurstyMMPP(),
    MultiModelMix(),
)

for _scenario in BUILTIN_SCENARIOS:
    register_scenario(_scenario)
