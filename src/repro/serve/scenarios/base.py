"""Scenario contract: seeded, reproducible trace generation.

A :class:`Scenario` turns ``(num_requests, rate_rps, seed)`` into a
request trace.  Profile scenarios describe traffic as a *rate
multiplier* ``m(u)`` over a nominal span (``u`` in ``[0, 1)``, tiled
periodically if the arrivals run long); generation inverts the
cumulative intensity, the standard construction for an inhomogeneous
Poisson process:

1. normalize the multiplier grid to mean 1, so the scenario's declared
   mean rate *is* ``rate_rps`` by construction;
2. draw ``n`` unit-rate exponential gaps from an explicit
   ``np.random.default_rng(seed)`` (never global numpy state) and cumsum
   them into unit-rate Poisson event times;
3. map those times through the inverse cumulative intensity
   ``Lambda^-1`` (piecewise-linear on the grid), yielding arrival
   times that are monotone by construction because the multiplier is
   floored strictly above zero.

Everything a scenario randomizes — arrival gaps, MMPP state dwells,
multi-model tags — flows from that single seeded generator, so the same
``(scenario, n, rate, seed)`` tuple always produces an identical trace
(``tools/test_cli_matrix.py`` asserts this end to end, through the CLI).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..trace import Request, TraceArrays, arrays_from_requests

__all__ = ["Scenario", "ProfileScenario", "PROFILE_GRID", "RATE_FLOOR"]

# Resolution of the piecewise-linear rate profile over one span.
PROFILE_GRID = 2048

# Multipliers are floored here so the cumulative intensity is strictly
# increasing — the inversion then cannot produce backwards arrivals.
RATE_FLOOR = 0.02


class Scenario:
    """A named, seeded workload generator."""

    def __init__(self, name: str, description: str):
        if not name:
            raise ValueError("scenario name must be non-empty")
        self.name = name
        self.description = description

    def to_trace(self, num_requests: int, rate_rps: float, seed: int = 0,
                 start_ms: float = 0.0) -> List[Request]:
        """Generate a reproducible trace at a mean offered load of
        ``rate_rps`` requests/second."""
        raise NotImplementedError

    def to_trace_arrays(self, num_requests: int, rate_rps: float,
                        seed: int = 0, start_ms: float = 0.0) -> TraceArrays:
        """Columnar form of the same trace (no per-request objects).

        The default converts the object trace, so every registered
        scenario supports array output; :class:`ProfileScenario`
        overrides it to build the columns natively and derives
        ``to_trace`` *from them* — the array path is the source of
        truth, not a parallel implementation that could drift.
        """
        return arrays_from_requests(
            self.to_trace(num_requests, rate_rps, seed=seed,
                          start_ms=start_ms))

    def describe(self) -> str:
        return f"{self.name}: {self.description}"

    def __repr__(self) -> str:            # pragma: no cover - debug aid
        return f"<Scenario {self.name!r}>"


class ProfileScenario(Scenario):
    """A scenario defined by a rate-multiplier profile over one span.

    Subclasses either override :meth:`profile` (a deterministic shape —
    diurnal curve, flash crowd) or :meth:`multiplier_grid` directly when
    the profile itself is random (MMPP state dwells).  The grid is
    always re-normalized to mean 1 before inversion, so the *declared*
    mean rate is honored no matter how wild the shape is.
    """

    def profile(self, u: np.ndarray) -> np.ndarray:
        """Rate multiplier at span fractions ``u`` (shape-preserving)."""
        return np.ones_like(u)

    def multiplier_grid(self, rng: np.random.Generator) -> np.ndarray:
        """The normalized multiplier sampled on :data:`PROFILE_GRID`
        midpoints.  ``rng`` is unused for deterministic profiles."""
        u = (np.arange(PROFILE_GRID) + 0.5) / PROFILE_GRID
        return self._normalize(np.asarray(self.profile(u), dtype=float))

    @staticmethod
    def _normalize(multiplier: np.ndarray) -> np.ndarray:
        multiplier = np.maximum(multiplier, RATE_FLOOR)
        return multiplier / multiplier.mean()

    # ------------------------------------------------------------------
    def annotate(self, num_requests: int, rng: np.random.Generator
                 ) -> Tuple[np.ndarray, Optional[List[str]]]:
        """Per-request ``(priorities, models)`` labels.

        The base profile serves one anonymous model at priority 0; the
        multi-model mix overrides this to tag each request.  Drawn from
        the same ``rng`` as the arrivals, *after* them, so labels never
        perturb arrival reproducibility.
        """
        return np.zeros(num_requests, dtype=int), None

    def to_trace_arrays(self, num_requests: int, rate_rps: float,
                        seed: int = 0, start_ms: float = 0.0) -> TraceArrays:
        """Invert the cumulative intensity straight into columns.

        This is the native generation path: ``to_trace`` materializes
        these arrays, so the object and column forms of one
        ``(scenario, n, rate, seed)`` cell are identical floats by
        construction (the property tests assert it anyway).
        """
        if num_requests < 1:
            raise ValueError("num_requests must be >= 1")
        if not 0 < rate_rps < np.inf:   # NaN fails both comparisons
            raise ValueError("rate_rps must be finite and > 0")
        rng = np.random.default_rng(seed)
        multiplier = self.multiplier_grid(rng)

        # Unit-rate Poisson event times; each tiled span absorbs an
        # expected num_requests of them, so cover ceil(tau_max / n)
        # spans (+1 so interpolation never clamps at the grid edge).
        tau = np.cumsum(rng.exponential(1.0, size=num_requests))
        spans = int(np.ceil(tau[-1] / num_requests)) + 1
        span_ms = num_requests / rate_rps * 1000.0
        tiled = np.tile(multiplier, spans)
        # Cumulative expected arrivals at each grid boundary: one grid
        # cell contributes (num_requests / PROFILE_GRID) * m arrivals.
        cum = np.concatenate(
            [[0.0], np.cumsum(tiled) * (num_requests / PROFILE_GRID)])
        t_grid = np.linspace(0.0, spans * span_ms, tiled.size + 1)
        arrivals = start_ms + np.interp(tau, cum, t_grid)

        priorities, models = self.annotate(num_requests, rng)
        return TraceArrays(
            arrival_ms=arrivals,
            request_id=np.arange(num_requests, dtype=np.int64),
            priority=np.asarray(priorities, dtype=np.int64),
            model=tuple(models) if models is not None else None)

    def to_trace(self, num_requests: int, rate_rps: float, seed: int = 0,
                 start_ms: float = 0.0) -> List[Request]:
        return self.to_trace_arrays(num_requests, rate_rps, seed=seed,
                                    start_ms=start_ms).materialize()
