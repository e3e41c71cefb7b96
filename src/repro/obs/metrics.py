"""Process-wide metrics registry: counters, gauges and histograms.

Every subsystem publishes into one :class:`MetricsRegistry` under dotted,
namespaced keys (``serve.engine.latency_ms``, ``search.gridcache.hits``,
``pim.simulator.activation_rounds`` — the catalog lives in
docs/observability.md), and the exporters in :mod:`repro.obs.export`
serialize the whole registry as Prometheus text or JSONL.

Histograms keep **no per-observation state**: a fixed cumulative bucket
vector plus :class:`P2Quantile` streaming estimators (Jain & Chlamtac's
P² algorithm — five markers per tracked quantile, O(1) memory and update
cost), so a million-request replay publishes latency percentiles without
retaining a million records.  ``observe_many`` takes the bucket counts
through numpy and caps the quantile-marker updates at
:data:`P2_SAMPLE_CAP` stride-sampled values per call, keeping bulk
publication O(buckets + cap) regardless of batch size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "DEFAULT_BUCKETS",
    "DEFAULT_QUANTILES",
    "P2_SAMPLE_CAP",
    "Counter",
    "Gauge",
    "Histogram",
    "P2Quantile",
    "MetricsRegistry",
]

# Default histogram upper bounds (ms-scale latencies); +inf is implicit.
DEFAULT_BUCKETS = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0,
                   200.0, 500.0, 1000.0, 2000.0, 5000.0)

# Streaming quantiles every histogram tracks.
DEFAULT_QUANTILES = (0.5, 0.95, 0.99)

# Per-``observe_many`` cap on values fed to the P² markers (stride
# sampled); bucket counts always see every value.
P2_SAMPLE_CAP = 8192


class P2Quantile:
    """Streaming quantile estimator (the P² algorithm, Jain & Chlamtac
    1985): five markers whose heights approximate the q-quantile without
    storing observations.  Exact until five observations have arrived.
    """

    __slots__ = ("q", "count", "_heights", "_positions", "_desired",
                 "_increments")

    def __init__(self, q: float):
        if not 0.0 < q < 1.0:
            raise ValueError("q must be in (0, 1)")
        self.q = q
        self.count = 0
        self._heights: List[float] = []
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q,
                         3.0 + 2.0 * q, 5.0]
        self._increments = (0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0)

    def observe(self, x: float) -> None:
        self.count += 1
        h = self._heights
        if self.count <= 5:
            h.append(float(x))
            if self.count == 5:
                h.sort()
            return
        # Locate the cell containing x, clamping the extremes.
        if x < h[0]:
            h[0] = x
            k = 0
        elif x >= h[4]:
            h[4] = x
            k = 3
        else:
            k = 0
            while x >= h[k + 1]:
                k += 1
        pos = self._positions
        for i in range(k + 1, 5):
            pos[i] += 1.0
        des = self._desired
        for i in range(5):
            des[i] += self._increments[i]
        # Adjust the three interior markers by parabolic interpolation,
        # falling back to linear when P² would break monotonicity.
        for i in (1, 2, 3):
            d = des[i] - pos[i]
            if (d >= 1.0 and pos[i + 1] - pos[i] > 1.0) or \
                    (d <= -1.0 and pos[i - 1] - pos[i] < -1.0):
                step = 1.0 if d >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if h[i - 1] < candidate < h[i + 1]:
                    h[i] = candidate
                else:
                    h[i] = self._linear(i, step)
                pos[i] += step
    def observe_bulk(self, values: np.ndarray,
                     sketch: Optional[np.ndarray] = None) -> None:
        """Feed a batch of observations without a per-value Python loop.

        A fresh estimator initializes its five markers from the batch's
        *exact* quantiles — the state P² would converge toward; while it
        still holds raw samples (count 1-5) the batch is pooled with them
        first.  Once the markers are summaries (count > 5), the batch's
        exact quantile sketch is merged in by averaging the two
        piecewise-linear CDFs weighted by observation count and
        re-reading the marker heights off the merged curve.  Either way
        the update is O(n log n) vectorized and O(1) memory; the
        publish-once pattern (fresh registry per run) hits the exact
        path.  Batches smaller than five stream one at a time.

        ``sketch``, when given, is ``np.quantile(values, probs)`` at this
        estimator's marker probabilities, computed by the caller in one
        pass for several estimators (:meth:`Histogram.observe_many`).
        """
        arr = np.asarray(values, dtype=np.float64).ravel()
        n = int(arr.size)
        if n == 0:
            return
        if n < 5:
            for v in arr.tolist():
                self.observe(v)
            return
        probs = np.asarray(self._increments)  # (0, q/2, q, (1+q)/2, 1)
        if 0 < self.count <= 5:
            # Heights are still the raw first observations: pool & redo.
            pooled = np.concatenate([np.asarray(self._heights), arr])
            heights = np.quantile(pooled, probs)
        else:
            batch = np.quantile(arr, probs) if sketch is None else sketch
            heights = batch
            if self.count:
                mine = np.asarray(self._heights)
                knots = np.union1d(mine, batch)
                merged_cdf = (self.count * np.interp(knots, mine, probs)
                              + n * np.interp(knots, batch, probs)) \
                    / (self.count + n)
                heights = np.interp(probs, merged_cdf, knots)
        total = self.count + n
        self._heights = [float(v) for v in heights]
        self._positions = [1.0 + p * (total - 1) for p in probs]
        self._desired = list(self._positions)
        self.count = total

    def _parabolic(self, i: int, step: float) -> float:
        h, pos = self._heights, self._positions
        return h[i] + step / (pos[i + 1] - pos[i - 1]) * (
            (pos[i] - pos[i - 1] + step) * (h[i + 1] - h[i])
            / (pos[i + 1] - pos[i])
            + (pos[i + 1] - pos[i] - step) * (h[i] - h[i - 1])
            / (pos[i] - pos[i - 1]))

    def _linear(self, i: int, step: float) -> float:
        h, pos = self._heights, self._positions
        j = i + int(step)
        return h[i] + step * (h[j] - h[i]) / (pos[j] - pos[i])

    def value(self) -> float:
        """Current estimate (NaN before the first observation)."""
        if self.count == 0:
            return float("nan")
        if self.count <= 5:
            ordered = sorted(self._heights)
            return float(np.percentile(np.array(ordered), self.q * 100.0))
        return self._heights[2]


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self.value += amount


class Gauge:
    """A value that can go up and down (last write wins)."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bucket histogram with streaming quantile markers.

    ``buckets`` are inclusive upper bounds in ascending order; an implicit
    +inf bucket catches the overflow.  ``quantile(q)`` returns the P²
    estimate for tracked quantiles and falls back to linear interpolation
    over the bucket counts otherwise.
    """

    __slots__ = ("name", "help", "buckets", "bucket_counts", "count",
                 "sum", "min", "max", "_quantiles")

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS,
                 quantiles: Sequence[float] = DEFAULT_QUANTILES,
                 help: str = ""):
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("buckets must be non-empty and ascending")
        self.name = name
        self.help = help
        self.buckets = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)    # last = +inf
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._quantiles = {q: P2Quantile(q) for q in quantiles}

    def observe(self, value: float) -> None:
        value = float(value)
        i = int(np.searchsorted(self.buckets, value, side="left"))
        self.bucket_counts[i] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for est in self._quantiles.values():
            est.observe(value)

    def observe_many(self, values: Union[Sequence[float], np.ndarray]) -> None:
        """Bulk observation: vectorized bucket/sum/min/max accounting, with
        the P² markers fed at most :data:`P2_SAMPLE_CAP` stride-sampled
        values (the estimator is already approximate; the stride keeps a
        1M-value publish from looping a million times in Python)."""
        arr = np.asarray(values, dtype=np.float64).ravel()
        if arr.size == 0:
            return
        # Bucket i holds the values in (bound[i-1], bound[i]]; NaN fails
        # every comparison and lands in +inf.  One comparison pass per
        # bound is several times cheaper than a binary search per value.
        below = 0
        for i, bound in enumerate(self.buckets):
            at_or_below = int(np.count_nonzero(arr <= bound))
            self.bucket_counts[i] += at_or_below - below
            below = at_or_below
        self.bucket_counts[-1] += int(arr.size) - below
        self.count += int(arr.size)
        self.sum += float(arr.sum())
        self.min = min(self.min, float(arr.min()))
        self.max = max(self.max, float(arr.max()))
        if arr.size > P2_SAMPLE_CAP:
            arr = arr[:: int(np.ceil(arr.size / P2_SAMPLE_CAP))]
        # One quantile pass serves every estimator's markers, over a
        # sorted copy (same order statistics, so the same values, and
        # quicker to select from than the raw sample).
        estimators = list(self._quantiles.values())
        sketch = np.quantile(np.sort(arr), [p for est in estimators
                                            for p in est._increments])
        for k, est in enumerate(estimators):
            est.observe_bulk(arr, sketch[5 * k:5 * k + 5])

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else float("nan")

    def tracked_quantiles(self) -> Dict[float, float]:
        return {q: est.value() for q, est in sorted(self._quantiles.items())}

    def quantile(self, q: float) -> float:
        """P² estimate for tracked quantiles; bucket interpolation else."""
        if q in self._quantiles:
            return self._quantiles[q].value()
        if self.count == 0:
            return float("nan")
        target = q * self.count
        cumulative = 0
        lower = self.min
        for i, upper in enumerate(self.buckets):
            cell = self.bucket_counts[i]
            if cumulative + cell >= target:
                frac = (target - cumulative) / cell if cell else 0.0
                lo = max(lower, self.min)
                hi = min(upper, self.max)
                return lo + frac * max(0.0, hi - lo)
            cumulative += cell
            lower = upper
        return self.max

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, +inf last — the
        Prometheus histogram exposition shape."""
        out: List[Tuple[float, int]] = []
        running = 0
        for upper, cell in zip(self.buckets, self.bucket_counts):
            running += cell
            out.append((upper, running))
        out.append((float("inf"), running + self.bucket_counts[-1]))
        return out


Metric = Union[Counter, Gauge, Histogram]


@dataclass
class MetricsRegistry:
    """Name -> metric mapping with get-or-create accessors.

    Re-requesting a name returns the existing instance; requesting it as a
    different type is an error (two subsystems silently sharing one key as
    different kinds would corrupt both).
    """

    _metrics: Dict[str, Metric] = field(default_factory=dict)

    def _get_or_create(self, name: str, kind, factory) -> Metric:
        metric = self._metrics.get(name)
        if metric is not None:
            if not isinstance(metric, kind):
                raise TypeError(
                    f"metric {name!r} is a {type(metric).__name__}, "
                    f"requested as {kind.__name__}")
            return metric
        metric = factory()
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, Counter,
                                   lambda: Counter(name, help))

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, Gauge, lambda: Gauge(name, help))

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_BUCKETS,
                  quantiles: Sequence[float] = DEFAULT_QUANTILES,
                  help: str = "") -> Histogram:
        return self._get_or_create(
            name, Histogram, lambda: Histogram(name, buckets=buckets,
                                               quantiles=quantiles,
                                               help=help))

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def metrics(self) -> List[Metric]:
        return [self._metrics[name] for name in self.names()]

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def clear(self) -> None:
        self._metrics.clear()

    def snapshot(self) -> Dict[str, float]:
        """Flat scalar view: counters/gauges by name; histograms expanded
        to ``name.count/sum/mean/p50/p95/p99`` (NaN-free where possible)."""
        out: Dict[str, float] = {}
        for metric in self.metrics():
            if isinstance(metric, Histogram):
                out[f"{metric.name}.count"] = float(metric.count)
                out[f"{metric.name}.sum"] = metric.sum
                out[f"{metric.name}.mean"] = metric.mean
                for q, value in metric.tracked_quantiles().items():
                    out[f"{metric.name}.p{int(round(q * 100))}"] = value
            else:
                out[metric.name] = metric.value
        return out
