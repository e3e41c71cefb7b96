"""Process-wide metrics registry: counters, gauges and histograms.

Every subsystem publishes into one :class:`MetricsRegistry` under dotted,
namespaced keys (``serve.engine.latency_ms``, ``search.gridcache.hits``,
``pim.simulator.activation_rounds`` — each declared once in
:mod:`repro.obs.catalog` and published through its ``publish``), and
the exporters in :mod:`repro.obs.export` serialize the whole registry
as Prometheus text or JSONL.

A histogram keeps exact bucket counts, sum, min and max, and one sorted
float64 sample of at most :data:`SAMPLE_CAP` values; its quantiles are
read off that sample by :func:`sorted_quantiles`, which returns what
``np.quantile`` would, bit for bit.  Until the histogram has seen more
than the cap, the sample is every value, so its quantiles are exact
however the values were split into publishes.  Beyond the cap the
sample is a deterministic stride sample (:meth:`Histogram.observe_many`
states the rule): each kept value stands for the same number of
observations, and a million-request replay publishes its percentiles
without retaining a million values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "DEFAULT_BUCKETS",
    "DEFAULT_QUANTILES",
    "SAMPLE_CAP",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "sorted_quantiles",
]

# Default histogram upper bounds (ms-scale latencies); +inf is implicit.
DEFAULT_BUCKETS = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0,
                   200.0, 500.0, 1000.0, 2000.0, 5000.0)

# Quantiles every histogram exports.
DEFAULT_QUANTILES = (0.5, 0.95, 0.99)

# Most values a histogram's quantile sample holds; the bucket counts,
# sum, min and max always see every value.
SAMPLE_CAP = 8192


def sorted_quantiles(ordered: np.ndarray, probs) -> np.ndarray:
    """``np.quantile(ordered, probs)`` (the ``linear`` method), bit for
    bit, read off a non-empty float64 array that is already sorted.

    The arithmetic is NumPy's: the virtual index ``(n - 1) * p``, its
    floor ``a`` and ``floor + 1`` neighbour ``b``, both clamped to the
    last element where the index is at or above ``n - 1`` (the weight
    ``g`` is then ``index + 1``, as NumPy computes it); then ``a + d*g``
    with ``d = b - a``, or ``b - d*(1 - g)`` where ``g >= 0.5``.  A NaN
    sorts last and makes every result NaN.  Percentile callers pass
    ``np.true_divide(q, 100)``, as ``np.percentile`` does.

    The one difference: ``np.quantile`` selects by partition, which may
    leave tied ``-0.0`` and ``0.0`` in another order than a sort does,
    so where both zeros occur the result's zero may differ in sign.
    """
    probs = np.asarray(probs, dtype=np.float64)
    n = ordered.size
    index = (n - 1) * probs
    floor = np.floor(index)
    last = index >= n - 1
    floor[last] = -1.0
    gamma = index - floor
    lo = floor.astype(np.intp)
    hi = lo + 1
    hi[last] = -1
    a = ordered[lo]
    b = ordered[hi]
    d = b - a
    out = a + d * gamma
    np.subtract(b, d * (1 - gamma), out=out, where=gamma >= 0.5)
    if np.isnan(ordered[-1]):
        out[:] = ordered[-1]
    return out


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
    """Fixed-bucket histogram with a sorted quantile sample.

    ``buckets`` are inclusive upper bounds in ascending order; an implicit
    +inf bucket catches the overflow.  ``quantile(q)`` reads the sample
    (:meth:`observe_many`), exact up to :data:`SAMPLE_CAP` observations.
    """

    __slots__ = ("name", "help", "buckets", "bucket_counts", "count",
                 "sum", "min", "max", "_sample", "_stride")

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS,
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
        self._sample = np.empty(0)
        self._stride = 1

    def observe(self, value: float) -> None:
        self.observe_many((value,))

    def observe_many(self, values: Union[Sequence[float], np.ndarray]) -> None:
        """Bulk observation: vectorized bucket/sum/min/max accounting,
        and one sorted merge of the batch's sample into the histogram's.

        The sample holds ``ceil(count / stride)`` values, each standing
        for ``stride`` observations.  ``stride`` starts at 1, so until
        ``count`` passes :data:`SAMPLE_CAP` the sample is every value
        observed.  A batch that takes ``count`` past ``stride *
        SAMPLE_CAP`` first multiplies the stride by the integer ``k =
        ceil(count / (stride * SAMPLE_CAP))`` (``count`` including the
        batch) and thins the sorted sample to the middle value of each
        run of ``k`` (index ``k // 2``, or the last of a shorter final
        run).  The batch then keeps the values at stream positions 0,
        ``stride``, ``2 * stride``, ... counted over everything observed
        in arrival order, so a fresh histogram's first batch of ``n``
        keeps ``values[::ceil(n / SAMPLE_CAP)]``.  Since ``stride *
        SAMPLE_CAP >= count``, the sample never holds more than
        :data:`SAMPLE_CAP` values; once the stride is above 1 it holds
        more than ``SAMPLE_CAP // 2``.  No random number is drawn.

        The batch's sample is sorted once.  When it is the whole batch
        (stride 1), the bucket counts are one ``searchsorted`` of the
        bounds into it; otherwise they take one comparison pass per
        bound, cheaper than sorting the whole batch.  ``sum``, ``min``
        and ``max`` are taken on the batch as given: a pairwise sum
        depends on the order of its elements."""
        arr = np.asarray(values, dtype=np.float64).ravel()
        n = int(arr.size)
        if n == 0:
            return
        total = self.count + n
        stride = self._stride
        if total > stride * SAMPLE_CAP:
            k = -(-total // (stride * SAMPLE_CAP))      # ceil
            stride *= k
            kept = self._sample
            self._sample = kept[np.minimum(np.arange(0, kept.size, k) + k // 2,
                                           kept.size - 1)]
            self._stride = stride
        ordered = np.sort(arr[-self.count % stride::stride])
        # Bucket i holds the values in (bound[i-1], bound[i]]; NaN fails
        # every comparison (and sorts last), so it lands in +inf.
        if stride == 1:
            at_or_below = np.searchsorted(ordered, self.buckets,
                                          "right").tolist()
        else:
            at_or_below = [int(np.count_nonzero(arr <= bound))
                           for bound in self.buckets]
        below = 0
        for i, count in enumerate(at_or_below):
            self.bucket_counts[i] += count - below
            below = count
        self.bucket_counts[-1] += n - below
        self.count = total
        self.sum += float(arr.sum())
        self.min = min(self.min, float(arr.min()))
        self.max = max(self.max, float(arr.max()))
        if self._sample.size:
            # Two sorted runs: the stable sort (timsort) merges them.
            ordered = np.concatenate((self._sample, ordered))
            ordered.sort(kind="stable")
        self._sample = ordered

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else float("nan")

    def quantiles(self, probs: Sequence[float] = DEFAULT_QUANTILES
                  ) -> Dict[float, float]:
        """``{q: quantile}`` off the sample (NaN while empty) — by default
        the exported :data:`DEFAULT_QUANTILES`."""
        if not all(0.0 <= q <= 1.0 for q in probs):
            raise ValueError("quantiles must be in [0, 1]")
        values = (sorted_quantiles(self._sample, probs).tolist()
                  if self.count else [float("nan")] * len(probs))
        return dict(zip(probs, values))

    def quantile(self, q: float) -> float:
        return self.quantiles((q,))[q]

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
                  help: str = "") -> Histogram:
        return self._get_or_create(
            name, Histogram, lambda: Histogram(name, buckets=buckets,
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
                for q, value in metric.quantiles().items():
                    out[f"{metric.name}.p{int(round(q * 100))}"] = value
            else:
                out[metric.name] = metric.value
        return out
