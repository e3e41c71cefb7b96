"""Tests for the metrics registry: counters, gauges, histograms and
their quantile sample."""

import numpy as np
import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    DEFAULT_QUANTILES,
    SAMPLE_CAP,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    sorted_quantiles,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("hits")
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative_increment(self):
        with pytest.raises(ValueError, match="only go up"):
            Counter("hits").inc(-1.0)


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("depth")
        g.set(10.0)
        g.inc(5.0)
        g.dec(2.0)
        assert g.value == 13.0


class TestHistogram:
    def test_bucket_counts_and_moments(self):
        h = Histogram("lat", buckets=(1.0, 10.0, 100.0))
        for v in (0.5, 5.0, 50.0, 500.0):
            h.observe(v)
        assert h.bucket_counts == [1, 1, 1, 1]
        assert h.count == 4
        assert h.sum == pytest.approx(555.5)
        assert h.min == 0.5 and h.max == 500.0
        assert h.mean == pytest.approx(555.5 / 4)

    def test_observe_many_matches_loop(self):
        rng = np.random.default_rng(5)
        data = rng.gamma(2.0, 10.0, size=800)
        bulk, loop = Histogram("a"), Histogram("b")
        bulk.observe_many(data)
        for v in data:
            loop.observe(float(v))
        assert bulk.bucket_counts == loop.bucket_counts
        assert bulk.count == loop.count == 800
        assert bulk.sum == pytest.approx(loop.sum)
        assert bulk.quantiles() == loop.quantiles() == dict(
            zip(DEFAULT_QUANTILES,
                np.quantile(data, DEFAULT_QUANTILES).tolist()))

    def test_observe_many_strides_above_cap(self):
        rng = np.random.default_rng(6)
        data = rng.normal(10.0, 1.0, size=SAMPLE_CAP * 2 + 17)
        h = Histogram("big")
        h.observe_many(data)
        # every value is counted; only the quantile sample strides
        assert h.count == data.size
        assert h.quantile(0.5) == pytest.approx(
            float(np.median(data)), rel=0.02)

    def test_bucket_counts_match_binary_search(self):
        """Bucket counts equal a per-value binary search: after earlier
        single observations, with ties on bucket bounds, infinities,
        NaN, and strided batches."""
        rng = np.random.default_rng(8)
        buckets = (0.0, 1.0, 5.0, 10.0, 50.0)
        for _ in range(120):
            n = int(rng.choice([1, 4, 5, 6, 300, SAMPLE_CAP + 3,
                                3 * SAMPLE_CAP]))
            data = rng.integers(-2, 60, n).astype(float)
            data[rng.integers(0, n)] = rng.choice(
                [np.inf, -np.inf, np.nan, -0.0])
            warm = rng.gamma(2.0, 5.0, size=int(rng.choice([0, 3, 9])))
            h = Histogram("h", buckets=buckets)
            for v in warm.tolist():
                h.observe(v)
            expected = list(h.bucket_counts)
            index = np.searchsorted(buckets, data, side="left")
            for i, count in enumerate(np.bincount(index, minlength=6)):
                expected[i] += int(count)
            h.observe_many(data)
            assert h.bucket_counts == expected

    def test_first_publish_above_cap_keeps_stride_sample(self):
        """A fresh histogram's first batch of ``n > SAMPLE_CAP`` values
        keeps ``values[::ceil(n / SAMPLE_CAP)]``, and its quantiles are
        those of that sample."""
        rng = np.random.default_rng(9)
        probs = [0.0, 0.1, 0.5, 0.95, 0.99, 1.0]
        for n in (SAMPLE_CAP + 1, 2 * SAMPLE_CAP, 2 * SAMPLE_CAP + 1,
                  7 * SAMPLE_CAP + 5):
            data = rng.gamma(2.0, 8.0, size=n)
            h = Histogram("h")
            h.observe_many(data)
            kept = data[::-(-n // SAMPLE_CAP)]
            assert np.array_equal(h._sample, np.sort(kept))
            assert h._sample.size <= SAMPLE_CAP
            quantiles = h.quantiles(probs)
            assert [quantiles[p] for p in probs] == \
                np.quantile(kept, probs).tolist()

    def test_stride_growth_keeps_each_runs_middle(self):
        """Values equal to their stream positions: growing the stride to
        4 keeps sorted index 2 of each run of four old values (the last
        of the shorter final run), and the batch keeps the positions
        that are multiples of 4."""
        h = Histogram("h")
        h.observe_many(np.arange(SAMPLE_CAP - 3, dtype=float))
        h.observe_many(np.arange(SAMPLE_CAP - 3, 4 * SAMPLE_CAP - 3,
                                 dtype=float))
        assert h._stride == 4
        expected = np.concatenate((np.arange(2, SAMPLE_CAP - 4, 4),
                                   [SAMPLE_CAP - 4],
                                   np.arange(SAMPLE_CAP, 4 * SAMPLE_CAP - 3, 4)))
        assert expected.size == SAMPLE_CAP
        assert np.array_equal(h._sample, expected)

    def test_publishes_above_cap_keep_equal_weight(self):
        """Across publishes that pass the cap, the stride grows only by
        integer factors, every kept value stands for ``stride``
        observations (``ceil(count / stride)`` of them), the sample
        holds more than ``SAMPLE_CAP // 2`` and at most ``SAMPLE_CAP``
        observed values in sorted order,
        the same publishes give the same sample, and the quantiles stay
        within a rank error of the pooled values' of 1%."""
        rng = np.random.default_rng(10)
        batches = [rng.gamma(2.0, 8.0, size=int(n))
                   for n in rng.integers(1, 3 * SAMPLE_CAP, size=40)]
        batches[3:3] = [np.array([4.0]), np.array([]), np.array([9.0, 1.0])]
        h, twin = Histogram("h"), Histogram("twin")
        seen = []
        stride = 1
        for batch in batches:
            h.observe_many(batch)
            twin.observe_many(batch)
            seen.append(batch)
            assert h._stride % stride == 0
            stride = h._stride
            assert h._sample.size == -(-h.count // stride) <= SAMPLE_CAP
            assert stride == 1 or h._sample.size > SAMPLE_CAP // 2
            assert np.all(np.diff(h._sample) >= 0)
            assert np.array_equal(h._sample, twin._sample)
        pooled = np.sort(np.concatenate(seen))
        assert stride > 1 and np.isin(h._sample, pooled).all()
        for q, value in h.quantiles((0.01, 0.5, 0.95, 0.99)).items():
            rank = np.searchsorted(pooled, value) / pooled.size
            assert abs(rank - q) < 0.01, (q, rank)

    def test_empty_histogram_is_nan(self):
        h = Histogram("lat")
        assert np.isnan(h.mean)
        assert np.isnan(h.quantile(0.5))
        assert all(np.isnan(v) for v in h.quantiles().values())

    def test_rejects_quantile_outside_unit_interval(self):
        h = Histogram("lat")
        h.observe_many([1.0, 2.0])
        assert h.quantile(1.0) == 2.0
        for q in (-0.1, 1.5, float("nan")):
            with pytest.raises(ValueError, match="in \\[0, 1\\]"):
                h.quantile(q)

    def test_cumulative_buckets_end_with_inf(self):
        h = Histogram("lat", buckets=(1.0, 2.0))
        h.observe_many([0.5, 1.5, 99.0])
        pairs = h.cumulative_buckets()
        assert pairs[-1][0] == float("inf")
        assert pairs[-1][1] == 3
        cumulative = [c for _, c in pairs]
        assert cumulative == sorted(cumulative)

    def test_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            Histogram("x", buckets=())
        with pytest.raises(ValueError):
            Histogram("x", buckets=(2.0, 1.0))


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instance(self):
        reg = MetricsRegistry()
        assert reg.counter("a.b") is reg.counter("a.b")
        assert reg.histogram("h") is reg.histogram("h")

    def test_type_mismatch_is_an_error(self):
        reg = MetricsRegistry()
        reg.counter("a.b")
        with pytest.raises(TypeError, match="a.b"):
            reg.gauge("a.b")

    def test_names_sorted_and_membership(self):
        reg = MetricsRegistry()
        reg.gauge("z")
        reg.counter("a")
        assert reg.names() == ["a", "z"]
        assert "a" in reg and "missing" not in reg
        assert len(reg) == 2
        assert reg.get("missing") is None

    def test_snapshot_flattens_histograms(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.histogram("h", buckets=DEFAULT_BUCKETS).observe_many(
            [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        snap = reg.snapshot()
        assert snap["c"] == 2.0
        assert snap["h.count"] == 6.0
        assert snap["h.sum"] == pytest.approx(21.0)
        assert "h.p50" in snap and "h.p99" in snap

    def test_clear_empties(self):
        reg = MetricsRegistry()
        reg.counter("c")
        reg.clear()
        assert len(reg) == 0
