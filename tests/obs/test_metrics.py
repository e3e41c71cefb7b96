"""Tests for the metrics registry: counters, gauges, histograms, P²."""

import numpy as np
import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    P2_SAMPLE_CAP,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    P2Quantile,
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


class TestP2Quantile:
    def test_exact_below_five_observations(self):
        est = P2Quantile(0.5)
        for x in (5.0, 1.0, 3.0):
            est.observe(x)
        assert est.value() == pytest.approx(3.0)

    def test_streaming_median_converges(self):
        rng = np.random.default_rng(0)
        est = P2Quantile(0.5)
        data = rng.normal(100.0, 15.0, size=20000)
        for x in data:
            est.observe(float(x))
        assert est.value() == pytest.approx(float(np.median(data)), rel=0.02)

    def test_streaming_p99_converges(self):
        rng = np.random.default_rng(1)
        est = P2Quantile(0.99)
        data = rng.gamma(2.0, 10.0, size=20000)
        for x in data:
            est.observe(float(x))
        assert est.value() == pytest.approx(
            float(np.quantile(data, 0.99)), rel=0.05)

    def test_bulk_cold_start_is_exact(self):
        rng = np.random.default_rng(2)
        data = rng.gamma(2.0, 8.0, size=4000)
        est = P2Quantile(0.95)
        est.observe_bulk(data)
        assert est.count == 4000
        assert est.value() == pytest.approx(
            float(np.quantile(data, 0.95)), rel=1e-9)

    def test_bulk_merge_tracks_chunked_stream(self):
        rng = np.random.default_rng(3)
        chunks = [rng.gamma(2.0, 8.0, size=1000) for _ in range(5)]
        est = P2Quantile(0.95)
        for chunk in chunks:
            est.observe_bulk(chunk)
        exact = float(np.quantile(np.concatenate(chunks), 0.95))
        assert est.count == 5000
        assert est.value() == pytest.approx(exact, rel=0.10)

    def test_bulk_then_streaming_keeps_working(self):
        rng = np.random.default_rng(4)
        est = P2Quantile(0.5)
        est.observe_bulk(rng.normal(50.0, 5.0, size=1000))
        for x in rng.normal(50.0, 5.0, size=1000):
            est.observe(float(x))
        assert est.count == 2000
        assert est.value() == pytest.approx(50.0, abs=1.5)

    def test_tiny_bulk_falls_back_to_streaming(self):
        est = P2Quantile(0.5)
        est.observe_bulk(np.array([3.0, 1.0]))
        assert est.count == 2
        assert est.value() == pytest.approx(2.0)

    def test_rejects_degenerate_quantile(self):
        with pytest.raises(ValueError):
            P2Quantile(0.0)
        with pytest.raises(ValueError):
            P2Quantile(1.0)


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
        for q in (0.5, 0.95, 0.99):
            assert bulk.quantile(q) == pytest.approx(
                loop.quantile(q), rel=0.05)

    def test_observe_many_strides_above_cap(self):
        rng = np.random.default_rng(6)
        data = rng.normal(10.0, 1.0, size=P2_SAMPLE_CAP * 2 + 17)
        h = Histogram("big")
        h.observe_many(data)
        # every value is counted; only the quantile markers subsample
        assert h.count == data.size
        assert h.quantile(0.5) == pytest.approx(
            float(np.median(data)), rel=0.02)

    def test_observe_many_matches_unshared_reference(self):
        """Bucket counts equal a per-value binary search, and every P²
        estimator ends exactly where its own ``observe_bulk`` (no shared
        sketch) takes it — fresh, raw-sample and summarized estimators,
        ties on bucket bounds, infinities, NaN, strided batches."""
        rng = np.random.default_rng(8)
        buckets = (0.0, 1.0, 5.0, 10.0, 50.0)
        for _ in range(120):
            n = int(rng.choice([1, 4, 5, 6, 300, P2_SAMPLE_CAP + 3,
                                3 * P2_SAMPLE_CAP]))
            data = rng.integers(-2, 60, n).astype(float)
            data[rng.integers(0, n)] = rng.choice(
                [np.inf, -np.inf, np.nan, -0.0])
            warm = rng.gamma(2.0, 5.0, size=int(rng.choice([0, 3, 9])))
            h = Histogram("h", buckets=buckets)
            refs = {q: P2Quantile(q) for q in h._quantiles}
            for v in warm.tolist():
                h.observe(v)
                for ref in refs.values():
                    ref.observe(v)
            expected = list(h.bucket_counts)
            index = np.searchsorted(buckets, data, side="left")
            for i, count in enumerate(np.bincount(index, minlength=6)):
                expected[i] += int(count)
            sample = data
            if n > P2_SAMPLE_CAP:
                sample = data[:: int(np.ceil(n / P2_SAMPLE_CAP))]
            with np.errstate(invalid="ignore"):    # inf - inf in quantiles
                for ref in refs.values():
                    ref.observe_bulk(sample)
                h.observe_many(data)
            assert h.bucket_counts == expected
            for q, est in h._quantiles.items():
                assert repr((est.count, est._heights, est._positions)) == \
                    repr((refs[q].count, refs[q]._heights,
                          refs[q]._positions))

    def test_untracked_quantile_interpolates_buckets(self):
        h = Histogram("lat", buckets=(10.0, 20.0), quantiles=(0.5,))
        for v in (2.0, 4.0, 12.0, 18.0):
            h.observe(v)
        value = h.quantile(0.25)      # not tracked -> bucket interpolation
        assert 2.0 <= value <= 10.0

    def test_empty_histogram_is_nan(self):
        h = Histogram("lat")
        assert np.isnan(h.mean)
        assert np.isnan(h.quantile(0.5))

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
