"""Tests for serving telemetry (repro.serve.telemetry)."""

import numpy as np
import pytest

from repro.serve.telemetry import (
    COMPLETION_FIELDS,
    RequestRecord,
    TelemetryCollector,
)
from repro.serve.trace import Request


def record(i, arrival, start, finish, chip=0, batch=1):
    return RequestRecord(request_id=i, arrival_ms=arrival, start_ms=start,
                         finish_ms=finish, chip_ids=(chip,),
                         batch_size=batch)


class TestRequestRecord:
    def test_latency_decomposition(self):
        rec = record(0, arrival=1.0, start=3.0, finish=10.0)
        assert rec.latency_ms == pytest.approx(9.0)
        assert rec.wait_ms == pytest.approx(2.0)
        assert rec.service_ms == pytest.approx(7.0)


class TestPercentiles:
    def test_matches_numpy(self):
        telemetry = TelemetryCollector(num_chips=1)
        latencies = [float(v) for v in range(1, 101)]
        for i, lat in enumerate(latencies):
            telemetry.record_completion(record(i, 0.0, 0.0, lat))
        for q in (50.0, 95.0, 99.0):
            assert telemetry.latency_percentile(q) == pytest.approx(
                float(np.percentile(np.array(latencies), q)))
        pct = telemetry.latency_percentiles()
        assert pct["p50"] <= pct["p95"] <= pct["p99"]

    def test_empty_collector_is_nan(self):
        telemetry = TelemetryCollector()
        assert np.isnan(telemetry.latency_percentile(50.0))

    @pytest.mark.parametrize("q", [-1.0, 100.5, float("nan")])
    def test_out_of_range_percentile_rejected(self, q):
        # np.percentile's range rule; sorted_quantiles does not check it.
        telemetry = TelemetryCollector(num_chips=1)
        telemetry.record_completion(record(0, 0.0, 0.0, 10.0))
        with pytest.raises(ValueError, match="range"):
            telemetry.latency_percentile(q)

    def test_one_call_per_column_is_bit_identical(self):
        # summary() reads each column's p50/p95/p99 off one sorted
        # copy; that must equal one np.percentile call per quantile to
        # the last bit, on 1- and 2-element columns and on ties too.
        rng = np.random.default_rng(2026)
        sizes = [1, 2, 1, 2] + rng.integers(1, 500, size=216).tolist()
        for case, n in enumerate(sizes):
            arrival = rng.uniform(0.0, 100.0, size=n)
            wait = rng.lognormal(size=n)
            service = rng.exponential(size=n)
            if case % 3 == 0:           # heavy ties
                wait = np.round(wait)
                service = np.full(n, 2.5)
            start = arrival + wait
            finish = start + service
            telemetry = TelemetryCollector(1, [(0,)])
            telemetry.ingest_columns(
                arrival_ms=arrival, start_ms=start, finish_ms=finish,
                request_id=np.arange(n, dtype=np.int64),
                priority=np.zeros(n, dtype=np.int64),
                batch_size=np.ones(n, dtype=np.int64),
                executor_index=np.zeros(n, dtype=np.int64))
            summary = telemetry.summary()
            for column, values in (("latency", finish - arrival),
                                   ("wait", start - arrival),
                                   ("service", finish - start)):
                for q in (50, 95, 99):
                    want = float(np.percentile(values, float(q))).hex()
                    got = summary[f"{column}_p{q}_ms"].hex()
                    assert got == want, (case, n, column, q)
                assert summary[f"{column}_mean_ms"].hex() == \
                    float(np.mean(values)).hex()


class TestThroughputAndUtilization:
    def test_throughput_over_makespan(self):
        telemetry = TelemetryCollector(num_chips=1)
        # 10 requests arriving at t=0, last finishes at t=1000ms
        for i in range(10):
            telemetry.record_completion(record(i, 0.0, 0.0, 100.0 * (i + 1)))
        assert telemetry.makespan_ms == pytest.approx(1000.0)
        assert telemetry.throughput_fps() == pytest.approx(10.0)

    def test_chip_utilization_fraction(self):
        telemetry = TelemetryCollector(num_chips=2)
        telemetry.record_completion(record(0, 0.0, 0.0, 100.0))
        telemetry.record_chip_busy(0, 50.0)
        telemetry.record_chip_busy(0, 25.0)
        util = telemetry.chip_utilization()
        assert util[0] == pytest.approx(0.75)
        assert util[1] == pytest.approx(0.0)   # provisioned but idle

    def test_utilization_not_clamped(self):
        # Busy time exceeding the makespan is an accounting anomaly; the
        # raw fraction must surface it rather than clamp to 1.0.
        telemetry = TelemetryCollector(num_chips=1)
        telemetry.record_completion(record(0, 0.0, 0.0, 10.0))
        telemetry.record_chip_busy(0, 1000.0)
        assert telemetry.chip_utilization()[0] == pytest.approx(100.0)
        assert telemetry.saturated_chips() == [0]

    def test_saturated_chips_empty_when_sane(self):
        telemetry = TelemetryCollector(num_chips=2)
        telemetry.record_completion(record(0, 0.0, 0.0, 100.0))
        telemetry.record_chip_busy(0, 100.0)   # exactly the makespan: ok
        telemetry.record_chip_busy(1, 40.0)
        assert telemetry.saturated_chips() == []

    def test_saturation_warning_in_report(self):
        telemetry = TelemetryCollector(num_chips=1)
        telemetry.record_completion(record(0, 0.0, 0.0, 10.0))
        telemetry.record_chip_busy(0, 1000.0)
        assert "utilization > 1.0" in telemetry.report()
        sane = TelemetryCollector(num_chips=1)
        sane.record_completion(record(0, 0.0, 0.0, 10.0))
        sane.record_chip_busy(0, 5.0)
        assert "utilization > 1.0" not in sane.report()

    def test_rolling_throughput_buckets(self):
        telemetry = TelemetryCollector(num_chips=1)
        # one completion per 100ms for 1 second
        for i in range(10):
            telemetry.record_completion(record(i, 0.0, 0.0,
                                               100.0 * i + 50.0))
        buckets = telemetry.rolling_throughput(window_ms=500.0)
        assert len(buckets) == 2
        assert buckets[0][1] == pytest.approx(10.0)  # 5 per 500ms window

    def test_rolling_throughput_gap_emits_zero_buckets(self):
        telemetry = TelemetryCollector(num_chips=1)
        # finishes at 100ms and 2100ms: three idle 500ms windows between
        telemetry.record_completion(record(0, 0.0, 0.0, 100.0))
        telemetry.record_completion(record(1, 0.0, 0.0, 2100.0))
        buckets = telemetry.rolling_throughput(window_ms=500.0)
        assert [end for end, _ in buckets] == pytest.approx(
            [500.0, 1000.0, 1500.0, 2000.0, 2500.0])
        assert [fps for _, fps in buckets] == pytest.approx(
            [2.0, 0.0, 0.0, 0.0, 2.0])

    def test_rolling_throughput_no_trailing_bucket_on_exact_edge(self):
        telemetry = TelemetryCollector(num_chips=1)
        # last finish lands exactly on a bucket edge: it belongs to the
        # bucket ending there, and no spurious all-zero bucket follows
        telemetry.record_completion(record(0, 0.0, 0.0, 500.0))
        telemetry.record_completion(record(1, 0.0, 0.0, 1000.0))
        buckets = telemetry.rolling_throughput(window_ms=500.0)
        assert buckets == [(500.0, pytest.approx(2.0)),
                           (1000.0, pytest.approx(2.0))]

    def test_rolling_throughput_finish_at_start(self):
        telemetry = TelemetryCollector(num_chips=1)
        telemetry.record_completion(record(0, 0.0, 0.0, 0.0))
        buckets = telemetry.rolling_throughput(window_ms=500.0)
        assert buckets == [(500.0, pytest.approx(2.0))]


class TestQueueAndBatchStats:
    def test_queue_depth_stats(self):
        telemetry = TelemetryCollector()
        for t, d in [(0.0, 1), (1.0, 3), (2.0, 2)]:
            telemetry.record_queue_depth(t, d)
        assert telemetry.mean_queue_depth() == pytest.approx(2.0)
        assert telemetry.max_queue_depth() == 3

    def test_rejections_counted(self):
        telemetry = TelemetryCollector()
        telemetry.record_rejection(7)
        telemetry.record_rejection(8)
        assert telemetry.num_rejected == 2

    def test_mean_batch_size(self):
        telemetry = TelemetryCollector()
        for b in (1, 4, 7):
            telemetry.record_batch(b)
        assert telemetry.mean_batch_size() == pytest.approx(4.0)


class TestPresentation:
    def _loaded(self):
        telemetry = TelemetryCollector(num_chips=2)
        for i in range(20):
            telemetry.record_completion(record(i, float(i), float(i) + 1.0,
                                               float(i) + 11.0,
                                               chip=i % 2, batch=2))
            telemetry.record_chip_busy(i % 2, 5.0)
        telemetry.record_batch(2)
        telemetry.record_queue_depth(0.0, 1)
        return telemetry

    def test_summary_keys(self):
        summary = self._loaded().summary()
        for key in ("completed", "throughput_fps", "latency_p50_ms",
                    "latency_p95_ms", "latency_p99_ms", "availability",
                    "chip0_utilization", "chip1_utilization"):
            assert key in summary
        assert summary["completed"] == 20.0

    def test_summary_wait_service_breakdown(self):
        # Every record: wait 1ms, service 10ms — the decomposition must
        # separate queueing delay from chip time exactly.
        summary = self._loaded().summary()
        for stat in ("mean", "p50", "p95", "p99"):
            assert summary[f"wait_{stat}_ms"] == pytest.approx(1.0)
            assert summary[f"service_{stat}_ms"] == pytest.approx(10.0)
            assert summary[f"latency_{stat}_ms"] == pytest.approx(11.0)
        assert summary["latency_mean_ms"] == pytest.approx(
            summary["wait_mean_ms"] + summary["service_mean_ms"])

    def test_summary_with_slo(self):
        from repro.obs import SLO

        telemetry = self._loaded()
        summary = telemetry.summary(slo=SLO(p99_ms=100.0, availability=0.9))
        assert summary["slo_attained"] == 1.0
        assert summary["slo_p99_target_ms"] == 100.0
        tight = telemetry.summary(slo=SLO(p99_ms=0.5))
        assert tight["slo_attained"] == 0.0

    def test_slo_attainment_counts_shed_requests(self):
        from repro.obs import SLO

        telemetry = self._loaded()
        for i in range(100, 120):
            telemetry.record_rejection(i)
        assert telemetry.availability() == pytest.approx(0.5)
        report = telemetry.slo_attainment(SLO(availability=0.99))
        assert report.availability_attained is False
        assert report.attained is False

    def test_report_renders(self):
        text = self._loaded().report()
        assert "p99" in text
        assert "chip utilization" in text
        assert "throughput" in text
        assert "wait" in text and "service" in text

    def test_report_with_slo_table(self):
        from repro.obs import SLO

        text = self._loaded().report(slo=SLO(p99_ms=100.0,
                                             availability=0.9))
        assert "SLO attainment" in text
        assert "p99 latency" in text


class TestColumns:
    """The completion columns are the only storage; the record, queue
    and batch views are read-only and built from them."""

    def test_views_round_trip_the_appended_fields(self):
        telemetry = TelemetryCollector(num_chips=2)
        recs = [RequestRecord(request_id=i, arrival_ms=float(i),
                              start_ms=i + 0.5, finish_ms=i + 2.0,
                              chip_ids=(i % 2,), batch_size=2,
                              priority=i % 3, model=f"m{i % 2}")
                for i in range(6)]
        for rec in recs:
            telemetry.record_completion(rec)
        telemetry.record_queue_depth(0.0, 3)
        telemetry.record_batch(2)
        assert telemetry.records == recs
        assert telemetry.executor_chip_ids == [(0,), (1,)]
        assert telemetry.queue_samples == [(0.0, 3)]
        assert telemetry.batch_sizes == [2]

    def test_views_are_read_only(self):
        telemetry = TelemetryCollector()
        for view in ("records", "queue_samples", "batch_sizes"):
            with pytest.raises(AttributeError):
                setattr(telemetry, view, [])

    def test_append_after_a_read_keeps_every_row(self):
        telemetry = TelemetryCollector(num_chips=1)
        telemetry.record_completion(record(0, 0.0, 0.0, 10.0))
        assert telemetry.latency_percentile(50.0) == 10.0
        telemetry.record_completion(record(1, 0.0, 0.0, 30.0))
        assert telemetry.num_completed == 2
        assert telemetry.latency_percentile(50.0) == 20.0
        assert [r.request_id for r in telemetry.records] == [0, 1]

    def test_appenders_write_the_columns(self):
        telemetry = TelemetryCollector(num_chips=1,
                                       executor_chip_ids=[(0,)])
        appends = telemetry.appenders(*COMPLETION_FIELDS)
        for value, append in zip((7, 1.0, 2.0, 5.0, 0, 1, 2, "m"),
                                 appends):
            append(value)
        assert telemetry.records == [RequestRecord(
            request_id=7, arrival_ms=1.0, start_ms=2.0, finish_ms=5.0,
            chip_ids=(0,), batch_size=1, priority=2, model="m")]

    def test_retract_filters_in_place_oldest_first(self):
        telemetry = TelemetryCollector(num_chips=2,
                                       executor_chip_ids=[(0,), (1,)])
        appends = telemetry.appenders(*COMPLETION_FIELDS)
        # (id, arrival, finish, executor): ids 3 and 1 are in flight on
        # executor 0 past t=10, ids 4 and 6 finish in time (6 exactly at
        # t=10), 2 is elsewhere
        for rid, arrival, finish, executor in [(4, 0.0, 9.0, 0),
                                               (6, 0.5, 10.0, 0),
                                               (3, 2.0, 12.0, 0),
                                               (2, 1.0, 13.0, 1),
                                               (1, 2.0, 14.0, 0)]:
            for value, append in zip((rid, arrival, 0.5, finish, executor,
                                      1, rid % 2, f"m{rid}"), appends):
                append(value)
        retracted = telemetry.retract(0, 10.0)
        assert retracted == [Request(request_id=1, arrival_ms=2.0,
                                     priority=1, model="m1"),
                             Request(request_id=3, arrival_ms=2.0,
                                     priority=1, model="m3")]
        assert [r.request_id for r in telemetry.records] == [4, 6, 2]
        # the bound appenders still feed the (filtered) columns
        for value, append in zip((5, 3.0, 3.0, 15.0, 1, 1, 1, ""),
                                 appends):
            append(value)
        assert [r.request_id for r in telemetry.records] == [4, 6, 2, 5]
        assert telemetry.retract(0, 10.0) == []

    def test_shared_columns_are_read_only(self):
        telemetry = TelemetryCollector(num_chips=1)
        telemetry.record_completion(record(0, 0.0, 1.0, 10.0))
        for accessor in (telemetry.latency_values, telemetry.wait_values,
                         telemetry.service_values):
            values = accessor()
            assert accessor() is values     # computed once, then shared
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 0.0

    def test_retract_drops_derived_columns(self):
        telemetry = TelemetryCollector(num_chips=2,
                                       executor_chip_ids=[(0,), (1,)])
        telemetry.record_completion(record(0, 0.0, 0.0, 5.0, chip=0))
        telemetry.record_completion(record(1, 0.0, 0.0, 20.0, chip=1))
        assert telemetry.latency_values().tolist() == [5.0, 20.0]
        assert telemetry.latency_percentile(100.0) == 20.0
        assert [r.request_id for r in telemetry.retract(1, 10.0)] == [1]
        assert telemetry.latency_values().tolist() == [5.0]
        assert telemetry.latency_percentile(100.0) == 5.0
        assert telemetry.summary()["latency_p99_ms"] == 5.0

    def test_makespan_is_computed_once_per_fill(self, monkeypatch):
        telemetry = TelemetryCollector(num_chips=2,
                                       executor_chip_ids=[(0,), (1,)])
        assert telemetry.makespan_ms == 0.0
        telemetry.record_completion(record(0, 1.0, 1.0, 5.0, chip=0))
        telemetry.record_completion(record(1, 2.0, 2.0, 20.0, chip=1))
        telemetry.summary()
        reads = []
        array = TelemetryCollector._array

        def counted(self, name):
            reads.append(name)
            return array(self, name)

        # Once the summary has derived its columns, reading the span
        # again (summary, throughput, utilization) touches neither the
        # arrival nor the finish column.
        monkeypatch.setattr(TelemetryCollector, "_array", counted)
        assert telemetry.makespan_ms == 19.0
        telemetry.summary()
        telemetry.throughput_fps()
        telemetry.chip_utilization()
        assert "finish_ms" not in reads and "arrival_ms" not in reads
        # A later completion, a retraction and a bulk ingest each
        # refresh the span.
        telemetry.record_completion(record(2, 3.0, 3.0, 40.0, chip=0))
        assert telemetry.makespan_ms == 39.0
        assert [r.request_id for r in telemetry.retract(0, 10.0)] == [2]
        assert telemetry.makespan_ms == 19.0
        telemetry.ingest_columns(
            arrival_ms=np.array([0.5]), start_ms=np.array([1.0]),
            finish_ms=np.array([8.0]),
            request_id=np.array([9], dtype=np.int64),
            priority=np.zeros(1, dtype=np.int64),
            batch_size=np.ones(1, dtype=np.int64),
            executor_index=np.zeros(1, dtype=np.int64))
        assert telemetry.makespan_ms == 7.5

    def test_unread_columns_are_built_on_first_read(self):
        built = []

        def lazy(name, values):
            def build():
                built.append(name)
                return np.asarray(values, dtype=np.int64)
            return build

        telemetry = TelemetryCollector(num_chips=1,
                                       executor_chip_ids=[(0,)])
        telemetry.ingest_columns(
            arrival_ms=np.array([0.0, 1.0]), start_ms=np.array([1.0, 1.0]),
            finish_ms=np.array([2.0, 3.0]),
            request_id=lazy("request_id", [7, 8]),
            priority=lazy("priority", [0, 1]),
            batch_size=lazy("batch_size", [2, 2]),
            executor_index=lazy("executor_index", [0, 0]),
            model=lambda: ("a", "b"),
            queue_times=np.array([0.0, 1.0]),
            queue_depths=np.array([1, 0], dtype=np.int64),
            batch_sizes=np.array([2], dtype=np.int64))
        telemetry.summary()
        telemetry.report()
        assert built == []
        assert telemetry.records == [
            RequestRecord(7, 0.0, 1.0, 2.0, (0,), 2, 0, "a"),
            RequestRecord(8, 1.0, 1.0, 3.0, (0,), 2, 1, "b")]
        assert sorted(built) == ["batch_size", "executor_index",
                                 "priority", "request_id"]
        telemetry.completion_lists()
        assert len(built) == 4          # each built once

    def test_single_model_ingest_has_empty_tags(self):
        telemetry = TelemetryCollector(num_chips=1,
                                       executor_chip_ids=[(0,)])
        telemetry.ingest_columns(
            arrival_ms=np.array([0.0, 1.0]), start_ms=np.array([1.0, 1.0]),
            finish_ms=np.array([2.0, 3.0]),
            request_id=np.array([0, 1], dtype=np.int64),
            priority=np.zeros(2, dtype=np.int64),
            batch_size=np.array([2, 2], dtype=np.int64),
            executor_index=np.zeros(2, dtype=np.int64),
            queue_times=np.array([0.0, 1.0]),
            queue_depths=np.array([1, 0], dtype=np.int64),
            batch_sizes=np.array([2], dtype=np.int64))
        assert [r.model for r in telemetry.records] == ["", ""]
        assert telemetry.queue_samples == [(0.0, 1), (1.0, 0)]
        assert telemetry.summary()["completed"] == 2.0
