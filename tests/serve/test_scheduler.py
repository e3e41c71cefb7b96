"""Tests for the micro-batching scheduler (repro.serve.scheduler)."""

import pytest

from repro.serve.scheduler import Batch, MicroBatchScheduler, SchedulerConfig
from repro.serve.trace import Request


def req(i, arrival=0.0, priority=0):
    return Request(request_id=i, arrival_ms=arrival, priority=priority)


class TestSchedulerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SchedulerConfig(max_batch_size=0)
        with pytest.raises(ValueError):
            SchedulerConfig(window_ms=-1.0)
        with pytest.raises(ValueError):
            SchedulerConfig(queue_depth=0)
        with pytest.raises(ValueError):
            SchedulerConfig(policy="sjf")

    @pytest.mark.parametrize("window", [float("nan"), float("inf"),
                                        float("-inf")],
                             ids=["nan", "inf", "-inf"])
    def test_rejects_non_finite_window(self, window):
        # A window that never expires holds the last partial batch, and
        # the replay, forever.
        with pytest.raises(ValueError, match="finite and >= 0"):
            SchedulerConfig(window_ms=window)


class TestBatchFormation:
    def test_full_batch_releases_immediately(self):
        sched = MicroBatchScheduler(SchedulerConfig(max_batch_size=4,
                                                    window_ms=100.0))
        for i in range(4):
            assert sched.submit(req(i))
        assert sched.has_ready_batch(0.0)
        batch = sched.next_batch(0.0)
        assert batch.size == 4
        assert len(sched) == 0

    def test_partial_batch_waits_for_window(self):
        sched = MicroBatchScheduler(SchedulerConfig(max_batch_size=8,
                                                    window_ms=5.0))
        sched.submit(req(0, arrival=1.0))
        sched.submit(req(1, arrival=2.0))
        assert not sched.has_ready_batch(3.0)
        assert sched.next_batch(3.0) is None
        # window anchored to the OLDEST queued arrival (1.0 + 5.0)
        assert sched.next_timeout_ms() == pytest.approx(6.0)
        assert sched.has_ready_batch(6.0)
        batch = sched.next_batch(6.0)
        assert batch.size == 2

    def test_zero_window_releases_immediately(self):
        sched = MicroBatchScheduler(SchedulerConfig(max_batch_size=8,
                                                    window_ms=0.0))
        sched.submit(req(0))
        assert sched.has_ready_batch(0.0)

    def test_oversize_queue_splits_into_max_batches(self):
        sched = MicroBatchScheduler(SchedulerConfig(max_batch_size=3,
                                                    window_ms=0.0,
                                                    queue_depth=100))
        for i in range(7):
            sched.submit(req(i))
        sizes = []
        while len(sched):
            sizes.append(sched.next_batch(0.0).size)
        assert sizes == [3, 3, 1]

    def test_force_drains_partial_batch(self):
        sched = MicroBatchScheduler(SchedulerConfig(max_batch_size=8,
                                                    window_ms=1000.0))
        sched.submit(req(0))
        assert sched.next_batch(0.0) is None
        assert sched.next_batch(0.0, force=True).size == 1


class TestOrdering:
    def test_fifo_preserves_arrival_order(self):
        sched = MicroBatchScheduler(SchedulerConfig(max_batch_size=4,
                                                    window_ms=0.0))
        for i in [3, 1, 2, 0]:       # ids unordered, submission order rules
            sched.submit(req(i))
        batch = sched.next_batch(0.0)
        assert [r.request_id for r in batch.requests] == [3, 1, 2, 0]

    def test_priority_orders_by_class_then_arrival(self):
        sched = MicroBatchScheduler(SchedulerConfig(max_batch_size=4,
                                                    window_ms=0.0,
                                                    policy="priority"))
        sched.submit(req(0, priority=0))
        sched.submit(req(1, priority=2))
        sched.submit(req(2, priority=1))
        sched.submit(req(3, priority=2))
        batch = sched.next_batch(0.0)
        assert [r.request_id for r in batch.requests] == [1, 3, 2, 0]

    def test_priority_window_anchored_to_oldest_any_class(self):
        sched = MicroBatchScheduler(SchedulerConfig(max_batch_size=8,
                                                    window_ms=5.0,
                                                    policy="priority"))
        sched.submit(req(0, arrival=1.0, priority=0))
        sched.submit(req(1, arrival=4.0, priority=9))
        # low-priority arrival at 1.0 drives the clock, not the VIP at 4.0
        assert sched.next_timeout_ms() == pytest.approx(6.0)


class TestBoundedQueue:
    def test_rejects_when_full(self):
        sched = MicroBatchScheduler(SchedulerConfig(max_batch_size=2,
                                                    window_ms=100.0,
                                                    queue_depth=3))
        assert all(sched.submit(req(i)) for i in range(3))
        assert not sched.submit(req(3))
        assert sched.num_rejected == 1
        # draining opens capacity again
        sched.next_batch(0.0)
        assert sched.submit(req(4))


class TestBatch:
    def test_properties(self):
        batch = Batch(requests=(req(0, 1.0), req(1, 3.0)), formed_ms=5.0)
        assert batch.size == 2
        assert batch.oldest_arrival_ms == pytest.approx(1.0)


class TestHeapQueueBehaviour:
    """The heap rewrite must preserve the list version's semantics exactly,
    including the lazily-evicted window anchor."""

    def test_anchor_advances_after_partial_drain(self):
        sched = MicroBatchScheduler(SchedulerConfig(max_batch_size=2,
                                                    window_ms=5.0))
        for i, arrival in enumerate([1.0, 2.0, 3.0, 4.0]):
            sched.submit(req(i, arrival=arrival))
        assert sched.oldest_arrival_ms() == pytest.approx(1.0)
        batch = sched.next_batch(10.0)
        assert [r.request_id for r in batch.requests] == [0, 1]
        # the released requests' stale arrival entries must be skipped
        assert sched.oldest_arrival_ms() == pytest.approx(3.0)
        assert sched.next_timeout_ms() == pytest.approx(8.0)

    def test_anchor_with_out_of_order_arrivals(self):
        sched = MicroBatchScheduler(SchedulerConfig(max_batch_size=8,
                                                    window_ms=5.0))
        for i, arrival in enumerate([7.0, 2.0, 9.0]):
            sched.submit(req(i, arrival=arrival))
        # anchor is the minimum arrival, not the first submission
        assert sched.oldest_arrival_ms() == pytest.approx(2.0)

    def test_interleaved_submit_drain_matches_reference(self):
        """Fuzz the heap scheduler against a naive sort-based reference."""
        import numpy as np

        rng = np.random.default_rng(11)
        config = SchedulerConfig(max_batch_size=3, window_ms=1.0,
                                 queue_depth=64, policy="priority")
        sched = MicroBatchScheduler(config)
        reference = []      # (key, request) like the old list version
        seq = 0
        released_ids, expected_ids = [], []
        now = 0.0
        for step in range(300):
            now += float(rng.exponential(0.3))
            request = req(step, arrival=now, priority=int(rng.integers(3)))
            if sched.submit(request):
                reference.append(((-request.priority, seq), request))
                seq += 1
            if rng.random() < 0.4:
                batch = sched.next_batch(now, force=True)
                if batch is not None:
                    released_ids.extend(r.request_id for r in batch.requests)
                take = min(config.max_batch_size, len(reference))
                reference.sort(key=lambda item: item[0])
                expected_ids.extend(r.request_id
                                    for _, r in reference[:take])
                reference = reference[take:]
            # invariant: cached anchor equals a full rescan
            expected_oldest = (min(r.arrival_ms for _, r in reference)
                               if reference else None)
            assert sched.oldest_arrival_ms() == expected_oldest
            assert len(sched) == len(reference)
        assert released_ids == expected_ids

    def test_arrival_heap_bounded_under_priority_starvation(self):
        """A starved low-priority head must not pin released requests'
        stale arrival entries forever: the heap compacts to O(live)."""
        sched = MicroBatchScheduler(SchedulerConfig(max_batch_size=4,
                                                    window_ms=1000.0,
                                                    queue_depth=512,
                                                    policy="priority"))
        sched.submit(req(0, arrival=0.0, priority=0))   # perpetually starved
        for wave in range(200):
            for j in range(4):
                sched.submit(req(1 + wave * 4 + j, arrival=1.0 + wave,
                                 priority=9))
            batch = sched.next_batch(1.0 + wave, force=True)
            assert all(r.priority == 9 for r in batch.requests)
            # the starved request still anchors the window...
            assert sched.oldest_arrival_ms() == pytest.approx(0.0)
            # ...and stale entries are compacted away, not accumulated
            assert len(sched._arrival_heap) <= 2 * len(sched) + 16
        assert len(sched) == 1      # only the starved request remains

    def test_len_and_empty_track_live_entries(self):
        sched = MicroBatchScheduler(SchedulerConfig(max_batch_size=4,
                                                    window_ms=0.0))
        assert sched.empty
        for i in range(4):
            sched.submit(req(i))
        assert len(sched) == 4 and not sched.empty
        sched.next_batch(0.0)
        assert len(sched) == 0 and sched.empty
