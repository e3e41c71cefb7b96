"""Micro-batching scheduler: bounded queue + batch formation policy.

Requests accumulate in a bounded queue; a batch is released when it is
*full* (``max_batch_size`` requests) or the *batching window* has elapsed
since the oldest queued request arrived — the standard
latency-vs-throughput knob of serving systems (larger windows mean fuller
batches and better amortization of the pipeline fill latency, at the cost
of queueing delay).  Two ordering policies:

- ``"fifo"`` — strict arrival order;
- ``"priority"`` — higher :attr:`~repro.serve.trace.Request.priority`
  first, arrival order within a class (the window is still anchored to the
  oldest queued request of *any* class, so low-priority work cannot starve
  the window clock).

When the queue is full new requests are rejected (load shedding); the
engine records them in telemetry rather than letting the queue — and every
latency percentile — grow without bound.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..obs.catalog import publish
from .trace import Request

__all__ = ["SchedulerConfig", "Batch", "MicroBatchScheduler"]

POLICIES = ("fifo", "priority")


@dataclass(frozen=True)
class SchedulerConfig:
    """Batching/queueing knobs.

    Attributes
    ----------
    max_batch_size:
        Upper bound on requests per micro-batch.
    window_ms:
        Maximum time the oldest queued request may wait before a partial
        batch is released (0 releases immediately).
    queue_depth:
        Bounded queue capacity; submissions beyond it are rejected.
    policy:
        ``"fifo"`` or ``"priority"``.
    """

    max_batch_size: int = 8
    window_ms: float = 2.0
    queue_depth: int = 256
    policy: str = "fifo"

    def __post_init__(self):
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        # NaN and inf fail this too: a window that never expires would
        # hold the last partial batch, and the replay, forever.
        if not 0.0 <= self.window_ms < math.inf:
            raise ValueError("window_ms must be finite and >= 0")
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}")

    def vectorization_blockers(self) -> List[str]:
        """Reasons the vectorized replay engine cannot honor this
        config (empty when it can).  FIFO collapses batch formation to a
        head pointer over the accepted-arrival order; any other policy
        reorders per request, which only the scalar loop expresses."""
        if self.policy != "fifo":
            return [f"scheduler policy {self.policy!r} reorders "
                    "per-request"]
        return []


@dataclass(frozen=True)
class Batch:
    """One micro-batch released to an executor."""

    requests: Tuple[Request, ...]
    formed_ms: float

    @property
    def size(self) -> int:
        return len(self.requests)

    @property
    def oldest_arrival_ms(self) -> float:
        return min(r.arrival_ms for r in self.requests)


class MicroBatchScheduler:
    """Bounded-queue micro-batcher (simulated-time, event-driven).

    Callers drive it with explicit timestamps where time matters:
    ``next_batch(now)`` to release a ready batch, ``next_timeout_ms()``
    to learn when the window next expires.  The engine's event loop
    applies the same two rules itself, reading the window anchor
    through the ``oldest_arrival_ms`` cache.  ``submit`` is
    timestamp-free — the window is anchored to request *arrival* times.

    The queue is two heaps so every engine event stays O(log n) even in
    the deep-queue load-shedding regime (the previous list version
    rescanned/resorted the whole queue per event, O(n) arrival scans and
    O(n log n) sorts — quadratic over a trace):

    - a release heap ordered by the policy's sort key (seq for FIFO;
      (-priority, seq) for priority), popped to form batches;
    - an arrival heap ordered by arrival time — the cached window
      anchor.  Its entries are evicted lazily: a released request's entry
      stays behind and is discarded when it surfaces at the top.  A
      starved head entry (priority policy) can block top-eviction
      indefinitely, so the heap is rebuilt from the live set whenever
      stale entries outnumber live ones 2:1 — size stays O(live), not
      O(total ever submitted).
    """

    def __init__(self, config: SchedulerConfig = SchedulerConfig()):
        self.config = config
        self._release_heap: List[Tuple[Tuple, Request]] = []
        self._arrival_heap: List[Tuple[float, int]] = []
        self._live: dict = {}       # seq still queued -> arrival_ms
        self._oldest_cache: Optional[float] = None   # valid iff not dirty
        self._oldest_dirty = False
        self._seq = 0
        self.num_submitted = 0
        self.num_rejected = 0
        self.num_batches = 0

    def __len__(self) -> int:
        return len(self._live)

    @property
    def empty(self) -> bool:
        return not self._live

    def _sort_key(self, request: Request) -> Tuple:
        if self.config.policy == "priority":
            return (-request.priority, self._seq)
        return (self._seq,)

    # ------------------------------------------------------------------
    # reprolint: hot-loop -- one call per offered request
    def submit(self, request: Request) -> bool:
        """Enqueue a request; False when the bounded queue sheds it."""
        self.num_submitted += 1
        if len(self._live) >= self.config.queue_depth:
            self.num_rejected += 1
            return False
        heapq.heappush(self._release_heap, (self._sort_key(request), request))
        heapq.heappush(self._arrival_heap, (request.arrival_ms, self._seq))
        self._live[self._seq] = request.arrival_ms
        self._seq += 1
        # A fresh arrival only moves the cached window anchor when it is
        # older than the current head (a failover re-submission) or the
        # queue was empty; in-order traffic keeps the cache warm.
        if self._oldest_cache is None or request.arrival_ms < self._oldest_cache:
            self._oldest_cache = request.arrival_ms
        return True

    # ------------------------------------------------------------------
    # reprolint: hot-loop -- two-heap drain path (20k-deep queue, PR 3)
    def oldest_arrival_ms(self) -> Optional[float]:
        """Arrival time of the oldest queued request (window anchor).

        Cached between queue mutations: the engine reads this several
        times per event (batching window, admission delay, brownout
        signal) against an unchanged queue, so only the first read after
        a release pays for heap maintenance.
        """
        if not self._oldest_dirty:
            return self._oldest_cache
        while self._arrival_heap and self._arrival_heap[0][1] not in self._live:
            heapq.heappop(self._arrival_heap)       # evict released entries
        if len(self._arrival_heap) > 2 * len(self._live) + 16:
            # A live-but-starved head blocks top-eviction; rebuild so the
            # heap stays O(live) even under sustained priority starvation.
            self._arrival_heap = [(arrival, seq)
                                  for seq, arrival in self._live.items()]
            heapq.heapify(self._arrival_heap)
        self._oldest_dirty = False
        if not self._arrival_heap:
            self._oldest_cache = None
        else:
            self._oldest_cache = self._arrival_heap[0][0]
        return self._oldest_cache

    def next_timeout_ms(self) -> Optional[float]:
        """When the batching window expires for the current queue head."""
        oldest = self.oldest_arrival_ms()
        if oldest is None:
            return None
        return oldest + self.config.window_ms

    def has_ready_batch(self, now_ms: float) -> bool:
        """Full batch queued, or the window has expired on a partial one."""
        if not self._live:
            return False
        if len(self._live) >= self.config.max_batch_size:
            return True
        return now_ms >= self.next_timeout_ms()

    # reprolint: hot-loop -- one call per formed micro-batch
    def next_batch(self, now_ms: float, force: bool = False
                   ) -> Optional[Batch]:
        """Release the next micro-batch, or None if nothing is ready.

        ``force=True`` drains a partial batch regardless of the window —
        a shutdown/flush hook for callers that want to empty the queue
        early.  The engine itself never forces: end-of-trace partial
        batches drain through normal window expiry.
        """
        if not self._live:
            return None
        if not force and not self.has_ready_batch(now_ms):
            return None
        take = min(self.config.max_batch_size, len(self._live))
        released = []
        for _ in range(take):
            key, request = heapq.heappop(self._release_heap)
            self._live.pop(key[-1], None)   # keys end with the seq number
            released.append(request)
        self.num_batches += 1
        self._oldest_dirty = True
        return Batch(requests=tuple(released), formed_ms=now_ms)

    # ------------------------------------------------------------------
    def publish_metrics(self, registry) -> None:
        """Fold this scheduler's lifetime counters into a
        :class:`~repro.obs.metrics.MetricsRegistry` under
        ``serve.scheduler.*`` (the engine calls this once per run)."""
        publish(registry, "serve.scheduler", {
            "submitted": self.num_submitted,
            "shed": self.num_rejected,
            "batches_formed": self.num_batches,
        })
