"""Serving telemetry: per-request latency percentiles, queue depth, chip
utilization and rolling throughput.

The collector is deliberately simulation-agnostic: the engine feeds it
completions, queue-depth samples and per-chip busy time in simulated
milliseconds, and it reduces them into the metrics a serving operator
watches (p50/p95/p99 latency, achieved vs offered throughput, utilization).
``report()`` renders everything with :class:`repro.analysis.tables.Table`
so serving output visually matches the paper-artefact tables.

Storage is one set of columns that either replay engine fills:

- the scalar engine appends each completion's primitives (request id,
  arrival, start, finish, executor index, batch size, priority, model)
  and each event's ``(t, depth)`` queue sample to column lists through
  bound ``append`` methods (:meth:`TelemetryCollector.appenders`);
- the vectorized engine hands over whole NumPy columns at once
  (:meth:`TelemetryCollector.ingest_columns`).

A list column turns into a NumPy array the first time a reduction reads
it, so every reduction (``summary()``, percentiles, utilization) performs
the identical floating-point operations on identical float64 arrays
whichever engine filled them — which is what lets the engine-equivalence
harness demand *byte-identical* summaries from the two replay engines
rather than "close enough" ones.  The ``records`` / ``queue_samples`` /
``batch_sizes`` views are read-only and materialize on access.

Each derived column is computed once per filled collector and shared
by every reduction that reads it: latency (``finish - arrival``) and
wait (``start - arrival``) feed both ``summary()`` and the engine's
metric publication, and each reduced column is sorted once, so its
percentiles are reads of the sorted copy
(:func:`repro.obs.metrics.sorted_quantiles`, bit-identical to
``np.percentile``).  The cache is dropped whenever a column is handed
out for writing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..analysis.tables import Table
from ..obs.metrics import sorted_quantiles
from ..obs.slo import SLO, SLOReport
from .trace import REPLAY_ORDER, Request

__all__ = ["COMPLETION_FIELDS", "RequestRecord", "TelemetryCollector"]

# A column, or a function that builds it on first read (ingest_columns).
_Lazy = Union[np.ndarray, Callable[[], np.ndarray]]

# Every column, with the element type a reduction reads it as.  The
# completion fields come first, one row per completed request in
# dispatch order (model tags stay strings); ``queue_ms``/``queue_depth``
# hold one sample per engine event and ``dispatch_size`` one per batch.
_COLUMNS = {"request_id": np.int64, "arrival_ms": np.float64,
            "start_ms": np.float64, "finish_ms": np.float64,
            "executor_index": np.int64, "batch_size": np.int64,
            "priority": np.int64, "model": None, "queue_ms": np.float64,
            "queue_depth": np.int64, "dispatch_size": np.int64}
COMPLETION_FIELDS = tuple(_COLUMNS)[:8]
# Derived per-request columns: name -> (end column, begin column).
_INTERVALS = {"latency": ("finish_ms", "arrival_ms"),
              "wait": ("start_ms", "arrival_ms"),
              "service": ("finish_ms", "start_ms")}
# The percentiles summary() reports, as np.percentile takes them.
_PERCENTILES = (50.0, 95.0, 99.0)


@dataclass(frozen=True)
class RequestRecord:
    """Lifecycle of one completed request (simulated milliseconds)."""

    request_id: int
    arrival_ms: float
    start_ms: float
    finish_ms: float
    chip_ids: Tuple[int, ...]
    batch_size: int
    priority: int = 0
    model: str = ""

    @property
    def latency_ms(self) -> float:
        """End-to-end: arrival to completion (queue wait + service)."""
        return self.finish_ms - self.arrival_ms

    @property
    def wait_ms(self) -> float:
        return self.start_ms - self.arrival_ms

    @property
    def service_ms(self) -> float:
        return self.finish_ms - self.start_ms


class TelemetryCollector:
    """Accumulates serving events and reduces them to operator metrics.

    ``executor_chip_ids[e]`` is the chip set of replica group ``e``; the
    completion columns store the executor index and the views map it
    back to chip ids.
    """

    def __init__(self, num_chips: int = 1,
                 executor_chip_ids: Sequence[Tuple[int, ...]] = ()):
        self.num_chips = num_chips
        self.executor_chip_ids: List[Tuple[int, ...]] = \
            list(executor_chip_ids)
        # A list while appended to, an array once read (see _array); the
        # model column is None after a single-model ingest_columns, and a
        # column ingest_columns was given as a function is built on first
        # read.
        self._cols: Dict[str, object] = {name: [] for name in _COLUMNS}
        # Values derived from the columns (read-only arrays, see
        # _interval, and the makespan), dropped whenever a column is
        # handed out for writing.
        self._derived: Dict[str, Union[np.ndarray, float]] = {}
        self.rejected: List[int] = []
        self.failed: List[int] = []
        self.retried: List[int] = []
        self.fault_events: List[Dict] = []
        # Resilience bookkeeping: transition events (breaker open/close,
        # brownout enter/exit) for span synthesis, and the run's stats
        # dict attached by the engine when a ResilienceConfig was armed
        # (None otherwise, so summaries of plain runs are unchanged).
        self.resilience_events: List[Dict] = []
        self.resilience: Optional[Dict] = None
        self.chip_busy_ms: Dict[int, float] = {c: 0.0 for c in range(num_chips)}

    # ---- columns ------------------------------------------------------
    def _column(self, name: str):
        """Column ``name`` as stored, built first if it was ingested as
        a function."""
        col = self._cols[name]
        if callable(col):
            col = self._cols[name] = col()
        return col

    def _array(self, name: str) -> np.ndarray:
        """Column ``name`` as an array; a list column is converted once
        and kept in array form."""
        col = self._column(name)
        if isinstance(col, list):
            col = self._cols[name] = np.asarray(col, dtype=_COLUMNS[name])
        return col

    def _list(self, name: str) -> list:
        """Column ``name`` as a new list of Python values."""
        col = self._column(name)
        if col is None:         # single-model ingest: every tag is empty
            return [""] * self.num_completed
        return col.tolist() if isinstance(col, np.ndarray) else list(col)

    def _writable(self, name: str) -> list:
        """Column ``name`` as an appendable list (converted back from an
        array if a reduction has read it).  Drops every derived column,
        as the caller is about to change this one."""
        self._derived.clear()
        col = self._cols[name]
        if not isinstance(col, list):
            col = self._cols[name] = self._list(name)
        return col

    def _interval(self, kind: str) -> np.ndarray:
        """The ``latency``, ``wait`` or ``service`` column (end column
        minus begin column), computed once and read-only."""
        values = self._derived.get(kind)
        if values is None:
            end, begin = _INTERVALS[kind]
            values = self._array(end) - self._array(begin)
            values.flags.writeable = False
            self._derived[kind] = values
        return values

    def _percentiles(self, kind: str, qs: Sequence[float]) -> np.ndarray:
        """``np.percentile(self._interval(kind), qs)``, bit for bit, read
        off one sorted copy of the column that is kept for the next
        call."""
        key = "sorted " + kind
        ordered = self._derived.get(key)
        if ordered is None:
            ordered = self._derived[key] = np.sort(self._interval(kind))
        return sorted_quantiles(ordered, np.true_divide(qs, 100))

    def appenders(self, *names: str) -> Tuple[Callable, ...]:
        """The bound ``append`` of each named column — the scalar
        engine's write path, one call per field and no per-completion
        object.  Bind them for one replay: the columns must not be read
        as arrays until it has finished appending."""
        return tuple(self._writable(name).append for name in names)

    # ---- read-only views ----------------------------------------------
    @property
    def records(self) -> List[RequestRecord]:
        """Completed-request records, materialized from the completion
        columns on each access."""
        return [RequestRecord(*row) for row in
                zip(*self.completion_lists(), self._list("priority"),
                    self._list("model"))]

    @property
    def queue_samples(self) -> List[Tuple[float, int]]:
        """One ``(t, depth)`` sample per engine event."""
        return list(zip(self._list("queue_ms"), self._list("queue_depth")))

    @property
    def batch_sizes(self) -> List[int]:
        """Size of every dispatched batch, in dispatch order."""
        return self._list("dispatch_size")

    def completion_lists(self) -> Tuple[List, List, List, List, List, List]:
        """Per-field lists of the completed requests, dispatch order:
        ``(request_id, arrival_ms, start_ms, finish_ms, chip_ids,
        batch_size)`` — the same Python values after either engine, and
        no :class:`RequestRecord` is built."""
        groups = self.executor_chip_ids
        return (self._list("request_id"), self._list("arrival_ms"),
                self._list("start_ms"), self._list("finish_ms"),
                [groups[e] for e in self._list("executor_index")],
                self._list("batch_size"))

    # ---- event ingestion ---------------------------------------------
    def record_completion(self, record: RequestRecord) -> None:
        """Append one completed request's fields to the columns."""
        groups = self.executor_chip_ids
        if record.chip_ids not in groups:
            groups.append(record.chip_ids)
        values = (record.request_id, record.arrival_ms, record.start_ms,
                  record.finish_ms, groups.index(record.chip_ids),
                  record.batch_size, record.priority, record.model)
        for name, value in zip(COMPLETION_FIELDS, values):
            self._writable(name).append(value)

    def ingest_columns(self, *,
                       arrival_ms: np.ndarray,
                       start_ms: np.ndarray,
                       finish_ms: np.ndarray,
                       request_id: _Lazy,
                       priority: _Lazy,
                       batch_size: _Lazy,
                       executor_index: _Lazy,
                       model: Union[None, Tuple[str, ...],
                                    Callable[[], Tuple[str, ...]]] = None,
                       rejected_ids: Sequence[int] = (),
                       queue_times: Optional[np.ndarray] = None,
                       queue_depths: Optional[np.ndarray] = None,
                       batch_sizes: Optional[np.ndarray] = None,
                       chip_busy_ms: Optional[Dict[int, float]] = None
                       ) -> None:
        """Bulk ingestion of a whole replay (the vectorized engine's
        single call): completion columns ordered by dispatch, the
        per-event queue-depth series, per-batch sizes, and per-chip busy
        totals.  The arrays become the columns as they are, so a
        million-request replay only ever builds the objects a consumer
        of the views actually reads.  The completion columns no
        reduction reads (``request_id``, ``priority``, ``batch_size``,
        ``executor_index``, ``model``) may be given as functions that
        build them; each is called on the column's first read.
        """
        self._derived.clear()
        self._cols.update(
            arrival_ms=arrival_ms, start_ms=start_ms, finish_ms=finish_ms,
            request_id=request_id, priority=priority,
            batch_size=batch_size, executor_index=executor_index,
            model=model)
        self.rejected.extend(rejected_ids)
        if queue_times is not None:
            self._cols.update(queue_ms=queue_times, queue_depth=queue_depths)
        if batch_sizes is not None:
            self._cols["dispatch_size"] = batch_sizes
        for chip, busy in (chip_busy_ms or {}).items():
            self.record_chip_busy(chip, busy)

    def retract(self, executor_index: int, after_ms: float) -> List[Request]:
        """Remove the completions executor ``executor_index`` would emit
        after ``after_ms`` — work in flight on a replica that just died,
        whose images never made it out — and return them as requests,
        oldest ``(arrival_ms, request_id)`` first.

        Runs mid-replay, so it filters the column lists in place and the
        engine's bound appenders stay valid."""
        cols = [self._writable(name) for name in COMPLETION_FIELDS]
        ids, arrival, _, finish, owner, _, priority, model = cols
        doomed = [k for k, e in enumerate(owner)
                  if e == executor_index and finish[k] > after_ms]
        requests = sorted((Request(ids[k], arrival[k], priority[k], model[k])
                           for k in doomed), key=REPLAY_ORDER)
        for col in cols:
            for k in reversed(doomed):
                del col[k]
        return requests

    def record_rejection(self, request_id: int) -> None:
        """A request shed because the bounded queue was full."""
        self.rejected.append(request_id)

    def record_failure(self, request_id: int) -> None:
        """A request lost to a fault and not recoverable (already
        retried once, retry queue full, or the whole fleet is down) —
        counts against availability exactly like a shed request."""
        self.failed.append(request_id)

    def record_retry(self, request_id: int) -> None:
        """An in-flight request pulled off a failed replica and
        requeued onto the survivors (at most once per request)."""
        self.retried.append(request_id)

    def record_fault(self, event: Dict) -> None:
        """One applied fault event (kind, firing time, and its failover
        outcome — see :meth:`repro.serve.engine.ServingEngine.serve`)."""
        self.fault_events.append(event)

    def record_resilience(self, event: Dict) -> None:
        """One resilience state transition (``breaker-open`` /
        ``breaker-close`` / ``brownout-enter`` / ``brownout-exit``) —
        kept apart from ``fault_events`` so injected-fault accounting
        and the ``serve.faults.*`` cross-checks stay untouched."""
        self.resilience_events.append(event)

    def record_queue_depth(self, now_ms: float, depth: int) -> None:
        self._writable("queue_ms").append(now_ms)
        self._writable("queue_depth").append(depth)

    def record_chip_busy(self, chip_id: int, busy_ms: float) -> None:
        self.chip_busy_ms[chip_id] = \
            self.chip_busy_ms.get(chip_id, 0.0) + busy_ms

    def record_batch(self, batch_size: int) -> None:
        self._writable("dispatch_size").append(batch_size)

    # ---- value accessors ----------------------------------------------
    # Every reduction reads the columns through these, so the same
    # floating-point operations run on the same float64 values in the
    # same order after either engine — the bit-for-bit contract the
    # equivalence harness pins.
    def latency_values(self) -> np.ndarray:
        """End-to-end latency per completed request (dispatch order).
        The array is shared with ``summary()`` and read-only."""
        return self._interval("latency")

    def wait_values(self) -> np.ndarray:
        """Queueing delay per completed request (dispatch order).  The
        array is shared with ``summary()`` and read-only."""
        return self._interval("wait")

    def service_values(self) -> np.ndarray:
        """Chip service time per completed request (dispatch order).
        The array is shared with ``summary()`` and read-only."""
        return self._interval("service")

    def queue_depth_values(self) -> np.ndarray:
        return self._array("queue_depth")

    def batch_size_values(self) -> np.ndarray:
        return self._array("dispatch_size")

    @property
    def num_batches(self) -> int:
        return len(self._cols["dispatch_size"])

    @property
    def num_queue_samples(self) -> int:
        return len(self._cols["queue_depth"])

    # ---- reductions ---------------------------------------------------
    @property
    def num_completed(self) -> int:
        return len(self._cols["finish_ms"])

    @property
    def num_rejected(self) -> int:
        return len(self.rejected)

    @property
    def num_failed(self) -> int:
        return len(self.failed)

    @property
    def num_retried(self) -> int:
        return len(self.retried)

    @property
    def num_failovers(self) -> int:
        """Chip-kill events survived by re-routing onto live replicas."""
        return sum(1 for e in self.fault_events
                   if e.get("kind") == "chip-kill" and e.get("failover"))

    @property
    def makespan_ms(self) -> float:
        """First arrival to last completion, computed once per filled
        collector and kept with the other derived values."""
        span = self._derived.get("makespan")
        if span is None:
            span = 0.0
            if self.num_completed:
                span = (float(self._array("finish_ms").max())
                        - float(self._array("arrival_ms").min()))
            self._derived["makespan"] = span
        return span

    def latency_percentile(self, q: float) -> float:
        """Latency percentile over completed requests (q in [0, 100]),
        as ``np.percentile`` gives it."""
        if not self.num_completed:
            return float("nan")
        if not 0.0 <= q <= 100.0:
            raise ValueError("Percentiles must be in the range [0, 100]")
        return float(self._percentiles("latency", [q])[0])

    def latency_percentiles(self) -> Dict[str, float]:
        return {"p50": self.latency_percentile(50.0),
                "p95": self.latency_percentile(95.0),
                "p99": self.latency_percentile(99.0)}

    def _latency_stats(self) -> Tuple[Dict[str, float], ...]:
        """p50/p95/p99/mean of end-to-end latency, wait (arrival ->
        dispatch) and service (dispatch -> completion): each column
        computed and sorted once, its three percentiles read off the
        sorted copy — bit-identical to one ``np.percentile`` call per
        quantile (tests/serve/test_telemetry.py pins that).  The means
        are taken in dispatch order, as the pairwise sum depends on it."""
        if not self.num_completed:
            nan = {"p50": float("nan"), "p95": float("nan"),
                   "p99": float("nan"), "mean": float("nan")}
            return nan, dict(nan), dict(nan)
        stats = []
        for kind in ("latency", "wait", "service"):
            p50, p95, p99 = self._percentiles(kind, _PERCENTILES).tolist()
            stats.append({"p50": p50, "p95": p95, "p99": p99,
                          "mean": float(np.mean(self._interval(kind)))})
        return tuple(stats)

    def mean_latency_ms(self) -> float:
        if not self.num_completed:
            return float("nan")
        return float(np.mean(self.latency_values()))

    def availability(self) -> float:
        """Fraction of offered requests that completed (shed *and*
        fault-lost requests count against it).

        An empty run is vacuously available (1.0): zero offered requests
        means zero were denied, and a NaN here would leak through
        ``summary()`` into SLO reports as a spurious miss (the SLO layer
        treats NaN observations as failed targets)."""
        offered = self.num_completed + self.num_rejected + self.num_failed
        if offered == 0:
            return 1.0
        return self.num_completed / offered

    def throughput_fps(self) -> float:
        """Achieved completions/second over the whole run."""
        span = self.makespan_ms
        return self.num_completed / span * 1000.0 if span > 0 else 0.0

    def rolling_throughput(self, window_ms: float = 1000.0
                           ) -> List[Tuple[float, float]]:
        """Completions/second in consecutive ``window_ms`` buckets,
        returned as ``(bucket_end_ms, fps)`` pairs.

        Buckets tile ``[first_arrival, last_finish]``; idle windows inside
        that span emit explicit zero buckets (a gap in the series would
        otherwise read as "no data" where the truth is "zero throughput").
        A finish landing exactly on a bucket edge belongs to the bucket
        *ending* there, and the series stops at the bucket containing the
        last finish — no trailing all-zero bucket.
        """
        if not self.num_completed or window_ms <= 0:
            return []
        finishes = self._array("finish_ms")
        start = float(self._array("arrival_ms").min())
        # Bucket k covers (start + k*w, start + (k+1)*w]; ceil maps an
        # exact-edge finish into the bucket that ends there, and finishes
        # at (or numerically before) `start` clamp into bucket 0.
        index = np.ceil((finishes - start) / window_ms).astype(np.int64) - 1
        index = np.maximum(index, 0)
        counts = np.bincount(index)
        return [(start + (k + 1) * window_ms,
                 int(count) / window_ms * 1000.0)
                for k, count in enumerate(counts)]

    def chip_utilization(self) -> Dict[int, float]:
        """Raw busy fraction per chip over the makespan (0 when idle run).

        Deliberately *not* clamped at 1.0: a fraction above one means the
        busy-time accounting booked more chip-milliseconds than the run's
        makespan — a real signal (double-counted dispatches, overlapping
        busy intervals) that a clamp would silently mask.  ``report()``
        surfaces such chips with a ``saturated`` warning.
        """
        span = self.makespan_ms
        if span <= 0:
            return {chip: 0.0 for chip in self.chip_busy_ms}
        return {chip: busy / span
                for chip, busy in sorted(self.chip_busy_ms.items())}

    def saturated_chips(self, tolerance: float = 1e-9) -> List[int]:
        """Chips whose raw utilization exceeds 1.0 (accounting anomaly)."""
        return [chip for chip, util in self.chip_utilization().items()
                if util > 1.0 + tolerance]

    def mean_queue_depth(self) -> float:
        if not self.num_queue_samples:
            return 0.0
        return float(np.mean(self.queue_depth_values()))

    def max_queue_depth(self) -> int:
        if not self.num_queue_samples:
            return 0
        return int(self.queue_depth_values().max())

    def mean_batch_size(self) -> float:
        if not self.num_batches:
            return 0.0
        return float(np.mean(self.batch_size_values()))

    def slo_attainment(self, slo: SLO) -> SLOReport:
        """Evaluate an :class:`~repro.obs.slo.SLO` against this run
        (observed p99 latency and availability)."""
        return slo.evaluate(p99_ms=self.latency_percentile(99.0),
                            availability=self.availability())

    # ---- presentation -------------------------------------------------
    def summary(self, slo: Optional["SLO"] = None
                ) -> Dict[str, Optional[float]]:
        """Flat metric dict (the JSON output of the serve CLI).

        End-to-end latency is reported alongside its wait (queueing) and
        service (chip time) components, so an operator can tell a batching
        /queueing problem from a slow deployment straight from the JSON.
        With ``slo`` given, the dict gains the ``slo_*`` attainment keys
        of :meth:`repro.obs.slo.SLOReport.as_dict`.

        Metrics undefined for the run (e.g. latency percentiles with zero
        completions) are ``None``, not NaN — the output must stay valid
        JSON for strict consumers (jq, JSON.parse).
        """
        pct, wait, service = self._latency_stats()
        out = {
            "completed": float(self.num_completed),
            "rejected": float(self.num_rejected),
            "failed": float(self.num_failed),
            "retries": float(self.num_retried),
            "failovers": float(self.num_failovers),
            "fault_events": float(len(self.fault_events)),
            "availability": self.availability(),
            "makespan_ms": self.makespan_ms,
            "throughput_fps": self.throughput_fps(),
            "latency_mean_ms": pct["mean"],
            "latency_p50_ms": pct["p50"],
            "latency_p95_ms": pct["p95"],
            "latency_p99_ms": pct["p99"],
            "wait_mean_ms": wait["mean"],
            "wait_p50_ms": wait["p50"],
            "wait_p95_ms": wait["p95"],
            "wait_p99_ms": wait["p99"],
            "service_mean_ms": service["mean"],
            "service_p50_ms": service["p50"],
            "service_p95_ms": service["p95"],
            "service_p99_ms": service["p99"],
            "mean_batch_size": self.mean_batch_size(),
            "mean_queue_depth": self.mean_queue_depth(),
            "max_queue_depth": float(self.max_queue_depth()),
        }
        for chip, util in self.chip_utilization().items():
            out[f"chip{chip}_utilization"] = util
        if self.resilience is not None:
            # Only resilience-armed runs carry these keys — plain runs'
            # summaries stay byte-identical to previous releases (the
            # serve-summary goldens pin them).
            for key, value in self.resilience.items():
                out[f"resilience_{key}"] = value
        if slo is not None:
            out.update(slo.evaluate(p99_ms=pct["p99"],
                                    availability=out["availability"]
                                    ).as_dict())
        return {key: None if isinstance(value, float) and np.isnan(value)
                else value
                for key, value in out.items()}

    def report(self, slo: Optional["SLO"] = None) -> str:
        """Operator-facing text report (latency, throughput, chips, and —
        with ``slo`` — attainment)."""
        pct, wait, service = self._latency_stats()
        latency = Table(["metric", "total", "wait", "service"],
                        title="request latency (ms; total = wait + service)")
        latency.add_row("mean", pct["mean"], wait["mean"], service["mean"])
        latency.add_row("p50", pct["p50"], wait["p50"], service["p50"])
        latency.add_row("p95", pct["p95"], wait["p95"], service["p95"])
        latency.add_row("p99", pct["p99"], wait["p99"], service["p99"])

        load = Table(["metric", "value"], title="load")
        load.add_row("completed", self.num_completed)
        load.add_row("rejected", self.num_rejected)
        if self.fault_events or self.failed or self.retried:
            load.add_row("failed (faults)", self.num_failed)
            load.add_row("retried (failover)", self.num_retried)
        load.add_row("throughput (req/s)", self.throughput_fps())
        load.add_row("mean batch size", self.mean_batch_size())
        load.add_row("mean queue depth", self.mean_queue_depth())
        load.add_row("max queue depth", self.max_queue_depth())

        chips = Table(["chip", "busy_ms", "utilization"],
                      title="chip utilization")
        for chip, util in self.chip_utilization().items():
            chips.add_row(chip, self.chip_busy_ms.get(chip, 0.0), util)

        sections = [latency.render(), load.render(), chips.render()]
        if self.fault_events:
            faults = Table(["t_ms", "fault", "outcome"],
                           title="injected faults")
            for event in self.fault_events:
                faults.add_row(event.get("at_ms", float("nan")),
                               event.get("label", event.get("kind", "?")),
                               event.get("outcome", ""))
            sections.append(faults.render())
        if self.resilience is not None:
            res = Table(["metric", "value"], title="resilience")
            res.add_row("admission shed", self.resilience["admission_shed"])
            res.add_row("retry budget",
                        f"{self.resilience['retries_scheduled']:g} / "
                        f"{self.resilience['retry_budget']:g} used")
            res.add_row("breaker opens", self.resilience["breaker_opens"])
            res.add_row("brownout time (ms)", self.resilience["brownout_ms"])
            res.add_row("degraded completions",
                        self.resilience["degraded_completions"])
            sections.append(res.render())
        saturated = self.saturated_chips()
        if saturated:
            sections.append(
                f"WARNING: chip(s) {saturated} report utilization > 1.0 — "
                "busy-time accounting booked more chip-ms than the "
                "makespan; investigate double-counted dispatches")
        if slo is not None:
            attainment = slo.evaluate(p99_ms=pct["p99"],
                                      availability=self.availability())
            table = Table(["target", "goal", "observed", "attained"],
                          title=f"SLO attainment ({attainment.name})")
            if slo.p99_ms is not None:
                table.add_row("p99 latency (ms)", slo.p99_ms,
                              attainment.p99_observed_ms,
                              "yes" if attainment.p99_attained else "NO")
            if slo.availability is not None:
                table.add_row("availability", slo.availability,
                              attainment.availability_observed,
                              "yes" if attainment.availability_attained
                              else "NO")
            sections.append(table.render())
        return "\n\n".join(sections)
