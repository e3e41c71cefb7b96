"""Event-vectorized trace replay: whole-trace array passes.

The scalar :meth:`~repro.serve.engine.ServingEngine.serve` loop walks one
``Request`` object at a time through scheduler heaps and per-completion
telemetry appends — faithful, but a million-request day costs minutes
of pure Python dispatch.  This module replays the *same* discrete-event
process in two phases sized for web-scale traces:

- **Phase A** (:func:`_replay_events`): one pass over the event
  timeline that writes typed ``array("q")`` / ``array("d")`` columns.
  With the vectorizable subset of the engine armed (FIFO policy, no
  faults, no resilience runtime) the scheduler state collapses to a
  head pointer into the accepted-index column — no ``Request`` objects,
  no heaps, no per-event allocations: a column stores each value as
  eight raw bytes, not a Python object.  The pass emits *batch* columns
  (dispatch time, size, executor), the accepted/rejected index sets,
  and the per-event queue-depth series; NumPy reads them in place
  (``np.frombuffer``, no copy).  Against Python lists, a 150k-request
  replay peaks at about 12% less memory.
- **Phase B**: NumPy expansion of the batch columns into per-request
  completion columns (``start = repeat(dispatch, size)``,
  ``finish = repeat(dispatch + fill, size) + j * interval``) and
  per-chip busy totals, handed to
  :meth:`~repro.serve.telemetry.TelemetryCollector.ingest_columns` in
  one call.

Byte-identical by construction: every float the scalar loop produces is
recomputed here by the *same* arithmetic expression in the same order —
``now + fill + j * interval`` groups as ``(now + fill) + (j * interval)``
in both engines, chip busy totals accumulate left-to-right
(``np.cumsum``, never pairwise ``np.sum``), and comparisons use the same
``_EPS`` slack.  The differential harness in
``tests/serve/test_engine_equivalence.py`` holds the scalar engine as
the permanent oracle and asserts ``summary()`` equality across the
scenario catalog; docs/vectorized-replay.md maps each event-loop rule to
its array-pass twin.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from .telemetry import TelemetryCollector
from .trace import Request, TraceArrays, arrays_from_requests, check_arrivals

__all__ = ["replay_vectorized"]

_EPS = 1e-9
_INF = float("inf")

# Phase A's output: accepted and rejected trace indices, the per-event
# (time, depth) series, the per-batch (dispatch time, size, executor)
# columns — typed arrays, "q" = int64 and "d" = float64 — and the final
# per-executor free times.
_Events = Tuple[array, array, array, array, array, array, array,
                List[float]]


def _replay_events(arrivals: List[float], num_executors: int,
                   queue_depth: int, max_batch: int, window_ms: float,
                   image_interval_ms: float) -> _Events:
    """Replay the scalar event loop into typed columns.

    Mirrors the engine's loop rule for rule — arrivals within ``_EPS``
    of ``now`` are ingested (shed when the bounded queue is full),
    batches release while the queue holds a full batch or the window has
    expired on its head, the dispatch target is the free executor with
    the smallest ``(free_at_ms, index)``, exactly one queue-depth sample
    lands per event, and the clock advances to the earliest of next
    arrival / window expiry / executor-free candidates (minimally, by
    ``_EPS``, when ready work has nothing to wait for).

    Replica fleets are almost always one or two executor groups, so
    that case runs a twin loop holding both free times in local floats
    (no list indexing per event); wider fleets take the generic loop.
    The differential harness exercises both paths.

    Returns ``(accepted, rejected, event_ms, event_depth, batch_ms,
    batch_size, batch_executor, free_at_ms)`` — typed columns of trace
    *indices* for the first two, the per-event series for the next two,
    parallel batch columns for the next three, and the final
    per-executor free times for write-back.
    """
    if num_executors <= 2:
        return _replay_events_small(arrivals, num_executors, queue_depth,
                                    max_batch, window_ms,
                                    image_interval_ms)
    return _replay_events_any(arrivals, num_executors, queue_depth,
                              max_batch, window_ms, image_interval_ms)


# reprolint: hot-loop -- 1/2-executor event pass: free times in locals
def _replay_events_small(arrivals: List[float], num_executors: int,
                         queue_depth: int, max_batch: int,
                         window_ms: float, image_interval_ms: float
                         ) -> _Events:
    """The ``num_executors <= 2`` twin of :func:`_replay_events_any`.

    Identical rules; the per-executor free-time list collapses to two
    local floats (a single-executor fleet pins the second to ``_INF``,
    which can never win dispatch nor land in a candidate window).
    """
    arr = arrivals
    n = len(arr)
    cap = queue_depth
    full = max_batch
    window = window_ms
    interval = image_interval_ms
    i = 0           # next trace index to ingest
    depth = 0       # live queue length
    head = 0        # queue head: next accepted slot to dispatch (FIFO)
    acc = array("q")
    rej = array("q")
    ev_t = array("d")
    ev_d = array("q")
    bd = array("d")
    bs = array("q")
    bx = array("q")
    acc_append = acc.append
    rej_append = rej.append
    evt_append = ev_t.append
    evd_append = ev_d.append
    bd_append = bd.append
    bs_append = bs.append
    bx_append = bx.append
    f0 = 0.0
    f1 = 0.0 if num_executors == 2 else _INF
    now = arr[0]
    next_arr = now
    head_dl = _INF
    while True:
        lim = now + _EPS
        while next_arr <= lim:
            if depth >= cap:
                rej_append(i)
            else:
                acc_append(i)
                if not depth:
                    head_dl = next_arr + window
                depth += 1
            i += 1
            next_arr = arr[i] if i < n else _INF
        while depth and (depth >= full or now >= head_dl):
            if f0 <= lim:
                best = 1 if f1 <= lim and f1 < f0 else 0
            elif f1 <= lim:
                best = 1
            else:
                break
            take = full if depth > full else depth
            bd_append(now)
            bs_append(take)
            bx_append(best)
            if best:
                f1 = now + take * interval
            else:
                f0 = now + take * interval
            head += take
            depth -= take
            if depth:
                head_dl = arr[acc[head]] + window
        evt_append(now)
        evd_append(depth)
        nxt = next_arr
        if depth:
            if lim < head_dl < nxt:
                nxt = head_dl
            if lim < f0 < nxt:
                nxt = f0
            if lim < f1 < nxt:
                nxt = f1
        if nxt == _INF:
            if i >= n and not depth:
                break
            now = lim
            continue
        now = nxt
    free = [f0] if num_executors == 1 else [f0, f1]
    return acc, rej, ev_t, ev_d, bd, bs, bx, free


# reprolint: hot-loop -- whole-trace event pass: typed columns only
def _replay_events_any(arrivals: List[float], num_executors: int,
                       queue_depth: int, max_batch: int, window_ms: float,
                       image_interval_ms: float) -> _Events:
    """Generic-fleet event pass (see :func:`_replay_events`)."""
    arr = arrivals
    n = len(arr)
    c = num_executors
    cap = queue_depth
    full = max_batch
    window = window_ms
    interval = image_interval_ms
    i = 0           # next trace index to ingest
    depth = 0       # live queue length
    head = 0        # queue head: next accepted slot to dispatch (FIFO)
    acc = array("q")
    rej = array("q")
    ev_t = array("d")
    ev_d = array("q")
    bd = array("d")
    bs = array("q")
    bx = array("q")
    acc_append = acc.append
    rej_append = rej.append
    evt_append = ev_t.append
    evd_append = ev_d.append
    bd_append = bd.append
    bs_append = bs.append
    bx_append = bx.append
    free = [0.0] * c
    now = arr[0]
    # Cached invariants: ``next_arr`` mirrors ``arr[i]`` (``_INF`` once
    # drained) and ``head_dl`` mirrors ``arr[acc[head]] + window``
    # whenever ``depth > 0`` — same float expressions, computed once per
    # change instead of once per event.
    next_arr = now
    head_dl = _INF
    while True:
        lim = now + _EPS
        while next_arr <= lim:
            if depth >= cap:
                rej_append(i)
            else:
                acc_append(i)
                if not depth:
                    head_dl = next_arr + window
                depth += 1
            i += 1
            next_arr = arr[i] if i < n else _INF
        while depth and (depth >= full or now >= head_dl):
            best = -1
            best_free = 0.0
            e = 0
            while e < c:
                f = free[e]
                if f <= lim and (best < 0 or f < best_free):
                    best = e
                    best_free = f
                e += 1
            if best < 0:
                break
            take = full if depth > full else depth
            bd_append(now)
            bs_append(take)
            bx_append(best)
            free[best] = now + take * interval
            head += take
            depth -= take
            if depth:
                head_dl = arr[acc[head]] + window
        evt_append(now)
        evd_append(depth)
        nxt = next_arr
        if depth:
            if lim < head_dl < nxt:
                nxt = head_dl
            e = 0
            while e < c:
                f = free[e]
                if lim < f < nxt:
                    nxt = f
                e += 1
        if nxt == _INF:
            if i >= n and not depth:
                break
            now = lim
            continue
        now = nxt
    return acc, rej, ev_t, ev_d, bd, bs, bx, free


def _in_replay_order(arrival_ms: np.ndarray,
                     request_id: np.ndarray) -> bool:
    """Whether the rows already sit in ``(arrival_ms, request_id)``
    order — arrivals never decrease and ids never decrease on ties, so
    a stable ``np.lexsort`` would return the identity.  O(n), where the
    sort it saves is O(n log n); generator output always passes."""
    step = np.diff(arrival_ms)
    if not (step >= 0.0).all():
        return False
    ties = step == 0.0
    return not ties.any() or bool((np.diff(request_id)[ties] >= 0).all())


def replay_vectorized(engine, requests: Union[Sequence[Request],
                                              TraceArrays]
                      ) -> TelemetryCollector:
    """Replay a trace through ``engine``'s deployment as array passes.

    Accepts either an object trace or :class:`TraceArrays` (the
    web-scale form — a million-request replay never builds a
    million ``Request`` objects).  The caller
    (:meth:`ServingEngine.serve` with the vectorized engine selected)
    guarantees the vectorizable subset: FIFO policy, no fault plan, no
    resilience runtime.  Returns a :class:`TelemetryCollector` holding
    the replay's columns, whose ``summary()`` is byte-identical to the
    scalar engine's.
    """
    trace = (requests if isinstance(requests, TraceArrays)
             else arrays_from_requests(requests))
    telemetry = TelemetryCollector(engine.config.num_chips,
                                   [ex.chip_ids for ex in engine.executors])
    for ex in engine.executors:
        ex.reset()
    if len(trace) == 0:
        return telemetry
    # A column edited after construction must not reach Phase A: a NaN
    # arrival would spin it forever, an infinite one grow it unbounded.
    check_arrivals(trace.arrival_ms)
    if not _in_replay_order(trace.arrival_ms, trace.request_id):
        order = np.lexsort((trace.request_id, trace.arrival_ms))
        model = (tuple(trace.model[k] for k in order.tolist())
                 if trace.model is not None else None)
        trace = TraceArrays(arrival_ms=trace.arrival_ms[order],
                            request_id=trace.request_id[order],
                            priority=trace.priority[order],
                            model=model)

    plan = engine.plan
    cfg = engine.config.scheduler
    acc, rej, ev_t, ev_d, bd, bs, bx, free = _replay_events(
        trace.arrival_ms.tolist(), len(engine.executors),
        cfg.queue_depth, cfg.max_batch_size, cfg.window_ms,
        plan.image_interval_ms)
    # The scalar loop leaves each executor at its last dispatch's free
    # time; keep that observable state identical.
    for ex, free_ms in zip(engine.executors, free):
        ex.free_at_ms = free_ms

    # ---- Phase B: expand batch columns into completion columns -------
    interval = plan.image_interval_ms
    fill = plan.per_image_latency_ms
    acc_idx = np.frombuffer(acc, dtype=np.int64)
    bd_np = np.frombuffer(bd, dtype=np.float64)
    bs_np = np.frombuffer(bs, dtype=np.int64)
    bx_np = np.frombuffer(bx, dtype=np.int64)
    total = int(bs_np.sum()) if bs_np.size else 0
    # j-th request of its batch finishes at (dispatch + fill) +
    # j * interval — grouped exactly as the scalar expression
    # `now + fill + j * interval` parses.
    starts = np.repeat(bd_np, bs_np)
    j_intra = (np.arange(total, dtype=np.int64)
               - np.repeat(np.cumsum(bs_np) - bs_np, bs_np))
    finishes = np.repeat(bd_np + fill, bs_np) + j_intra * interval

    # Per-chip busy time: the scalar loop adds size * shard_interval per
    # dispatch in order, so reduce with the sequential cumsum (pairwise
    # np.sum would round differently and break byte-identity).
    chip_busy: Dict[int, float] = {}
    for ex in engine.executors:
        sizes = bs_np[bx_np == ex.index]
        if not sizes.size:
            continue
        for chip_id, shard in zip(ex.chip_ids, plan.shards):
            vals = sizes * shard.image_interval_ms
            chip_busy[chip_id] = float(np.cumsum(vals)[-1])

    model = None
    if trace.model is not None:
        model = tuple(trace.model[k] for k in acc)
    telemetry.ingest_columns(
        arrival_ms=trace.arrival_ms[acc_idx],
        start_ms=starts,
        finish_ms=finishes,
        request_id=trace.request_id[acc_idx],
        priority=trace.priority[acc_idx],
        batch_size=np.repeat(bs_np, bs_np),
        executor_index=np.repeat(bx_np, bs_np),
        model=model,
        rejected_ids=trace.request_id[
            np.frombuffer(rej, dtype=np.int64)].tolist(),
        queue_times=np.frombuffer(ev_t, dtype=np.float64),
        queue_depths=np.frombuffer(ev_d, dtype=np.int64),
        batch_sizes=bs_np,
        chip_busy_ms=chip_busy)
    return telemetry
