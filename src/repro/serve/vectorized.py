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
  replay peaks at about 12% less memory.  An overloaded fleet spends
  most of a web-scale replay dispatching full batches back to back;
  :func:`_saturated_stretch` appends those dispatch cycles as NumPy
  passes and hands the loop back the state it would have reached.
- **Phase B**: NumPy expansion of the batch columns into per-request
  completion columns (``start = repeat(dispatch, size)``,
  ``finish = repeat(dispatch + fill, size) + j * interval``) and
  per-chip busy totals, handed to
  :meth:`~repro.serve.telemetry.TelemetryCollector.ingest_columns` in
  one call.

Byte-identical by construction: every float the scalar loop produces is
recomputed here by the *same* arithmetic expression in the same order —
``now + fill + j * interval`` groups as ``(now + fill) + (j * interval)``
in both engines, chip busy totals and back-to-back dispatch times
accumulate left-to-right (``np.cumsum``, never pairwise ``np.sum``), and
comparisons use the same ``_EPS`` slack.  The differential harness in
``tests/serve/test_engine_equivalence.py`` holds the scalar engine as
the permanent oracle and asserts ``summary()`` equality across the
scenario catalog; docs/vectorized-replay.md maps each event-loop rule to
its array-pass twin.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Sequence, Tuple, Union

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


# Cycles per executor in a saturated stretch's first chunk.  The pass
# declines a stretch too short to fill it: its fixed NumPy cost (~0.2 ms)
# buys about 400 loop events.
_CHUNK_FIRST = 16
# Each further chunk of a stretch is 4x longer, up to this cap, which
# keeps its temporary arrays near 1 MB per executor at a batch of 8.
_CHUNK_MAX = 1024
# Dispatches the loop makes after an attempt before it tries again, so a
# trace that saturates only in short bursts pays almost nothing.
_BACKOFF = 16


# reprolint: hot-loop -- whole-trace event pass: typed columns only
def _replay_events(arrival_ms: np.ndarray, num_executors: int,
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

    When an event ends with every executor busy and a full batch still
    queued, the loop hands the state to :func:`_saturated_stretch`,
    which appends the full-batch dispatch cycles that follow as NumPy
    passes and returns the state the loop would have reached; the loop
    then resumes from there.  After each attempt the loop waits
    ``_BACKOFF`` dispatches before the next one.

    Returns ``(accepted, rejected, event_ms, event_depth, batch_ms,
    batch_size, batch_executor, free_at_ms)`` — typed columns of trace
    *indices* for the first two, the per-event series for the next two,
    parallel batch columns for the next three, and the final
    per-executor free times for write-back.
    """
    arr = arrival_ms.tolist()
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
    columns = (acc, rej, ev_t, ev_d, bd, bs, bx)
    acc_append = acc.append
    rej_append = rej.append
    evt_append = ev_t.append
    evd_append = ev_d.append
    bd_append = bd.append
    bs_append = bs.append
    bx_append = bx.append
    free = [0.0] * c
    retry_at = 0    # batch count the next saturated-stretch attempt waits for
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
        if depth >= full and len(bd) >= retry_at:
            # The dispatch loop broke with a full batch queued, so every
            # executor is busy: a saturated stretch may start here.
            state = _saturated_stretch(arrival_ms, i, now, depth, head,
                                       free, cap, full, window, interval,
                                       columns)
            retry_at = len(bd) + _BACKOFF
            if state is not None:
                now, i, depth, head = state
                lim = now + _EPS
                next_arr = arr[i] if i < n else _INF
                if depth:
                    head_dl = arr[acc[head]] + window
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


def _saturated_stretch(arrival_ms: np.ndarray, i: int, now: float,
                       depth: int, head: int, free: List[float], cap: int,
                       full: int, window: float, interval: float,
                       columns: Tuple[array, ...]
                       ) -> Optional[Tuple[float, int, int, int]]:
    """Append the full-batch dispatch cycles after the event at ``now``.

    Entered with every executor busy.  While the stretch lasts, each
    executor dispatches a full batch the moment it frees up, so the
    dispatch times, the queue walk, the shed arrivals and the window
    wake-ups are array expressions of the trace:

    - each executor's dispatch times are a sequential ``np.cumsum``
      from its free time with step ``full * interval`` — the float chain
      ``now + take * interval`` repeated — merged by ``(time, index)``;
    - the queue depth is a walk of ``+1`` per arrival and ``-full`` per
      dispatch, arrivals first at equal times, reflected at ``cap``:
      ``depth = S - max(0, cummax(S - cap))``, and an arrival is shed
      exactly where that running maximum grows;
    - after the dispatches at ``T``, the head's window deadline is an
      event iff it lies strictly inside ``(T + _EPS, T_next)`` — the
      entry event's pending deadline included.

    Whole cycles are emitted, chunk by chunk, up to the first dispatch
    that would not take a full batch and before the first two distinct
    event times within ``_EPS`` of each other (the loop does all
    ``_EPS`` merging).  Extends ``columns`` and ``free`` in place and
    returns the loop state ``(now, i, depth, head)`` after the last
    emitted cycle, or ``None`` when not one cycle could be emitted.
    """
    step = full * interval
    per = _CHUNK_FIRST
    c = len(free)
    # The first chunk pays off only if it runs to its horizon, where
    # each executor has dispatched about ``per`` full batches.  Decline
    # before any array work when the queue and the arrivals up to then
    # could not fill them (shedding would only lower the count).
    reach = min(free) + (per - 1) * step
    if depth + int(np.searchsorted(arrival_ms, reach, "right")) - i \
            < c * per * full:
        return None
    acc, rej, ev_t, ev_d, bd, bs, bx = columns
    lanes = np.arange(c, dtype=np.int64)
    state = None
    while True:
        chains = np.full((c, per + 1), step)
        chains[:, 0] = free
        chains = np.cumsum(chains, axis=1)
        # Every dispatch up to the horizon is known; the last one
        # (at the horizon) is not emitted, as what follows it is not.
        horizon = chains[:, per - 1].min()
        t = chains[:, :per].ravel()
        x = np.repeat(lanes, per)
        keep = t <= horizon
        t, x = t[keep], x[keep]
        if c > 1:
            order = np.argsort(t, kind="stable")
            t, x = t[order], x[order]
        m = t.size
        stop_arr = int(np.searchsorted(arrival_ms, horizon, "right"))
        arr = arrival_ms[i:stop_arr]
        na = stop_arr - i
        pos = np.searchsorted(arr, t, "right") + np.arange(m)
        walk = np.ones(na + m, dtype=np.int64)
        walk[pos] = -full
        walk = np.cumsum(walk) + depth
        excess = np.maximum(np.maximum.accumulate(walk - cap), 0)
        level = walk - excess
        is_arr = np.ones(na + m, dtype=bool)
        is_arr[pos] = False
        shed = (np.diff(excess, prepend=0) > 0)[is_arr]
        stop = horizon
        short = np.flatnonzero(level[pos] < 0)
        if short.size:
            stop = t[short[0]]
        # Distinct dispatch times T_1..T_G; T_0 is the entry event.
        last = np.flatnonzero(np.append(t[1:] != t[:-1], True))
        times = t[last]
        prev = np.concatenate(([now], times[:-1]))
        taken = np.concatenate(([0], (last[:-1] + 1) * full))
        queued = np.concatenate((np.frombuffer(acc[head:], dtype=np.int64),
                                 i + np.flatnonzero(~shed)))
        has = taken < queued.size
        deadline = np.full(times.size, _INF)
        deadline[has] = arrival_ms[queued[taken[has]]] + window
        wake = deadline[(prev + _EPS < deadline) & (deadline < times)]
        # One event per distinct step time, sampled after its last step;
        # a wake-up at an arrival's time is that arrival's event.
        when = np.empty(na + m)
        when[pos] = t
        when[is_arr] = arr
        ends = np.flatnonzero(np.append(when[1:] != when[:-1], True))
        events = when[ends]
        depths = level[ends]
        if wake.size:
            after = np.searchsorted(when, wake, "right")
            alone = when[after - 1] != wake
            wake, after = wake[alone], after[alone]
            slot = np.searchsorted(events, wake)
            events = np.insert(events, slot, wake)
            depths = np.insert(depths, slot,
                               np.concatenate(([depth], level))[after])
        clash = np.flatnonzero(events[1:] <= events[:-1] + _EPS)
        if clash.size and events[clash[0]] < stop:
            stop = events[clash[0]]
        k = int(np.searchsorted(t, stop))
        if not k:
            return state
        end = t[k - 1]
        na = int(np.searchsorted(arr, end, "right"))
        dropped = shed[:na]
        acc.frombytes((i + np.flatnonzero(~dropped)).tobytes())
        rej.frombytes((i + np.flatnonzero(dropped)).tobytes())
        ne = int(np.searchsorted(events, end, "right"))
        ev_t.frombytes(events[:ne].tobytes())
        ev_d.frombytes(depths[:ne].tobytes())
        bd.frombytes(t[:k].tobytes())
        bs.frombytes(np.full(k, full, dtype=np.int64).tobytes())
        bx.frombytes(x[:k].tobytes())
        free[:] = chains[lanes, np.bincount(x[:k], minlength=c)].tolist()
        now = float(end)
        i += na
        depth = int(level[na + k - 1])
        head += k * full
        state = (now, i, depth, head)
        if stop < horizon:
            return state
        per = min(4 * per, _CHUNK_MAX)


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
    # Phase A reads the trace's own column, copied only when it is not
    # float64: the saturated pass adds windows in the column's dtype.
    acc, rej, ev_t, ev_d, bd, bs, bx, free = _replay_events(
        np.asarray(trace.arrival_ms, dtype=np.float64), len(engine.executors),
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
