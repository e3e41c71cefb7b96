"""Span-based tracer with Chrome trace-event and JSONL export.

A :class:`Span` is one named interval on a named track — a request's
queue wait, a batch execution on ``replica0``, one generation of an
evolutionary search.  The serving engine runs on *simulated* milliseconds
and records spans with explicit timestamps (:meth:`Tracer.record`); the
search runs on wall clock and uses the :meth:`Tracer.span` context
manager, which stamps times relative to the tracer's creation.  One
tracer therefore holds a single consistent timebase — use one tracer per
run, not one per subsystem.

Exports:

- :meth:`Tracer.write_chrome_trace` — the Chrome trace-event JSON object
  format (complete ``"X"`` events plus ``"M"`` thread-name metadata),
  loadable in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``;
  :meth:`Tracer.to_chrome_trace` is the parse of that written text;
- :meth:`Tracer.write_jsonl` — one span object per line, for ``jq`` and
  log pipelines.

Both write the bytes ``json.dumps`` gives each event, its times on the
1 ns grid below, but encode a column of spans per ``json.dumps`` call
(:func:`_encoded`) and stream bounded chunks to the file
(docs/observability.md).

Exported times sit on a 1 ns grid.  Each span's start and end become
whole nanoseconds once, ``rint(ms * 1e6)``; Chrome ``ts``/``dur`` are
those integers over ``1e3`` (µs), span-JSONL ``start_ms``/``end_ms``/
``dur_ms`` the same integers over ``1e6``, and a duration is
``end_ns - start_ns``, so the two files agree to the nanosecond and a
day-long time prints in at most 14 digits instead of 17.  The rule
covers finite floats (NumPy ``float64`` included) whose nanosecond
value is below 2**53, about 104 days; a duration takes it only when
both its times do.  Ints, bools, NaN, ±inf and larger times are
written as recorded: ms times 1000 in Chrome, the value itself in
JSONL.  In memory, times keep full precision: :attr:`Tracer.spans`,
:meth:`Span.as_dict` and ``args`` are never rounded.

The default tracer is :class:`NullTracer` (see :mod:`repro.obs.runtime`):
every record is a no-op and instrumented hot loops guard attribute
construction behind ``tracer.enabled``, so tracing costs nothing until a
real tracer is installed.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from operator import itemgetter, mod
from pathlib import Path
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from .gcpause import gc_paused

__all__ = ["Span", "Tracer", "NullTracer"]

# Export order: start, then end, then name; the sort is stable, so spans
# tied on all three keep their recording order.
_EXPORT_ORDER = itemgetter(2, 3, 0)

# Spans per export chunk: bounds the exports' working memory.
_CHUNK_SPANS = 4096

# Row templates with the keys written in: a head, then one tail per
# ``args`` kind — none (filled with ""), scalar id, non-empty dict.
_JSONL_HEAD = ('{"name": %s, "cat": %s, "track": %s, "start_ms": %s, '
               '"end_ms": %s, "dur_ms": %s')
_CHROME_HEAD = ('{"name": %s, "cat": %s, "ph": "X", "ts": %s, "dur": %s, '
                '"pid": 0, "tid": %s')
_TAILS = ("%s}", ', "args": {"id": %s}}', ', "args": {%s}}')
_CHROME_META = ('{"name": "thread_name", "ph": "M", "pid": 0, "tid": %d, '
                '"args": {"name": %s}}')

# The 1 ns grid: ns per exported unit, and the bound below which every
# whole number of ns is exact in a float.
_NS_PER_US = 1e3
_NS_PER_MS = 1e6
_NS_LIMIT = 2.0 ** 53


def _encoded(values: Sequence, sep: str = ", ") -> List[str]:
    """Each item's JSON text, from one ``json.dumps`` of the column.

    The text is split at the item separator ``sep``: ``", "``, or
    ``"}, {"`` for non-empty dicts, whose texts then lack their outer
    braces.  ``sep`` cannot overlap itself, so an extra part means some
    item's own text holds it: then each item is encoded alone.
    """
    edge = len(sep) // 2 - 1        # braces cut off each item's text
    parts = json.dumps(values)[1 + edge:-1 - edge].split(sep)
    if len(parts) == len(values):
        return parts
    return [text[edge:len(text) - edge] for text in map(json.dumps, values)]


def _ns_grid(times: Sequence) -> Tuple[np.ndarray, np.ndarray]:
    """Each time as whole nanoseconds, ``rint(ms * 1e6)``, and where the
    1 ns rule covers it: a finite float whose ns value is below 2**53.

    Anything but a float reads as NaN, which the rule does not cover.
    An uncovered time's ns value is 0, so arithmetic on the grid meets
    no NaN or inf; adding ``0.0`` turns ``-0.0`` into the integer zero.
    """
    if set(map(type, times)) != {float}:
        times = [t if isinstance(t, float) else np.nan for t in times]
    with np.errstate(over="ignore"):    # a time near float max: not covered
        ns = np.rint(np.array(times, dtype=np.float64) * _NS_PER_MS) + 0.0
    covered = np.abs(ns) < _NS_LIMIT
    ns[~covered] = 0.0
    return ns, covered


def _on_grid(grid: np.ndarray, covered: np.ndarray,
             recorded: Callable[[int], object]) -> List:
    """``grid`` where the rule ``covered`` the time, else
    ``recorded(i)``: the value written for a time the rule leaves
    alone."""
    values = grid.tolist()
    for i in np.flatnonzero(~covered).tolist():
        values[i] = recorded(i)
    return values


def _rows_text(head: str, columns: Sequence[List[str]], args: Sequence,
               sep: str) -> str:
    """One chunk's rows joined by ``sep``: ``head`` filled from the
    encoded ``columns``, plus the tail of the row's ``args`` kind."""
    kinds = [0 if a is None else (2 if a else 0) if isinstance(a, dict)
             else 1 for a in args]
    try:
        ids = iter(_encoded([a for a, k in zip(args, kinds) if k == 1]))
        dicts = iter(_encoded([a for a, k in zip(args, kinds) if k == 2],
                              "}, {"))
    except (TypeError, ValueError):
        for a in args:      # raise what the first bad one in row order does
            json.dumps(a)
        raise
    texts = ["" if k == 0 else next(ids) if k == 1 else next(dicts)
             for k in kinds]
    templates = [head + tail for tail in _TAILS]
    return sep.join(map(mod, map(templates.__getitem__, kinds),
                        zip(*columns, texts)))


@dataclass(frozen=True)
class Span:
    """One complete interval: name, category, track and [start, end] ms."""

    name: str
    category: str
    start_ms: float
    end_ms: float
    track: str = "main"
    args: Optional[Dict] = None

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms

    def as_dict(self) -> Dict:
        out = {"name": self.name, "cat": self.category, "track": self.track,
               "start_ms": self.start_ms, "end_ms": self.end_ms,
               "dur_ms": self.duration_ms}
        if self.args:
            out["args"] = self.args
        return out


class Tracer:
    """Collects spans; ``enabled`` is True so instrumentation emits.

    Recording is the hot path (one or more calls per served request), so
    spans are kept as raw tuples: the exports build their output straight
    from them, and only :attr:`spans` materializes :class:`Span` objects
    — the ``obs.overhead`` benchmark holds instrumented serving to <5%
    over uninstrumented, and per-record dataclass construction alone
    would blow that budget.
    """

    enabled = True

    def __init__(self):
        self._events: List[tuple] = []
        self._sources: List = []
        self._t0 = time.perf_counter()

    def __len__(self) -> int:
        self._flush_sources()
        return len(self._events)

    @property
    def spans(self) -> List[Span]:
        """The recorded spans in recording order, materialized (not hot).

        A non-dict ``args`` payload is an identity scalar recorded on
        the cheap emission path (see :meth:`extend`) and comes out as
        ``{"id": value}``.
        """
        self._flush_sources()
        return [Span(name, category, start_ms, end_ms, track,
                     args if args is None or isinstance(args, dict)
                     else {"id": args})
                for name, category, start_ms, end_ms, track, args
                in self._events]

    @gc_paused()
    def _flush_sources(self) -> None:
        """Materialize every pending lazy source into the event list.

        A source leaves the queue only once it has returned: one that
        raises adds no events and is called again by the next flush.
        """
        while self._sources:
            mark = len(self._events)
            try:
                self._events.extend(self._sources[0]())
            except BaseException:
                del self._events[mark:]
                raise
            del self._sources[0]

    # ---- recording ----------------------------------------------------
    def record(self, name: str, category: str, start_ms: float,
               end_ms: float, track: str = "main",
               args: Optional[Dict] = None) -> None:
        """Record a complete span with explicit (e.g. simulated) times."""
        if end_ms < start_ms:
            start_ms, end_ms = end_ms, start_ms
        self._events.append((name, category, start_ms, end_ms, track, args))

    def extend(self, events) -> None:
        """Bulk-record pre-built event tuples
        ``(name, category, start_ms, end_ms, track, args)``.

        The fastest emission path for hot loops: build one list
        comprehension per batch and hand it over whole.  Unlike
        :meth:`record`, no per-event normalization happens — callers
        must supply ``start_ms <= end_ms``.  ``args`` may be a dict, or
        a bare scalar (exported as ``{"id": value}``) when building a
        per-event dict would cost more than the event itself — the
        serving engine tags request spans with just the request id this
        way.
        """
        self._events.extend(events)

    def add_source(self, source) -> None:
        """Register a zero-argument callable returning event tuples
        (the :meth:`extend` shape), evaluated lazily on first export.

        This is how a producer that already keeps a complete record of
        what happened (the serving engine's telemetry) traces at *no*
        hot-loop cost at all: it hands over one closure per run and the
        spans are synthesized when somebody actually looks at them.
        The closure must be stable — it is called once, at an arbitrary
        later point, and its result is appended to the span list.
        """
        self._sources.append(source)

    def now_ms(self) -> float:
        """Wall-clock ms since tracer creation (the span() timebase)."""
        return (time.perf_counter() - self._t0) * 1000.0

    @contextmanager
    def span(self, name: str, category: str = "default",
             track: str = "main", args: Optional[Dict] = None):
        """Wall-clock span context manager (search-side instrumentation)."""
        start = self.now_ms()
        try:
            yield self
        finally:
            self.record(name, category, start, self.now_ms(),
                        track=track, args=args)

    # ---- export -------------------------------------------------------
    def _ordered_chunks(self) -> Iterator[tuple]:
        """The span columns ``(names, categories, starts, ends, tracks,
        args)`` of each export chunk, in export order."""
        self._flush_sources()
        events = sorted(self._events, key=_EXPORT_ORDER)
        for i in range(0, len(events), _CHUNK_SPANS):
            yield tuple(zip(*events[i:i + _CHUNK_SPANS]))

    def _chrome_chunks(self) -> Iterator[str]:
        """The Chrome trace text, chunk by chunk."""
        self._flush_sources()
        tracks = sorted({event[4] for event in self._events})
        tids = {track: str(i) for i, track in enumerate(tracks)}
        yield '{"traceEvents": [' + ", ".join(
            [_CHROME_META % (i, text)
             for i, text in enumerate(_encoded(tracks))])
        sep = ", " if tracks else ""
        for names, categories, starts, ends, track, args in \
                self._ordered_chunks():
            start_ns, start_on = _ns_grid(starts)
            end_ns, end_on = _ns_grid(ends)
            ts = _on_grid(start_ns / _NS_PER_US, start_on,
                          lambda i: starts[i] * 1000.0)
            dur = _on_grid((end_ns - start_ns) / _NS_PER_US,
                           start_on & end_on,
                           lambda i: (ends[i] - starts[i]) * 1000.0)
            yield sep + _rows_text(
                _CHROME_HEAD,
                (_encoded(names), _encoded(categories), _encoded(ts),
                 _encoded(dur), list(map(tids.__getitem__, track))),
                args, ", ")
            sep = ", "
        yield '], "displayTimeUnit": "ms"}\n'

    def to_chrome_trace(self) -> Dict:
        """Chrome trace-event JSON (object format, ``X`` complete events).

        Tracks map to thread ids (one ``M``/``thread_name`` metadata event
        each); timestamps are microseconds as the format requires, on a
        1 ns grid: a finite float time below 2**53 ns is written as whole
        nanoseconds over ``1e3``, and ``dur`` as the difference of the
        two, while ints, bools, NaN, ±inf and larger times are written
        as ms times 1000 (see the module docstring).  Events are sorted
        by start time so per-track ``ts`` is monotone.  The object is the
        parse of the text :meth:`write_chrome_trace` writes, so ``args``
        keys are strings and tuples are lists; :attr:`spans` keeps the
        recorded times at full precision.
        """
        return json.loads("".join(self._chrome_chunks()))

    @gc_paused()
    def write_chrome_trace(self, path: Union[str, Path]) -> Path:
        return _write_streamed(path, self._chrome_chunks())

    def _jsonl_chunks(self) -> Iterator[str]:
        for names, categories, starts, ends, tracks, args in \
                self._ordered_chunks():
            start_ns, start_on = _ns_grid(starts)
            end_ns, end_on = _ns_grid(ends)
            start_ms = _on_grid(start_ns / _NS_PER_MS, start_on,
                                starts.__getitem__)
            end_ms = _on_grid(end_ns / _NS_PER_MS, end_on, ends.__getitem__)
            dur_ms = _on_grid((end_ns - start_ns) / _NS_PER_MS,
                              start_on & end_on,
                              lambda i: ends[i] - starts[i])
            yield _rows_text(
                _JSONL_HEAD,
                tuple(map(_encoded, (names, categories, tracks, start_ms,
                                     end_ms, dur_ms))),
                args, "\n") + "\n"

    @gc_paused()
    def write_jsonl(self, path: Union[str, Path]) -> Path:
        """One span per line, start-time ordered."""
        return _write_streamed(path, self._jsonl_chunks())


def _write_streamed(path: Union[str, Path], chunks: Iterator[str]) -> Path:
    """Write ``chunks`` to ``path`` as they are encoded; an export that
    fails part-way leaves no file behind."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as out:
        try:
            out.writelines(chunks)
            out.flush()
        except BaseException:
            out.close()
            path.unlink(missing_ok=True)
            raise
    return path


class NullTracer(Tracer):
    """The zero-cost default: records nothing, exports empty."""

    enabled = False

    def record(self, name: str, category: str, start_ms: float,
               end_ms: float, track: str = "main",
               args: Optional[Dict] = None) -> None:
        return None

    def extend(self, events) -> None:
        return None

    def add_source(self, source) -> None:
        return None

    @contextmanager
    def span(self, name: str, category: str = "default",
             track: str = "main", args: Optional[Dict] = None):
        yield self
