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

- :meth:`Tracer.to_chrome_trace` — the Chrome trace-event JSON object
  format (complete ``"X"`` events plus ``"M"`` thread-name metadata),
  loadable in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``;
- :meth:`Tracer.write_jsonl` — one span object per line, for ``jq`` and
  log pipelines.

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
from operator import itemgetter
from pathlib import Path
from typing import Dict, List, Optional, Union

__all__ = ["Span", "Tracer", "NullTracer"]

# Export order: start, then end, then name; the sort is stable, so spans
# tied on all three keep their recording order.
_EXPORT_ORDER = itemgetter(2, 3, 0)


def _normalized(events) -> List[tuple]:
    """Event tuples with a scalar ``args`` turned into ``{"id": value}``."""
    return [(name, category, start_ms, end_ms, track,
             args if args is None or isinstance(args, dict)
             else {"id": args})
            for name, category, start_ms, end_ms, track, args in events]


def _row_dict(name: str, category: str, start_ms: float, end_ms: float,
              track: str, args: Optional[Dict]) -> Dict:
    """One span as a JSONL line object (:meth:`Span.as_dict` too)."""
    out = {
        "name": name,
        "cat": category,
        "track": track,
        "start_ms": start_ms,
        "end_ms": end_ms,
        "dur_ms": end_ms - start_ms,
    }
    if args:
        out["args"] = args
    return out


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
        return _row_dict(self.name, self.category, self.start_ms,
                         self.end_ms, self.track, self.args)


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
        return [Span(*row) for row in _normalized(self._events)]

    def _flush_sources(self) -> None:
        """Materialize every pending lazy source into the event list."""
        while self._sources:
            source = self._sources.pop(0)
            self._events.extend(source())

    def _ordered_rows(self) -> List[tuple]:
        """Every span as a normalized event tuple, in export order (both
        exports build their output from these)."""
        self._flush_sources()
        return _normalized(sorted(self._events, key=_EXPORT_ORDER))

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
    def to_chrome_trace(self) -> Dict:
        """Chrome trace-event JSON (object format, ``X`` complete events).

        Tracks map to thread ids (one ``M``/``thread_name`` metadata event
        each); timestamps are microseconds as the format requires.  Events
        are sorted by start time so per-track ``ts`` is monotone.
        """
        rows = self._ordered_rows()
        tracks = sorted({row[4] for row in rows})
        tids = {track: i for i, track in enumerate(tracks)}
        events: List[Dict] = [
            {"name": "thread_name", "ph": "M", "pid": 0, "tid": tids[t],
             "args": {"name": t}} for t in tracks]
        for name, category, start_ms, end_ms, track, args in rows:
            event = {
                "name": name,
                "cat": category,
                "ph": "X",
                "ts": start_ms * 1000.0,
                "dur": (end_ms - start_ms) * 1000.0,
                "pid": 0,
                "tid": tids[track],
            }
            if args:
                event["args"] = args
            events.append(event)
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_chrome_trace()) + "\n")
        return path

    def write_jsonl(self, path: Union[str, Path]) -> Path:
        """One span per line, start-time ordered."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("".join([json.dumps(_row_dict(*row)) + "\n"
                                 for row in self._ordered_rows()]),
                        encoding="utf-8")
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
