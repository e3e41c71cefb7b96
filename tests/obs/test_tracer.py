"""Tests for the span tracer and its Chrome/JSONL exports."""

import json
import math
import random

import numpy as np
import pytest

import repro.obs.tracer as tracer_module
from repro.obs.tracer import NullTracer, Span, Tracer


def ns_grid(ms):
    """The 1 ns rule for one time: the whole nanoseconds of a finite
    float whose ns value is below 2**53, else None (the time is written
    as recorded)."""
    if not isinstance(ms, float) or not math.isfinite(float(ms) * 1e6):
        return None
    ns = round(float(ms) * 1e6)
    return ns if abs(ns) < 2 ** 53 else None


def on_ns_grid(row: dict) -> dict:
    """A span's JSONL row (``Span.as_dict()``) with the 1 ns rule
    applied to its times: the row the export writes."""
    start, end = ns_grid(row["start_ms"]), ns_grid(row["end_ms"])
    row = dict(row)
    if start is not None:
        row["start_ms"] = start / 1e6
    if end is not None:
        row["end_ms"] = end / 1e6
    if start is not None and end is not None:
        row["dur_ms"] = (end - start) / 1e6
    return row


def chrome_times(span) -> tuple:
    """A span's Chrome ``(ts, dur)`` in µs under the 1 ns rule."""
    start, end = ns_grid(span.start_ms), ns_grid(span.end_ms)
    ts = span.start_ms * 1000.0 if start is None else start / 1e3
    dur = (span.duration_ms * 1000.0 if start is None or end is None
           else (end - start) / 1e3)
    return ts, dur


def reference_chrome_trace(tracer):
    """Chrome export built the straightforward way: materialized
    :class:`Span` objects sorted by a lambda key, times put on the 1 ns
    grid one by one with Python integers."""
    spans = tracer.spans
    tracks = sorted({span.track for span in spans})
    tids = {track: i for i, track in enumerate(tracks)}
    events = [{"name": "thread_name", "ph": "M", "pid": 0, "tid": tids[t],
               "args": {"name": t}} for t in tracks]
    for span in sorted(spans, key=lambda s: (s.start_ms, s.end_ms, s.name)):
        ts, dur = chrome_times(span)
        event = {"name": span.name, "cat": span.category, "ph": "X",
                 "ts": ts, "dur": dur, "pid": 0, "tid": tids[span.track]}
        if span.args:
            event["args"] = span.args
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def reference_jsonl(tracer) -> bytes:
    """Span JSONL built line by line from sorted :class:`Span` objects."""
    lines = []
    for span in sorted(tracer.spans,
                       key=lambda s: (s.start_ms, s.end_ms, s.name)):
        row = {"name": span.name, "cat": span.category, "track": span.track,
               "start_ms": span.start_ms, "end_ms": span.end_ms,
               "dur_ms": span.duration_ms}
        if span.args:
            row["args"] = span.args
        lines.append(json.dumps(on_ns_grid(row)) + "\n")
    return "".join(lines).encode("utf-8")


def _circular() -> dict:
    loop = {"k": 1}
    loop["self"] = loop
    return loop


# Values whose JSON text needs care: non-finite and signed-zero floats,
# an int past 2**53, a bool, a numpy float; strings holding the column
# separators ", " and "}, {", quotes, backslashes, newlines, non-ASCII.
_TIMES = [0, 1, 2, 1.0, 2.0, 0.1, 0.7, 2.3, float("nan"), float("inf"),
          float("-inf"), -0.0, 2 ** 70, True, np.float64(0.7)]
_NAMES = ["a", "b", "a", "b", "x, y", "}, {", 'say "hi"', "back\\slash",
          "new\nline", "na\u00efve \u2713", "\U0001f600"]
_TRACKS = ["main", "requests", "replica0", "t, u", "}, {", 'tr"ack',
           "C:\\t", "l\nf", "\u00fc"]
_ARGS = [None, {}, 0, 7, "r1", "r, 2", "}, {", True, False, 2.5,
         float("nan"),
         {"batch_size": 2}, {"chips": (0, 1), "replica": 0},
         {"nested": {"a": [1, {"b": 2}], "c": {"d": None}}},
         {1: "int key", 2.5: "float key", None: "none key",
          False: "bool key"},
         {"v": "}, {"}, {"list": [{"x": 1}, {"y": 2}]}]
# ``args`` JSON cannot encode: TypeError, TypeError, ValueError.
_BAD_ARGS = [lambda: {(1, 2): "tuple key"}, lambda: {1, 2}, _circular]


def random_event(rng: random.Random, bad_rate: float = 0.02) -> tuple:
    start, end = sorted((rng.choice(_TIMES), rng.choice(_TIMES)),
                        key=float)
    args = (rng.choice(_BAD_ARGS)() if rng.random() < bad_rate
            else rng.choice(_ARGS))
    return (rng.choice(_NAMES), rng.choice(["c1", "c2", "c, 3"]), start,
            end, rng.choice(_TRACKS), args)


def random_tracer(rng: random.Random) -> Tracer:
    """Few distinct times, names and tracks, so many spans tie on
    ``(start, end, name)`` and only a stable sort keeps their order."""
    tracer = Tracer()
    for _ in range(rng.randint(0, 6)):
        kind = rng.choice(["record", "extend", "source"])
        if kind == "record":
            # record() accepts reversed intervals and swaps them
            name, cat, start, end, track, args = random_event(rng)
            if rng.random() < 0.5:
                start, end = end, start
            tracer.record(name, cat, start, end, track=track, args=args)
        elif kind == "extend":
            tracer.extend([random_event(rng)
                           for _ in range(rng.randint(0, 8))])
        else:
            batch = [random_event(rng) for _ in range(rng.randint(0, 8))]
            tracer.add_source(lambda batch=batch: batch)
    return tracer


def outcome(fn, *args):
    """``fn(*args)``, or the type of the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc)


def written(write, path) -> bytes:
    return write(path).read_bytes()


def chrome_text(payload_of, tracer) -> bytes:
    return (json.dumps(payload_of(tracer)) + "\n").encode()


class TestRecording:
    def test_record_materializes_spans(self):
        t = Tracer()
        t.record("req", "serve", 1.0, 4.0, track="requests",
                 args={"id": 7})
        (span,) = t.spans
        assert span.name == "req"
        assert span.duration_ms == pytest.approx(3.0)
        assert span.args == {"id": 7}

    def test_record_swaps_reversed_interval(self):
        t = Tracer()
        t.record("x", "c", 5.0, 2.0)
        (span,) = t.spans
        assert (span.start_ms, span.end_ms) == (2.0, 5.0)

    def test_extend_scalar_args_become_id_dict(self):
        t = Tracer()
        t.extend([("request", "serve.request", 0.0, 2.0, "requests", 42),
                  ("request", "serve.request", 1.0, 3.0, "requests", None)])
        spans = t.spans
        assert spans[0].args == {"id": 42}
        assert spans[1].args is None
        assert len(t) == 2

    def test_span_context_manager_uses_wall_clock(self):
        t = Tracer()
        with t.span("work", category="test", args={"k": 1}):
            pass
        (span,) = t.spans
        assert span.category == "test"
        assert span.end_ms >= span.start_ms >= 0.0

    def test_add_source_is_lazy(self):
        t = Tracer()
        calls = []

        def source():
            calls.append(1)
            return [("late", "lazy", 0.0, 1.0, "main", None)]

        t.add_source(source)
        assert calls == []            # nothing materialized yet
        assert len(t) == 1            # flushing counts it
        assert calls == [1]
        assert t.spans[0].name == "late"
        assert calls == [1]           # evaluated exactly once

    def test_a_source_that_raises_stays_queued(self, tmp_path):
        t = Tracer()
        t.record("early", "c", 0.0, 1.0)
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("telemetry not ready")
            return [("late", "lazy", 1.0, 2.0, "main", None)]

        t.add_source(flaky)
        path = tmp_path / "s.jsonl"
        with pytest.raises(RuntimeError, match="not ready"):
            t.write_jsonl(path)
        assert not path.exists()
        lines = t.write_jsonl(path).read_text().splitlines()
        assert [json.loads(line)["name"] for line in lines] \
            == ["early", "late"]
        assert calls == [1, 1] and len(t) == 2

    def test_a_source_that_raises_midway_adds_nothing(self):
        t = Tracer()

        def partial():
            yield ("a", "c", 0.0, 1.0, "main", None)
            raise RuntimeError("cut")

        t.add_source(partial)
        t.add_source(lambda: [("b", "c", 0.0, 1.0, "main", None)])
        with pytest.raises(RuntimeError, match="cut"):
            len(t)
        assert t._events == [] and len(t._sources) == 2


class TestNullTracer:
    def test_everything_is_a_noop(self):
        t = NullTracer()
        assert t.enabled is False
        t.record("x", "c", 0.0, 1.0)
        t.extend([("x", "c", 0.0, 1.0, "main", None)])
        t.add_source(lambda: [("x", "c", 0.0, 1.0, "main", None)])
        with t.span("y"):
            pass
        assert len(t) == 0
        assert t.spans == []

    def test_real_tracer_is_enabled(self):
        assert Tracer().enabled is True


class TestChromeExport:
    @pytest.fixture
    def tracer(self):
        t = Tracer()
        t.record("b", "cat", 2.0, 5.0, track="replica0",
                 args={"batch_size": 2})
        t.record("a", "cat", 0.0, 4.0, track="requests")
        return t

    def test_trace_structure(self, tracer):
        payload = tracer.to_chrome_trace()
        events = payload["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        timed = [e for e in events if e["ph"] == "X"]
        assert {e["args"]["name"] for e in meta} == {"replica0", "requests"}
        assert len(timed) == 2
        # sorted by start, ms -> us
        assert timed[0]["name"] == "a"
        assert timed[0]["ts"] == pytest.approx(0.0)
        assert timed[1]["ts"] == pytest.approx(2000.0)
        assert timed[1]["dur"] == pytest.approx(3000.0)
        assert timed[1]["args"] == {"batch_size": 2}

    def test_tracks_map_to_distinct_tids(self, tracer):
        events = tracer.to_chrome_trace()["traceEvents"]
        timed = [e for e in events if e["ph"] == "X"]
        assert timed[0]["tid"] != timed[1]["tid"]

    def test_write_chrome_trace_round_trips(self, tracer, tmp_path):
        path = tracer.write_chrome_trace(tmp_path / "t.json")
        payload = json.loads(path.read_text())
        assert payload["displayTimeUnit"] == "ms"
        assert len(payload["traceEvents"]) == 4


class TestJsonlExport:
    def test_write_jsonl_ordered_spans(self, tmp_path):
        t = Tracer()
        t.record("later", "c", 10.0, 11.0)
        t.record("first", "c", 0.0, 1.0)
        path = t.write_jsonl(tmp_path / "spans.jsonl")
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        assert [d["name"] for d in lines] == ["first", "later"]
        assert lines[0]["dur_ms"] == pytest.approx(1.0)


class TestExportsMatchReference:
    """Property test: both exports equal, byte for byte, what the
    materialize-then-sort reference above builds — or raise the same
    exception type and leave no file behind."""

    N_CASES = 200

    def test_random_span_sets(self, tmp_path):
        self.check_random_span_sets(tmp_path)

    @pytest.mark.parametrize("chunk_spans", [1, 3])
    def test_random_span_sets_across_chunks(self, tmp_path, monkeypatch,
                                            chunk_spans):
        monkeypatch.setattr(tracer_module, "_CHUNK_SPANS", chunk_spans)
        self.check_random_span_sets(tmp_path)

    def check_random_span_sets(self, tmp_path):
        raised = 0
        for seed in range(self.N_CASES):
            # a fresh tracer per export, so each export flushes the lazy
            # sources itself
            tracers = [random_tracer(random.Random(seed)) for _ in range(4)]
            chrome_path = tmp_path / f"{seed}.json"
            jsonl_path = tmp_path / f"{seed}.jsonl"
            chrome = outcome(written, tracers[0].write_chrome_trace,
                             chrome_path)
            jsonl = outcome(written, tracers[1].write_jsonl, jsonl_path)
            parsed = outcome(chrome_text, Tracer.to_chrome_trace, tracers[2])
            reference = tracers[3]
            assert chrome == outcome(chrome_text, reference_chrome_trace,
                                     reference), \
                f"case {seed}: Chrome trace differs from the reference"
            assert jsonl == outcome(reference_jsonl, reference), \
                f"case {seed}: span JSONL differs from the reference"
            assert parsed == chrome, \
                f"case {seed}: to_chrome_trace() is not the written text"
            if isinstance(chrome, type):
                raised += 1
                assert not chrome_path.exists()
                assert not jsonl_path.exists()
        assert 0 < raised < self.N_CASES // 2   # both paths exercised

    def test_more_spans_than_one_chunk(self, tmp_path):
        rng = random.Random(5)
        events = [random_event(rng, bad_rate=0.0)
                  for _ in range(2 * tracer_module._CHUNK_SPANS + 5)]
        tracers = [Tracer() for _ in range(2)]
        for tracer in tracers:
            tracer.extend(events)
        chrome = tracers[0].write_chrome_trace(tmp_path / "t.json")
        assert chrome.read_bytes() == (json.dumps(
            reference_chrome_trace(tracers[1])) + "\n").encode()
        jsonl = tracers[0].write_jsonl(tmp_path / "s.jsonl")
        assert jsonl.read_bytes() == reference_jsonl(tracers[1])

    def test_separator_inside_an_item(self, tmp_path):
        t = Tracer()
        t.record("a, b", "c", 0.0, 1.0, track="}, {",
                 args={"v": [{"x": 1}, {"y": 2}]})
        t.record("c", "d", 1.0, 2.0, args="id, 2")
        line = t.write_jsonl(tmp_path / "s.jsonl").read_text()
        assert line == reference_jsonl(t).decode()
        assert json.loads(line.splitlines()[0])["name"] == "a, b"

    def test_equal_names_of_other_types_keep_their_own_texts(self,
                                                            tmp_path):
        """``1``, ``1.0`` and ``True`` are equal, and so are ``0.0`` and
        ``-0.0``; each is still written as itself."""
        events = [(value, value, 0.5, 1.5, "main", None)
                  for value in (1, 1.0, True, 0.0, -0.0)]
        events.append(("1", "1", 2.5, 3.5, "1", None))
        t = Tracer()
        t.extend(events)
        chrome = t.write_chrome_trace(tmp_path / "t.json").read_bytes()
        assert chrome == (json.dumps(reference_chrome_trace(t)) + "\n"
                          ).encode()
        # JSONL does not sort the tracks, so they need not compare
        t.record("x", "c", 2.5, 3.5, track=1.0)
        jsonl = t.write_jsonl(tmp_path / "s.jsonl").read_bytes()
        assert jsonl == reference_jsonl(t)
        assert [line.split(b", ")[0] for line in jsonl.splitlines()] == [
            b'{"name": 0.0', b'{"name": -0.0', b'{"name": 1',
            b'{"name": 1.0', b'{"name": true', b'{"name": "1"',
            b'{"name": "x"']
        assert b'"track": 1.0' in jsonl

    def test_failed_export_removes_its_partial_file(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.setattr(tracer_module, "_CHUNK_SPANS", 2)
        t = Tracer()
        t.extend([("a", "c", float(i), float(i), "main", {"i": i})
                  for i in range(6)])
        t.record("z", "c", 9.0, 9.0, args={(1, 2): "tuple key"})
        for write, name in ((t.write_chrome_trace, "t.json"),
                            (t.write_jsonl, "s.jsonl")):
            path = tmp_path / name
            path.write_text("older export")
            with pytest.raises(TypeError):
                write(path)
            assert not path.exists()

    def test_first_bad_args_in_export_order_decides(self, tmp_path):
        """A scalar id and a dict that JSON cannot encode raise what the
        one encoded first in export order raises."""
        for later, expected in ((1.0, ValueError), (-1.0, TypeError)):
            t = Tracer()
            t.record("a", "c", 0.0, 0.0, args=_circular())
            t.record("b", "c", later, later, args={1, 2})
            with pytest.raises(expected):
                t.write_jsonl(tmp_path / "s.jsonl")
            with pytest.raises(expected):
                t.to_chrome_trace()

    def test_ties_keep_recording_order(self, tmp_path):
        t = Tracer()
        t.extend([("a", "first", 1.0, 2.0, "main", None),
                  ("a", "second", 1, 2, "main", 0)])
        t.add_source(lambda: [("a", "fourth", 1.0, 2.0, "x", {})])
        t.record("a", "third", 2.0, 1.0)    # recorded before the flush
        order = ["first", "second", "third", "fourth"]
        timed = [e for e in t.to_chrome_trace()["traceEvents"]
                 if e["ph"] == "X"]
        assert [e["cat"] for e in timed] == order
        lines = t.write_jsonl(tmp_path / "s.jsonl").read_text().splitlines()
        assert [json.loads(line)["cat"] for line in lines] == order
        assert json.loads(lines[1])["args"] == {"id": 0}
        assert "args" not in json.loads(lines[3])


class TestNsGrid:
    """The 1 ns rule on its edges, and on all-float columns (the case
    every serve and search export is)."""

    EDGE_MS = 9007199254.74099      # rint(ms * 1e6) == 2**53 - 2
    PAST_EDGE_MS = 9007199254.740992    # rint(ms * 1e6) == 2**53
    DAY_MS = 86_400_000.0

    def export(self, tracer, tmp_path):
        chrome = json.loads(
            tracer.write_chrome_trace(tmp_path / "t.json").read_text())
        lines = tracer.write_jsonl(tmp_path / "s.jsonl").read_text()
        timed = [e for e in chrome["traceEvents"] if e["ph"] == "X"]
        return timed, [json.loads(line) for line in lines.splitlines()]

    def test_the_edge_values_are_what_the_tests_assume(self):
        assert ns_grid(self.EDGE_MS) == 2 ** 53 - 2
        assert ns_grid(self.PAST_EDGE_MS) is None
        assert round(self.PAST_EDGE_MS * 1e6) == 2 ** 53

    def test_a_time_at_the_2_53_ns_edge(self, tmp_path):
        t = Tracer()
        t.record("edge", "c", self.EDGE_MS, self.EDGE_MS)
        t.record("past", "c", self.EDGE_MS, self.PAST_EDGE_MS)
        (edge, past), (edge_row, past_row) = self.export(t, tmp_path)
        assert edge["ts"] == (2 ** 53 - 2) / 1e3 and edge["dur"] == 0.0
        assert edge_row["start_ms"] == edge_row["end_ms"] \
            == (2 ** 53 - 2) / 1e6
        assert edge_row["dur_ms"] == 0.0
        # the end is past the edge: written as recorded, and so is the
        # duration, while the start keeps the grid
        assert past["ts"] == (2 ** 53 - 2) / 1e3
        assert past["dur"] == (self.PAST_EDGE_MS - self.EDGE_MS) * 1000.0
        assert past_row["start_ms"] == (2 ** 53 - 2) / 1e6
        assert past_row["end_ms"] == self.PAST_EDGE_MS
        assert past_row["dur_ms"] == self.PAST_EDGE_MS - self.EDGE_MS
        assert t.spans[1].end_ms == self.PAST_EDGE_MS

    def test_a_day_long_time_prints_in_14_digits(self, tmp_path):
        start, end = self.DAY_MS + 0.123456789, self.DAY_MS + 0.987654321
        t = Tracer()
        t.record("day", "c", start, end)
        chrome = t.write_chrome_trace(tmp_path / "t.json").read_text()
        jsonl = t.write_jsonl(tmp_path / "s.jsonl").read_text()
        assert '"ts": 86400000123.457, "dur": 864.197,' in chrome
        assert ('"start_ms": 86400000.123457, "end_ms": 86400000.987654, '
                '"dur_ms": 0.864197}') in jsonl
        assert (t.spans[0].start_ms, t.spans[0].end_ms) == (start, end)

    def test_float_columns_match_the_reference(self, tmp_path):
        """All-float spans, noise and edges, NaN and inf included; odd
        seeds mix in NumPy floats."""
        edges = [self.EDGE_MS, self.PAST_EDGE_MS, -self.PAST_EDGE_MS,
                 self.DAY_MS + 0.123456789, float("nan"), float("inf"),
                 float("-inf"), -0.0, 0.0, -1e-7, 4e-7, 5e-7, 1.5e-6,
                 2.5e-6, 1e300, -1e300, 0.1 + 0.2]
        for seed in range(40):
            rng = random.Random(seed)
            numpy_rate = 0.1 if seed % 2 else 0.0

            def time():
                if rng.random() < 0.2:
                    return rng.choice(edges)
                value = rng.uniform(0.0, 10.0 ** rng.randint(-3, 9))
                return (np.float64(value) if rng.random() < numpy_rate
                        else value)

            events = []
            for _ in range(rng.randint(1, 40)):
                start, end = sorted((time(), time()), key=float)
                events.append((rng.choice(["request", "batch"]),
                               rng.choice(["serve.request", "serve.batch"]),
                               start, end, rng.choice(["requests", "r0"]),
                               rng.choice([None, 3, {"k": 1}])))
            tracers = [Tracer() for _ in range(2)]
            for tracer in tracers:
                tracer.extend(events)
            chrome = tracers[0].write_chrome_trace(tmp_path / "t.json")
            assert chrome.read_bytes() == (json.dumps(
                reference_chrome_trace(tracers[1])) + "\n").encode(), seed
            jsonl = tracers[0].write_jsonl(tmp_path / "s.jsonl")
            assert jsonl.read_bytes() == reference_jsonl(tracers[1]), seed
            assert [span.start_ms for span in tracers[0].spans] \
                == [event[2] for event in events]

    def test_the_two_files_agree_to_the_nanosecond(self, tmp_path):
        rng = random.Random(11)
        t = Tracer()
        for _ in range(500):
            start = rng.uniform(0.0, 1e8)
            t.record("s", "c", start, start + rng.expovariate(1.0),
                     track=rng.choice(["a", "b"]))
        timed, rows = self.export(t, tmp_path)
        assert len(timed) == len(rows) == 500
        for event, row in zip(timed, rows):
            assert round(event["ts"] * 1e3) == round(row["start_ms"] * 1e6)
            assert round(event["dur"] * 1e3) == round(row["dur_ms"] * 1e6) \
                == round(row["end_ms"] * 1e6) - round(row["start_ms"] * 1e6)


class TestSpan:
    def test_as_dict_omits_empty_args(self):
        span = Span("n", "c", 0.0, 2.0)
        d = span.as_dict()
        assert "args" not in d
        assert d["dur_ms"] == pytest.approx(2.0)

    def test_as_dict_is_the_jsonl_line(self, tmp_path):
        """A JSONL line is ``as_dict()`` with its times on the 1 ns
        grid; the span itself keeps full precision."""
        t = Tracer()
        t.record("n", "c", 1, 4.5, track="x", args={"k": 1})
        t.record("m", "c", 0.1 + 0.2, 4.5)
        lines = t.write_jsonl(tmp_path / "s.jsonl").read_text().splitlines()
        assert lines == [json.dumps(on_ns_grid(span.as_dict()))
                         for span in reversed(t.spans)]
        assert lines[0].startswith(
            '{"name": "m", "cat": "c", "track": "main", "start_ms": 0.3, '
            '"end_ms": 4.5, "dur_ms": 4.2}')
        assert lines[1].startswith('{"name": "n", "cat": "c", "track": "x", '
                                   '"start_ms": 1, "end_ms": 4.5, '
                                   '"dur_ms": 3.5, ')
        assert t.spans[1].as_dict()["start_ms"] == 0.1 + 0.2
