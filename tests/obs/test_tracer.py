"""Tests for the span tracer and its Chrome/JSONL exports."""

import json
import random

import pytest

from repro.obs.tracer import NullTracer, Span, Tracer


def reference_chrome_trace(tracer):
    """Chrome export built the straightforward way: materialized
    :class:`Span` objects sorted by a lambda key."""
    spans = tracer.spans
    tracks = sorted({span.track for span in spans})
    tids = {track: i for i, track in enumerate(tracks)}
    events = [{"name": "thread_name", "ph": "M", "pid": 0, "tid": tids[t],
               "args": {"name": t}} for t in tracks]
    for span in sorted(spans, key=lambda s: (s.start_ms, s.end_ms, s.name)):
        event = {"name": span.name, "cat": span.category, "ph": "X",
                 "ts": span.start_ms * 1000.0,
                 "dur": span.duration_ms * 1000.0,
                 "pid": 0, "tid": tids[span.track]}
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
        lines.append(json.dumps(row) + "\n")
    return "".join(lines).encode("utf-8")


def random_tracer(rng: random.Random) -> Tracer:
    """Few distinct times, names and tracks, so many spans tie on
    ``(start, end, name)`` and only a stable sort keeps their order."""
    def time_value():
        return rng.choice([0, 1, 2, 1.0, 2.0, 0.1, 0.7, 2.3])

    def args_value():
        return rng.choice([None, {}, 0, 7, "r1",
                           {"batch_size": rng.randint(1, 4)},
                           {"chips": (0, 1), "replica": 0}])

    def event():
        start, end = sorted((time_value(), time_value()))
        return (rng.choice("ab"), rng.choice(["c1", "c2"]), start, end,
                rng.choice(["main", "requests", "replica0"]), args_value())

    tracer = Tracer()
    for _ in range(rng.randint(0, 6)):
        kind = rng.choice(["record", "extend", "source"])
        if kind == "record":
            # record() accepts reversed intervals and swaps them
            name, cat, start, end, track, args = event()
            if rng.random() < 0.5:
                start, end = end, start
            tracer.record(name, cat, start, end, track=track, args=args)
        elif kind == "extend":
            tracer.extend([event() for _ in range(rng.randint(0, 8))])
        else:
            batch = [event() for _ in range(rng.randint(0, 8))]
            tracer.add_source(lambda batch=batch: batch)
    return tracer


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
    materialize-then-sort reference above builds."""

    N_CASES = 200

    def test_random_span_sets(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        for seed in range(self.N_CASES):
            # a fresh tracer per export, so each export flushes the lazy
            # sources itself
            tracers = [random_tracer(random.Random(seed)) for _ in range(3)]
            chrome = json.dumps(tracers[0].to_chrome_trace())
            jsonl = tracers[1].write_jsonl(path).read_bytes()
            reference = tracers[2]
            assert chrome == json.dumps(reference_chrome_trace(reference)), \
                f"case {seed}: Chrome trace differs from the reference"
            assert jsonl == reference_jsonl(reference), \
                f"case {seed}: span JSONL differs from the reference"

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


class TestSpan:
    def test_as_dict_omits_empty_args(self):
        span = Span("n", "c", 0.0, 2.0)
        d = span.as_dict()
        assert "args" not in d
        assert d["dur_ms"] == pytest.approx(2.0)

    def test_as_dict_is_the_jsonl_line(self, tmp_path):
        t = Tracer()
        t.record("n", "c", 1, 4.5, track="x", args={"k": 1})
        line = t.write_jsonl(tmp_path / "s.jsonl").read_text()
        assert line == json.dumps(t.spans[0].as_dict()) + "\n"
