"""Tests for the artifact validators behind ``repro obs validate``."""

import json

import pytest

from repro.obs.export import prometheus_text
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.obs.validate import (
    sniff_format,
    validate_chrome_trace,
    validate_file,
    validate_jsonl,
    validate_prometheus,
)


def _trace_payload():
    t = Tracer()
    t.record("a", "c", 0.0, 1.0, track="x")
    t.record("b", "c", 1.0, 2.0, track="x")
    return t.to_chrome_trace()


class TestChromeTrace:
    def test_valid_tracer_output(self):
        assert validate_chrome_trace(_trace_payload()) == []

    def test_bare_event_list_accepted(self):
        assert validate_chrome_trace(
            _trace_payload()["traceEvents"]) == []

    def test_missing_trace_events_key(self):
        assert validate_chrome_trace({"foo": []}) \
            == ["top-level object has no 'traceEvents' list"]

    def test_negative_duration_flagged(self):
        problems = validate_chrome_trace(
            [{"name": "x", "ph": "X", "ts": 0.0, "dur": -1.0}])
        assert any("non-negative 'dur'" in p for p in problems)

    def test_backwards_ts_on_one_track_flagged(self):
        problems = validate_chrome_trace([
            {"name": "a", "ph": "X", "ts": 5.0, "dur": 1.0, "tid": 0},
            {"name": "b", "ph": "X", "ts": 1.0, "dur": 1.0, "tid": 0}])
        assert any("goes backwards" in p for p in problems)

    def test_unclosed_b_event_flagged(self):
        problems = validate_chrome_trace(
            [{"name": "open", "ph": "B", "ts": 0.0}])
        assert any("unclosed B" in p for p in problems)

    def test_empty_trace_flagged(self):
        assert validate_chrome_trace([]) == ["trace has no timed events"]

    def test_ts_too_large_for_a_float_reported(self):
        problems = validate_chrome_trace(
            [{"name": "x", "ph": "X", "ts": 10**400, "dur": 1}])
        assert len(problems) == 1
        assert problems[0].startswith(
            "event[0]: 'ts' must be a non-negative number, got 1000")

    def test_dur_too_large_for_a_float_reported(self):
        problems = validate_chrome_trace(
            [{"name": "x", "ph": "X", "ts": 0, "dur": 10**400}])
        assert len(problems) == 1
        assert problems[0].startswith(
            "event[0]: X event needs a non-negative 'dur', got 1000")

    def test_problem_strings_unchanged(self):
        """The exact wording other tools grep for."""
        problems = validate_chrome_trace([
            "oops",
            {"name": "a"},
            {"name": "a", "ph": "Q"},
            {"ph": "M"},
            {"name": "a", "ph": "X", "ts": float("nan"), "dur": 1.0},
            {"name": "a", "ph": "X", "ts": True, "dur": 1.0},
            {"name": "a", "ph": "X", "ts": 5, "dur": -1.0},
            {"name": "a", "ph": "X", "ts": 2.0, "dur": float("nan")},
            {"name": "a", "ph": "E", "ts": 3.0, "tid": 1},
            {"name": "a", "ph": "B", "ts": 4.0, "tid": 1},
        ])
        assert problems == [
            "event[0]: not an object",
            "event[1]: missing 'ph' phase",
            "event[2]: unsupported phase 'Q'",
            "event[3]: missing 'name'",
            "event[4]: 'ts' must be a non-negative number, got nan",
            "event[5]: 'ts' must be a non-negative number, got True",
            "event[6]: X event needs a non-negative 'dur', got -1.0",
            "event[7]: ts 2.0 goes backwards on track pid/tid (0, 0) "
            "(previous 5.0)",
            "event[7]: X event needs a non-negative 'dur', got nan",
            "event[8]: E event with no open B on track pid/tid (0, 1)",
            "unclosed B event 'a' on track pid/tid (0, 1)",
        ]


class TestPrometheus:
    def test_exporter_output_is_valid(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.histogram("h").observe_many([1.0, 2.0, 3.0, 4.0, 5.0])
        assert validate_prometheus(prometheus_text(reg)) == []

    def test_decreasing_cumulative_buckets_flagged(self):
        text = ("# TYPE h histogram\n"
                'h_bucket{le="1.0"} 5\n'
                'h_bucket{le="+Inf"} 3\n'
                "h_sum 1.0\nh_count 3\n")
        problems = validate_prometheus(text)
        assert any("decrease" in p for p in problems)

    def test_missing_inf_bucket_flagged(self):
        text = ("# TYPE h histogram\n"
                'h_bucket{le="1.0"} 5\n'
                "h_sum 1.0\nh_count 5\n")
        problems = validate_prometheus(text)
        assert any("+Inf" in p for p in problems)

    def test_count_mismatch_flagged(self):
        text = ("# TYPE h histogram\n"
                'h_bucket{le="+Inf"} 5\n'
                "h_sum 1.0\nh_count 4\n")
        problems = validate_prometheus(text)
        assert any("_count" in p for p in problems)

    def test_empty_exposition_flagged(self):
        assert validate_prometheus("") == ["no samples found"]


class TestJsonl:
    def test_valid_lines(self):
        assert validate_jsonl('{"a": 1}\n\n{"b": 2}\n') == []

    def test_bad_line_reported_with_number(self):
        problems = validate_jsonl('{"a": 1}\nnot json\n')
        assert problems and "line 2" in problems[0]

    def test_empty_payload_flagged(self):
        assert validate_jsonl("\n\n") == ["no JSON lines found"]

    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85"])
    def test_only_newline_ends_a_line(self, char):
        # one valid line whose string holds a character str.splitlines()
        # would break at
        assert validate_jsonl(f'{{"a": "x{char}y"}}\n') == []

    def test_crlf_line_endings_tolerated(self):
        assert validate_jsonl('{"a": 1}\r\n\r\n{"b": 2}\r\n') == []

    def test_line_numbers_stay_one_based(self):
        problems = validate_jsonl('{"a": "\u2028"}\r\n\nnot json\r\n')
        assert problems == ["line 3: not valid JSON (Expecting value)"]


class TestSniffAndFile:
    def test_suffix_wins(self, tmp_path):
        assert sniff_format(tmp_path / "m.jsonl", "{}") == "jsonl"
        assert sniff_format(tmp_path / "m.prom", "{}") == "prometheus"

    def test_content_sniff(self, tmp_path):
        assert sniff_format(tmp_path / "t.json",
                            '{"traceEvents": []}') == "chrome-trace"
        assert sniff_format(tmp_path / "x.out", "metric 1\n") \
            == "prometheus"
        assert sniff_format(tmp_path / "x.json",
                            '{"a": 1}\n{"b": 2}\n') == "jsonl"

    def test_validate_file_end_to_end(self, tmp_path):
        trace = tmp_path / "t.json"
        trace.write_text(json.dumps(_trace_payload()))
        kind, problems = validate_file(trace)
        assert (kind, problems) == ("chrome-trace", [])

    def test_validate_file_unreadable(self, tmp_path):
        kind, problems = validate_file(tmp_path / "missing.json")
        assert kind == "unreadable"
        assert problems
