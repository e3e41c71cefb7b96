"""Tests for the artifact validators behind ``repro obs validate``."""

import json
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import validate
from repro.obs.export import prometheus_text
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.obs.validate import (
    _non_negative,
    iter_jsonl,
    sniff_format,
    validate_chrome_trace,
    validate_file,
    validate_jsonl,
    validate_prometheus,
)


def reference_iter_jsonl(text):
    """The line-by-line JSONL rule: split at "\\n", skip lines
    ``str.strip`` empties, ``json.loads`` each of the others.  An error
    is a ``JSONDecodeError``.  ``json.loads`` gives no position for
    nesting too deep or an integer past the digit limit; those errors
    sit at the line's first character that is not a JSON blank."""
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        first = len(line) - len(line.lstrip(" \t\r"))
        try:
            value = json.loads(line)
        except json.JSONDecodeError as exc:
            value = json.JSONDecodeError(exc.msg, line, exc.pos)
        except RecursionError:
            value = json.JSONDecodeError("nesting too deep", line, first)
        except ValueError as exc:
            value = json.JSONDecodeError(str(exc), line, first)
        yield lineno, value


def reference_validate_jsonl(text):
    rows = list(reference_iter_jsonl(text))
    if not rows:
        return ["no JSON lines found"]
    return [f"line {lineno}: not valid JSON ({value.msg})"
            for lineno, value in rows
            if isinstance(value, json.JSONDecodeError)]


def jsonl_rows(rows):
    """Comparable ``(lineno, ...)`` rows: an error by its message and
    position, a value by its ``repr`` (``1`` is not ``1.0``, NaN is
    itself)."""
    return [(lineno, value.msg, value.pos)
            if isinstance(value, json.JSONDecodeError)
            else (lineno, repr(value)) for lineno, value in rows]


def validate_text(path, text):
    """``(format, problems)`` of ``text`` by the validator its sniffed
    format names."""
    kind = sniff_format(path, text)
    if kind == "chrome-trace":
        return kind, validate_chrome_trace(json.loads(text))
    if kind == "jsonl":
        return kind, validate_jsonl(text)
    return kind, validate_prometheus(text)


def reference_validate_chrome_trace(payload):
    """The Chrome-trace checks with every ``ts``/``dur`` read through
    :func:`_non_negative`."""
    problems = []
    if isinstance(payload, dict):
        events = payload.get("traceEvents")
        if not isinstance(events, list):
            return ["top-level object has no 'traceEvents' list"]
    elif isinstance(payload, list):
        events = payload
    else:
        return [f"expected an object or array, got {type(payload).__name__}"]
    last_ts, open_stacks, timed = {}, {}, 0
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event[{i}]: not an object")
            continue
        phase = event.get("ph")
        if not isinstance(phase, str) or not phase:
            problems.append(f"event[{i}]: missing 'ph' phase")
            continue
        if phase not in {"X", "B", "E", "M", "i", "I", "C"}:
            problems.append(f"event[{i}]: unsupported phase {phase!r}")
            continue
        if "name" not in event:
            problems.append(f"event[{i}]: missing 'name'")
        if phase == "M":
            continue
        ts = event.get("ts")
        ts_value = _non_negative(ts)
        if ts_value is None:
            problems.append(f"event[{i}]: 'ts' must be a non-negative "
                            f"number, got {ts!r}")
            continue
        timed += 1
        track = (event.get("pid", 0), event.get("tid", 0))
        unhashable = [(key, value) for key, value in zip(("pid", "tid"), track)
                      if isinstance(value, (list, dict))]
        for key, value in unhashable:
            problems.append(f"event[{i}]: {key!r} must be a number or "
                            f"string, got {value!r}")
        if not unhashable:
            previous = last_ts.get(track)
            if previous is not None and ts_value < previous:
                problems.append(
                    f"event[{i}]: ts {ts} goes backwards on track pid/tid "
                    f"{track} (previous {previous})")
            last_ts[track] = ts_value
        if phase == "X":
            dur = event.get("dur")
            if _non_negative(dur) is None:
                problems.append(f"event[{i}]: X event needs a non-negative "
                                f"'dur', got {dur!r}")
        elif unhashable:
            continue
        elif phase == "B":
            open_stacks.setdefault(track, []).append(
                str(event.get("name", "")))
        elif phase == "E":
            stack = open_stacks.get(track)
            if not stack:
                problems.append(f"event[{i}]: E event with no open B on "
                                f"track pid/tid {track}")
            else:
                stack.pop()
    for track, stack in open_stacks.items():
        for name in stack:
            problems.append(f"unclosed B event {name!r} on track "
                            f"pid/tid {track}")
    if timed == 0 and not problems:
        problems.append("trace has no timed events")
    return problems


# JSONL fragments: a value split across lines, two values on one line,
# blank lines by str.strip but not by JSON, a BOM, U+2028 inside and
# outside a string, non-finite numbers, trailing blanks and garbage,
# nesting past the decoder's recursion limit.
_JSONL_FRAGMENTS = [
    '{"a": 1}', '{"b": [1, {"c": null}]}', "1, 2", "[3", "4]", '"split',
    'string"', '{"s": "x', 'y"}', "\ufeff{}", " \ufeff{}", "\x0c", "\x0c{}",
    '{"u": "x\u2028y"}', "\u2028", "\u2028{}", "\x85", " ", "\t", "",
    "not json", "NaN", "-Infinity", "1e400", "{} x", "{}\t \r", "  7  ",
    "nul", "1.", "-", '{"k": 1}}', "[[[", "]]]", '"\\u00e9"', "true false",
    "[" * 5000, '{"a": ' * 5000,
]
_LINE_ENDS = ["\n", "\n", "\r\n", "\n\n", " \n", "\r"]

# Chrome-trace field values: numbers of every JSON kind and some that
# only an in-memory payload holds, plus non-numbers and unhashables.
_CHROME_VALUES = [0.0, 1.5, 2.0, -0.0, -1.0, 3, 0, -3, True, False,
                  float("nan"), float("inf"), float("-inf"), 10 ** 400,
                  -(10 ** 400), "1", None, [1.0]]
_PHASES = ["X", "X", "X", "B", "E", "M", "i", "C", "Q", "", None, ["X"],
           {"ph": "X"}]
# Odd track ids, most of them the unhashable kinds JSON can hold.  One
# event in ten draws one; the rest keep to two tracks (no pid, tid 0 or
# 1), so that ts order and B/E nesting are compared often.
_ODD_TRACK_IDS = ["p", None, 2, [1], [], {"id": 0}, {}]

# The interpreter's limit on the digits of an integer literal (0 when
# it is off or predates the limit), and literals one digit past it.
INT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_int_limit = pytest.mark.skipif(
    INT_LIMIT == 0, reason="integer digit limit is off")
_OVER_LIMIT = ["9" * (INT_LIMIT + 1),
               '{"n": -' + "1" * (INT_LIMIT + 1) + "}"] if INT_LIMIT else []

# Parts of one JSONL line, up to three to a line: values, brackets that
# a parse across lines would rebalance ("[[3", "1],[2", "4]]"), blanks
# JSON skips and blanks only str.strip skips, trailing junk, nesting
# past the decoder's recursion limit and over-limit integers.
_LINE_PARTS = ['{"a": 1}', '[1, {"b": null}]', '"x\u2028y"', "7", "-0.5e3",
               "true", "NaN", "[1,", "2]", "1],[2", "[[3", "4]]", "", " ",
               "\t", "\r", "\x0b", "\xa0", " x", "]", "[" * 5000,
               *_OVER_LIMIT]
_jsonl_lines = st.lists(st.sampled_from(_LINE_PARTS), min_size=1,
                        max_size=3).map("".join)
jsonl_texts = st.builds(
    lambda lines, last: "".join(line + end for line, end in lines) + last,
    st.lists(st.tuples(_jsonl_lines, st.sampled_from(["\n", "\r\n"])),
             max_size=10),
    st.one_of(st.just(""), _jsonl_lines))

# Parts of an artifact file's bytes: Chrome-trace, JSONL and Prometheus
# pieces, every line ending, blanks, a BOM and bytes that are not UTF-8.
_FILE_PARTS = [b'{"a": 1}', b'{"traceEvents": [', b"]}", b",",
               b'{"ph": "X", "ts": 1.5, "dur": 0.5, "name": "a"}', b"[1,",
               b"2]", b"# TYPE c counter", b"# HELP c x", b"c 1",
               b"# TYPE h histogram", b'h_bucket{le="+Inf"} 1', b"h_count 1",
               b"\n", b"\n", b"\r\n", b"\r", b" ", b"\x0b", b"\xc2\xa0",
               b"\xe2\x80\xa8", b"\xef\xbb\xbf", b"\xff", b"\xc3"]
file_bytes = st.one_of(
    st.binary(max_size=40),
    st.lists(st.sampled_from(_FILE_PARTS), max_size=14).map(b"".join))


def _random_jsonl(rng):
    return "".join(rng.choice(_JSONL_FRAGMENTS) + rng.choice(_LINE_ENDS)
                   for _ in range(rng.randint(0, 8))) \
        + rng.choice(["", rng.choice(_JSONL_FRAGMENTS)])


def _random_chrome_events(rng):
    events = []
    for _ in range(rng.randint(0, 10)):
        if rng.random() < 0.05:
            events.append(rng.choice(["oops", 3, None]))
            continue
        event = {}
        for key, values in (("ph", _PHASES), ("ts", _CHROME_VALUES),
                            ("dur", _CHROME_VALUES), ("tid", [0, 1]),
                            ("name", ["a", "b"])):
            if rng.random() < 0.9:
                event[key] = rng.choice(values)
        if rng.random() < 0.1:
            event[rng.choice(["pid", "tid"])] = rng.choice(_ODD_TRACK_IDS)
        events.append(event)
    return events


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

    def test_unhashable_pid_or_tid_is_a_problem_of_its_event(self):
        problems = validate_chrome_trace({"traceEvents": [
            {"ph": "X", "ts": 1.0, "dur": 1.0, "pid": [1], "tid": 0,
             "name": "a"},
            {"ph": "B", "ts": 0.0, "pid": 0, "tid": {"t": 1}, "name": "b"},
            {"ph": "X", "ts": 0.5, "dur": -1.0, "name": "c"},
        ]})
        assert problems == [
            "event[0]: 'pid' must be a number or string, got [1]",
            "event[1]: 'tid' must be a number or string, got {'t': 1}",
            "event[2]: X event needs a non-negative 'dur', got -1.0",
        ]

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


class TestChromeTraceMatchesReference:
    N_CASES = 600

    def test_random_event_lists(self):
        kinds = ("goes backwards", "unclosed B", "no open B",
                 "must be a number or string")
        cases_with = dict.fromkeys(kinds, 0)
        for seed in range(self.N_CASES):
            events = _random_chrome_events(random.Random(seed))
            problems = validate_chrome_trace(events)
            assert problems == reference_validate_chrome_trace(events), \
                f"case {seed}"
            for kind in kinds:
                cases_with[kind] += any(kind in p for p in problems)
        # The track checks must run often enough to be compared.
        assert min(cases_with.values()) >= 20, cases_with

    def test_parsed_tracer_output(self, tmp_path):
        t = Tracer()
        for i in range(50):
            t.record("s", "c", i * 0.5, i * 0.5 + (i % 3), track=f"t{i % 4}")
        payload = json.loads(
            t.write_chrome_trace(tmp_path / "t.json").read_text())
        assert validate_chrome_trace(payload) \
            == reference_validate_chrome_trace(payload) == []


class TestPrometheus:
    def test_exporter_output_is_valid(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.histogram("h").observe_many([1.0, 2.0, 3.0, 4.0, 5.0])
        assert validate_prometheus(prometheus_text(reg)) == []

    TWO_SERIES = ("# TYPE h histogram\n"
                  'h_bucket{path="/a",le="1.0"} 5\n'
                  'h_bucket{path="/a",le="+Inf"} 7\n'
                  'h_sum{path="/a"} 3.0\nh_count{path="/a"} 7\n'
                  'h_bucket{path="/b",le="1.0"} 1\n'
                  'h_bucket{path="/b",le="+Inf"} 2\n'
                  'h_sum{path="/b"} 1.0\nh_count{path="/b"} 2\n')

    def test_labeled_series_checked_apart(self):
        assert validate_prometheus(self.TWO_SERIES) == []

    def test_bad_second_series_named(self):
        text = self.TWO_SERIES.replace('h_count{path="/b"} 2',
                                       'h_count{path="/b"} 9')
        assert validate_prometheus(text) == [
            'histogram h{path="/b"}: _count 9.0 != +Inf bucket 2.0']

    def test_series_without_buckets_named(self):
        text = self.TWO_SERIES + 'h_count{path="/c"} 1\n'
        assert validate_prometheus(text) == [
            'histogram h{path="/c"}: no _bucket samples']

    def test_single_series_messages_unchanged(self):
        text = ("# TYPE h histogram\n"
                'h_bucket{le="1.0"} 5\n'
                'h_bucket{le="2.0"} 3\n'
                "h_sum 1.0\nh_count 4\n")
        assert validate_prometheus(text) == [
            "histogram h: last bucket must be le=\"+Inf\", got le='2.0'",
            "histogram h: cumulative bucket counts decrease",
            "histogram h: _count 4.0 != +Inf bucket 3.0"]
        assert validate_prometheus("# TYPE h histogram\nh_sum 1.0\n") \
            == ["histogram h: no _bucket samples"]

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

    @pytest.mark.parametrize("text, problems", [
        ("1, 2\n", ["line 1: not valid JSON (Extra data)"]),
        ("[3\n4]\n", ["line 1: not valid JSON (Expecting ',' delimiter)",
                      "line 2: not valid JSON (Extra data)"]),
        ('"a\nb"\n', ["line 1: not valid JSON (Unterminated string "
                      "starting at)",
                      "line 2: not valid JSON (Expecting value)"]),
        ("\ufeff{}\n", ["line 1: not valid JSON (Unexpected UTF-8 BOM "
                        "(decode using utf-8-sig))"]),
        ("\x0c\n{}\n", []),
        ("{} \t\r\n", []),
        ("[[3\n4]]\n", ["line 1: not valid JSON (Expecting ',' delimiter)",
                        "line 2: not valid JSON (Extra data)"]),
        ("1],[2\n", ["line 1: not valid JSON (Extra data)"]),
    ])
    def test_fragments(self, text, problems):
        assert validate_jsonl(text) == problems \
            == reference_validate_jsonl(text)

    def test_random_texts_match_reference(self):
        for seed in range(1500):
            text = _random_jsonl(random.Random(seed))
            assert validate_jsonl(text) == reference_validate_jsonl(text), \
                f"case {seed}: {text!r}"

    def test_nesting_past_the_recursion_limit_is_a_line_problem(self):
        text = '{}\n' + "[" * 200_000 + '\n[1]\n'
        assert validate_jsonl(text) \
            == ["line 2: not valid JSON (nesting too deep)"]

    def test_errors_hold_no_frames(self):
        rows = list(iter_jsonl('bad\n{"b": [}\n' + "[" * 5000))
        assert [str(value) for _, value in rows] == [
            "Expecting value: line 1 column 1 (char 0)",
            "Expecting value: line 1 column 8 (char 7)",
            "nesting too deep: line 1 column 1 (char 0)"]
        assert all(value.__traceback__ is None and value.__context__ is None
                   for _, value in rows)

    def test_values_and_line_numbers(self):
        rows = list(iter_jsonl('{"a": 1}\n\n \u2028\n[2]\r\nbad\n{"b": 3}'))
        assert [lineno for lineno, _ in rows] == [1, 4, 5, 6]
        assert rows[0][1] == {"a": 1} and rows[1][1] == [2]
        assert isinstance(rows[2][1], json.JSONDecodeError)
        assert rows[3][1] == {"b": 3}

    @settings(max_examples=400, deadline=None)
    @given(text=jsonl_texts)
    def test_lines_match_json_loads_per_line(self, text):
        assert jsonl_rows(iter_jsonl(text)) \
            == jsonl_rows(reference_iter_jsonl(text))
        assert validate_jsonl(text) == reference_validate_jsonl(text)

    def test_lines_after_an_unaccepted_one_are_decoded_alone(
            self, monkeypatch):
        """A line left open is scanned on through the lines after it;
        from then on no line is scanned in place, so lines that each
        leave one open cost one scan each, not one per line after."""
        starts = []
        scan = validate._SCAN

        def counted(text, index):
            starts.append(index)
            return scan(text, index)

        monkeypatch.setattr(validate, "_SCAN", counted)
        text = '{"a": 1}\n' + "[1,\n" * 50 + '{"b": 2}\n'
        assert jsonl_rows(iter_jsonl(text)) \
            == jsonl_rows(reference_iter_jsonl(text))
        assert starts == [0, 9]


@needs_int_limit
class TestIntegerDigitLimit:
    """An integer literal past ``sys.get_int_max_str_digits()`` is a
    line that is not valid JSON, not a crash."""

    DIGITS = "9" * (INT_LIMIT + 1)

    def message(self):
        with pytest.raises(ValueError) as exc:
            int(self.DIGITS)
        return str(exc.value)

    def test_jsonl_line(self):
        text = f'{{"a": 1}}\n  {{"n": {self.DIGITS}}}\n'
        assert validate_jsonl(text) == reference_validate_jsonl(text) \
            == [f"line 2: not valid JSON ({self.message()})"]
        (_, value), = [row for row in iter_jsonl(text) if row[0] == 2]
        assert (value.msg, value.pos) == (self.message(), 2)

    @pytest.mark.parametrize("name", ["t.json", "m.jsonl"])
    def test_file(self, tmp_path, name):
        path = tmp_path / name
        path.write_text('{"traceEvents": [{"ph": "X", "ts": 1.0, "dur": '
                        f'1.0, "name": "a", "pid": {self.DIGITS}}}]}}\n')
        assert validate_file(path) \
            == ("jsonl", [f"line 1: not valid JSON ({self.message()})"])


@pytest.fixture(scope="module")
def files_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("files")


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

    @pytest.mark.parametrize("name", ["t.json", "s.jsonl"])
    def test_deep_json_is_a_problem_not_a_crash(self, tmp_path, name):
        path = tmp_path / name
        path.write_text("[" * 200_000)
        assert validate_file(path) \
            == ("jsonl", ["line 1: not valid JSON (nesting too deep)"])

    def test_validate_file_unreadable(self, tmp_path):
        kind, problems = validate_file(tmp_path / "missing.json")
        assert kind == "unreadable"
        assert problems

    def test_undecodable_file_is_unreadable(self, tmp_path):
        path = tmp_path / "bom.json"
        path.write_bytes(b"\xff\xfe{}")
        kind, problems = validate_file(path)
        assert kind == "unreadable"
        assert len(problems) == 1
        assert problems[0].startswith(f"cannot read {path}: ")
        assert "can't decode byte 0xff" in problems[0]

    @pytest.mark.parametrize("name, data, expected", [
        # a bare "\r" ends no line
        ("m.jsonl", b'{"a": 1}\r{"b": 2}',
         ("jsonl", ["line 1: not valid JSON (Extra data)"])),
        ("m.prom", b"# HELP c x\r# TYPE c counter\rc 1\r",
         ("prometheus", ["no samples found"])),
        ("m.jsonl", b'{"a": 1}\r\n\r\n{"b": 2}\r\n', ("jsonl", [])),
        ("m.prom", b"# TYPE c counter\r\nc 1\r\n", ("prometheus", [])),
        ("t.json", b'{"traceEvents": [\r\n{"ph": "X", "ts": 1.0, "dur": '
                   b'1.0, "name": "a"}]}\r\n', ("chrome-trace", [])),
        # what --metrics-out m.json writes
        ("m.json", b"# TYPE c counter\nc 1\n", ("prometheus", [])),
    ])
    def test_files_read_as_utf8_with_newline_line_ends(self, tmp_path, name,
                                                       data, expected):
        path = tmp_path / name
        path.write_bytes(data)
        assert validate_file(path) == expected \
            == validate_text(path, data.decode("utf-8"))

    @settings(max_examples=400, deadline=None)
    @given(data=file_bytes,
           suffix=st.sampled_from([".json", ".jsonl", ".prom", ""]))
    def test_file_matches_its_text(self, files_dir, data, suffix):
        path = files_dir / f"artifact{suffix}"
        path.write_bytes(data)
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            expected = ("unreadable", [f"cannot read {path}: {exc}"])
        else:
            expected = validate_text(path, text)
        assert validate_file(path) == expected

