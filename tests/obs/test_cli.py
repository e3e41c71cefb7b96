"""Tests for ``repro obs`` and the serve CLI's observability flags."""

import json
import sys

import pytest

from repro.analysis.cli import main

INT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.fixture
def artifacts(tmp_path, capsys):
    """A (trace, metrics) pair written by a real serve run."""
    trace = tmp_path / "t.json"
    metrics = tmp_path / "m.prom"
    assert main(["serve", "--num-requests", "40", "--seed", "2",
                 "--trace-out", str(trace),
                 "--metrics-out", str(metrics)]) == 0
    capsys.readouterr()
    return trace, metrics


class TestObsValidate:
    def test_serve_artifacts_pass(self, artifacts, capsys):
        trace, metrics = artifacts
        assert main(["obs", "validate", str(trace), str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "ok (chrome-trace)" in out
        assert "ok (prometheus)" in out

    def test_invalid_file_fails_with_details(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"traceEvents": "nope"}')
        assert main(["obs", "validate", str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_bad_files_are_problems_not_tracebacks(self, artifacts,
                                                   tmp_path, capsys):
        """Each file is validated even after one that used to crash."""
        trace, metrics = artifacts
        list_pid = tmp_path / "pid.json"
        list_pid.write_text(json.dumps({"traceEvents": [
            {"ph": "X", "ts": 1.0, "dur": 1.0, "pid": [1], "tid": 0,
             "name": "a"}]}))
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000)
        deep_lines = tmp_path / "deep.jsonl"
        deep_lines.write_text('{"a": 1}\n' + "[" * 200_000 + "\n")
        assert main(["obs", "validate", str(list_pid), str(deep),
                     str(deep_lines), str(trace), str(metrics)]) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert captured.out.splitlines() == [
            f"{list_pid}: INVALID (chrome-trace)",
            "  - event[0]: 'pid' must be a number or string, got [1]",
            f"{deep}: INVALID (jsonl)",
            "  - line 1: not valid JSON (nesting too deep)",
            f"{deep_lines}: INVALID (jsonl)",
            "  - line 2: not valid JSON (nesting too deep)",
            f"{trace}: ok (chrome-trace)",
            f"{metrics}: ok (prometheus)",
        ]

    def test_undecodable_file_is_invalid_and_the_rest_validate(
            self, artifacts, tmp_path, capsys):
        _, metrics = artifacts
        bom = tmp_path / "bom.json"
        bom.write_bytes(b"\xff\xfe{}")
        assert main(["obs", "validate", str(bom), str(metrics)]) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        lines = captured.out.splitlines()
        assert lines[0] == f"{bom}: INVALID (unreadable)"
        assert lines[1].startswith(f"  - cannot read {bom}: ")
        assert lines[2:] == [f"{metrics}: ok (prometheus)"]
        assert captured.err == "1 of 2 file(s) failed validation\n"


class TestObsSummarize:
    def test_prometheus_table(self, artifacts, capsys):
        _, metrics = artifacts
        assert main(["obs", "summarize", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "serve_engine_requests_completed" in out
        assert "histogram" in out

    def test_jsonl_table(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.jsonl"
        assert main(["serve", "--num-requests", "30", "--seed", "2",
                     "--trace-out", str(trace),
                     "--metrics-out", str(metrics)]) == 0
        capsys.readouterr()
        assert main(["obs", "summarize", str(metrics)]) == 0
        assert "serve.engine.latency_ms" in capsys.readouterr().out

    def test_jsonl_lines_read_as_validate_reads_them(self, tmp_path,
                                                       capsys):
        # a raw U+2028 inside a JSON string is content, not a line break
        metrics = tmp_path / "m.jsonl"
        metrics.write_text(json.dumps({"name": "odd\u2028name",
                                       "type": "counter", "value": 3},
                                      ensure_ascii=False) + "\n",
                           encoding="utf-8")
        assert main(["obs", "validate", str(metrics)]) == 0
        assert main(["obs", "summarize", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "ok (jsonl)" in out
        assert "odd\u2028name" in out and "counter" in out

    def test_a_bare_carriage_return_ends_no_line(self, tmp_path, capsys):
        """Files are read as UTF-8 bytes, so "\\r" is no line break."""
        metrics = tmp_path / "m.jsonl"
        metrics.write_bytes(b'{"name": "a", "type": "counter", "value": 1}'
                            b'\r{"name": "b", "type": "gauge", "value": 2}\n')
        assert main(["obs", "summarize", str(metrics)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {metrics} failed validation (jsonl): "
                                "line 1: not valid JSON (Extra data)\n")

    @pytest.mark.parametrize("name, data", [
        ("m.prom", b"# TYPE c counter\r\nc 3\r\n"),
        ("m.prom", b"# HELP c odd\rhelp\n# TYPE c counter\nc 3\n"),
        ("m.jsonl", b'{"name": "c",\r"type": "counter", "value": 3}\n'),
    ])
    def test_lines_render_as_validate_reads_them(self, tmp_path, capsys,
                                                 name, data):
        """CRLF line ends are tolerated; a bare "\\r" is help text or
        JSON blank space, as it is to the validator."""
        metrics = tmp_path / name
        metrics.write_bytes(data)
        assert main(["obs", "summarize", str(metrics)]) == 0
        assert capsys.readouterr().out.splitlines()[-1].split() \
            == ["c", "counter", "3"]

    @pytest.mark.skipif(INT_LIMIT == 0, reason="integer digit limit is off")
    def test_integer_past_the_digit_limit_exits_2(self, tmp_path, capsys):
        metrics = tmp_path / "m.jsonl"
        digits = "9" * (INT_LIMIT + 1)
        metrics.write_text(f'{{"name": "a", "type": "counter", '
                           f'"value": {digits}}}\n')
        assert main(["obs", "summarize", str(metrics)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"error: {metrics} failed validation (jsonl): line 1: not valid "
            "JSON (Exceeds the limit")

    def test_nesting_too_deep_exits_2(self, tmp_path, capsys):
        metrics = tmp_path / "m.jsonl"
        metrics.write_text("[" * 200_000)
        assert main(["obs", "summarize", str(metrics)]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: {metrics} failed validation (jsonl): "
                       "line 1: not valid JSON (nesting too deep)\n")

    def test_non_object_line_exits_2(self, tmp_path, capsys):
        """A line ``validate`` accepts as JSON but that is no metric
        record is a user error, not a traceback."""
        metrics = tmp_path / "m.jsonl"
        metrics.write_text('{"name": "a", "type": "counter", "value": 1}\n'
                           "[1]\n")
        assert main(["obs", "validate", str(metrics)]) == 0
        capsys.readouterr()
        assert main(["obs", "summarize", str(metrics)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {metrics} line 2: expected a JSON "
                                "object, got list\n")

    def test_span_jsonl_exits_2(self, tmp_path, capsys):
        """Span JSONL (``--trace-out x.jsonl``) is valid JSONL but no
        metrics file: one ``error:`` line naming the file and the line,
        nothing on stdout."""
        spans = tmp_path / "spans.jsonl"
        assert main(["serve", "--num-requests", "20", "--seed", "2",
                     "--trace-out", str(spans)]) == 0
        capsys.readouterr()
        assert main(["obs", "validate", str(spans)]) == 0
        capsys.readouterr()
        assert main(["obs", "summarize", str(spans)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {spans} line 1: 'type' must be "
                                "counter, gauge or histogram, got None\n")

    def test_a_line_of_another_type_exits_2(self, tmp_path, capsys):
        metrics = tmp_path / "m.jsonl"
        metrics.write_text('{"name": "a", "type": "gauge", "value": 1}\n'
                           '{"name": "b", "type": "summary", "value": 2}\n')
        assert main(["obs", "summarize", str(metrics)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {metrics} line 2: 'type' must be "
                                "counter, gauge or histogram, got "
                                "'summary'\n")

    def test_histogram_without_quantile_object_renders(self, tmp_path,
                                                        capsys):
        metrics = tmp_path / "m.jsonl"
        metrics.write_text(json.dumps({"name": "h", "type": "histogram",
                                       "count": 2, "quantiles": [1]}) + "\n")
        assert main(["obs", "summarize", str(metrics)]) == 0
        assert "count=2" in capsys.readouterr().out

    def test_trace_file_is_rejected(self, artifacts, capsys):
        trace, _ = artifacts
        assert main(["obs", "summarize", str(trace)]) == 2
        assert "Perfetto" in capsys.readouterr().err


class TestServeObsFlags:
    def test_trace_out_holds_request_spans(self, artifacts):
        trace, _ = artifacts
        payload = json.loads(trace.read_text())
        names = {e["name"] for e in payload["traceEvents"]}
        assert {"request", "batch"} <= names

    def test_metrics_out_prometheus(self, artifacts):
        _, metrics = artifacts
        text = metrics.read_text()
        assert "serve_engine_latency_ms_bucket" in text
        assert "pim_simulator_layers" in text

    def test_json_summary_carries_slo(self, tmp_path, capsys):
        assert main(["serve", "--num-requests", "40", "--seed", "2",
                     "--json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert "slo_attained" in payload
        assert "slo_p99_target_ms" in payload

    def test_explicit_slo_targets_respected(self, capsys):
        assert main(["serve", "--num-requests", "40", "--seed", "2",
                     "--slo-p99-ms", "0.001", "--json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["slo_p99_target_ms"] == pytest.approx(0.001)
        assert payload["slo_p99_attained"] == 0.0
        assert payload["slo_attained"] == 0.0

    def test_search_cli_writes_obs_artifacts(self, tmp_path, capsys):
        trace = tmp_path / "search.json"
        metrics = tmp_path / "search-metrics.jsonl"
        assert main(["search", "--model", "resnet18",
                     "--objective", "pareto",
                     "--population", "8", "--iterations", "2",
                     "--restarts", "1", "--no-cache",
                     "--trace-out", str(trace),
                     "--metrics-out", str(metrics)]) == 0
        capsys.readouterr()
        assert main(["obs", "validate", str(trace), str(metrics)]) == 0
