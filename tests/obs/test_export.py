"""Round-trip tests for the Prometheus and JSONL metric exporters."""

import json
import math

import pytest

from repro.obs.export import (
    PrometheusParseError,
    metrics_jsonl,
    parse_prometheus_text,
    prometheus_text,
    sanitize_metric_name,
    write_metrics,
)
from repro.obs.metrics import MetricsRegistry


@pytest.fixture
def registry():
    reg = MetricsRegistry()
    reg.counter("serve.engine.requests_completed",
                help="requests served").inc(120)
    reg.gauge("serve.engine.chips", help="provisioned chips").set(4)
    reg.histogram("serve.engine.latency_ms", buckets=(10.0, 50.0, 100.0),
                  help="end-to-end latency").observe_many(
        [5.0, 25.0, 75.0, 200.0])
    return reg


class TestSanitize:
    def test_dots_become_underscores(self):
        assert sanitize_metric_name("serve.engine.latency_ms") \
            == "serve_engine_latency_ms"

    def test_leading_digit_gets_prefixed(self):
        name = sanitize_metric_name("9lives")
        assert name == "_9lives"


class TestPrometheusRoundTrip:
    def test_counter_and_gauge_survive(self, registry):
        families = parse_prometheus_text(prometheus_text(registry))
        counter = families["serve_engine_requests_completed"]
        assert counter["type"] == "counter"
        assert counter["help"] == "requests served"
        assert counter["samples"][0][2] == 120.0
        gauge = families["serve_engine_chips"]
        assert gauge["type"] == "gauge"
        assert gauge["samples"][0][2] == 4.0

    def test_histogram_buckets_survive(self, registry):
        families = parse_prometheus_text(prometheus_text(registry))
        hist = families["serve_engine_latency_ms"]
        assert hist["type"] == "histogram"
        buckets = [(s[1]["le"], s[2]) for s in hist["samples"]
                   if s[0].endswith("_bucket")]
        assert buckets[-1] == ("+Inf", 4.0)
        values = [v for _, v in buckets]
        assert values == sorted(values)
        count = [s[2] for s in hist["samples"]
                 if s[0].endswith("_count")]
        assert count == [4.0]
        total = [s[2] for s in hist["samples"] if s[0].endswith("_sum")]
        assert total[0] == pytest.approx(305.0)

    def test_empty_registry_renders_empty(self):
        assert prometheus_text(MetricsRegistry()) == ""

    def test_special_values_round_trip(self):
        reg = MetricsRegistry()
        reg.gauge("weird").set(float("inf"))
        families = parse_prometheus_text(prometheus_text(reg))
        assert math.isinf(families["weird"]["samples"][0][2])


class TestPrometheusParser:
    def test_rejects_malformed_sample(self):
        with pytest.raises(PrometheusParseError, match="line 1"):
            parse_prometheus_text("this is { not valid")

    def test_rejects_non_numeric_value(self):
        with pytest.raises(PrometheusParseError, match="non-numeric"):
            parse_prometheus_text("metric_a hello")

    def test_rejects_unknown_type(self):
        with pytest.raises(PrometheusParseError, match="unknown metric"):
            parse_prometheus_text("# TYPE m wat")

    def test_parses_labels(self):
        families = parse_prometheus_text(
            'reqs{method="get",code="200"} 7\n')
        (sample,) = families["reqs"]["samples"]
        assert sample[1] == {"method": "get", "code": "200"}
        assert sample[2] == 7.0

    def test_other_comments_skipped(self):
        families = parse_prometheus_text("# scraped by tests\nm 1\n")
        assert families["m"]["samples"][0][2] == 1.0

    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85"])
    def test_only_newline_ends_a_line(self, char):
        # str.splitlines() would also break at these, splitting one
        # sample (and one help text) in two
        text = (f"# HELP reqs served{char}requests\n# TYPE reqs counter\n"
                f'reqs{{path="a{char}b"}} 7\n')
        family = parse_prometheus_text(text)["reqs"]
        assert family["help"] == f"served{char}requests"
        assert family["samples"] == [("reqs", {"path": f"a{char}b"}, 7.0)]

    def test_crlf_line_endings_tolerated(self):
        families = parse_prometheus_text("# TYPE m counter\r\nm 1\r\n")
        assert families["m"]["type"] == "counter"
        assert families["m"]["samples"][0][2] == 1.0

    def test_line_numbers_stay_one_based_across_crlf(self):
        with pytest.raises(PrometheusParseError) as info:
            parse_prometheus_text("m 1\r\n\r\nbad { sample\r\n")
        assert str(info.value) == "line 3: unparseable sample: 'bad { sample'"


class TestJsonl:
    def test_histogram_payload_richness(self, registry):
        lines = [json.loads(line)
                 for line in metrics_jsonl(registry).splitlines()]
        by_name = {d["name"]: d for d in lines}
        hist = by_name["serve.engine.latency_ms"]
        assert hist["type"] == "histogram"
        assert hist["count"] == 4
        assert hist["buckets"][-1][0] == "+Inf"
        assert "p99" in hist["quantiles"]
        assert by_name["serve.engine.chips"]["value"] == 4.0

    def test_nan_scrubbed_to_null(self):
        reg = MetricsRegistry()
        reg.histogram("empty")
        payload = json.loads(metrics_jsonl(reg))
        assert payload["mean"] is None
        assert payload["min"] is None


class TestWriteMetrics:
    def test_suffix_selects_format(self, registry, tmp_path):
        prom = write_metrics(registry, tmp_path / "m.prom")
        jsonl = write_metrics(registry, tmp_path / "m.jsonl")
        assert "# TYPE" in prom.read_text()
        for line in jsonl.read_text().splitlines():
            json.loads(line)

    def test_creates_parent_dirs(self, registry, tmp_path):
        path = write_metrics(registry, tmp_path / "deep" / "m.prom")
        assert path.exists()
