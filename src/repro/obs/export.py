"""Metric exporters: Prometheus text exposition and JSONL.

``prometheus_text`` renders a whole :class:`MetricsRegistry` in the
Prometheus text exposition format (v0.0.4): ``# HELP`` / ``# TYPE``
headers, histograms as cumulative ``_bucket{le="..."}`` series plus
``_sum`` / ``_count``.  Dotted metric names are sanitized to the
``[a-zA-Z_:][a-zA-Z0-9_:]*`` charset (dots become underscores).

``parse_prometheus_text`` is the minimal in-repo parser the validator and
the exporter round-trip tests use — it understands exactly what the
exporter emits (plus arbitrary label sets), not the full exposition
grammar.

``metrics_jsonl`` writes one metric object per line; histograms carry
their bucket vector and ``DEFAULT_QUANTILES``, read off each histogram's
sorted sample (exact up to ``SAMPLE_CAP`` observations, a stride sample
beyond), so the JSONL view is richer than the scrape view (quantiles
are deliberately *not* exported to Prometheus — mixing histogram and
summary series under one family is invalid exposition).
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Dict, List, Union

from .gcpause import gc_paused
from .metrics import Counter, Gauge, Histogram, MetricsRegistry

__all__ = [
    "sanitize_metric_name",
    "prometheus_text",
    "parse_prometheus_text",
    "PrometheusParseError",
    "metrics_jsonl",
    "write_metrics",
]

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?\s+(?P<value>\S+)$")
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def sanitize_metric_name(name: str) -> str:
    """Dotted registry name -> Prometheus-legal name."""
    cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not cleaned or not _NAME_OK.match(cleaned):
        cleaned = "_" + cleaned
    return cleaned


def _format_value(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def _format_le(bound: float) -> str:
    return "+Inf" if math.isinf(bound) else repr(float(bound))


@gc_paused()
def prometheus_text(registry: MetricsRegistry) -> str:
    """The whole registry in Prometheus text exposition format."""
    lines: List[str] = []
    for metric in registry.metrics():
        name = sanitize_metric_name(metric.name)
        if metric.help:
            lines.append(f"# HELP {name} {metric.help}")
        if isinstance(metric, Counter):
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name} {_format_value(metric.value)}")
        elif isinstance(metric, Gauge):
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {_format_value(metric.value)}")
        elif isinstance(metric, Histogram):
            lines.append(f"# TYPE {name} histogram")
            for upper, cumulative in metric.cumulative_buckets():
                lines.append(f'{name}_bucket{{le="{_format_le(upper)}"}} '
                             f"{cumulative}")
            lines.append(f"{name}_sum {_format_value(metric.sum)}")
            lines.append(f"{name}_count {metric.count}")
    return "\n".join(lines) + ("\n" if lines else "")


class PrometheusParseError(ValueError):
    """A line the minimal parser cannot accept (carries the line number)."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _parse_number(token: str) -> float:
    token = token.strip()
    if token == "+Inf":
        return float("inf")
    if token == "-Inf":
        return float("-inf")
    if token == "NaN":
        return float("nan")
    return float(token)


def parse_prometheus_text(text: str) -> Dict[str, Dict]:
    """Parse exposition text into ``{family: {"type", "help", "samples"}}``.

    ``samples`` is a list of ``(sample_name, labels_dict, value)`` tuples.
    Histogram ``_bucket``/``_sum``/``_count`` samples are grouped under
    their family name (the ``# TYPE`` subject).  Lines end at ``"\\n"``
    only (a trailing ``"\\r"`` is tolerated), so a U+2028 in a label value
    or help text stays content.  Raises :class:`PrometheusParseError` on
    any malformed line.
    """
    families: Dict[str, Dict] = {}

    def family_for(sample_name: str) -> Dict:
        base = sample_name
        for suffix in ("_bucket", "_sum", "_count"):
            trimmed = sample_name[: -len(suffix)] \
                if sample_name.endswith(suffix) else None
            if trimmed and families.get(trimmed, {}).get("type") \
                    == "histogram":
                base = trimmed
                break
        return families.setdefault(
            base, {"type": "untyped", "help": "", "samples": []})

    for lineno, raw in enumerate(text.split("\n"), start=1):
        raw = raw[:-1] if raw.endswith("\r") else raw
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 2 and parts[1] in ("HELP", "TYPE"):
                if len(parts) < 3:
                    raise PrometheusParseError(
                        lineno, f"malformed {parts[1]} comment: {raw!r}")
                name = parts[2]
                entry = families.setdefault(
                    name, {"type": "untyped", "help": "", "samples": []})
                if parts[1] == "TYPE":
                    kind = parts[3].strip() if len(parts) > 3 else ""
                    if kind not in ("counter", "gauge", "histogram",
                                    "summary", "untyped"):
                        raise PrometheusParseError(
                            lineno, f"unknown metric type {kind!r}")
                    entry["type"] = kind
                else:
                    entry["help"] = parts[3] if len(parts) > 3 else ""
            continue        # other comments are legal and skipped
        match = _LINE.match(line)
        if not match:
            raise PrometheusParseError(lineno, f"unparseable sample: {raw!r}")
        labels: Dict[str, str] = {}
        label_blob = match.group("labels")
        if label_blob:
            consumed = 0
            for lm in _LABEL.finditer(label_blob):
                labels[lm.group(1)] = lm.group(2).replace('\\"', '"') \
                    .replace("\\\\", "\\").replace("\\n", "\n")
                consumed += len(lm.group(0))
            stripped = re.sub(r"[,\s]", "", label_blob)
            if consumed < len(stripped):
                raise PrometheusParseError(
                    lineno, f"malformed labels: {{{label_blob}}}")
        try:
            value = _parse_number(match.group("value"))
        except ValueError:
            raise PrometheusParseError(
                lineno,
                f"non-numeric value {match.group('value')!r}") from None
        family = family_for(match.group("name"))
        family["samples"].append((match.group("name"), labels, value))
    return families


def metrics_jsonl(registry: MetricsRegistry) -> str:
    """One JSON object per metric per line (richer than the scrape view)."""
    lines: List[str] = []

    def scrub(value: float):
        return None if (isinstance(value, float)
                        and (math.isnan(value)
                             or math.isinf(value))) else value

    for metric in registry.metrics():
        if isinstance(metric, Histogram):
            payload = {
                "name": metric.name,
                "type": "histogram",
                "count": metric.count,
                "sum": metric.sum,
                "min": scrub(metric.min),
                "max": scrub(metric.max),
                "mean": scrub(metric.mean),
                "buckets": [["+Inf" if math.isinf(upper) else upper,
                             cumulative]
                            for upper, cumulative
                            in metric.cumulative_buckets()],
                "quantiles": {f"p{int(round(q * 100))}": scrub(v)
                              for q, v in
                              metric.quantiles().items()},
            }
        else:
            payload = {
                "name": metric.name,
                "type": ("counter" if isinstance(metric, Counter)
                         else "gauge"),
                "value": scrub(metric.value),
            }
        if metric.help:
            payload["help"] = metric.help
        lines.append(json.dumps(payload, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


def write_metrics(registry: MetricsRegistry,
                  path: Union[str, Path]) -> Path:
    """Write the registry to ``path``, format chosen by suffix:
    ``.jsonl`` -> JSONL, anything else (``.prom``, ``.txt``, ...) ->
    Prometheus text."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.suffix == ".jsonl":
        path.write_text(metrics_jsonl(registry))
    else:
        path.write_text(prometheus_text(registry))
    return path
