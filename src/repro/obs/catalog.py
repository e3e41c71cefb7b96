"""The metric catalog: every published metric, declared once.

One table maps each family to rows of ``(short name, kind, help[,
buckets])``; the help text is the ``# HELP`` line, and a histogram
without buckets gets :data:`~repro.obs.metrics.DEFAULT_BUCKETS`.  Serve,
search and pim publish only through :func:`publish`, the metric table
of docs/observability.md is rendered by :func:`docs_table`, and a row
whose name breaks the namespace grammar fails at import.
"""

from __future__ import annotations

import re
from typing import Dict, List, Mapping, NamedTuple, Tuple

from .metrics import DEFAULT_BUCKETS, MetricsRegistry

__all__ = ["METRIC_NAME_RE", "METRIC_ROOTS", "MetricSpec", "SPAN_CATEGORIES",
           "SPAN_CATEGORY_RE", "docs_table", "metric_names", "publish"]

# The namespace grammar: a known subsystem root, then >= 2 further
# dot-separated snake_case segments for metrics (subsystem.component.
# metric) and >= 1 for span categories (subsystem.kind).
METRIC_ROOTS: Tuple[str, ...] = ("serve", "search", "pim", "obs")
_SEGMENT = r"[a-z][a-z0-9_]*"
METRIC_NAME_RE = re.compile(
    rf"^(?:{'|'.join(METRIC_ROOTS)})(?:\.{_SEGMENT}){{2,}}$")
SPAN_CATEGORY_RE = re.compile(
    rf"^(?:{'|'.join(METRIC_ROOTS)})(?:\.{_SEGMENT}){{1,}}$")

# Categories passed to ``Tracer.span``/``Tracer.record``.  Serve spans
# are synthesized from telemetry instead and documented by hand in the
# span taxonomy of docs/observability.md.
SPAN_CATEGORIES: Tuple[str, ...] = ("search.evolve", "search.pareto")

_KINDS = ("counter", "gauge", "histogram")
_SIM_COUNTERS = ("layers", "positions", "activation_rounds",
                 "analog_mac_ops", "crossbar_tiles")

_TABLE = {
    "serve.engine": (
        ("requests_completed", "counter", "requests served to completion"),
        ("requests_rejected", "counter",
         "requests shed by the bounded queue"),
        ("batches_dispatched", "counter", "micro-batches executed"),
        ("chips", "gauge", "chips provisioned by the shard plan"),
        ("throughput_fps", "gauge", "achieved completions/s of the last run"),
        ("latency_ms", "histogram", "end-to-end request latency (ms)"),
        ("wait_ms", "histogram", "queueing delay (ms)"),
        ("service_ms", "histogram", "chip service time (ms)"),
        ("batch_size", "histogram", "formed micro-batch sizes",
         (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)),
        ("queue_depth", "histogram", "queue depth at engine events",
         (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)),
    ),
    "serve.faults": (
        ("injected", "counter", "fault events applied to the run"),
        ("chip_kills", "counter", "chip-kill events applied"),
        ("stragglers", "counter", "straggler events applied"),
        ("cache_wipes", "counter", "cache-wipe events applied"),
        ("retries", "counter", "in-flight requests requeued by failover"),
        ("failovers", "counter",
         "chip kills survived by re-routing to replicas"),
        ("unrecoverable", "counter",
         "requests lost to faults (counted against availability)"),
        ("chips_lost", "gauge", "chips dead at end of run"),
    ),
    "serve.resilience": (
        ("admitted", "counter", "arrivals admitted past the gate"),
        ("admission_shed", "counter", "arrivals shed by admission control"),
        ("shed_queue_delay", "counter",
         "sheds by the CoDel delay controller"),
        ("shed_token_bucket", "counter", "sheds by the rate token bucket"),
        ("retry_budget", "gauge", "failover retry slots granted to the run"),
        ("retries_scheduled", "counter",
         "budgeted failover retries scheduled"),
        ("retry_exhausted", "counter",
         "retry requests denied by the budget or attempt cap"),
        ("breaker_opens", "counter", "circuit-breaker open transitions"),
        ("breaker_probes", "counter", "half-open probe dispatches"),
        ("breaker_closes", "counter",
         "breaker episodes closed by a healthy probe"),
        ("fail_open_batches", "counter",
         "batches served through open breakers because no live replica "
         "was healthy"),
        ("brownout_entries", "counter", "down-shifts to the degraded plan"),
        ("brownout_exits", "counter", "recoveries back to the primary plan"),
        ("brownout_ms", "gauge", "simulated ms spent browned out"),
        ("degraded_completions", "counter",
         "requests served at the degraded operating point"),
    ),
    "serve.scheduler": (
        ("submitted", "counter", "requests offered to the scheduler"),
        ("shed", "counter", "requests rejected by the bounded queue"),
        ("batches_formed", "counter", "micro-batches released"),
    ),
    "search.gridcache": (
        ("hits", "counter", "persistent grid-cache cell hits"),
        ("misses", "counter", "grid cells simulated fresh"),
        ("simulated", "counter", "unique candidate simulations run"),
    ),
    "search.evolve": (
        ("generations", "counter", "evolution generations evaluated"),
        ("individuals", "counter", "individuals scored"),
        ("best_reward", "gauge", "best reward of the last finished run"),
    ),
    "search.pareto": (
        ("generations", "counter", "Pareto generations evaluated"),
        ("archive_size", "gauge", "archive size at the end of the last run"),
        ("front_size", "gauge", "points on the last merged Pareto front"),
    ),
    "pim.simulator": tuple(
        (name, "gauge", f"simulator work counter: {name}")
        for name in _SIM_COUNTERS),
}


class MetricSpec(NamedTuple):
    """One declared metric: full dotted name, kind, help, buckets."""

    name: str
    kind: str
    help: str
    buckets: Tuple[float, ...] = DEFAULT_BUCKETS


def _specs(table) -> Dict[str, Dict[str, MetricSpec]]:
    """family -> short name -> spec; a malformed row raises ValueError."""
    families: Dict[str, Dict[str, MetricSpec]] = {}
    for family, rows in table.items():
        specs = families[family] = {}
        for short, *rest in rows:
            spec = MetricSpec(f"{family}.{short}", *rest)
            if not METRIC_NAME_RE.match(spec.name):
                raise ValueError(f"metric name {spec.name!r} does not parse "
                                 f"as subsystem.component.metric")
            if spec.kind not in _KINDS or short in specs:
                raise ValueError(f"{spec.name}: kind {spec.kind!r} is not "
                                 f"one of {_KINDS}, or the name repeats")
            specs[short] = spec
    return families


_FAMILIES = _specs(_TABLE)
for _category in SPAN_CATEGORIES:
    if not SPAN_CATEGORY_RE.match(_category):
        raise ValueError(f"span category {_category!r} does not parse "
                         f"as subsystem.kind")


def publish(registry: MetricsRegistry, family: str,
            values: Mapping[str, object]) -> None:
    """Publish ``values`` (short name -> value) under ``family``.

    Only the given keys are published, in the caller's order: a counter
    is incremented by its value, a gauge set to it, and a histogram
    observes the whole array at once.  A key the catalog does not
    declare raises ``KeyError``.
    """
    for key, value in values.items():
        try:
            spec = _FAMILIES[family][key]
        except KeyError:
            raise KeyError(f"metric {family}.{key} is not declared in "
                           f"repro.obs.catalog") from None
        if spec.kind == "counter":
            registry.counter(spec.name, help=spec.help).inc(value)
        elif spec.kind == "gauge":
            registry.gauge(spec.name, help=spec.help).set(value)
        else:
            registry.histogram(spec.name, buckets=spec.buckets,
                               help=spec.help).observe_many(value)


def _sorted_specs() -> List[MetricSpec]:
    return sorted((spec for specs in _FAMILIES.values()
                   for spec in specs.values()), key=lambda s: s.name)


def metric_names() -> List[str]:
    """Every declared metric's full name, sorted."""
    return [spec.name for spec in _sorted_specs()]


def docs_table() -> str:
    """The Markdown metric table of docs/observability.md, by name."""
    rows = ["| Metric | Type | Meaning |", "|---|---|---|"]
    rows.extend(f"| `{spec.name}` | {spec.kind} | {spec.help} |"
                for spec in _sorted_specs())
    return "\n".join(rows) + "\n"
