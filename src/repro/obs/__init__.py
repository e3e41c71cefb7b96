"""repro.obs — unified observability: metrics, tracing, SLO reporting.

The cross-subsystem instrumentation layer (docs/observability.md):

- :mod:`repro.obs.metrics` — process-wide registry of counters, gauges
  and histograms (fixed buckets plus a sorted sample of at most
  ``SAMPLE_CAP`` values: quantiles exact up to the cap, a deterministic
  stride sample beyond it);
- :mod:`repro.obs.tracer` — span tracer exporting Chrome trace-event
  JSON (Perfetto-loadable) and JSONL; no-op by default;
- :mod:`repro.obs.catalog` — every metric's one declaration (name,
  kind, help, buckets) and ``publish``, the only way serve, search and
  pim write a metric;
- :mod:`repro.obs.runtime` — the installed tracer/registry the
  instrumented subsystems (serve, search, pim) resolve at call time;
- :mod:`repro.obs.slo` — SLO definitions and attainment reports;
- :mod:`repro.obs.export` — Prometheus text and JSONL exporters (and the
  minimal Prometheus parser);
- :mod:`repro.obs.validate` / :mod:`repro.obs.cli` — structural
  validators behind ``python -m repro obs validate``.
"""

from .metrics import (
    DEFAULT_BUCKETS,
    DEFAULT_QUANTILES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .runtime import (
    get_metrics,
    get_tracer,
    set_metrics,
    set_tracer,
    use_metrics,
    use_tracer,
)
from .slo import DEFAULT_AVAILABILITY, SLO, SLOReport
from .tracer import NullTracer, Span, Tracer
from .export import (
    metrics_jsonl,
    parse_prometheus_text,
    prometheus_text,
    write_metrics,
)
from .validate import (
    validate_chrome_trace,
    validate_file,
    validate_jsonl,
    validate_prometheus,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "DEFAULT_QUANTILES",
    "DEFAULT_AVAILABILITY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullTracer",
    "Span",
    "Tracer",
    "SLO",
    "SLOReport",
    "get_metrics",
    "get_tracer",
    "set_metrics",
    "set_tracer",
    "use_metrics",
    "use_tracer",
    "metrics_jsonl",
    "parse_prometheus_text",
    "prometheus_text",
    "write_metrics",
    "validate_chrome_trace",
    "validate_file",
    "validate_jsonl",
    "validate_prometheus",
]
