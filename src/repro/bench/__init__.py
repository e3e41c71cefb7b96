"""repro.bench — unified benchmark harness and perf-trajectory tooling.

The measurement substrate every "make it faster" PR cites:

- :mod:`repro.bench.registry` — ``@benchmark``-registered workload
  factories, deduplicated by name;
- :mod:`repro.bench.runner` — warmup/repeat/perf_counter discipline,
  git-SHA + peak-RSS provenance;
- :mod:`repro.bench.paired` — the one A-vs-B timing primitive (ABBA
  blocks, a median ratio with its interval) and the speed gates' rule;
- :mod:`repro.bench.results` — the versioned ``BENCH_<timestamp>.json``
  schema (wall times, throughput, work counters, environment);
- :mod:`repro.bench.compare` — baseline diffing with tolerance-banded
  verdicts, the CI regression gate;
- :mod:`repro.bench.suites` — first-class suites covering all four layers
  (nn autodiff, pim simulator, compile/export pipeline, serving runtime);
- :mod:`repro.bench.cli` — ``python -m repro bench [run|compare|list]``.
"""

from .compare import (
    CompareEntry,
    CompareReport,
    VERDICT_IMPROVEMENT,
    VERDICT_MISSING,
    VERDICT_NEW,
    VERDICT_REGRESSION,
    VERDICT_WITHIN_TOLERANCE,
    compare_runs,
)
from .paired import PairedTiming, gate, paired
from .registry import (
    Benchmark,
    BenchmarkRegistry,
    DEFAULT_REGISTRY,
    Workload,
    benchmark,
    load_suites,
)
from .results import (
    BENCH_FILE_PREFIX,
    BenchResult,
    BenchRun,
    SCHEMA_VERSION,
    latest_run_path,
    load_run,
    validate_run_dict,
    write_run,
)
from .runner import RunnerConfig, git_sha, peak_rss_kb, run_benchmark, run_suites

__all__ = [
    "Benchmark",
    "BenchmarkRegistry",
    "DEFAULT_REGISTRY",
    "Workload",
    "benchmark",
    "load_suites",
    "paired",
    "gate",
    "PairedTiming",
    "RunnerConfig",
    "run_benchmark",
    "run_suites",
    "git_sha",
    "peak_rss_kb",
    "SCHEMA_VERSION",
    "BENCH_FILE_PREFIX",
    "BenchResult",
    "BenchRun",
    "validate_run_dict",
    "write_run",
    "load_run",
    "latest_run_path",
    "compare_runs",
    "CompareEntry",
    "CompareReport",
    "VERDICT_REGRESSION",
    "VERDICT_IMPROVEMENT",
    "VERDICT_WITHIN_TOLERANCE",
    "VERDICT_NEW",
    "VERDICT_MISSING",
]
