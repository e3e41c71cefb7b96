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
