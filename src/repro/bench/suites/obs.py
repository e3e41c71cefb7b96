"""Benchmarks for the observability layer: tracing overhead on serving
(``obs.overhead``) and the span exports (``obs.export``).

``obs.overhead`` replays the same offered-load cells as
``serve.offered_load_sweep`` (engines prebuilt, traces pregenerated, so
only the replay is timed) with the default no-op tracer (side ``a``)
and with a real :class:`~repro.obs.tracer.Tracer` installed (side
``b``), and gates the overhead at :data:`OVERHEAD_BUDGET_PCT`.  Both
sides publish into a fresh registry and must return an identical
``summary()``, so the ratio isolates span recording.  That is the
contract docs/observability.md advertises: instrumentation costs one
``tracer.enabled`` check per event until a run opts in.  Bulk metric
publication is not free, and both sides pay it: after a 2,000-request
ResNet-50 replay one ``ServingEngine._publish_metrics`` call takes
about 0.5 ms on a 2-core host, and the ``design`` A/B sweep's four
``serve`` calls into one registry spend 1.4-1.6 ms publishing in all
(medians of 10 sweeps), each histogram sorting its batch's sample and
merging it into its sorted sample.

Timing is :func:`repro.bench.paired`: ABBA blocks, one cell each, and
the median block ratio with its ~95% interval; the gate fails only when
the whole interval is above the budget.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Dict

from ...obs.metrics import MetricsRegistry
from ...obs.runtime import use_tracer
from ...obs.tracer import Tracer
from ...obs.validate import validate_file
from ...serve import synthetic_trace
from ..paired import PairedTiming, gate, paired
from ..registry import Workload, benchmark
from .serve import (
    GATE_CHIP_COUNTS,
    build_engine,
    gate_cells,
    replay,
    same_summary,
)

__all__ = ["OVERHEAD_BUDGET_PCT", "measure_overhead", "overhead_factory",
           "export_factory"]

OVERHEAD_BUDGET_PCT = 5.0

_LOAD_FACTORS = (0.5, 1.3)


def _traced(job):
    with use_tracer(Tracer()):
        return replay(*job)


def measure_overhead(num_requests: int, rounds: int) -> PairedTiming:
    """Serving with tracing off (``a``) vs on (``b``), per cell."""
    jobs = gate_cells(_LOAD_FACTORS, lambda rate: synthetic_trace(
        num_requests, rate_rps=rate, seed=17))
    return paired(lambda job: replay(*job), _traced, jobs, rounds=rounds,
                  same=same_summary)


@benchmark("obs.overhead", suite="obs",
           description="tracing+metrics overhead on the serve replay loop",
           warmup=0, repeats=1, min_sample_ms=0.0)
def overhead_factory(fast: bool) -> Workload:
    num_requests = 150 if fast else 400
    rounds = 24 if fast else 12
    cells = len(GATE_CHIP_COUNTS) * len(_LOAD_FACTORS)
    measured: Dict[str, float] = {}

    def fn():
        result = measure_overhead(num_requests, rounds)
        measured.update(gate(result, "observability overhead",
                             budget_pct=OVERHEAD_BUDGET_PCT),
                        disabled_s=result.a_s, enabled_s=result.b_s)
        return result

    # Each cell: two warm-up replays, then four per ABBA block.
    return Workload(fn=fn,
                    items=float(num_requests * cells * (2 + 4 * rounds)),
                    unit="requests", counters=lambda: dict(measured))


@benchmark("obs.export", suite="obs",
           description="Chrome-trace and span-JSONL export of one serve "
                       "run's spans, each file validated")
def export_factory(fast: bool) -> Workload:
    """What ``--trace-out`` and ``repro obs validate`` do with one
    fixed-seed serve run's spans; the run itself is set-up."""
    engine = build_engine(2)
    trace = synthetic_trace(1000 if fast else 5000,
                            rate_rps=0.7 * engine.plan.throughput_fps,
                            seed=17)
    tracer = Tracer()
    engine.serve(trace, tracer=tracer, metrics=MetricsRegistry())
    spans = float(len(tracer))      # synthesizes the spans, untimed
    tmp = tempfile.TemporaryDirectory(prefix="repro-obs-export-")
    paths = (Path(tmp.name) / "trace.json", Path(tmp.name) / "spans.jsonl")

    def fn():
        tracer.write_chrome_trace(paths[0])
        tracer.write_jsonl(paths[1])
        for path in paths:
            kind, problems = validate_file(path)
            assert not problems, f"{path.name} ({kind}): {problems[0]}"

    fn.__dict__["_tmpdir"] = tmp    # keep the dir alive
    return Workload(fn=fn, items=spans, unit="spans", counters=lambda: {
        "spans": spans,
        "bytes": float(sum(path.stat().st_size for path in paths))})
