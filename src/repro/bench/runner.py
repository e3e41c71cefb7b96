"""Suite runner: warmup/repeat/timer discipline around registered workloads.

Discipline per benchmark:

1. the factory builds the workload (setup excluded from timing);
2. ``warmup`` untimed calls absorb first-touch effects (allocator growth,
   import side effects, cache fills);
3. a probe call sizes an inner loop so every timed sample spans at least
   ``min_sample_ms`` (timeit-style autorange: sub-millisecond workloads
   are repeated within one sample to amortize timer and scheduler noise);
4. ``repeats`` timed samples with ``time.perf_counter``; the *minimum*
   per-call time is the headline number — preemption and cache pollution
   only ever add time, so the min is the most reproducible statistic for
   regression gating;
5. work counters are sampled after the timed calls so every result records
   work done (requests served, MACs simulated), not just seconds.

On top of the per-benchmark discipline, :func:`run_suites` executes the
whole selected set for ``rounds`` interleaved passes and pools each
benchmark's samples across passes.  One pass is vulnerable to the machine
state it happened to land on (frequency scaling, a noisy neighbour burst);
samples spread over the whole invocation make the pooled min a stable
anchor for the regression gate.

Each run also times a fixed *calibration* workload (a pure
numpy-plus-Python reference loop that no repo change can speed up or slow
down) under the same discipline, recorded as ``calibration_ms``.  Machine
speed drifts by tens of percent across minutes on shared hardware — far
beyond any sane gate tolerance — but it drifts *uniformly*, so
:func:`repro.bench.compare.compare_runs` divides it out by scaling every
current wall time by ``baseline.calibration_ms / current.calibration_ms``
before applying the tolerance band.

Peak RSS comes from ``resource.getrusage`` — a process-wide high-water
mark, so per-benchmark values are monotone within a run; the run-level
value is the honest one for memory regressions.

The run also records the BLAS/OpenMP thread variables it saw
(``thread_env``, null where unset) and ``os.cpu_count()``: a
multithreaded BLAS times small kernels very differently from one thread,
so a comparison is only meaningful between runs with the same pins.
"""

from __future__ import annotations

import math
import os
import platform as platform_mod
import subprocess
import sys
import time
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import Callable, List, Optional

from .paired import collector_paused
from .registry import (
    Benchmark,
    BenchmarkRegistry,
    Workload,
    load_suites,
)
from .results import (
    DEFAULT_REPEATS,
    DEFAULT_ROUNDS,
    DEFAULT_WARMUP,
    THREAD_ENV_VARS,
    BenchResult,
    BenchRun,
)

__all__ = [
    "BenchmarkFailure",
    "RunnerConfig",
    "run_benchmark",
    "run_suites",
    "git_sha",
    "peak_rss_kb",
]

DEFAULT_MIN_SAMPLE_MS = 10.0
MAX_INNER_LOOPS = 10_000


@dataclass(frozen=True)
class RunnerConfig:
    """Run discipline shared by every benchmark in one invocation."""

    fast: bool = False
    warmup: int = DEFAULT_WARMUP
    repeats: int = DEFAULT_REPEATS
    rounds: int = DEFAULT_ROUNDS
    min_sample_ms: float = DEFAULT_MIN_SAMPLE_MS
    timer: Callable[[], float] = time.perf_counter

    def __post_init__(self):
        if self.warmup < 0:
            raise ValueError("warmup must be >= 0")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.min_sample_ms < 0:
            raise ValueError("min_sample_ms must be >= 0")


class BenchmarkFailure(AssertionError):
    """A benchmark's own check failed — a speed gate's verdict or a
    workload's correctness assertion, not a harness bug.  The message
    names the benchmark."""

    def __init__(self, name: str, message: str):
        super().__init__(f"{name}: {message}")
        self.name = name


def git_sha(repo_dir: Optional[str] = None) -> Optional[str]:
    """Current commit SHA, or ``None`` outside a git checkout."""
    cwd = repo_dir or str(Path(__file__).resolve().parent)
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=cwd,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def peak_rss_kb() -> Optional[int]:
    """Process peak resident set size in KiB (``None`` where unsupported)."""
    try:
        import resource
    except ImportError:                      # non-POSIX
        return None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":             # macOS reports bytes
        rss //= 1024
    return int(rss)


def _calibration_workload() -> Workload:
    """Fixed reference load resembling the suites' numpy/Python mix."""
    import numpy as np
    a = np.full((64, 64), 1.0 / 64.0)

    def fn():
        total = 0.0
        b = a
        for _ in range(20):
            b = a @ b
            total += float(b[0, 0])
        return total

    return Workload(fn=fn, items=20.0, unit="matmuls")


CALIBRATION_BENCH = Benchmark(
    name="__calibration__", suite="__harness__",
    factory=lambda fast: _calibration_workload(),
    description="fixed reference workload for machine-speed normalization")


def run_benchmark(bench: Benchmark, config: RunnerConfig = RunnerConfig(),
                  workload: Optional[Workload] = None) -> BenchResult:
    """Execute one benchmark under the configured discipline.

    ``workload`` lets a caller reuse an already-built workload (setup can
    be expensive); by default the factory is invoked fresh.
    """
    if workload is None:
        workload = bench.factory(config.fast)
    warmup = bench.warmup if bench.warmup is not None else config.warmup
    repeats = bench.repeats if bench.repeats is not None else config.repeats
    min_sample_ms = (bench.min_sample_ms if bench.min_sample_ms is not None
                     else config.min_sample_ms)

    for _ in range(warmup):
        workload.fn()

    # Probe once to size the inner loop (autorange): sub-millisecond
    # workloads are batched until one timed sample spans min_sample_ms.
    start = config.timer()
    workload.fn()
    probe_ms = (config.timer() - start) * 1000.0
    inner = 1
    if probe_ms < min_sample_ms:
        inner = min(MAX_INNER_LOOPS,
                    max(1, math.ceil(min_sample_ms / max(probe_ms, 1e-6))))

    times_ms: List[float] = []
    if inner == 1:
        # The probe already is a full-discipline sample — reuse it so an
        # expensive one-shot benchmark (e.g. the serve sweep) is not run
        # twice for nothing.
        times_ms.append(probe_ms)
    with collector_paused():
        for _ in range(repeats - len(times_ms)):
            start = config.timer()
            for _ in range(inner):
                workload.fn()
            times_ms.append((config.timer() - start) * 1000.0 / inner)

    counters = workload.counters() if workload.counters is not None else {}
    return BenchResult.from_times(
        name=bench.name, suite=bench.suite, times_ms=times_ms,
        items=workload.items, unit=workload.unit, counters=counters,
        peak_rss_kb=peak_rss_kb(), calls_per_repeat=inner)


def run_suites(suites: Optional[List[str]] = None,
               names: Optional[List[str]] = None,
               config: RunnerConfig = RunnerConfig(),
               registry: Optional[BenchmarkRegistry] = None,
               progress: Optional[Callable[[str], None]] = None) -> BenchRun:
    """Run the selected benchmarks (default: every registered suite).

    A workload's failed assertion (a speed gate's verdict, a structural
    check) is re-raised as :class:`BenchmarkFailure` naming the
    benchmark; any other exception is a harness bug and propagates.
    """
    if registry is None:
        registry = load_suites()
    selected = registry.select(suites=suites, names=names)
    if not selected:
        raise ValueError("no benchmarks selected")

    # Expensive setup (building models, compiling deployments) is paid
    # once; only the timed discipline repeats across rounds.  The hidden
    # calibration benchmark runs inside every round so it samples the
    # same machine states as the real suites.
    workloads = {bench.name: bench.factory(config.fast)
                 for bench in selected}
    calibration_workload = CALIBRATION_BENCH.factory(config.fast)
    by_name: dict = {}
    calibration_samples: List[float] = []
    for round_index in range(config.rounds):
        calibration_samples.extend(run_benchmark(
            CALIBRATION_BENCH, config,
            workload=calibration_workload).wall_times_ms)
        for bench in selected:
            if progress is not None:
                tag = (f" (round {round_index + 1}/{config.rounds})"
                       if config.rounds > 1 else "")
                progress(f"[{bench.suite}] {bench.name}{tag} ...")
            try:
                result = run_benchmark(bench, config,
                                       workload=workloads[bench.name])
            except AssertionError as exc:
                raise BenchmarkFailure(
                    bench.name, str(exc) or "assertion failed") from exc
            by_name.setdefault(bench.name, []).append(result)

    results: List[BenchResult] = []
    for bench in selected:
        rounds = by_name[bench.name]
        last = rounds[-1]
        pooled: List[float] = []
        for partial in rounds:
            pooled.extend(partial.wall_times_ms)
        results.append(BenchResult.from_times(
            name=last.name, suite=last.suite, times_ms=pooled,
            items=last.items, unit=last.unit, counters=last.counters,
            peak_rss_kb=last.peak_rss_kb,
            calls_per_repeat=last.calls_per_repeat))

    return BenchRun(
        results=results,
        created_at=datetime.now().isoformat(timespec="seconds"),
        git_sha=git_sha(),
        python=platform_mod.python_version(),
        platform=platform_mod.platform(),
        fast=config.fast,
        warmup=config.warmup,
        repeats=config.repeats,
        rounds=config.rounds,
        calibration_ms=min(calibration_samples),
        peak_rss_kb=peak_rss_kb(),
        thread_env={name: os.environ.get(name) for name in THREAD_ENV_VARS},
        cpu_count=os.cpu_count(),
    )
