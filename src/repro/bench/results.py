"""Machine-readable benchmark results: schema, serialization, trajectory files.

Every harness run serialises to ``BENCH_<timestamp>.json`` so the repo
accumulates a *perf trajectory* — a versioned, diffable record of how fast
the system is at each commit (the software analogue of the real-PIM
benchmarking methodology: numbers only count when they are reproducible
and comparable over time).

Schema (version 1)::

    {
      "schema_version": 1,
      "created_at":  "2026-07-29T12:00:00",
      "git_sha":     "abc123..." | null,
      "python":      "3.11.7",
      "platform":    "Linux-...",
      "fast":        true,
      "warmup":      1,
      "repeats":     5,
      "rounds":      3,
      "calibration_ms": 0.42,   # fixed reference workload; lets compare()
                                # divide out machine-speed drift
      "peak_rss_kb": 123456,
      "thread_env": {"OMP_NUM_THREADS": "1",      # optional: the BLAS and
                     "OPENBLAS_NUM_THREADS": "1", # OpenMP thread pins the
                     "MKL_NUM_THREADS": null},    # run saw (null = unset)
      "cpu_count": 2,                             # optional: os.cpu_count()
      "results": [
        {
          "name": "serve.offered_load_sweep",
          "suite": "serve",
          "wall_time_ms": 812.4,          # best (min) per-call time
          "wall_times_ms": [..],          # every timed repeat (per call)
          "calls_per_repeat": 1,          # autorange inner-loop size
          "items": 600.0,
          "unit": "requests",
          "throughput": 738.5,            # items per second (at the min)
          "counters": {"requests": 600},  # work done, not just seconds
          "peak_rss_kb": 123000
        }, ...
      ]
    }
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from typing import Dict, List, Optional, Union

__all__ = [
    "SCHEMA_VERSION",
    "BENCH_FILE_PREFIX",
    "THREAD_ENV_VARS",
    "BenchResult",
    "BenchRun",
    "validate_run_dict",
    "write_run",
    "load_run",
    "latest_run_path",
]

SCHEMA_VERSION = 1
BENCH_FILE_PREFIX = "BENCH_"
# Environment variables that set how many threads NumPy's BLAS and
# OpenMP use; a multithreaded BLAS makes small-kernel timings depend on
# the host's core count.
THREAD_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                   "MKL_NUM_THREADS")
# The run discipline a run file records when its caller sets none: the
# runner's and ``repro bench run``'s defaults.
DEFAULT_WARMUP = 1
DEFAULT_REPEATS = 5
DEFAULT_ROUNDS = 3


@dataclass
class BenchResult:
    """One benchmark's measurements within a run."""

    name: str
    suite: str
    wall_time_ms: float
    wall_times_ms: List[float]
    items: float = 1.0
    unit: str = "iters"
    throughput: Optional[float] = None
    counters: Dict[str, float] = field(default_factory=dict)
    peak_rss_kb: Optional[int] = None
    calls_per_repeat: int = 1

    @classmethod
    def from_times(cls, name: str, suite: str, times_ms: List[float],
                   items: float = 1.0, unit: str = "iters",
                   counters: Optional[Dict[str, float]] = None,
                   peak_rss_kb: Optional[int] = None,
                   calls_per_repeat: int = 1) -> "BenchResult":
        # The min is the headline: system noise only ever adds time, so
        # best-of-repeats is the most reproducible gate statistic.
        best = min(times_ms)
        throughput = items / (best / 1000.0) if best > 0 else None
        return cls(name=name, suite=suite, wall_time_ms=best,
                   wall_times_ms=list(times_ms), items=items, unit=unit,
                   throughput=throughput, counters=dict(counters or {}),
                   peak_rss_kb=peak_rss_kb, calls_per_repeat=calls_per_repeat)

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "suite": self.suite,
            "wall_time_ms": self.wall_time_ms,
            "wall_times_ms": self.wall_times_ms,
            "items": self.items,
            "unit": self.unit,
            "throughput": self.throughput,
            "counters": self.counters,
            "peak_rss_kb": self.peak_rss_kb,
            "calls_per_repeat": self.calls_per_repeat,
        }

    @classmethod
    def from_dict(cls, entry: Dict) -> "BenchResult":
        return cls(
            name=entry["name"],
            suite=entry["suite"],
            wall_time_ms=float(entry["wall_time_ms"]),
            wall_times_ms=[float(t) for t in entry["wall_times_ms"]],
            items=float(entry.get("items", 1.0)),
            unit=entry.get("unit", "iters"),
            throughput=entry.get("throughput"),
            counters=dict(entry.get("counters", {})),
            peak_rss_kb=entry.get("peak_rss_kb"),
            calls_per_repeat=int(entry.get("calls_per_repeat", 1)),
        )


@dataclass
class BenchRun:
    """A full harness invocation: environment provenance + every result."""

    results: List[BenchResult]
    created_at: str
    git_sha: Optional[str]
    python: str
    platform: str
    fast: bool
    warmup: int
    repeats: int
    rounds: int = 1
    calibration_ms: Optional[float] = None
    peak_rss_kb: Optional[int] = None
    schema_version: int = SCHEMA_VERSION
    # Optional provenance (absent from older run files): the value of
    # each THREAD_ENV_VARS entry (None when unset), and os.cpu_count().
    thread_env: Optional[Dict[str, Optional[str]]] = None
    cpu_count: Optional[int] = None

    def result_by_name(self, name: str) -> BenchResult:
        for result in self.results:
            if result.name == name:
                return result
        raise KeyError(f"run has no result named {name!r}")

    def names(self) -> List[str]:
        return [result.name for result in self.results]

    def to_dict(self) -> Dict:
        return {
            "schema_version": self.schema_version,
            "created_at": self.created_at,
            "git_sha": self.git_sha,
            "python": self.python,
            "platform": self.platform,
            "fast": self.fast,
            "warmup": self.warmup,
            "repeats": self.repeats,
            "rounds": self.rounds,
            "calibration_ms": self.calibration_ms,
            "peak_rss_kb": self.peak_rss_kb,
            "thread_env": self.thread_env,
            "cpu_count": self.cpu_count,
            "results": [result.to_dict() for result in self.results],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "BenchRun":
        validate_run_dict(data)
        return cls(
            results=[BenchResult.from_dict(e) for e in data["results"]],
            created_at=data["created_at"],
            git_sha=data.get("git_sha"),
            python=data["python"],
            platform=data["platform"],
            fast=bool(data["fast"]),
            warmup=int(data["warmup"]),
            repeats=int(data["repeats"]),
            rounds=int(data.get("rounds", 1)),
            calibration_ms=data.get("calibration_ms"),
            peak_rss_kb=data.get("peak_rss_kb"),
            schema_version=int(data["schema_version"]),
            thread_env=data.get("thread_env"),
            cpu_count=data.get("cpu_count"),
        )


_RUN_REQUIRED = ("schema_version", "created_at", "python", "platform",
                 "fast", "warmup", "repeats", "results")
_RESULT_REQUIRED = ("name", "suite", "wall_time_ms", "wall_times_ms")


def _finite(value) -> bool:
    """A JSON number (not a bool) that is neither NaN nor infinite —
    ``json.load`` accepts ``NaN``, and every comparison with it is
    false, so a NaN time would never read as a regression."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def validate_run_dict(data: Dict) -> None:
    """Raise ``ValueError`` unless ``data`` is a schema-valid run dict."""
    if not isinstance(data, dict):
        raise ValueError(f"run must be a dict, got {type(data).__name__}")
    missing = [key for key in _RUN_REQUIRED if key not in data]
    if missing:
        raise ValueError(f"run dict missing keys: {missing}")
    if data["schema_version"] != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported schema_version {data['schema_version']!r} "
            f"(this harness writes {SCHEMA_VERSION})")
    calibration = data.get("calibration_ms")
    if calibration is not None and not (_finite(calibration)
                                        and calibration > 0):
        raise ValueError(f"calibration_ms must be null or a finite number "
                         f"> 0, got {calibration!r}")
    thread_env = data.get("thread_env")
    if thread_env is not None and not (
            isinstance(thread_env, dict)
            and all(isinstance(value, (str, type(None)))
                    for value in thread_env.values())):
        raise ValueError(f"thread_env must be null or a dict of strings "
                         f"or nulls, got {thread_env!r}")
    cpu_count = data.get("cpu_count")
    if cpu_count is not None and (isinstance(cpu_count, bool)
                                  or not isinstance(cpu_count, int)
                                  or cpu_count < 1):
        raise ValueError(f"cpu_count must be null or an integer >= 1, "
                         f"got {cpu_count!r}")
    if not isinstance(data["results"], list):
        raise ValueError("'results' must be a list")
    seen = set()
    for index, entry in enumerate(data["results"]):
        if not isinstance(entry, dict):
            raise ValueError(f"results[{index}] must be a dict")
        missing = [key for key in _RESULT_REQUIRED if key not in entry]
        if missing:
            raise ValueError(f"results[{index}] missing keys: {missing}")
        if not isinstance(entry["wall_times_ms"], list) or not entry["wall_times_ms"]:
            raise ValueError(
                f"results[{index}].wall_times_ms must be a non-empty list")
        times = [entry["wall_time_ms"], *entry["wall_times_ms"]]
        if not all(_finite(t) for t in times):
            raise ValueError(
                f"results[{index}] has a wall time that is not a finite "
                f"number")
        if any(t < 0 for t in times):
            raise ValueError(f"results[{index}] has negative wall time")
        if entry["name"] in seen:
            raise ValueError(f"duplicate result name {entry['name']!r}")
        seen.add(entry["name"])


def write_run(run: BenchRun, directory: Union[str, Path] = ".") -> Path:
    """Serialise ``run`` to ``<directory>/BENCH_<timestamp>.json``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    stamp = datetime.now().strftime("%Y%m%d_%H%M%S_%f")
    path = directory / f"{BENCH_FILE_PREFIX}{stamp}.json"
    data = run.to_dict()
    validate_run_dict(data)
    path.write_text(json.dumps(data, indent=2, sort_keys=False) + "\n")
    return path


def load_run(path: Union[str, Path]) -> BenchRun:
    """Load and validate a run file (``BENCH_*.json`` or baseline.json)."""
    with open(path) as handle:
        data = json.load(handle)
    return BenchRun.from_dict(data)


def latest_run_path(directory: Union[str, Path]) -> Path:
    """Newest ``BENCH_*.json`` under ``directory`` (by file name, which
    sorts chronologically thanks to the timestamp)."""
    directory = Path(directory)
    candidates = sorted(directory.glob(f"{BENCH_FILE_PREFIX}*.json"))
    if not candidates:
        raise FileNotFoundError(
            f"no {BENCH_FILE_PREFIX}*.json files in {directory}")
    return candidates[-1]
