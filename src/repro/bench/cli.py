"""``python -m repro bench`` — run, compare and list benchmarks.

Examples::

    python -m repro bench list
    python -m repro bench run --fast                   # writes BENCH_*.json
    python -m repro bench run --suite nn --suite pim
    python -m repro bench compare                      # fresh run vs baseline
    python -m repro bench compare --run BENCH_x.json --tolerance 25
    python -m repro bench compare --run bench-results  # latest run in a dir

``compare`` exits non-zero when any benchmark regresses beyond the
tolerance — that exit code is the CI regression gate.  With no ``--run``
it executes a fresh run first (matching the baseline's fast/full mode so
the comparison is like-for-like).  A benchmark whose own check fails (a
speed gate's verdict) ends ``run`` or ``compare`` with
``error: <benchmark>: <message>`` and exit 1.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Optional

from .compare import compare_runs
from .registry import load_suites
from .results import BenchRun, latest_run_path, load_run, write_run
from .runner import (
    DEFAULT_REPEATS,
    DEFAULT_ROUNDS,
    DEFAULT_WARMUP,
    BenchmarkFailure,
    RunnerConfig,
    run_suites,
)

__all__ = ["add_bench_parser", "run_bench"]

DEFAULT_BASELINE = Path("benchmarks") / "baseline.json"


class _InputError(Exception):
    """A problem with what the user supplied (paths, files, selections) —
    reported as ``error: ...`` with exit 2, never as a traceback."""


def _load_run_file(path) -> BenchRun:
    try:
        return load_run(path)
    except (FileNotFoundError, json.JSONDecodeError, ValueError) as exc:
        raise _InputError(f"cannot load run {path}: {exc}") from exc
    except RecursionError:
        raise _InputError(f"cannot load run {path}: JSON nesting too deep"
                          ) from None


def _validate_selection(args) -> None:
    try:
        load_suites().select(suites=args.suite, names=args.name)
    except KeyError as exc:
        raise _InputError(exc.args[0]) from exc


def add_bench_parser(subparsers) -> argparse.ArgumentParser:
    """Register the ``bench`` subcommand on an existing subparser set."""
    p = subparsers.add_parser(
        "bench", help="benchmark harness: run / compare / list")
    bench_sub = p.add_subparsers(dest="bench_command", required=True)

    run_p = bench_sub.add_parser(
        "run", help="execute benchmark suites and write BENCH_*.json")
    _add_selection_args(run_p)
    run_p.add_argument("--warmup", type=int, default=DEFAULT_WARMUP,
                       help="untimed calls before measurement")
    run_p.add_argument("--repeats", type=int, default=DEFAULT_REPEATS,
                       help="timed samples per benchmark per round "
                            "(best pooled sample reported)")
    run_p.add_argument("--rounds", type=int, default=DEFAULT_ROUNDS,
                       help="interleaved whole-suite passes (samples are "
                            "pooled, defeating machine-state drift)")
    run_p.add_argument("--output-dir", default=".", metavar="DIR",
                       help="where BENCH_<timestamp>.json is written")
    run_p.add_argument("--no-write", action="store_true",
                       help="print the report without writing a run file")

    cmp_p = bench_sub.add_parser(
        "compare", help="diff a run against the committed baseline")
    cmp_p.add_argument("--baseline", default=str(DEFAULT_BASELINE),
                       metavar="PATH", help="baseline run JSON")
    cmp_p.add_argument("--run", default=None, metavar="PATH",
                       help="run file (or directory holding BENCH_*.json) "
                            "to compare; default: execute a fresh run")
    cmp_p.add_argument("--tolerance", type=float, default=25.0,
                       metavar="PCT", help="symmetric noise band percent")
    _add_selection_args(cmp_p)

    bench_sub.add_parser("list", help="list registered benchmarks")
    return p


def _add_selection_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--fast", action="store_true",
                        help="smoke mode: small shapes, short traces")
    parser.add_argument("--suite", action="append", default=None,
                        metavar="NAME", help="restrict to a suite "
                        "(repeatable; default: all)")
    parser.add_argument("--name", action="append", default=None,
                        metavar="NAME",
                        help="restrict to a benchmark (repeatable)")


def _render_run(run: BenchRun) -> str:
    from ..analysis.tables import Table
    table = Table(["benchmark", "wall_ms", "throughput", "unit", "samples"],
                  title=f"bench run ({'fast' if run.fast else 'full'} mode, "
                        f"best of {run.repeats} x {run.rounds} rounds)")
    for result in run.results:
        table.add_dict_row({
            "benchmark": result.name,
            "wall_ms": f"{result.wall_time_ms:.3f}",
            "throughput": "-" if result.throughput is None
                          else f"{result.throughput:,.0f}",
            "unit": f"{result.unit}/s",
            "samples": len(result.wall_times_ms),
        })
    return table.render()


def _pick(args, attr: str, override: Optional[int], default: int) -> int:
    value = getattr(args, attr, None)
    if value is not None:
        return value
    return override if override is not None else default


def _execute_run(args, fast: Optional[bool] = None,
                 warmup: Optional[int] = None,
                 repeats: Optional[int] = None,
                 rounds: Optional[int] = None) -> BenchRun:
    try:
        config = RunnerConfig(
            fast=args.fast if fast is None else fast,
            warmup=_pick(args, "warmup", warmup, DEFAULT_WARMUP),
            repeats=_pick(args, "repeats", repeats, DEFAULT_REPEATS),
            rounds=_pick(args, "rounds", rounds, DEFAULT_ROUNDS),
        )
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    return run_suites(suites=args.suite, names=args.name, config=config,
                      progress=lambda line: print(line, file=sys.stderr))


def _cmd_run(args) -> int:
    _validate_selection(args)
    run = _execute_run(args)
    print(_render_run(run))
    if not args.no_write:
        path = write_run(run, args.output_dir)
        print(f"\nwrote {path}")
    return 0


def _cmd_compare(args) -> int:
    if not (math.isfinite(args.tolerance) and args.tolerance >= 0):
        raise _InputError(f"--tolerance must be a finite number >= 0, "
                          f"got {args.tolerance}")
    baseline = _load_run_file(args.baseline)
    if args.run is not None:
        run_path = Path(args.run)
        if run_path.is_dir():
            try:
                run_path = latest_run_path(run_path)
            except FileNotFoundError as exc:
                raise _InputError(str(exc)) from exc
        current = _load_run_file(run_path)
        if current.fast != baseline.fast:
            print(f"warning: comparing a {_mode(current)} run against a "
                  f"{_mode(baseline)} baseline — workload sizes differ, "
                  "deltas are not like-for-like", file=sys.stderr)
        print(f"comparing {run_path} against {args.baseline}")
    else:
        _validate_selection(args)
        # Like-for-like: mirror the baseline's mode unless --fast given.
        current = _execute_run(args, fast=args.fast or baseline.fast,
                               warmup=baseline.warmup,
                               repeats=baseline.repeats,
                               rounds=baseline.rounds)
        print(f"comparing fresh run against {args.baseline}")
    report = compare_runs(baseline, current,
                          tolerance_pct=args.tolerance)
    print(report.render())
    return 0 if report.ok else 1


def _mode(run: BenchRun) -> str:
    return "fast-mode" if run.fast else "full-mode"


def _cmd_list(_args) -> int:
    registry = load_suites()
    from ..analysis.tables import Table
    table = Table(["benchmark", "suite", "description"],
                  title=f"{len(registry)} registered benchmarks")
    for bench in registry.select():
        table.add_dict_row({"benchmark": bench.name, "suite": bench.suite,
                            "description": bench.description})
    print(table.render())
    return 0


def run_bench(args) -> int:
    """Dispatch a parsed ``bench`` namespace (wired from repro.analysis.cli)."""
    try:
        if args.bench_command == "run":
            return _cmd_run(args)
        if args.bench_command == "compare":
            return _cmd_compare(args)
        if args.bench_command == "list":
            return _cmd_list(args)
    except _InputError as exc:
        # User-input problems (bad paths, malformed run files, unknown
        # suites/benchmarks) print `error: ...` and exit 2; tracebacks
        # are reserved for real harness bugs, which propagate.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BenchmarkFailure as exc:
        # A gate's verdict, not a bug: exit 1, as `compare` does for a
        # regression.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise ValueError(f"unknown bench command {args.bench_command!r}")
