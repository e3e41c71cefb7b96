#!/usr/bin/env python3
"""Closed-loop end-to-end benchmark of the EPIM reproduction.

    python3 benchmarks/e2e/run.py --workload design --seed 0 --seconds 20 --trace 0

One run measures one workload (see ``workloads.py``) in fresh child
processes, one at a time, each single-threaded:

- ``--trace 0``: set-up, 2 warm-ups, then at least 100 timed iterations
  and at least ``--seconds`` of them, untraced.  Reports the end-to-end
  metrics of ``BENCHMARK.json``: iteration times in multiples of a
  reference kernel timed around each iteration (see
  :func:`reference_kernel`; the raw seconds are in the report line),
  peak RSS, and ``setup_s``, the median over three processes of process
  start -> first timed iteration, scaled by the host's speed (the
  reference kernel's time right after set-up).
- ``--trace 1``: at least 20 pairs of one untraced and one traced
  iteration on the same seed (the order alternates).  The traced one
  rebinds the library's public functions to span-recording wrappers;
  each layer's self time becomes a share of the iteration.  Reports the
  per-layer metrics, and ``--trace-out`` writes the spans as a Chrome
  trace for Perfetto.

Iteration ``i`` uses seed ``--seed + i``.  Every iteration's simulated
outputs are digested and checked (see ``workloads.py``); digests of seeds
0-9 must match ``expected.json`` (``--update-expected`` rewrites them).
All times are host wall time.  The last stdout line is the result:
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
a ``{"report": ...}`` object that ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"
EXPECTED = HERE / "expected.json"
SCRATCH = ROOT / ".e2e_tmp"

WARMUPS = 2
TIMED_ITERATIONS = 100      # the p90 then keeps 10 samples beyond it
TRACED_ITERATIONS = 20
SETUP_RUNS = 3
GOLDEN_SEEDS = 10           # expected.json pins the digests of seeds 0-9
WARMUP_SEED = 1 << 20       # warm-ups never repeat a timed iteration's inputs
RUN_DEADLINE_S = 170.0
# A fixed scale: setup_s reads as the set-up's seconds on a host where
# the reference kernel takes this long (see measure()).
REFERENCE_S = 0.0045

_NULL_SPAN = nullcontext()


def _untraced(name: str, stage: str):
    return _NULL_SPAN


def declared_metrics(trace: bool) -> Dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads(BENCHMARK.read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------

class Recorder:
    """In-memory span recorder for the traced phase.

    A span is ``[iteration, id, parent id, name, stage, start, end,
    args]`` in host seconds.  Each traced iteration has one root span
    (stage ``unaccounted``: its self time is glue code between stages).
    """

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._iteration: Optional[int] = None

    def _open(self, name: str, stage: str, args=None) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [self._iteration, len(self.spans), parent, name, stage,
                0.0, 0.0, args]
        self.spans.append(span)
        self._stack.append(span[1])
        span[5] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[6] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, stage: str):
        span = self._open(name, stage)
        try:
            yield
        finally:
            self._close(span)

    @contextmanager
    def iteration(self, index: int):
        self._iteration = index
        with self.span("iteration", "unaccounted"):
            yield

    def wrap(self, fn, name: str, stage: str, label=None):
        def traced(*args, **kwargs):
            span = self._open(name, stage, label(args) if label else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)
        return traced

    def breakdown(self, index: int) -> Dict[str, float]:
        """One iteration's wall time, each stage's share of it (%), and the
        split of layer-simulation time by layer kind (%)."""
        spans = [s for s in self.spans if s[0] == index]
        children: Dict[int, float] = {}
        for s in spans:
            if s[2] is not None:
                children[s[2]] = children.get(s[2], 0.0) + s[6] - s[5]
        total = next(s[6] - s[5] for s in spans if s[2] is None)
        stages: Dict[str, float] = {}
        kinds: Dict[str, float] = {}
        for s in spans:
            stages[s[4]] = (stages.get(s[4], 0.0)
                            + s[6] - s[5] - children.get(s[1], 0.0))
            if s[7] and "kind" in s[7]:
                kinds[s[7]["kind"]] = kinds.get(s[7]["kind"], 0.0) + s[6] - s[5]
        out = {f"{stage}_pct": 100.0 * seconds / total
               for stage, seconds in stages.items()}
        kind_total = sum(kinds.values())
        out.update({f"pim.{kind}_host_pct": 100.0 * seconds / kind_total
                    for kind, seconds in kinds.items()})
        out["total_s"] = total
        out["replay_s"] = stages.get("serve.replay", 0.0)
        return out

    def chrome_trace(self) -> Dict:
        """The spans as Chrome trace-event JSON (Perfetto-loadable)."""
        origin = min(s[5] for s in self.spans)
        events = [{"name": "thread_name", "ph": "M", "pid": 0, "tid": 0,
                   "args": {"name": "e2e benchmark"}}]
        for it, sid, parent, name, stage, start, end, args in sorted(
                self.spans, key=lambda s: (s[5], -s[6])):
            events.append({
                "name": name, "cat": stage, "ph": "X", "pid": 0, "tid": 0,
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "args": {"iteration": it, "id": sid, "parent": parent,
                         **(args or {})}})
        return {"traceEvents": events, "displayTimeUnit": "ms"}


@contextmanager
def patched(recorder: Recorder, wraps):
    """Rebind each ``(owner, attribute)`` to a span-recording wrapper,
    restoring the originals on exit."""
    saved = []
    try:
        for owner, attr, name, stage, label in wraps:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(original, name, stage, label))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Measurement (runs in the child process, or in-process from tests)
# ----------------------------------------------------------------------

def _checked(spec, ctx, raw, seed: int, expected: Optional[Dict]):
    outcome = spec.check(ctx, raw)
    problems = list(outcome.problems)
    want = (expected or {}).get(str(seed))
    if want is not None and want != outcome.digest:
        problems.append(f"digest {outcome.digest[:12]} != expected "
                        f"{want[:12]}")
    for problem in problems:
        print(f"seed {seed}: {problem}", file=sys.stderr)
    return outcome, problems


def _p90(values: List[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[-1]


class _Point:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value


def reference_kernel():
    """A fixed mix of interpreter and numpy work (about 4 ms) that the
    timed phase runs right before and right after every iteration.

    On a shared host the CPU's speed drifts by tens of percent within
    minutes.  The kernel slows down with it, so an iteration's time over
    the kernel's time around it cancels that drift.  Its mix (object
    allocation, a keyed sort, attribute reads, a small sort and an 8 MB
    array pass) is what the workloads do; a kernel of integer arithmetic
    alone tracked the object-heavy scalar replay loop much worse.
    """
    import numpy as np

    small = np.random.default_rng(0).random(20_000)
    big = np.random.default_rng(1).random(1_000_000)
    out = np.empty_like(big)

    def run() -> float:
        t0 = time.perf_counter()
        points = [_Point(i, (i * 7919) % 1000) for i in range(8_000)]
        points.sort(key=lambda p: p.value)
        total = 0
        for point in points:
            total += point.key
        np.sort(small)
        np.multiply(big, 1.5, out=out)
        return time.perf_counter() - t0
    return run


def _timed_phase(spec, ctx, seed, seconds, iterations, expected,
                 reference) -> Dict:
    times: List[float] = []
    ratios: List[float] = []
    references: List[float] = []
    digests: Dict[str, str] = {}
    failed = 0
    info = None
    start = time.perf_counter()
    while len(times) < iterations or time.perf_counter() - start < seconds:
        s = seed + len(times)
        before = reference()
        t0 = time.perf_counter()
        raw = spec.iteration(ctx, s, _untraced)
        times.append(time.perf_counter() - t0)
        references.append((before + reference()) / 2)
        ratios.append(times[-1] / references[-1])
        outcome, problems = _checked(spec, ctx, raw, s, expected)
        del raw
        failed += bool(problems)
        digests[str(s)] = outcome.digest
        info = info or outcome.info
    return {
        "values": {
            "iter_p50_ref": statistics.median(ratios),
            "iter_p90_ref": _p90(ratios),
            "iter_p50_s": statistics.median(times),
            "iter_p90_s": _p90(times),
            "reference_p50_s": statistics.median(references),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "attempted": len(times), "failed": failed, "digests": digests,
        "info": info,
    }


def _traced_phase(spec, ctx, seed, seconds, iterations, expected,
                  layers_simulated, trace_out) -> Dict:
    recorder = Recorder()
    traced: List[Dict[str, float]] = []
    counted: List[Dict[str, float]] = []
    digests: Dict[str, str] = {}
    failed = 0
    info = None
    start = time.perf_counter()
    while len(traced) < iterations or time.perf_counter() - start < seconds:
        i = len(traced)
        s = seed + i
        outcomes = {}
        for with_spans in ((False, True) if i % 2 == 0 else (True, False)):
            if with_spans:
                layers = layers_simulated()
                with patched(recorder, spec.wraps), recorder.iteration(i):
                    raw = spec.iteration(ctx, s, recorder.span)
                layers = layers_simulated() - layers
            else:
                t0 = time.perf_counter()
                raw = spec.iteration(ctx, s, _untraced)
                plain_s = time.perf_counter() - t0
            outcomes[with_spans] = _checked(spec, ctx, raw, s, expected)
            del raw
        (plain, plain_problems), (spanned, problems) = (outcomes[False],
                                                        outcomes[True])
        if spanned.digest != plain.digest:
            problems.append("traced and untraced digests differ")
        failed += bool(plain_problems) + bool(problems)
        digests[str(s)] = plain.digest
        info = info or plain.info
        values = recorder.breakdown(i)
        values["trace_overhead_pct"] = 100.0 * (values["total_s"] / plain_s
                                                - 1.0)
        replay_s = values.pop("replay_s")
        values["serve.requests_per_s"] = (spanned.requests / replay_s
                                          if replay_s else 0.0)
        traced.append(values)
        counted.append(dict(spanned.counts,
                            **{"pim.layers_simulated": float(layers)}))

    # Counts come from the simulated outputs, so they are taken over a
    # fixed number of seeds: one seed always gives the same counts.
    medians = {}
    for samples in (traced, counted[:iterations]):
        for name in sorted({name for values in samples for name in values}):
            medians[name] = statistics.median(v.get(name, 0.0)
                                              for v in samples)
    medians["traced_iter_s"] = medians.pop("total_s")
    if trace_out is not None:
        from repro.obs.validate import validate_chrome_trace

        chrome = recorder.chrome_trace()
        problems = validate_chrome_trace(chrome)
        if problems:
            raise RuntimeError(f"benchmark trace is invalid: {problems[:3]}")
        Path(trace_out).write_text(json.dumps(chrome) + "\n")
    return {"values": medians, "attempted": 2 * len(traced),
            "failed": failed, "digests": digests, "info": info}


def measure(workload: str, seed: int = 0, seconds: float = 0.0,
            trace: bool = False, *, tmp, sizes: Optional[Dict] = None,
            expected: Optional[Dict[str, str]] = None,
            iterations: Optional[int] = None,
            t_start: Optional[float] = None, setup_only: bool = False,
            trace_out: Optional[str] = None) -> Dict:
    """Set up ``workload`` and run its untraced (``trace=False``) or
    traced phase in this process.

    ``sizes`` overrides the workload's per-iteration sizes, ``iterations``
    the minimum iteration count, and ``expected`` maps ``str(seed)`` to
    the digest that seed must produce.  ``t_start`` (a ``perf_counter``
    reading, default: now) is where ``setup_s`` starts.  Returns the
    emitted ``metrics`` plus ``values`` (everything computed),
    ``attempted``/``failed``, per-seed ``digests`` and the first
    iteration's simulated ``info``.
    """
    t_start = time.perf_counter() if t_start is None else t_start
    import workloads

    spec = workloads.WORKLOADS[workload]
    sizes = spec.sizes if sizes is None else sizes
    ctx = spec.setup(sizes, seed, Path(tmp))
    for k in range(WARMUPS):
        spec.check(ctx, spec.iteration(ctx, WARMUP_SEED + seed + k,
                                       _untraced))
    setup_raw_s = time.perf_counter() - t_start
    # Set-up is too short to average out the host's speed drift, so it is
    # scaled by the reference kernel's speed right after it.
    reference = reference_kernel()
    host_s = statistics.median(reference() for _ in range(5))
    setup = {"setup_s": setup_raw_s * REFERENCE_S / host_s,
             "setup_raw_s": setup_raw_s}
    if setup_only:
        return setup
    if trace:
        result = _traced_phase(
            spec, ctx, seed, seconds, iterations or TRACED_ITERATIONS,
            expected, workloads.layers_simulated, trace_out)
    else:
        result = _timed_phase(spec, ctx, seed, seconds,
                              iterations or TIMED_ITERATIONS, expected,
                              reference)
        result["values"].update(setup)
    result.update(setup)
    result["sizes"] = sizes
    result["metrics"] = {
        name: {"value": result["values"].get(name, 0.0), "unit": unit}
        for name, unit in declared_metrics(trace).items()}
    return result


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------

def _expected_digests(workload: str) -> Dict[str, str]:
    import workloads

    entry = (json.loads(EXPECTED.read_text()).get(workload)
             if EXPECTED.exists() else None)
    if entry is None or entry["sizes"] != workloads.WORKLOADS[workload].sizes:
        raise SystemExit(f"error: {EXPECTED.name} holds no digests for "
                         f"{workload} at its current sizes; run with "
                         "--update-expected --seed 0")
    return entry["digests"]


def _child_main(args) -> int:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"error: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    expected = None if args.update_expected \
        else _expected_digests(args.workload)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     tmp=args.tmp, expected=expected, t_start=args.child,
                     setup_only=args.setup_only, trace_out=args.trace_out)
    print(json.dumps(result))
    return 0


def _spawn(args, scratch: Path, deadline: float, setup_only: bool) -> Dict:
    # A directory per process, so every set-up builds its grid cold.
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0", TMPDIR=str(tmp),
               REPRO_GRID_CACHE_DIR=str(tmp / "grid-cache"))
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp", str(tmp)]
    if setup_only:
        cmd.append("--setup-only")
    if args.update_expected:
        cmd.append("--update-expected")
    if args.trace_out:
        cmd += ["--trace-out", str(Path(args.trace_out).resolve())]
    cmd += ["--child", repr(time.perf_counter())]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise SystemExit(proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _update_expected(workload: str, result: Dict) -> None:
    table = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    entry = table.get(workload)
    if entry is None or entry["sizes"] != result["sizes"]:
        entry = {"sizes": result["sizes"], "digests": {}}
    entry["digests"].update({seed: d for seed, d in result["digests"].items()
                             if int(seed) < GOLDEN_SEEDS})
    entry["digests"] = dict(sorted(entry["digests"].items(),
                                   key=lambda kv: int(kv[0])))
    table[workload] = entry
    EXPECTED.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    workload_names = [w["name"] for w in
                      json.loads(BENCHMARK.read_text())["workloads"]]
    parser = argparse.ArgumentParser(
        description="Closed-loop end-to-end benchmark (see README.md).")
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="minimum measured time (after the minimum "
                             "iteration count)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", metavar="PATH",
                        help="with --trace 1: write the benchmark's spans "
                             "as Chrome trace-event JSON")
    parser.add_argument("--update-expected", action="store_true",
                        help=f"rewrite {EXPECTED.name} from this run's "
                             f"digests of seeds 0-{GOLDEN_SEEDS - 1}")
    parser.add_argument("--child", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--tmp", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.trace_out and not args.trace:
        parser.error("--trace-out needs --trace 1")
    if args.child is not None:
        return _child_main(args)
    if not (SRC / "repro" / "__init__.py").exists():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        setups = [] if args.trace else [
            _spawn(args, tmp, deadline, setup_only=True)
            for _ in range(SETUP_RUNS - 1)]
        result = _spawn(args, tmp, deadline, setup_only=False)
    except subprocess.TimeoutExpired:
        print(f"error: run exceeded {RUN_DEADLINE_S:.0f} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:         # another run still uses it
            pass
    if not args.trace:
        setups.append(result)
        for key in ("setup_s", "setup_raw_s"):
            result["values"][key] = statistics.median(r[key] for r in setups)
        result["metrics"]["setup_s"]["value"] = result["values"]["setup_s"]
    if args.update_expected:
        _update_expected(args.workload, result)

    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "attempted": result["attempted"], "failed": result["failed"],
              "setup_runs_raw_s": [r["setup_raw_s"] for r in setups],
              "info": result["info"], "values": result["values"]}
    for name, metric in sorted(result["metrics"].items()):
        print(f"{args.workload:>13s}  {name:<32s} {metric['value']:14.6g} "
              f"{metric['unit']}", file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
