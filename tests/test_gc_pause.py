"""The scoped collector pause and the proof that it is safe.

:func:`repro.obs.gcpause.gc_paused` keeps CPython's cyclic collector off
for one call of each bulk entry point (replays, span synthesis and
export, the Prometheus export, validation).  Pausing it costs no memory
only if nothing those calls allocate waits for the collector.
:class:`TestAcyclic` checks exactly that: each paused entry point runs
with the collector off on workload-shaped input, its result is dropped,
and ``gc.collect()`` must then find no unreachable object.  Every entry
point decorated in ``src/repro`` must be run by one of its cases
(:func:`test_every_paused_entry_point_is_covered`): a new paused path
joins this test.
"""

from __future__ import annotations

import ast
import gc
import importlib
import json
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis.experiments import run_search
from repro.obs.export import metrics_jsonl, prometheus_text
from repro.obs.gcpause import gc_paused
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import use_metrics, use_tracer
from repro.obs.tracer import Tracer
from repro.obs.validate import validate_file
from repro.search import EvoSearchConfig, GridCache
from repro.search.cli import search_result_payload
from repro.serve import (
    ResilienceConfig,
    SchedulerConfig,
    engine_from_search,
    get_scenario,
    load_search_result,
)

SRC = Path(repro.__file__).resolve().parent

# Each acyclicity case -> the paused entry points (module:qualname) it
# runs; the profile hook in _assert_acyclic confirms that each one ran.
CASES = {
    "armed-scalar-replay": (
        "repro.serve.trace:TraceArrays.materialize",
        "repro.serve.engine:ServingEngine.serve",
    ),
    "vectorized-replay": (
        "repro.serve.engine:ServingEngine.serve",
    ),
    "span-and-metric-export": (
        "repro.obs.tracer:Tracer._flush_sources",
        "repro.obs.tracer:Tracer.write_chrome_trace",
        "repro.obs.tracer:Tracer.write_jsonl",
        "repro.obs.export:prometheus_text",
    ),
    "validators": (
        "repro.obs.validate:validate_file",
    ),
}


@pytest.fixture(autouse=True)
def _collector_restored():
    was = gc.isenabled()
    yield
    (gc.enable if was else gc.disable)()


# ----------------------------------------------------------------------
# the pause
# ----------------------------------------------------------------------

class TestPause:
    def test_off_inside_and_on_after_a_return(self):
        @gc_paused()
        def call():
            return gc.isenabled()

        gc.enable()
        assert call() is False
        assert gc.isenabled()

    def test_on_after_a_raise(self):
        @gc_paused()
        def call():
            assert not gc.isenabled()
            raise KeyError("boom")

        gc.enable()
        with pytest.raises(KeyError, match="boom"):
            call()
        assert gc.isenabled()

    def test_a_collector_the_caller_turned_off_stays_off(self):
        gc.disable()
        with gc_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
        with pytest.raises(ValueError):
            with gc_paused():
                raise ValueError
        assert not gc.isenabled()

    def test_nested_pauses_leave_the_state_alone(self):
        states = []

        @gc_paused()
        def inner():
            states.append(gc.isenabled())

        @gc_paused()
        def outer():
            inner()
            states.append(gc.isenabled())
            inner()

        gc.enable()
        outer()
        assert states == [False, False, False] and gc.isenabled()

    def test_no_collection_on_entry(self):
        runs = []

        def count(phase, info):
            if phase == "start":
                runs.append(info["generation"])

        gc.enable()
        gc.callbacks.append(count)
        try:
            with gc_paused():
                pass
        finally:
            gc.callbacks.remove(count)
        assert runs == []

    def test_a_decorated_function_keeps_its_name_and_doc(self):
        from repro.serve.engine import ServingEngine

        serve = ServingEngine.serve
        assert serve.__name__ == "serve"
        assert serve.__doc__ == serve.__wrapped__.__doc__
        assert serve.__qualname__ == "ServingEngine.serve"


# ----------------------------------------------------------------------
# every paused path leaves no cycle behind
# ----------------------------------------------------------------------

def _decorated(node) -> bool:
    return any(isinstance(d, ast.Call)
               and getattr(d.func, "id", getattr(d.func, "attr", None))
               == "gc_paused" for d in node.decorator_list)


def paused_entry_points():
    """``module:qualname`` of every ``@gc_paused()`` def in ``src/repro``."""
    found = set()

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, module, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _decorated(child):
                    found.add(f"{module}:{prefix}{child.name}")
                walk(child, module, f"{prefix}{child.name}.<locals>.")

    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        walk(ast.parse(path.read_text()), module, "")
    return found


def _code_of(entry_point: str):
    module, qualname = entry_point.split(":")
    target = importlib.import_module(module)
    for part in qualname.split("."):
        target = getattr(target, part)
    return target.__wrapped__.__code__


def _assert_acyclic(case: str, run) -> None:
    """``run()`` with the collector off, its result dropped: nothing it
    allocated may be left for ``gc.collect()``, and every entry point of
    ``case`` must have run."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    assert gc.collect() == 0
    missed = [name for name in CASES[case] if _code_of(name) not in entered]
    assert missed == []


@pytest.fixture(scope="module")
def searched(tmp_path_factory):
    outcome = run_search("resnet18", objective="pareto",
                         search=EvoSearchConfig(population_size=16,
                                                iterations=4, restarts=1),
                         grid_cache=GridCache(tmp_path_factory.mktemp("g")),
                         verbose=False)
    return load_search_result(search_result_payload(outcome))


def _serve_traced(searched):
    """A replay-traced-shaped run: its tracer (spans not yet
    synthesized) and registry."""
    engine = engine_from_search(searched, policy="latency-opt")
    trace = get_scenario("steady-poisson").to_trace_arrays(
        2_500, 0.7 * engine.plan.throughput_fps, seed=3)
    tracer, registry = Tracer(), MetricsRegistry()
    with use_tracer(tracer), use_metrics(registry):
        engine.serve(trace)
    return tracer, registry


class TestAcyclic:
    def test_armed_scalar_replay(self, searched):
        engine = engine_from_search(
            searched, policy="latency-opt", replicas=2,
            resilience=ResilienceConfig(seed=0), brownout_policy="energy-opt")
        rate = 0.9 * engine.plan.throughput_fps

        def run():
            trace = get_scenario("flash-crowd").to_trace(3_000, rate, seed=5)
            with use_tracer(Tracer()), use_metrics(MetricsRegistry()):
                engine.serve(trace, faults="chip-kill@t=0.5")

        _assert_acyclic("armed-scalar-replay", run)
        assert engine.last_engine == "scalar"

    def test_vectorized_replay(self, searched):
        engine = engine_from_search(
            searched, policy="latency-opt",
            scheduler=SchedulerConfig(max_batch_size=8, window_ms=2.0,
                                      queue_depth=8192))
        trace = get_scenario("diurnal").to_trace_arrays(
            150_000, 0.9 * engine.plan.throughput_fps, seed=5)

        def run():
            with use_metrics(MetricsRegistry()):
                engine.serve(trace)

        _assert_acyclic("vectorized-replay", run)
        assert engine.last_engine == "vectorized"

    def test_span_synthesis_and_exports(self, searched, tmp_path):
        tracer, registry = _serve_traced(searched)

        def run():
            len(tracer)
            tracer.write_chrome_trace(tmp_path / "trace.json")
            tracer.write_jsonl(tmp_path / "spans.jsonl")
            prometheus_text(registry)

        _assert_acyclic("span-and-metric-export", run)
        assert len(tracer) > 2_500

    def test_validators_on_valid_and_invalid_artifacts(self, searched,
                                                       tmp_path):
        tracer, registry = _serve_traced(searched)
        valid = [tracer.write_chrome_trace(tmp_path / "trace.json"),
                 tracer.write_jsonl(tmp_path / "spans.jsonl"),
                 tmp_path / "metrics.prom", tmp_path / "metrics.jsonl"]
        valid[2].write_text(prometheus_text(registry))
        valid[3].write_text(metrics_jsonl(registry))
        invalid = {
            "lines.jsonl": '{"a": 1}\nnot json\n{"b": [}\n',
            "deep.json": "[" * 200_000,
            "pid.json": json.dumps({"traceEvents": [
                {"ph": "B", "ts": 2.0, "pid": [1], "tid": 0, "name": "a"},
                {"ph": "X", "ts": 1.0, "dur": -1, "name": "b"},
                {"ph": "X", "ts": 0.5, "dur": 1, "name": "c"}]}),
            "bad.prom": "# TYPE x histogram\nx_bucket{le=\"1\"} 3\n"
                        "x_bucket{le=\"+Inf\"} 2\nx_count 5\n",
        }
        for name, text in invalid.items():
            (tmp_path / name).write_text(text)
        missing = tmp_path / "missing.json"

        def run():
            assert all(problems == [] for _, problems
                       in map(validate_file, valid))
            assert all(problems for _, problems in map(
                validate_file, [tmp_path / name for name in invalid]))
            assert validate_file(missing)[0] == "unreadable"

        _assert_acyclic("validators", run)


def test_every_paused_entry_point_is_covered():
    covered = {name for names in CASES.values() for name in names}
    assert paused_entry_points() == covered
