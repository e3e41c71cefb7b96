"""Self-tests of the end-to-end benchmark.

    python -m pytest benchmarks/e2e -q

The workloads run in-process at tiny sizes with 2 iterations per phase.
"""

import json

import pytest

import run
import workloads
from repro.obs.validate import validate_chrome_trace

SPEC = json.loads(run.BENCHMARK.read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
TINY_SEARCH = {"population_size": 8, "iterations": 3, "restarts": 1}
TINY = {
    "design": {"model": "resnet18", "search": TINY_SEARCH,
               "num_requests": 50},
    "replay-web": {"model": "resnet18", "search": TINY_SEARCH,
                   "num_requests": 500},
    "replay-armed": {"model": "resnet18", "search": TINY_SEARCH,
                     "num_requests": 300},
    "replay-traced": {"model": "resnet18", "search": TINY_SEARCH,
                      "num_requests": 100},
}


def _measure(name, trace, tmp, **kwargs):
    return run.measure(name, seed=0, trace=trace, tmp=tmp, sizes=TINY[name],
                       iterations=2, **kwargs)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("e2e")


@pytest.fixture(scope="module")
def runs(scratch):
    return {(name, trace): _measure(name, trace, scratch)
            for name in NAMES for trace in (False, True)}


def test_benchmark_json_names_the_workloads():
    assert NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
def test_every_declared_metric_is_emitted_with_its_unit(runs, trace):
    declared = {m["name"]: m["unit"]
                for m in SPEC["per_layer" if trace else "end_to_end"]}
    for name in NAMES:
        metrics = runs[name, trace]["metrics"]
        assert {k: m["unit"] for k, m in metrics.items()} == declared
        assert all(isinstance(m["value"], float) for m in metrics.values())


def test_every_per_layer_share_is_measured_somewhere(runs):
    # A misspelt metric name would be emitted as 0 on every workload.
    # (Counts are left out: at tiny sizes no request fails.)
    for metric in SPEC["per_layer"]:
        if metric["unit"] == "count":
            continue
        assert any(runs[name, True]["metrics"][metric["name"]]["value"]
                   for name in NAMES), metric["name"]


def test_clean_tree_fails_nothing(runs):
    for key, result in runs.items():
        assert result["attempted"] >= 2, key
        assert result["failed"] / result["attempted"] == 0, key


@pytest.mark.parametrize("name", NAMES)
def test_digest_depends_on_the_iteration_seed_only(runs, scratch, name):
    # expected.json pins digests per iteration seed, whatever --seed ran.
    later = run.measure(name, seed=1, tmp=scratch, sizes=TINY[name],
                        iterations=1)
    assert later["digests"]["1"] == runs[name, False]["digests"]["1"]


def test_corrupted_expected_digest_fails_every_iteration(runs, scratch):
    corrupted = {seed: "0" * 64
                 for seed in runs["replay-web", False]["digests"]}
    result = _measure("replay-web", False, scratch, expected=corrupted)
    assert result["failed"] / result["attempted"] == 1


def test_same_seed_gives_same_digests_and_counts(runs, scratch):
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    for name in NAMES:
        first = runs[name, True]
        again = _measure(name, True, scratch, expected=first["digests"])
        assert again["failed"] == 0, name
        assert again["digests"] == first["digests"], name
        assert ({c: again["metrics"][c] for c in counts}
                == {c: first["metrics"][c] for c in counts}), name


def test_trace_out_is_a_valid_chrome_trace(scratch):
    path = scratch / "spans.json"
    _measure("design", True, scratch, trace_out=str(path))
    trace = json.loads(path.read_text())
    assert validate_chrome_trace(trace) == []
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    by_id = {e["args"]["id"]: e for e in spans}
    roots = [e for e in spans if e["args"]["parent"] is None]
    assert sorted(e["args"]["iteration"] for e in roots) == [0, 1]
    for event in spans:
        parent = event["args"]["parent"]
        if parent is not None:
            assert by_id[parent]["args"]["iteration"] \
                == event["args"]["iteration"]
            assert by_id[parent]["ts"] <= event["ts"]
    assert {"search.evolution_search", "pim.simulate_layer",
            "serve.ServingEngine.serve"} <= {e["name"] for e in spans}
