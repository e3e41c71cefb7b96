"""Column traces from generator to replay.

The vectorized engine replays :class:`TraceArrays` as they are, so the
front ends that feed it — ``repro serve`` and the A/B sweep — hand it
columns and build ``Request`` objects only where a consumer needs them
(the scalar loop, ``--save-trace``).  These tests pin that, and hold
:func:`arrays_from_requests`, which no longer sorts rows that are
already in replay order, to the keyed sort it replaced.
"""

import json
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.serve.trace as trace_module
from repro.analysis.cli import main
from repro.bench.suites.serve import synthetic_search_payload
from repro.serve.deploy import ab_offered_load_sweep, engine_from_search
from repro.serve.trace import (
    REPLAY_ORDER,
    Request,
    TraceArrays,
    arrays_from_requests,
    synthetic_trace,
)

INT64 = np.iinfo(np.int64)


def keyed_sort_arrays(requests):
    """The reference conversion: a stable keyed sort of the rows, then
    the transpose."""
    ordered = sorted(requests, key=REPLAY_ORDER)
    ids, arrival, priority, model = tuple(zip(*ordered)) or ((),) * 4
    return TraceArrays(arrival_ms=np.array(arrival, dtype=np.float64),
                       request_id=np.array(ids, dtype=np.int64),
                       priority=np.array(priority, dtype=np.int64),
                       model=model if any(model) else None)


def assert_same_arrays(got, want):
    for column in ("arrival_ms", "request_id", "priority"):
        a, b = getattr(got, column), getattr(want, column)
        assert a.dtype == b.dtype, column
        assert a.tobytes() == b.tobytes(), column
    assert got.model == want.model


# Few distinct arrivals and ids, so ties and duplicate ids are common;
# the int64 extremes catch an order check that differences ids.
rows = st.lists(st.builds(
    Request,
    request_id=st.one_of(st.integers(0, 5),
                         st.sampled_from([int(INT64.min), int(INT64.max)])),
    arrival_ms=st.sampled_from([0.0, 0.5, 1.0, 2.0, 1e9]),
    priority=st.integers(0, 2),
    model=st.sampled_from(["", "", "resnet18", "resnet50"])),
    max_size=30)


class TestArraysFromRequests:
    @settings(max_examples=400, deadline=None)
    @given(requests=rows, shuffle_seed=st.integers(0, 2**32 - 1),
           presort=st.booleans())
    def test_matches_keyed_sort(self, requests, shuffle_seed, presort):
        random.Random(shuffle_seed).shuffle(requests)
        if presort:
            requests.sort(key=REPLAY_ORDER)
        assert_same_arrays(arrays_from_requests(requests),
                           keyed_sort_arrays(requests))

    @pytest.mark.parametrize("requests", [
        [],
        [Request(7, 3.0)],
        [Request(7, 3.0, 2, "resnet18")],
        [Request(2, 1.0, 0, ""), Request(1, 1.0, 1, "resnet50")],
    ], ids=["empty", "one", "one-tagged", "mixed-tags"])
    def test_edge_cases(self, requests):
        assert_same_arrays(arrays_from_requests(requests),
                           keyed_sort_arrays(requests))

    def test_rejects_a_bad_arrival_like_the_reference(self):
        bad = [(0, 1.0, 0, ""), (1, float("nan"), 0, "")]
        for convert in (arrays_from_requests, keyed_sort_arrays):
            with pytest.raises(ValueError, match="finite and >= 0"):
                convert(bad)


@pytest.fixture(scope="module")
def engines():
    payload = synthetic_search_payload()
    return {policy: engine_from_search(payload, policy=policy)
            for policy in ("latency-opt", "energy-opt")}


@pytest.fixture(scope="module")
def recorded():
    """A synthetic trace as it might come off disk: shuffled, with runs
    of tied arrivals."""
    trace = [Request(r.request_id, float(round(r.arrival_ms)), r.priority)
             for r in synthetic_trace(400, rate_rps=2000.0, seed=5)]
    random.Random(5).shuffle(trace)
    return trace


class TestRecordedSweep:
    @pytest.mark.parametrize("faults", [None, "chip-kill@t=0.5"],
                             ids=["unarmed", "chip-kill"])
    def test_rows_match_serving_the_sorted_list(self, engines, recorded,
                                                faults):
        rows = ab_offered_load_sweep(engines, trace=recorded, faults=faults)
        # The reference: sort the objects once and serve that list
        # through every fleet.
        replay = sorted(recorded, key=REPLAY_ORDER)
        span_ms = replay[-1].arrival_ms - replay[0].arrival_ms
        expected = []
        for label, engine in engines.items():
            telemetry = engine.serve(replay, faults=faults)
            row = {
                "point": label,
                "offered_fps": len(replay) / span_ms * 1000.0,
                "capacity_fps": engine.plan.throughput_fps,
                "achieved_fps": telemetry.throughput_fps(),
                "p50_ms": telemetry.latency_percentile(50.0),
                "p99_ms": telemetry.latency_percentile(99.0),
                "shed": telemetry.num_rejected,
                "energy_per_request_mj": engine.report.energy_mj,
                "num_chips": engine.config.num_chips,
            }
            if faults is not None:
                row["failed"] = telemetry.num_failed
                row["availability"] = telemetry.availability()
            expected.append(row)
        assert json.dumps(rows) == json.dumps(expected)


@pytest.fixture
def calls(monkeypatch):
    """Count ``TraceArrays.materialize`` and ``arrays_from_requests``
    calls, wherever in ``repro`` the latter is bound."""
    counts = {"materialize": 0, "arrays_from_requests": 0}
    materialize = TraceArrays.materialize
    convert = trace_module.arrays_from_requests

    def counted_materialize(self):
        counts["materialize"] += 1
        return materialize(self)

    def counted_convert(requests):
        counts["arrays_from_requests"] += 1
        return convert(requests)

    monkeypatch.setattr(TraceArrays, "materialize", counted_materialize)
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and \
                getattr(module, "arrays_from_requests", None) is convert:
            monkeypatch.setattr(module, "arrays_from_requests",
                                counted_convert)
    return counts


# Before the front ends handed over columns, each case below built the
# objects and converted them back: a synthetic or scenario serve made 1
# materialize and 1 conversion, a two-fleet two-load sweep 2 and 4,
# --save-trace 1 and 1, and a recorded two-fleet sweep 0 and 2.
class TestNoRequestObjects:
    @pytest.mark.parametrize("workload", [[], ["--scenario", "diurnal"]],
                             ids=["synthetic", "scenario"])
    def test_serve_cli(self, calls, capsys, workload):
        assert main(["serve", "--num-requests", "120", *workload]) == 0
        assert "replay engine: vectorized" in capsys.readouterr().out
        assert calls == {"materialize": 0, "arrays_from_requests": 0}

    def test_serve_cli_save_trace_materializes_once(self, calls, capsys,
                                                    tmp_path):
        path = tmp_path / "trace.json"
        assert main(["serve", "--num-requests", "120",
                     "--save-trace", str(path)]) == 0
        assert calls == {"materialize": 1, "arrays_from_requests": 0}
        capsys.readouterr()
        # The saved trace is the one that was replayed.
        assert main(["serve", "--requests", str(path), "--json"]) == 0
        replayed = capsys.readouterr().out
        assert main(["serve", "--num-requests", "120", "--json"]) == 0
        generated = capsys.readouterr().out
        assert replayed[replayed.index("{"):] == \
            generated[generated.index("{"):]

    @pytest.mark.parametrize("scenario", [None, "diurnal"],
                             ids=["synthetic", "scenario"])
    def test_unarmed_sweep(self, calls, engines, scenario):
        rows = ab_offered_load_sweep(engines, num_requests=200, seed=3,
                                     scenario=scenario)
        assert len(rows) == 4
        assert calls == {"materialize": 0, "arrays_from_requests": 0}

    def test_recorded_sweep_converts_once(self, engines, recorded, calls):
        rows = ab_offered_load_sweep(engines, trace=recorded)
        assert len(rows) == 2
        assert calls == {"materialize": 0, "arrays_from_requests": 1}

