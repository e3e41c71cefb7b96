"""Tests for request traces (repro.serve.trace)."""

import copy
import hashlib
import json
import pickle

import numpy as np
import pytest

from repro.serve.trace import (
    Request,
    TraceArrays,
    arrays_from_requests,
    load_trace,
    save_trace,
    synthetic_trace,
    synthetic_trace_arrays,
)


class TestSyntheticTrace:
    def test_length_and_monotone_arrivals(self):
        trace = synthetic_trace(200, rate_rps=100.0, seed=1)
        assert len(trace) == 200
        arrivals = [r.arrival_ms for r in trace]
        assert arrivals == sorted(arrivals)
        assert all(a > 0 for a in arrivals)

    def test_rate_controls_span(self):
        fast = synthetic_trace(500, rate_rps=1000.0, seed=0)
        slow = synthetic_trace(500, rate_rps=10.0, seed=0)
        assert fast[-1].arrival_ms < slow[-1].arrival_ms
        # mean inter-arrival approximates 1000/rate ms
        mean_gap = slow[-1].arrival_ms / 500
        assert mean_gap == pytest.approx(100.0, rel=0.2)

    def test_deterministic_by_seed(self):
        assert synthetic_trace(50, 100.0, seed=3) == \
            synthetic_trace(50, 100.0, seed=3)
        assert synthetic_trace(50, 100.0, seed=3) != \
            synthetic_trace(50, 100.0, seed=4)

    def test_priority_levels(self):
        flat = synthetic_trace(50, 100.0, seed=0)
        assert all(r.priority == 0 for r in flat)
        tiered = synthetic_trace(200, 100.0, seed=0, priority_levels=3)
        assert {r.priority for r in tiered} == {0, 1, 2}

    def test_validation(self):
        with pytest.raises(ValueError):
            synthetic_trace(0, 100.0)
        with pytest.raises(ValueError):
            synthetic_trace(10, 0.0)
        with pytest.raises(ValueError):
            Request(request_id=0, arrival_ms=-1.0)


class TestTraceRoundTrip:
    def test_save_and_load(self, tmp_path):
        trace = synthetic_trace(100, 200.0, seed=2, priority_levels=2)
        path = tmp_path / "traces" / "t.json"
        save_trace(trace, path)
        assert load_trace(path) == trace


def _entry(rid=0, arrival=0.5, **extra):
    return {"id": rid, "arrival_ms": arrival, **extra}


class TestTraceFileValidation:
    """load_trace rejects a malformed trace file with a ValueError that
    names the bad entry, instead of a TypeError or a silent coercion.
    Each bad entry sits at index 1, after a valid one."""

    @pytest.mark.parametrize("payload", [
        [_entry()],                         # top-level list
        {"requests": {"a": 1}},             # requests not a list
        {"trace": [_entry()]},              # no requests key
    ], ids=["list", "requests-dict", "no-requests"])
    def test_file_shape(self, tmp_path, payload):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="'requests' list"):
            load_trace(path)

    @pytest.mark.parametrize("bad, message", [
        (1, "must be an object"),
        (_entry(rid=None), "id must be an int"),
        (_entry(rid=1.7), "id must be an int"),
        (_entry(rid=True), "id must be an int"),
        (_entry(rid="1"), "id must be an int"),
        (_entry(rid=0), "duplicate id 0"),
        (_entry(rid=1, arrival=None), "arrival_ms must be a number"),
        (_entry(rid=1, arrival=True), "arrival_ms must be a number"),
        (_entry(rid=1, arrival="1.0"), "arrival_ms must be a number"),
        (_entry(rid=1, arrival=10**400), "finite and >= 0"),
        (_entry(rid=1, priority=1.5), "priority must be an int"),
        (_entry(rid=1, priority=True), "priority must be an int"),
        (_entry(rid=1, model=3), "model must be a string"),
    ], ids=["not-object", "id-null", "id-float", "id-bool", "id-str",
            "id-duplicate", "arrival-null", "arrival-bool", "arrival-str",
            "arrival-overflow", "priority-float", "priority-bool",
            "model-int"])
    def test_bad_entry_named_by_index(self, tmp_path, bad, message):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"requests": [_entry(), bad]}))
        with pytest.raises(ValueError, match=message) as info:
            load_trace(path)
        assert "requests[1]" in str(info.value)

    def test_exact_numbers_accepted(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"requests": [
            _entry(rid=2, arrival=3), _entry(rid=1, arrival=0.0,
                                             priority=-1, model="m")]}))
        assert load_trace(path) == [Request(1, 0.0, -1, "m"),
                                    Request(2, 3.0)]


class TestTraceArrays:
    """Property tests for the column-form trace (the vectorized engine's
    input).  The array generator is not a second generator: it must emit
    the same floats as the object path, request for request."""

    @pytest.mark.parametrize("seed", range(12))
    def test_array_and_object_generation_identical(self, seed):
        n = 400
        arrays = synthetic_trace_arrays(n, rate_rps=180.0, seed=seed,
                                        priority_levels=3)
        objects = synthetic_trace(n, rate_rps=180.0, seed=seed,
                                  priority_levels=3)
        assert arrays.materialize() == objects

    @pytest.mark.parametrize("seed", range(8))
    def test_arrivals_monotone_and_positive(self, seed):
        arrays = synthetic_trace_arrays(1000, rate_rps=500.0, seed=seed)
        assert np.all(np.diff(arrays.arrival_ms) >= 0)
        assert arrays.arrival_ms[0] > 0
        assert arrays.request_id.tolist() == list(range(1000))

    def test_mean_rate_honest_at_scale(self):
        # the law of large numbers tightens the measured mean rate to
        # ~1/sqrt(n); at n=200k a 1% tolerance has ~9 sigma of slack,
        # so this catches any constant-factor normalization bug without
        # flaking
        n = 200_000
        arrays = synthetic_trace_arrays(n, rate_rps=1000.0, seed=5)
        span_s = (arrays.arrival_ms[-1] - arrays.arrival_ms[0]) / 1000.0
        measured = (n - 1) / span_s
        assert measured == pytest.approx(1000.0, rel=0.01)

    def test_materialize_round_trips_through_arrays(self):
        trace = synthetic_trace(150, 120.0, seed=9, priority_levels=2)
        arrays = arrays_from_requests(trace)
        assert arrays.materialize() == sorted(
            trace, key=lambda r: (r.arrival_ms, r.request_id))
        again = arrays_from_requests(arrays.materialize())
        assert np.array_equal(again.arrival_ms, arrays.arrival_ms)
        assert np.array_equal(again.request_id, arrays.request_id)
        assert np.array_equal(again.priority, arrays.priority)

    def test_model_column_survives(self):
        reqs = [Request(request_id=i, arrival_ms=float(i),
                        model="m{}".format(i % 2)) for i in range(6)]
        arrays = arrays_from_requests(reqs)
        assert arrays.model == ("m0", "m1", "m0", "m1", "m0", "m1")
        assert [r.model for r in arrays.materialize()] == list(arrays.model)

    def test_len_and_validation(self):
        arrays = synthetic_trace_arrays(25, rate_rps=10.0, seed=0)
        assert len(arrays) == 25
        with pytest.raises(ValueError):
            synthetic_trace_arrays(0, 10.0)
        with pytest.raises(ValueError):
            synthetic_trace_arrays(10, 0.0)
        with pytest.raises(ValueError):
            TraceArrays(arrival_ms=np.zeros(3),
                        request_id=np.arange(2, dtype=np.int64),
                        priority=np.zeros(3, dtype=np.int64))

    @pytest.mark.parametrize("rate", [np.inf, np.nan, -np.inf])
    def test_non_finite_rate_rejected(self, rate):
        # An infinite rate once gave a trace whose every arrival was 0.
        with pytest.raises(ValueError, match="rate_rps must be finite"):
            synthetic_trace_arrays(5, rate)


BAD_ARRIVALS = pytest.mark.parametrize(
    "bad", [float("nan"), float("inf"), -1.0], ids=["nan", "inf", "neg"])


class TestArrivalValidation:
    """Arrivals must be finite and >= 0, checked when the trace is built
    in the form each engine consumes.  Left unchecked, a NaN arrival
    hangs both replay loops, an infinite one grows the vectorized event
    pass until the process runs out of memory, and a negative one was
    accepted by the column form although the object form rejected it."""

    @BAD_ARRIVALS
    def test_scalar_engine_input(self, bad):
        with pytest.raises(ValueError, match="finite and >= 0"):
            Request(request_id=1, arrival_ms=bad)

    @BAD_ARRIVALS
    def test_vectorized_engine_input(self, bad):
        with pytest.raises(ValueError, match="finite and >= 0"):
            TraceArrays(arrival_ms=np.array([0.5, bad, 2.0]),
                        request_id=np.arange(3, dtype=np.int64),
                        priority=np.zeros(3, dtype=np.int64))

    @BAD_ARRIVALS
    def test_trace_file(self, tmp_path, bad):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"requests": [
            {"id": 0, "arrival_ms": 1.0}, {"id": 1, "arrival_ms": bad}]}))
        with pytest.raises(ValueError, match="finite and >= 0"):
            load_trace(path)

    def test_boundaries_accepted(self):
        assert Request(request_id=0, arrival_ms=0.0).arrival_ms == 0.0
        arrays = TraceArrays(arrival_ms=np.array([0.0, 1e300]),
                             request_id=np.arange(2, dtype=np.int64),
                             priority=np.zeros(2, dtype=np.int64))
        assert len(arrays) == 2
        empty = TraceArrays(arrival_ms=np.zeros(0),
                            request_id=np.zeros(0, dtype=np.int64),
                            priority=np.zeros(0, dtype=np.int64))
        assert len(empty) == 0


class TestRequestRecord:
    """The record contract: ``Request`` is an immutable tuple whose every
    constructor checks the arrival rule, and whose repr and trace-file
    bytes are those of the frozen dataclass it replaced."""

    def test_fields_are_read_only(self):
        request = Request(request_id=1, arrival_ms=2.0)
        with pytest.raises(AttributeError):
            request.arrival_ms = 3.0
        with pytest.raises(AttributeError):
            request.deadline_ms = 3.0

    def test_equals_a_plain_tuple_of_its_fields(self):
        request = Request(7, 1.5, priority=2, model="m")
        assert request == (7, 1.5, 2, "m")
        assert hash(request) == hash((7, 1.5, 2, "m"))
        assert Request(7, 1.5) == (7, 1.5, 0, "")

    @BAD_ARRIVALS
    def test_every_constructor_checks_arrivals(self, bad):
        good = Request(request_id=1, arrival_ms=2.0)
        with pytest.raises(ValueError, match="finite and >= 0"):
            Request(1, bad)
        with pytest.raises(ValueError, match="finite and >= 0"):
            Request._make((1, bad, 0, ""))
        with pytest.raises(ValueError, match="finite and >= 0"):
            good._replace(arrival_ms=bad)

    def test_make_and_replace_keep_their_namedtuple_behaviour(self):
        request = Request._make([1, 2.0, 3, "m"])
        assert type(request) is Request
        assert request == Request(1, 2.0, 3, "m")
        assert request._replace(priority=0) == Request(1, 2.0, 0, "m")
        with pytest.raises(TypeError):
            Request._make((1, 2.0))
        with pytest.raises(ValueError, match="unexpected field"):
            request._replace(deadline_ms=1.0)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        request = Request(4, 8.5, 1, "resnet50")
        clone = pickle.loads(pickle.dumps(request, protocol=protocol))
        assert type(clone) is Request
        assert clone == request

    def test_copy_round_trip(self):
        request = Request(4, 8.5, 1, "resnet50")
        for clone in (copy.copy(request), copy.deepcopy(request)):
            assert type(clone) is Request
            assert clone == request

    def test_repr_unchanged(self):
        assert repr(Request(request_id=3, arrival_ms=1.5, priority=2,
                            model="resnet18")) == (
            "Request(request_id=3, arrival_ms=1.5, priority=2, "
            "model='resnet18')")
        assert repr(Request(0, 0.25)) == (
            "Request(request_id=0, arrival_ms=0.25, priority=0, model='')")

    def test_save_trace_bytes_unchanged(self, tmp_path):
        trace = synthetic_trace(40, 150.0, seed=5, priority_levels=3)
        trace.append(Request(request_id=40,
                             arrival_ms=trace[-1].arrival_ms + 1.0,
                             priority=1, model="resnet50"))
        path = tmp_path / "t.json"
        save_trace(trace, path)
        # The file the frozen-dataclass Request wrote for this trace.
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "79d2b60563f7d716cbfb2d401d98e56c85e5b391a6fe2e56b71d1c120d165a53")

    def test_arrays_from_requests_breaks_ties_by_request_id(self):
        arrays = arrays_from_requests([
            Request(5, 1.0), Request(2, 1.0), Request(9, 0.5),
            Request(1, 1.0, model="m")])
        assert arrays.request_id.tolist() == [9, 1, 2, 5]
        assert arrays.arrival_ms.tolist() == [0.5, 1.0, 1.0, 1.0]
        assert arrays.model == ("", "m", "", "")

    def test_arrays_from_requests_accepts_an_empty_trace(self):
        arrays = arrays_from_requests([])
        assert len(arrays) == 0
        assert arrays.model is None
        assert arrays.arrival_ms.dtype == np.float64
        assert arrays.request_id.dtype == np.int64
        assert arrays.priority.dtype == np.int64
        assert arrays.materialize() == []

    def test_materialize_builds_requests(self):
        requests = synthetic_trace_arrays(5, 100.0, seed=2).materialize()
        assert all(type(r) is Request for r in requests)

    @BAD_ARRIVALS
    def test_materialize_rechecks_a_mutated_column(self, bad):
        arrays = synthetic_trace_arrays(10, 100.0, seed=1)
        arrays.arrival_ms[-1] = bad
        with pytest.raises(ValueError, match="finite and >= 0"):
            arrays.materialize()
