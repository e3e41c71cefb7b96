"""Tests for repro.serve.deploy — the search -> serve bridge."""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analysis.experiments import run_search, run_search_then_serve
from repro.bench.suites.serve import (
    check_ab_structure,
    synthetic_search_payload,
)
from repro.search import EvoSearchConfig
from repro.search.cli import search_result_payload
from repro.serve import ServingEngine
from repro.serve.deploy import (
    LoadedSearchResult,
    OperatingPoint,
    SearchResultError,
    ab_offered_load_sweep,
    engine_from_search,
    load_search_result,
    manifest_from_point,
    render_ab,
    report_from_point,
)

SMALL_SEARCH = EvoSearchConfig(population_size=16, iterations=4, restarts=1)


def make_payload(front=None, **overrides):
    """A minimal schema-v1 payload over two fake layers."""
    best = {"genome": [[64, 32], None], "crossbars": 10,
            "latency_ms": 5.0, "energy_mj": 2.0}
    payload = {
        "schema": "repro-search-result",
        "schema_version": 1,
        "model": "resnet18",
        "objective": "pareto" if front is not None else "latency",
        "budget": 100,
        "feasible": True,
        "precision": {"weight_bits": 9, "activation_bits": 9,
                      "use_wrapping": True},
        "layers": ["a", "b"],
        "best": best,
        "front": front,
    }
    payload.update(overrides)
    return payload


def make_front(metrics):
    """Front entries from (crossbars, latency_ms, energy_mj) triples."""
    return [{"genome": [[64, 32], None], "crossbars": xb,
             "latency_ms": lat, "energy_mj": en}
            for xb, lat, en in metrics]


class TestLoadSearchResult:
    def test_parses_minimal_payload(self):
        result = load_search_result(make_payload())
        assert isinstance(result, LoadedSearchResult)
        assert result.model == "resnet18"
        assert result.layers == ("a", "b")
        assert result.weight_bits == 9 and result.use_wrapping is True
        assert result.front is None
        assert result.points == (result.best,)
        assert result.best.assignment == {"a": (64, 32)}
        assert result.best.edp == pytest.approx(10.0)

    def test_round_trips_a_real_search(self, tmp_path):
        outcome = run_search("resnet18", objective="pareto",
                             search=SMALL_SEARCH, verbose=False)
        path = tmp_path / "result.json"
        path.write_text(json.dumps(search_result_payload(outcome)))
        result = load_search_result(path)
        assert result.model == "resnet18"
        assert len(result.front) == len(outcome.front)
        assert len(result.layers) == len(outcome.layers)
        # The best point's reconstructed assignment matches the search's.
        assert result.best.assignment == outcome.result.assignment
        for point, src in zip(result.front, outcome.front):
            assert point.crossbars == src.eval.crossbars
            assert point.latency_ms == pytest.approx(src.eval.latency_ms)

    def test_scalar_objective_round_trip(self, tmp_path):
        outcome = run_search("resnet18", objective="edp",
                             search=SMALL_SEARCH, verbose=False)
        result = load_search_result(search_result_payload(outcome))
        assert result.front is None
        assert result.best.crossbars == outcome.result.eval.crossbars

    def test_rejects_unknown_schema(self):
        with pytest.raises(SearchResultError, match="repro-search-result"):
            load_search_result({"format": "epim-deployment/2"})
        with pytest.raises(SearchResultError, match="schema"):
            load_search_result(make_payload(schema="something-else"))

    def test_rejects_unsupported_version(self):
        with pytest.raises(SearchResultError, match="schema_version 99"):
            load_search_result(make_payload(schema_version=99))
        with pytest.raises(SearchResultError, match="schema_version"):
            load_search_result(make_payload(schema_version=None))

    @pytest.mark.parametrize("missing", ["model", "layers", "precision",
                                         "best"])
    def test_rejects_missing_required_key(self, missing):
        payload = make_payload()
        del payload[missing]
        with pytest.raises(SearchResultError):
            load_search_result(payload)

    def test_rejects_genome_layer_mismatch(self):
        best = {"genome": [[64, 32]], "crossbars": 1, "latency_ms": 1.0,
                "energy_mj": 1.0}
        with pytest.raises(SearchResultError, match="1 entries for 2"):
            load_search_result(make_payload(best=best))

    def test_rejects_malformed_candidate(self):
        best = {"genome": [[64, 32, 8], None], "crossbars": 1,
                "latency_ms": 1.0, "energy_mj": 1.0}
        with pytest.raises(SearchResultError, match=r"\[rows, cols\]"):
            load_search_result(make_payload(best=best))

    def test_rejects_wrong_typed_sections(self):
        with pytest.raises(SearchResultError, match="'precision' must be"):
            load_search_result(make_payload(precision="9bit"))
        with pytest.raises(SearchResultError, match="must be an object"):
            load_search_result(make_payload(best=[1, 2, 3]))
        best = {"genome": 7, "crossbars": 1, "latency_ms": 1.0,
                "energy_mj": 1.0}
        with pytest.raises(SearchResultError, match="'genome' must be"):
            load_search_result(make_payload(best=best))

    def test_rejects_missing_file_and_bad_json(self, tmp_path):
        with pytest.raises(SearchResultError, match="cannot read"):
            load_search_result(tmp_path / "nope.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SearchResultError, match="not valid JSON"):
            load_search_result(bad)

    def test_rejects_non_object_payload(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(SearchResultError, match="JSON object"):
            load_search_result(path)


def reference_assignment(genome, label, layers):
    """The reference genome parse: every entry through the full candidate
    rule, with its error context formatted up front."""
    assignment = {}
    for name, raw in zip(layers, genome):
        where = f"{label} layer {name!r}"
        if raw is None:
            continue
        if (not isinstance(raw, (list, tuple)) or len(raw) != 2
                or not all(isinstance(v, int) for v in raw)):
            raise SearchResultError(
                f"{where}: candidate must be null or a [rows, cols] pair, "
                f"got {raw!r}")
        assignment[name] = (raw[0], raw[1])
    return assignment


SCALARS = st.one_of(
    st.integers(-2**80, 2**80), st.booleans(), st.none(),
    st.sampled_from([1.0, -3, 0, 2**70]), st.floats(allow_nan=False),
    st.text(max_size=3))
GENOME_ENTRY = st.one_of(
    st.none(),
    st.lists(st.integers(1, 4096), min_size=2, max_size=2),
    st.lists(SCALARS, max_size=3),
    st.tuples(SCALARS, SCALARS),
    st.lists(st.lists(st.integers(0, 9), max_size=2), min_size=2,
             max_size=2),
    SCALARS)
PARSE_LAYERS = ["conv1", "layer1.0.conv1", "it's", "fc"]


class TestGenomeParse:
    """The one-pass parse agrees with the per-entry reference rule on
    adversarial genomes: same assignment, or the same error."""

    @given(genome=st.lists(GENOME_ENTRY, min_size=4, max_size=4),
           in_front=st.booleans())
    @settings(max_examples=300, deadline=None)
    @example(genome=[[64, 32], None, (3, 4), [True, 2]], in_front=False)
    @example(genome=[[-3, 2**70], [1.0, 2], None, None], in_front=True)
    @example(genome=[[1], None, None, None], in_front=False)
    @example(genome=[None, [1, 2, 3], None, None], in_front=True)
    @example(genome=[None, None, ["1", "2"], None], in_front=False)
    @example(genome=[None, None, None, [[1], [2]]], in_front=False)
    @example(genome=["12", None, None, None], in_front=False)
    @example(genome=[7, None, None, None], in_front=True)
    def test_matches_reference(self, genome, in_front):
        entry = {"genome": genome, "crossbars": 1, "latency_ms": 1.0,
                 "energy_mj": 1.0}
        if in_front:
            plain = dict(entry, genome=[None] * len(PARSE_LAYERS))
            payload = make_payload(best=plain, front=[plain, entry],
                                   layers=PARSE_LAYERS)
            label = "front[1]"
        else:
            payload = make_payload(best=entry, layers=PARSE_LAYERS)
            label = "best"
        try:
            want = reference_assignment(genome, label, PARSE_LAYERS)
        except SearchResultError as exc:
            with pytest.raises(type(exc)) as got:
                load_search_result(payload)
            assert str(got.value) == str(exc)
            return
        result = load_search_result(payload)
        point = result.front[1] if in_front else result.best
        # repr tells True from 1 and 1.0 from 1; == would not.
        assert repr(point.assignment) == repr(want)


class TestPrecision:
    @pytest.mark.parametrize("key,value", [
        ("weight_bits", "9"), ("weight_bits", 9.0), ("weight_bits", True),
        ("weight_bits", 0), ("activation_bits", 9.5),
        ("activation_bits", -1), ("activation_bits", [9])])
    def test_rejects_non_positive_int_bits(self, key, value):
        payload = make_payload()
        payload["precision"][key] = value
        with pytest.raises(SearchResultError,
                           match=f"'{key}' must be a positive integer "
                                 "or null"):
            load_search_result(payload)

    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_rejects_non_bool_wrapping(self, value):
        payload = make_payload()
        payload["precision"]["use_wrapping"] = value
        with pytest.raises(SearchResultError,
                           match="'use_wrapping' must be true or false"):
            load_search_result(payload)

    def test_accepts_null_bits_and_missing_keys(self):
        payload = make_payload()
        payload["precision"] = {"weight_bits": None,
                                "activation_bits": 4}
        result = load_search_result(payload)
        assert result.weight_bits is None and result.activation_bits == 4
        assert result.use_wrapping is True
        payload["precision"] = {"use_wrapping": False}
        result = load_search_result(payload)
        assert (result.weight_bits, result.activation_bits,
                result.use_wrapping) == (None, None, False)


class TestSelect:
    # latency-opt -> p0, energy-opt -> p1, knee (min EDP) -> p2.
    FRONT = make_front([(90, 10.0, 5.0),     # edp 50
                        (40, 30.0, 1.0),     # edp 30
                        (60, 13.0, 2.0)])    # edp 26

    def result(self):
        return load_search_result(make_payload(front=self.FRONT))

    def test_policies_pick_distinct_points(self):
        result = self.result()
        assert result.select("latency-opt").crossbars == 90
        assert result.select("energy-opt").crossbars == 40
        assert result.select("knee").crossbars == 60
        assert result.select().crossbars == 60          # knee is the default

    def test_explicit_index(self):
        result = self.result()
        assert result.select("index", index=1).crossbars == 40
        with pytest.raises(SearchResultError, match="out of range"):
            result.select("index", index=3)
        with pytest.raises(SearchResultError, match="explicit index"):
            result.select("index")

    def test_unknown_policy(self):
        with pytest.raises(SearchResultError, match="unknown selection"):
            self.result().select("fastest")

    def test_labels_follow_front_order(self):
        result = self.result()
        assert [p.label for p in result.points] == \
            ["front[0]", "front[1]", "front[2]"]

    def test_scalar_result_serves_best_for_any_policy(self):
        result = load_search_result(make_payload())
        for policy in ("latency-opt", "energy-opt", "knee"):
            assert result.select(policy) is result.best
        assert result.select("index", index=0) is result.best
        with pytest.raises(SearchResultError, match="out of range"):
            result.select("index", index=1)


class TestDeployment:
    def test_manifest_and_report_match_the_point(self):
        result = load_search_result(synthetic_search_payload())
        point = result.select("latency-opt")
        manifest = manifest_from_point(result, point)
        assert manifest["model"] == "resnet18@front[0]"
        report = report_from_point(result, point)
        # The payload's metrics were measured by the same simulator, so
        # the deployed report must reproduce them exactly.
        assert report.num_crossbars == point.crossbars
        assert report.latency_ms == pytest.approx(point.latency_ms)
        assert report.energy_mj == pytest.approx(point.energy_mj)

    def test_engine_from_search_derives_chips_and_tags_point(self):
        engine = engine_from_search(synthetic_search_payload(),
                                    policy="energy-opt")
        assert engine.config.num_chips == 1       # fits one chip
        assert isinstance(engine.operating_point, OperatingPoint)
        assert engine.operating_point.label == "front[1]"
        assert "operating point: front[1]" in engine.describe()

    def test_engine_respects_explicit_fleet(self):
        engine = engine_from_search(synthetic_search_payload(),
                                    policy="latency-opt", num_chips=2)
        assert engine.config.num_chips == 2
        replicated = engine_from_search(synthetic_search_payload(),
                                        policy="latency-opt", replicas=3)
        assert replicated.config.num_chips == 3

    @pytest.mark.parametrize("rename,message", [
        (lambda names: [f"net.{name}" for name in names],
         r"search result's 21 layers are not resnet18's 21 layers in spec "
         r"order; first unknown: 'net\.conv1', 'net\.layer1\.0\.conv1', "
         r"'net\.layer1\.0\.conv2'$"),
        (lambda names: names[::-1], r"21 layers in spec order$"),
    ])
    def test_result_layers_must_be_the_models(self, rename, message):
        payload = synthetic_search_payload()
        payload["layers"] = rename(payload["layers"])
        result = load_search_result(payload)
        with pytest.raises(SearchResultError, match=message):
            manifest_from_point(result, result.select("latency-opt"))
        with pytest.raises(SearchResultError, match=message):
            engine_from_search(result, policy="latency-opt")

    def test_fake_layer_payload_refuses_to_deploy(self):
        result = load_search_result(make_payload())
        with pytest.raises(SearchResultError,
                           match="2 layers are not resnet18's 21 layers"):
            report_from_point(result, result.best)

    def test_serving_engine_classmethod_delegates(self):
        engine = ServingEngine.from_search(synthetic_search_payload(),
                                           policy="knee")
        assert engine.operating_point is not None


class TestABSweep:
    def test_ab_profiles_are_distinct(self):
        engines = {policy: engine_from_search(synthetic_search_payload(),
                                              policy=policy)
                   for policy in ("latency-opt", "energy-opt")}
        rows = ab_offered_load_sweep(engines, num_requests=120, seed=3)
        assert len(rows) == 4                     # 2 load factors x 2 fleets
        check_ab_structure(rows)
        # Identical offered load per factor — the A/B's fairness invariant.
        rates = {row["offered_fps"] for row in rows}
        assert len(rates) == 2
        rendered = render_ab(rows)
        assert "latency-opt" in rendered and "energy/req" in rendered

    def test_pinned_rate_produces_one_row_per_engine(self):
        engines = {"knee": engine_from_search(synthetic_search_payload())}
        rows = ab_offered_load_sweep(engines, num_requests=50,
                                     rate_fps=80.0)
        assert [row["offered_fps"] for row in rows] == [80.0]

    def test_recorded_trace_replaces_synthetic_sweep(self):
        from repro.serve.trace import synthetic_trace

        engines = {policy: engine_from_search(synthetic_search_payload(),
                                              policy=policy)
                   for policy in ("latency-opt", "energy-opt")}
        trace = synthetic_trace(60, rate_rps=100.0, seed=5)
        rows = ab_offered_load_sweep(engines, trace=trace)
        assert len(rows) == 2                     # one row per fleet
        assert all(row["offered_fps"] == pytest.approx(rows[0]["offered_fps"])
                   for row in rows)
        assert all(row["achieved_fps"] > 0 for row in rows)
        assert rows[0]["p99_ms"] != rows[1]["p99_ms"]

    def test_empty_engines_and_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="at least one engine"):
            ab_offered_load_sweep({})
        engines = {"knee": engine_from_search(synthetic_search_payload())}
        with pytest.raises(ValueError, match="empty trace"):
            ab_offered_load_sweep(engines, trace=[])


class TestSearchThenServe:
    def test_end_to_end_experiment(self, capsys):
        res = run_search_then_serve(
            search=EvoSearchConfig(population_size=32, iterations=12,
                                   restarts=2),
            num_requests=80, verbose=True)
        out = capsys.readouterr().out
        assert "search -> serve A/B" in out
        assert set(res.points) == {"latency-opt", "energy-opt"}
        assert len(res.rows) == 4
        for row in res.rows:
            assert row["achieved_fps"] > 0
            assert row["energy_per_request_mj"] > 0


class TestABSeedPropagation:
    """The sweep derives every trace seed explicitly (regression: it used
    to hand the same seed to each load factor and was only reproducible
    by accident of nobody touching numpy's global RNG state)."""

    def _engines(self):
        return {"knee": engine_from_search(synthetic_search_payload())}

    def test_same_seed_reproduces_rows_exactly(self):
        a = ab_offered_load_sweep(self._engines(), num_requests=80, seed=11)
        b = ab_offered_load_sweep(self._engines(), num_requests=80, seed=11)
        assert a == b

    def test_global_numpy_state_is_irrelevant(self):
        import numpy as np

        np.random.seed(0)
        a = ab_offered_load_sweep(self._engines(), num_requests=80, seed=11)
        np.random.seed(12345)
        np.random.random(997)           # scramble the global stream
        b = ab_offered_load_sweep(self._engines(), num_requests=80, seed=11)
        assert a == b

    def test_load_factors_draw_independent_traces(self):
        from repro.serve.deploy import _job_seed

        assert _job_seed(11, 0) != _job_seed(11, 1)
        assert _job_seed(11, 0) == _job_seed(11, 0)

    def test_different_seeds_change_rows(self):
        a = ab_offered_load_sweep(self._engines(), num_requests=80, seed=1)
        b = ab_offered_load_sweep(self._engines(), num_requests=80, seed=2)
        assert a != b

    def test_scenario_and_faults_wire_through(self):
        rows = ab_offered_load_sweep(
            self._engines(), num_requests=120, seed=4,
            scenario="flash-crowd", faults="chip-kill@t=0.5")
        assert len(rows) == 2
        for row in rows:
            assert "availability" in row and "failed" in row
            assert row["availability"] <= 1.0
        again = ab_offered_load_sweep(
            self._engines(), num_requests=120, seed=4,
            scenario="flash-crowd", faults="chip-kill@t=0.5")
        assert rows == again
