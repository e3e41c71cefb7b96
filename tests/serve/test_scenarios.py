"""Property-style tests over the scenario registry (repro.serve.scenarios).

Every registered scenario must honor the generation contract of
:mod:`repro.serve.scenarios.base`: monotone arrivals, the declared mean
rate, full reproducibility from the seed, and lossless round-trips
through trace files.  Running over the registry (not a hand-picked list)
means a newly registered scenario is held to the same contract
automatically.
"""

import numpy as np
import pytest

from repro.serve.scenarios import (
    BUILTIN_SCENARIOS,
    ProfileScenario,
    Scenario,
    get_scenario,
    list_scenarios,
    register_scenario,
    scenario_table,
)
from repro.serve.scenarios.catalog import FlashCrowd, MultiModelMix
from repro.serve.trace import load_trace, save_trace

ALL_SCENARIOS = sorted(list_scenarios())


def test_builtins_are_registered():
    names = {scenario.name for scenario in BUILTIN_SCENARIOS}
    assert names <= set(ALL_SCENARIOS)
    assert {"steady-poisson", "diurnal", "flash-crowd", "bursty-mmpp",
            "multi-model-mix"} <= names


@pytest.mark.parametrize("name", ALL_SCENARIOS)
@pytest.mark.parametrize("seed", [0, 7])
class TestScenarioContract:
    def test_arrivals_monotone_nondecreasing(self, name, seed):
        trace = get_scenario(name).to_trace(300, rate_rps=200.0, seed=seed)
        arrivals = np.array([r.arrival_ms for r in trace])
        assert len(trace) == 300
        assert np.all(np.diff(arrivals) >= 0)
        assert arrivals[0] >= 0

    def test_mean_rate_within_tolerance(self, name, seed):
        n = 800
        trace = get_scenario(name).to_trace(n, rate_rps=250.0, seed=seed)
        span_s = (trace[-1].arrival_ms - trace[0].arrival_ms) / 1000.0
        measured = (n - 1) / span_s
        # The n exponential gaps put ~sqrt(n)/n (~3.5%) of spread on the
        # measured rate; 15% catches a broken normalization (which is off
        # by the profile's peak-to-mean ratio, 2x-16x) without flaking.
        assert measured == pytest.approx(250.0, rel=0.15)

    def test_same_seed_reproduces_exactly(self, name, seed):
        scenario = get_scenario(name)
        a = scenario.to_trace(150, rate_rps=120.0, seed=seed)
        b = scenario.to_trace(150, rate_rps=120.0, seed=seed)
        assert a == b

    def test_array_generation_matches_object_generation(self, name, seed):
        # to_trace_arrays is the native path and to_trace materializes
        # from it — the two forms of a scenario trace must be the same
        # requests float for float, or the vectorized engine replays a
        # different day than the scalar one
        scenario = get_scenario(name)
        arrays = scenario.to_trace_arrays(200, rate_rps=180.0, seed=seed)
        assert arrays.materialize() == scenario.to_trace(
            200, rate_rps=180.0, seed=seed)

    def test_round_trips_through_trace_file(self, name, seed, tmp_path):
        trace = get_scenario(name).to_trace(120, rate_rps=150.0, seed=seed)
        path = tmp_path / "trace.json"
        save_trace(trace, path)
        assert load_trace(path) == trace


def test_different_seeds_differ():
    scenario = get_scenario("steady-poisson")
    assert scenario.to_trace(100, 100.0, seed=0) \
        != scenario.to_trace(100, 100.0, seed=1)


def test_flash_crowd_concentrates_arrivals_in_window():
    crowd = FlashCrowd(peak=16.0, window=(0.42, 0.58))
    trace = crowd.to_trace(1000, rate_rps=500.0, seed=3)
    arrivals = np.array([r.arrival_ms for r in trace])
    span = 1000 / 500.0 * 1000.0        # nominal span length (ms)
    u = (arrivals % span) / span
    in_window = np.mean((u >= 0.42) & (u < 0.58))
    # The 16x window holds ~75% of the mass at these parameters; anywhere
    # above its 16% span share proves the profile shapes arrivals.
    assert in_window > 0.5


def test_multi_model_mix_tags_and_proportions():
    mix = MultiModelMix()
    trace = mix.to_trace(2000, rate_rps=400.0, seed=5)
    models = [r.model for r in trace]
    assert set(models) == {"resnet18", "resnet34", "resnet50"}
    share = models.count("resnet18") / len(models)
    assert share == pytest.approx(0.60, abs=0.05)
    # resnet18 requests carry the interactive priority from the mix table.
    by_model = {r.model: r.priority for r in trace}
    assert by_model["resnet18"] == 1
    assert by_model["resnet34"] == 0


def test_mix_labels_do_not_perturb_arrivals():
    """Annotation draws come after the arrival draws, so two scenarios
    sharing an arrival process produce identical arrival times."""
    plain = ProfileScenario("plain-tmp", "steady, no labels")
    mix = MultiModelMix()
    a = [r.arrival_ms for r in plain.to_trace(200, 100.0, seed=9)]
    b = [r.arrival_ms for r in mix.to_trace(200, 100.0, seed=9)]
    assert a == b


class TestRegistry:
    def test_get_unknown_lists_choices(self):
        with pytest.raises(ValueError, match="steady-poisson"):
            get_scenario("nope")

    def test_register_rejects_non_scenario_and_duplicates(self):
        with pytest.raises(TypeError):
            register_scenario("not-a-scenario")
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(Scenario("steady-poisson", "dup"))

    def test_replace_allows_override(self):
        original = get_scenario("steady-poisson")
        try:
            mine = ProfileScenario("steady-poisson", "shadowed")
            register_scenario(mine, replace=True)
            assert get_scenario("steady-poisson") is mine
        finally:
            register_scenario(original, replace=True)

    def test_table_renders_every_scenario(self):
        text = scenario_table()
        for name in ALL_SCENARIOS:
            assert name in text


class TestValidation:
    def test_bad_arguments_rejected(self):
        scenario = get_scenario("diurnal")
        with pytest.raises(ValueError, match="num_requests"):
            scenario.to_trace(0, 100.0)
        with pytest.raises(ValueError, match="rate_rps"):
            scenario.to_trace(10, 0.0)

    @pytest.mark.parametrize("rate", [np.inf, np.nan, -np.inf])
    def test_non_finite_rate_rejected(self, rate):
        # An infinite rate once gave a trace whose every arrival was 0.
        with pytest.raises(ValueError, match="rate_rps must be finite"):
            get_scenario("diurnal").to_trace_arrays(5, rate)

    def test_scenario_needs_name(self):
        with pytest.raises(ValueError, match="non-empty"):
            Scenario("", "anonymous")
