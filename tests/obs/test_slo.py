"""Tests for SLO definitions and attainment evaluation."""

import math

import pytest

from repro.obs.slo import DEFAULT_AVAILABILITY, SLO


class TestValidation:
    def test_rejects_nonpositive_latency_target(self):
        with pytest.raises(ValueError):
            SLO(p99_ms=0.0)

    @pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    def test_rejects_non_finite_latency_target(self, target):
        with pytest.raises(ValueError, match="finite and > 0"):
            SLO(p99_ms=target)

    def test_rejects_out_of_range_availability(self):
        with pytest.raises(ValueError):
            SLO(availability=0.0)
        with pytest.raises(ValueError):
            SLO(availability=1.5)

    def test_default_availability_is_sane(self):
        assert 0.0 < DEFAULT_AVAILABILITY <= 1.0


class TestEvaluate:
    def test_both_targets_met(self):
        report = SLO(p99_ms=100.0, availability=0.99, name="gold").evaluate(
            p99_ms=80.0, availability=0.995)
        assert report.attained
        assert report.p99_attained and report.availability_attained
        assert report.name == "gold"

    def test_latency_miss_fails_overall(self):
        report = SLO(p99_ms=100.0, availability=0.9).evaluate(
            p99_ms=150.0, availability=0.99)
        assert report.p99_attained is False
        assert report.availability_attained is True
        assert not report.attained

    def test_unenforced_target_is_ignored(self):
        report = SLO(p99_ms=100.0).evaluate(p99_ms=50.0, availability=0.1)
        assert report.availability_attained is None
        assert report.attained

    def test_no_targets_is_vacuously_attained(self):
        assert SLO().evaluate().attained

    def test_nan_observation_is_a_miss_not_a_pass(self):
        report = SLO(p99_ms=100.0).evaluate(p99_ms=float("nan"))
        assert report.p99_attained is False
        assert not report.attained

    def test_missing_observation_is_a_miss(self):
        report = SLO(availability=0.99).evaluate()
        assert report.availability_attained is False

    def test_boundary_values_attain(self):
        report = SLO(p99_ms=100.0, availability=0.99).evaluate(
            p99_ms=100.0, availability=0.99)
        assert report.attained


class TestAsDict:
    def test_flat_json_safe_keys(self):
        d = SLO(p99_ms=100.0, availability=0.99, name="serve").evaluate(
            p99_ms=80.0, availability=1.0).as_dict()
        assert d["slo_name"] == "serve"
        assert d["slo_p99_target_ms"] == 100.0
        assert d["slo_p99_attained"] == 1.0
        assert d["slo_attained"] == 1.0

    def test_nan_scrubbed_to_none(self):
        d = SLO(p99_ms=100.0).evaluate(p99_ms=float("nan")).as_dict()
        assert d["slo_p99_observed_ms"] is None
        assert d["slo_p99_attained"] == 0.0
        # unenforced target stays None
        assert d["slo_availability_target"] is None

