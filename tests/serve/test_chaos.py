"""Tests for the seeded chaos harness (repro.serve.resilience.chaos).

The harness's contract: every drill is a pure function of its seed
(plan composition, trace, fault placement, retry jitter), the composed
plan is always a valid ``parse_faults`` spec that never kills the last
replica, and the JSON artifact is byte-identical on replay — the
property the chaos cells of ``tools/test_cli_matrix.py`` compare
through the CLI.
"""

import json

import pytest

from repro.analysis.cli import main
from repro.serve.resilience import chaos
from repro.serve.resilience.chaos import (
    CHAOS_SCENARIOS,
    build_chaos_fleets,
    chaos_json,
    compose_plan,
    render_chaos,
    run_chaos,
    two_point_front_payload,
)
from repro.serve.scenarios.faults import parse_faults

REPLICA_CHIPS = [0, 3]          # a 6-chip, 2-replica layout


def _no_fleets(*args, **kwargs):
    raise AssertionError("bad input must be rejected before the fleets "
                         "are built")


@pytest.fixture(scope="module")
def payload():
    return two_point_front_payload()


@pytest.fixture(scope="module")
def chaos_run(payload):
    return run_chaos([3, 7], num_requests=300, payload=payload)


class TestComposePlan:
    def test_same_seed_same_plan(self):
        assert compose_plan(5, REPLICA_CHIPS) == compose_plan(5, REPLICA_CHIPS)

    def test_seeds_diversify_plans(self):
        plans = {compose_plan(seed, REPLICA_CHIPS) for seed in range(16)}
        assert len(plans) == 16
        assert len({p.scenario for p in plans}) > 1

    @pytest.mark.parametrize("seed", range(24))
    def test_plans_are_valid_and_bounded(self, seed):
        plan = compose_plan(seed, REPLICA_CHIPS)
        assert plan.scenario in CHAOS_SCENARIOS
        assert 0.7 <= plan.rate_factor <= 1.4
        faults = parse_faults(plan.faults)      # must parse cleanly
        assert 1 <= len(faults) <= 3

    @pytest.mark.parametrize("seed", range(24))
    def test_never_composes_a_total_outage(self, seed):
        plan = compose_plan(seed, REPLICA_CHIPS)
        killed = {event.chip for event in parse_faults(plan.faults).events
                  if event.kind == "chip-kill"}
        assert len(killed) < len(REPLICA_CHIPS)

    def test_single_replica_gets_no_kills_at_all(self):
        for seed in range(24):
            plan = compose_plan(seed, [0])
            kinds = {e.kind for e in parse_faults(plan.faults).events}
            assert "chip-kill" not in kinds

    def test_rejects_empty_replica_layout(self):
        with pytest.raises(ValueError, match="at least one replica"):
            compose_plan(0, [])

    def test_describe_names_the_drill(self):
        text = compose_plan(3, REPLICA_CHIPS).describe()
        assert "seed 3" in text and "faults [" in text


class TestFleets:
    def test_payload_is_a_two_point_search_result(self, payload):
        assert payload["schema"] == "repro-search-result"
        assert len(payload["front"]) == 2
        assert payload["best"] == payload["front"][0]
        # The two points must actually differ, or brownout derivation
        # would (correctly) refuse the degenerate front.
        assert payload["front"][0]["latency_ms"] \
            != payload["front"][1]["latency_ms"]

    def test_fleets_share_chips_and_differ_in_brownout(self, payload):
        fleets = build_chaos_fleets(payload)
        on, off = fleets["resilience-on"], fleets["resilience-off"]
        assert on.config.num_chips == off.config.num_chips
        assert on.brownout_plan is not None
        assert off.brownout_plan is None
        assert on.brownout_plan.interval_scale < 1.0   # buys capacity
        assert on.brownout_plan.fill_scale > 1.0       # pays latency


class TestRunChaos:
    def test_invariants_hold_and_rows_are_complete(self, chaos_run):
        rows, problems = chaos_run
        assert problems == []
        assert [row["seed"] for row in rows] == [3, 7]
        for row in rows:
            for side in ("on", "off"):
                total = (row[f"completed_{side}"] + row[f"rejected_{side}"]
                         + row[f"failed_{side}"])
                assert total == row["num_requests"] == 300
            assert 0.0 <= row["availability_on"] <= 1.0

    def test_json_artifact_is_byte_identical_on_replay(self, payload,
                                                       chaos_run):
        rows, problems = chaos_run
        again = run_chaos([3, 7], num_requests=300, payload=payload)
        assert chaos_json(rows, problems) == chaos_json(*again)

    def test_json_schema_and_key_order(self, chaos_run):
        rows, problems = chaos_run
        text = chaos_json(rows, problems)
        payload = json.loads(text)
        assert payload["schema"] == "repro-chaos-result"
        assert payload["schema_version"] == 1
        assert payload["problems"] == []
        # sort_keys is what makes the artifact byte-stable.
        assert text == json.dumps(payload, indent=2, sort_keys=True)

    def test_availability_floor_breach_is_reported(self, payload):
        # Seed 3 completes 299 of its 300 requests, so a floor of 1 breaks.
        _, problems = run_chaos([3], num_requests=300, payload=payload,
                                availability_floor=1.0)
        assert any("below the floor" in p for p in problems)

    @pytest.mark.parametrize("floor", [float("nan"), float("inf"),
                                       float("-inf"), -0.1, 1.1])
    def test_rejects_a_floor_outside_the_unit_interval(self, floor,
                                                       monkeypatch):
        # NaN compares false, so it would switch the floor check off.
        monkeypatch.setattr(chaos, "build_chaos_fleets", _no_fleets)
        with pytest.raises(ValueError, match="availability_floor"):
            run_chaos([3], availability_floor=floor)

    @pytest.mark.parametrize("seed", [-3, True, 1.5, "3", None])
    def test_rejects_a_seed_that_is_not_a_non_negative_integer(
            self, seed, monkeypatch):
        monkeypatch.setattr(chaos, "build_chaos_fleets", _no_fleets)
        with pytest.raises(ValueError, match="chaos seed"):
            run_chaos([3, seed])

    def test_render_tabulates_every_seed(self, chaos_run):
        rows, _ = chaos_run
        text = render_chaos(rows)
        assert "chaos drill" in text
        for row in rows:
            assert row["scenario"] in text


class TestChaosCLI:
    def test_healthy_drill_exits_zero(self, capsys):
        assert main(["serve", "chaos", "--seed", "3",
                     "--num-requests", "120"]) == 0
        out = capsys.readouterr().out
        assert "chaos drill" in out

    def test_json_flag_appends_artifact(self, capsys):
        assert main(["serve", "chaos", "--seed", "3",
                     "--num-requests", "120", "--json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.rindex("\n{") + 1:])
        assert payload["schema"] == "repro-chaos-result"
        assert payload["rows"][0]["seed"] == 3

    def test_floor_breach_exits_nonzero(self, capsys):
        code = main(["serve", "chaos", "--seed", "3",
                     "--num-requests", "300",
                     "--availability-floor", "1.0"])
        captured = capsys.readouterr()
        assert code == 1
        assert "INVARIANT VIOLATED" in captured.err

    @pytest.mark.parametrize("argv, message", [
        (["--availability-floor", "nan"],
         "error: availability_floor must be a finite number in [0, 1], "
         "got nan\n"),
        (["--seed", "-3"],
         "error: chaos seed must be a non-negative integer, got -3\n"),
    ], ids=["nan-floor", "negative-seed"])
    def test_bad_input_exits_2_before_the_drill(self, argv, message,
                                                capsys):
        assert main(["serve", "chaos", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message
