"""Tests for the resilience controllers and their engine integration.

Unit tests drive each controller (admission, retry budget, breaker,
brownout) directly in simulated milliseconds; integration tests arm the
whole stack on a real engine and assert the properties docs/resilience.md
promises: request conservation under every fault shape (including total
outage with a non-empty backoff heap), same-seed determinism, the
``serve.resilience.*`` publication contract, and the acceptance A/B —
resilience-on beats resilience-off on availability *and* p99 under a
flash crowd with a mid-run chip kill.
"""

import json
import math

import numpy as np
import pytest

from repro.analysis.cli import main
from repro.core.designer import build_deployments, uniform_assignment
from repro.models.specs import resnet18_spec
from repro.obs.export import prometheus_text
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.obs.validate import validate_prometheus
from repro.pim.simulator import simulate_network
from repro.serve.engine import ServingConfig, ServingEngine
from repro.serve.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    AdmissionController,
    AdmissionPolicy,
    BreakerPolicy,
    BrownoutController,
    BrownoutPlan,
    BrownoutPolicy,
    CircuitBreaker,
    ResilienceConfig,
    RetryBudget,
    RetryPolicy,
)
from repro.serve.scheduler import SchedulerConfig
from repro.serve.trace import synthetic_trace

BASE_MS = 10.0

STATS_KEYS = {
    "admitted", "admission_shed", "shed_queue_delay", "shed_token_bucket",
    "retry_budget", "retries_scheduled", "retry_exhausted",
    "breaker_opens", "breaker_probes", "breaker_closes",
    "fail_open_batches", "brownout_entries", "brownout_exits",
    "brownout_ms", "degraded_completions",
}


@pytest.fixture(scope="module")
def report():
    spec = resnet18_spec()
    deployments = build_deployments(spec, uniform_assignment(spec),
                                    weight_bits=9, activation_bits=9,
                                    use_wrapping=True)
    return simulate_network(deployments)


def make_engine(report, num_chips=2, **sched_kwargs):
    return ServingEngine(report, ServingConfig(
        num_chips=num_chips,
        scheduler=SchedulerConfig(**sched_kwargs)))


# ----------------------------------------------------------------------
# Admission controller
# ----------------------------------------------------------------------

def make_admission(**policy_kwargs):
    policy = AdmissionPolicy(**policy_kwargs)
    # capacity 100 fps -> token refill 0.1 x rate_headroom per ms.
    return AdmissionController(policy, BASE_MS, capacity_fps=100.0)


class TestAdmission:
    def test_healthy_arrival_admits(self):
        ctl = make_admission()
        assert ctl.admit(0.0, 0.0, priority=0)
        assert ctl.admitted == 1 and ctl.shed == 0

    def test_token_bucket_clips_instantaneous_burst(self):
        ctl = make_admission(burst=4, protect_priority=5)
        verdicts = [ctl.admit(0.0, 0.0, priority=0) for _ in range(10)]
        assert verdicts == [True] * 4 + [False] * 6
        assert ctl.shed_rate == 6 and ctl.shed_delay == 0
        assert ctl.shed == 6

    def test_tokens_refill_over_time(self):
        ctl = make_admission(burst=1, rate_headroom=1.0, protect_priority=5)
        assert ctl.admit(0.0, 0.0, priority=0)
        assert not ctl.admit(0.0, 0.0, priority=0)
        # 100 fps refill -> one token back after 10 ms.
        assert ctl.admit(10.0, 0.0, priority=0)

    def test_bucket_never_exceeds_burst(self):
        ctl = make_admission(burst=2, protect_priority=5)
        ctl.admit(0.0, 0.0, priority=0)
        # A long idle gap refills at most `burst` tokens.
        verdicts = [ctl.admit(1e6, 0.0, priority=0) for _ in range(4)]
        assert verdicts == [True, True, False, False]

    def test_protected_priority_bypasses_token_shed(self):
        ctl = make_admission(burst=1, protect_priority=1)
        assert ctl.admit(0.0, 0.0, priority=0)
        assert ctl.admit(0.0, 0.0, priority=1)        # no token left
        assert not ctl.admit(0.0, 0.0, priority=0)
        assert ctl.protected_bypass == 1

    def test_delay_shedding_requires_sustained_interval(self):
        ctl = make_admission()
        over = ctl.target_ms + 1.0
        # First over-target arrival only arms the controller.
        assert ctl.admit(0.0, over, priority=0)
        assert not ctl.overloaded
        # Still inside the control interval: admitted.
        assert ctl.admit(ctl.interval_ms / 2, over, priority=0)
        # A full interval of sustained delay: shedding starts.
        assert not ctl.admit(ctl.interval_ms, over, priority=0)
        assert ctl.overloaded and ctl.shed_delay == 1

    def test_delay_shedding_tightens_at_codel_cadence(self):
        ctl = make_admission()
        over = ctl.target_ms + 1.0
        ctl.admit(0.0, over, priority=0)
        assert not ctl.admit(ctl.interval_ms, over, priority=0)
        # Next drop is scheduled interval / sqrt(1) later; an arrival
        # just before it is admitted, one at it is shed.
        t_next = ctl.interval_ms + ctl.interval_ms / math.sqrt(1)
        assert ctl.admit(t_next - 1.0, over, priority=0)
        assert not ctl.admit(t_next, over, priority=0)
        assert ctl.drop_count == 2

    def test_delay_recovery_resets_codel_state(self):
        ctl = make_admission()
        over = ctl.target_ms + 1.0
        ctl.admit(0.0, over, priority=0)
        assert not ctl.admit(ctl.interval_ms, over, priority=0)
        # One healthy sample resets first_above and stops dropping.
        assert ctl.admit(ctl.interval_ms + 1.0, 0.0, priority=0)
        assert not ctl.overloaded
        # Overload must re-sustain a full interval before shedding again.
        assert ctl.admit(100.0, over, priority=0)
        assert ctl.admit(100.0 + ctl.interval_ms / 2, over, priority=0)

    def test_protected_priority_bypasses_delay_shed(self):
        ctl = make_admission(protect_priority=1)
        over = ctl.target_ms + 1.0
        ctl.admit(0.0, over, priority=0)
        assert ctl.admit(ctl.interval_ms, over, priority=1)
        assert ctl.shed_delay == 0

    def test_decisions_are_deterministic(self):
        arrivals = [(t * 3.0, (t * 7) % 25.0, t % 2) for t in range(200)]
        runs = []
        for _ in range(2):
            ctl = make_admission(burst=2)
            runs.append([ctl.admit(now, d, p) for now, d, p in arrivals])
        assert runs[0] == runs[1]


# ----------------------------------------------------------------------
# Retry budget
# ----------------------------------------------------------------------

class TestRetryBudget:
    def test_budget_is_ceil_fraction_of_offered(self):
        budget = RetryBudget(RetryPolicy(budget_fraction=0.1), 101,
                             BASE_MS, seed=0)
        assert budget.budget == 11
        assert RetryBudget(RetryPolicy(), 0, BASE_MS, seed=0).budget == 0

    def test_reserve_spends_budget_then_denies(self):
        budget = RetryBudget(RetryPolicy(budget_fraction=0.01), 100,
                             BASE_MS, seed=0)
        assert budget.budget == 1
        assert budget.try_reserve(7) == 1
        assert budget.try_reserve(8) == 0
        assert budget.remaining == 0 and budget.exhausted == 1

    def test_attempt_cap_per_request(self):
        budget = RetryBudget(RetryPolicy(max_attempts=2), 1000,
                             BASE_MS, seed=0)
        assert budget.try_reserve(3) == 1
        assert budget.try_reserve(3) == 2
        assert budget.try_reserve(3) == 0     # cap, budget still open
        assert budget.try_reserve(4) == 1

    def test_backoff_doubles_then_caps(self):
        policy = RetryPolicy(base_factor=1.0, cap_factor=4.0, jitter=0.0)
        budget = RetryBudget(policy, 100, BASE_MS, seed=0)
        assert budget.backoff_ms(1) == pytest.approx(10.0)
        assert budget.backoff_ms(2) == pytest.approx(20.0)
        assert budget.backoff_ms(3) == pytest.approx(40.0)
        assert budget.backoff_ms(4) == pytest.approx(40.0)   # capped

    def test_jitter_stays_in_declared_band(self):
        policy = RetryPolicy(jitter=0.5)
        budget = RetryBudget(policy, 100, BASE_MS, seed=1)
        for _ in range(100):
            value = budget.backoff_ms(1)
            assert budget.base_ms <= value < budget.base_ms * 1.5

    def test_backoff_is_seed_deterministic(self):
        draws = [
            [RetryBudget(RetryPolicy(), 100, BASE_MS, seed=5).backoff_ms(1)
             for _ in range(1)]
            for _ in range(2)
        ]
        a = RetryBudget(RetryPolicy(), 100, BASE_MS, seed=5)
        b = RetryBudget(RetryPolicy(), 100, BASE_MS, seed=5)
        c = RetryBudget(RetryPolicy(), 100, BASE_MS, seed=6)
        seq_a = [a.backoff_ms(1) for _ in range(8)]
        seq_b = [b.backoff_ms(1) for _ in range(8)]
        seq_c = [c.backoff_ms(1) for _ in range(8)]
        assert seq_a == seq_b
        assert seq_a != seq_c
        assert draws[0] == draws[1]

    def test_generator_is_lazy(self):
        budget = RetryBudget(RetryPolicy(), 100, BASE_MS, seed=0)
        assert budget._rng is None          # fault-free runs never build it
        budget.backoff_ms(1)
        assert budget._rng is not None


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------

def make_breaker(**policy_kwargs):
    return CircuitBreaker(BreakerPolicy(**policy_kwargs), BASE_MS)


class TestCircuitBreaker:
    def test_healthy_dispatches_stay_closed(self):
        breaker = make_breaker()
        for t in range(10):
            assert breaker.on_dispatch(float(t), 1.0) == 0
        assert breaker.state == CLOSED and breaker.opens == 0

    def test_trips_after_consecutive_slow_dispatches(self):
        breaker = make_breaker(trip_after=2, slow_factor=2.0)
        assert breaker.on_dispatch(0.0, 4.0) == 0
        assert breaker.on_dispatch(1.0, 4.0) == 1
        assert breaker.state == OPEN and breaker.opens == 1
        assert not breaker.allows(1.0)

    def test_healthy_dispatch_resets_streak(self):
        breaker = make_breaker(trip_after=2)
        breaker.on_dispatch(0.0, 4.0)
        breaker.on_dispatch(1.0, 1.0)
        assert breaker.on_dispatch(2.0, 4.0) == 0
        assert breaker.state == CLOSED

    def test_cooldown_expiry_half_opens_for_one_probe(self):
        breaker = make_breaker(trip_after=1, cooldown_factor=2.0)
        breaker.on_dispatch(0.0, 4.0)
        assert not breaker.allows(0.0 + breaker.cooldown_ms / 2)
        assert breaker.allows(breaker.cooldown_ms)
        assert breaker.state == HALF_OPEN

    def test_healthy_probe_closes_episode(self):
        breaker = make_breaker(trip_after=1)
        breaker.on_dispatch(0.0, 4.0)
        breaker.allows(breaker.cooldown_ms)
        assert breaker.on_dispatch(breaker.cooldown_ms, 1.0) == -1
        assert breaker.state == CLOSED
        assert (breaker.opens, breaker.probes, breaker.closes) == (1, 1, 1)

    def test_slow_probe_reopens_same_episode(self):
        breaker = make_breaker(trip_after=1)
        breaker.on_dispatch(0.0, 4.0)
        breaker.allows(breaker.cooldown_ms)
        # Re-open counts a new `opens` but returns 0: the episode the
        # engine is tracking for spans never closed.
        assert breaker.on_dispatch(breaker.cooldown_ms, 4.0) == 0
        assert breaker.state == OPEN
        assert breaker.opens == 2 and breaker.closes == 0
        assert breaker.is_open

    def test_open_breaker_ignores_fail_open_dispatches(self):
        breaker = make_breaker(trip_after=1)
        breaker.on_dispatch(0.0, 4.0)
        # The engine's fail-open path dispatches through an OPEN breaker;
        # that must not consume the probe or mutate counters.
        assert breaker.on_dispatch(1.0, 4.0) == 0
        assert breaker.state == OPEN and breaker.probes == 0


# ----------------------------------------------------------------------
# Brownout controller
# ----------------------------------------------------------------------

def make_brownout(**policy_kwargs):
    return BrownoutController(BrownoutPolicy(**policy_kwargs), BASE_MS)


class TestBrownout:
    def test_entry_requires_sustained_overload(self):
        ctl = make_brownout()
        over = ctl.enter_ms + 1.0
        assert ctl.update(0.0, over) == 0
        assert ctl.update(ctl.enter_hold_ms / 2, over) == 0
        assert ctl.update(ctl.enter_hold_ms, over) == 1
        assert ctl.active and ctl.entries == 1

    def test_brief_dip_resets_entry_clock(self):
        ctl = make_brownout()
        over = ctl.enter_ms + 1.0
        ctl.update(0.0, over)
        ctl.update(ctl.enter_hold_ms / 2, 0.0)    # recovered: re-arm
        assert ctl.update(ctl.enter_hold_ms, over) == 0
        assert not ctl.active

    def test_dead_band_keeps_mode_stable(self):
        ctl = make_brownout()
        over = ctl.enter_ms + 1.0
        ctl.update(0.0, over)
        ctl.update(ctl.enter_hold_ms, over)
        assert ctl.active
        # Delay between exit and enter thresholds: neither exits nor
        # starts the recovery clock.
        mid = (ctl.exit_ms + ctl.enter_ms) / 2
        t = ctl.enter_hold_ms + ctl.exit_hold_ms * 10
        assert ctl.update(t, mid) == 0
        assert ctl.active and ctl._under_since_ms < 0.0

    def test_exit_requires_sustained_recovery(self):
        ctl = make_brownout()
        over = ctl.enter_ms + 1.0
        ctl.update(0.0, over)
        entered_at = ctl.enter_hold_ms
        ctl.update(entered_at, over)
        t0 = entered_at + 5.0
        assert ctl.update(t0, 0.0) == 0
        exit_at = t0 + ctl.exit_hold_ms
        assert ctl.update(exit_at, 0.0) == -1
        assert not ctl.active and ctl.exits == 1
        assert ctl.degraded_ms == pytest.approx(exit_at - entered_at)

    def test_finalize_settles_active_window(self):
        ctl = make_brownout()
        over = ctl.enter_ms + 1.0
        ctl.update(0.0, over)
        entered_at = ctl.enter_hold_ms
        ctl.update(entered_at, over)
        ctl.finalize(entered_at + 100.0)
        assert ctl.degraded_ms == pytest.approx(100.0)
        assert ctl.active and ctl.exits == 0   # run ended browned out
        # finalize is idempotent on the settled window.
        ctl.finalize(entered_at + 100.0)
        assert ctl.degraded_ms == pytest.approx(100.0)


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------

class TestConfigValidation:
    @pytest.mark.parametrize("factory, kwargs", [
        (AdmissionPolicy, {"target_factor": 0.0}),
        (AdmissionPolicy, {"burst": 0}),
        (RetryPolicy, {"budget_fraction": 0.0}),
        (RetryPolicy, {"budget_fraction": 1.5}),
        (RetryPolicy, {"cap_factor": 0.5, "base_factor": 1.0}),
        (BreakerPolicy, {"slow_factor": 1.0}),
        (BreakerPolicy, {"trip_after": 0}),
        (BrownoutPolicy, {"enter_factor": 2.0, "exit_factor": 2.0}),
        (BrownoutPlan, {"interval_scale": 0.0, "fill_scale": 1.0}),
    ])
    def test_bad_policies_rejected(self, factory, kwargs):
        with pytest.raises(ValueError):
            factory(**kwargs)

    def test_default_config_constructs(self):
        config = ResilienceConfig(seed=3)
        assert config.seed == 3
        assert config.retry.max_attempts == 3

    @pytest.mark.parametrize("seed", [-3, True, 1.5, "3", None])
    def test_bad_seed_rejected(self, seed):
        """Retry jitter draws from SeedSequence([seed]) only when a retry
        fires, so a bad seed must fail here, not mid-replay."""
        with pytest.raises(ValueError, match=r"^resilience seed must be a "
                           r"non-negative integer, got "):
            ResilienceConfig(seed=seed)

    def test_numpy_seed_stored_as_int(self):
        config = ResilienceConfig(seed=np.int64(3))
        assert type(config.seed) is int and config.seed == 3

    def test_cli_refuses_a_negative_seed_before_serving(self, capsys):
        assert main(["serve", "--num-requests", "10", "--resilience",
                     "--resilience-seed", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: resilience seed must be a "
                                "non-negative integer, got -3\n")


# ----------------------------------------------------------------------
# Engine integration
# ----------------------------------------------------------------------

def conserved(telemetry, offered):
    total = (telemetry.num_completed + telemetry.num_rejected
             + telemetry.num_failed)
    return total == offered


class TestEngineIntegration:
    def test_armed_low_load_matches_disarmed_numbers(self, report):
        """At comfortable load no controller fires, so the armed run
        completes the identical work the disarmed one does."""
        engine = make_engine(report)
        trace = synthetic_trace(120, 0.5 * engine.plan.throughput_fps,
                                seed=3)
        plain = engine.serve(trace)
        armed = engine.serve(trace, resilience=ResilienceConfig(seed=3))
        assert armed.num_completed == plain.num_completed
        assert armed.num_rejected == plain.num_rejected
        assert armed.resilience["admission_shed"] == 0.0
        assert armed.resilience["brownout_entries"] == 0.0

    def test_conservation_under_chip_kill(self, report):
        engine = make_engine(report)
        trace = synthetic_trace(200, 1.2 * engine.plan.throughput_fps,
                                seed=7)
        telemetry = engine.serve(trace, faults="chip-kill@t=0.5",
                                 resilience=ResilienceConfig(seed=7))
        assert conserved(telemetry, 200)
        assert telemetry.resilience["retries_scheduled"] \
            <= telemetry.resilience["retry_budget"]

    def test_total_outage_drains_retry_heap_to_failures(self, report):
        """Kill both replicas: the second kill retracts any backed-off
        retries still parked on the heap, and everything still sums."""
        engine = make_engine(report)
        trace = synthetic_trace(150, engine.plan.throughput_fps, seed=5)
        telemetry = engine.serve(
            trace, faults="chip-kill@t=0.3,chip-kill@t=0.35:chip=1",
            resilience=ResilienceConfig(seed=5))
        assert conserved(telemetry, 150)
        assert telemetry.num_failed > 0
        assert telemetry.availability() < 1.0

    def test_same_seed_runs_are_identical(self, report):
        engine = make_engine(report)
        trace = synthetic_trace(150, 1.3 * engine.plan.throughput_fps,
                                seed=11)
        summaries = [
            engine.serve(trace, faults="chip-kill@t=0.4",
                         resilience=ResilienceConfig(seed=11)).summary()
            for _ in range(2)
        ]
        assert json.dumps(summaries[0], sort_keys=True) \
            == json.dumps(summaries[1], sort_keys=True)

    def test_stats_and_summary_carry_the_full_family(self, report):
        engine = make_engine(report)
        trace = synthetic_trace(80, engine.plan.throughput_fps, seed=1)
        telemetry = engine.serve(trace,
                                 resilience=ResilienceConfig(seed=1))
        assert set(telemetry.resilience) == STATS_KEYS
        summary = telemetry.summary()
        for key in STATS_KEYS:
            assert f"resilience_{key}" in summary

    def test_disarmed_summary_has_no_resilience_keys(self, report):
        engine = make_engine(report)
        trace = synthetic_trace(40, engine.plan.throughput_fps, seed=1)
        summary = engine.serve(trace).summary()
        assert not any(k.startswith("resilience_") for k in summary)

    def test_metrics_published_and_validator_clean(self, report):
        engine = make_engine(report)
        trace = synthetic_trace(120, 1.2 * engine.plan.throughput_fps,
                                seed=9)
        registry = MetricsRegistry()
        engine.serve(trace, metrics=registry, faults="chip-kill@t=0.5",
                     resilience=ResilienceConfig(seed=9))
        text = prometheus_text(registry)
        for key in STATS_KEYS:
            assert f"serve_resilience_{key}" in text
        assert validate_prometheus(text) == []

    def test_straggler_opens_breaker_and_emits_span(self, report):
        engine = make_engine(report)
        trace = synthetic_trace(150, 1.1 * engine.plan.throughput_fps,
                                seed=13)
        tracer = Tracer()
        telemetry = engine.serve(
            trace, tracer=tracer,
            faults="straggler@t=0.1:chip=1:factor=6:until=0.9",
            resilience=ResilienceConfig(seed=13))
        assert telemetry.resilience["breaker_opens"] >= 1
        spans = [s for s in tracer.spans if s.name == "breaker"]
        assert spans and all(s.track == "faults" for s in spans)

    def test_single_replica_straggler_fails_open(self, report):
        """With one replica there is nowhere to route around: the
        breaker opens but the engine serves through it — degraded
        capacity never becomes an outage."""
        engine = make_engine(report, num_chips=1)
        trace = synthetic_trace(100, 0.8 * engine.plan.throughput_fps,
                                seed=3)
        telemetry = engine.serve(
            trace, faults="straggler@t=0.1:factor=6:until=2.0",
            resilience=ResilienceConfig(seed=3))
        assert conserved(telemetry, 100)
        assert telemetry.resilience["breaker_opens"] >= 1
        assert telemetry.resilience["fail_open_batches"] > 0
        assert telemetry.num_completed > 0

    def test_overload_enters_brownout_and_emits_span(self, report):
        # A permissive admission gate (it would otherwise hold the queue
        # delay below the brownout threshold) lets sustained overload
        # reach the down-shift controller.
        config = ResilienceConfig(
            seed=17,
            admission=AdmissionPolicy(target_factor=100.0, burst=1000,
                                      rate_headroom=100.0))
        engine = make_engine(report)
        trace = synthetic_trace(1200, 6.0 * engine.plan.throughput_fps,
                                seed=17)
        tracer = Tracer()
        telemetry = engine.serve(trace, tracer=tracer, resilience=config)
        assert telemetry.resilience["brownout_entries"] >= 1
        assert telemetry.resilience["brownout_ms"] > 0.0
        assert telemetry.resilience["degraded_completions"] > 0
        spans = [s for s in tracer.spans if s.name == "brownout"]
        assert spans and all(s.track == "faults" for s in spans)

    def test_overload_sheds_by_admission(self, report):
        engine = make_engine(report)
        trace = synthetic_trace(400, 3.0 * engine.plan.throughput_fps,
                                seed=19)
        armed = engine.serve(trace, resilience=ResilienceConfig(seed=19))
        assert conserved(armed, 400)
        stats = armed.resilience
        assert stats["admission_shed"] > 0
        assert stats["admission_shed"] == (stats["shed_queue_delay"]
                                           + stats["shed_token_bucket"])

    def test_empty_trace_is_vacuously_available(self, report):
        engine = make_engine(report)
        telemetry = engine.serve([], resilience=ResilienceConfig())
        assert telemetry.availability() == 1.0
        assert conserved(telemetry, 0)
        summary = telemetry.summary()
        assert summary["completed"] == 0.0

    def test_config_on_serving_config_arms_the_run(self, report):
        engine = ServingEngine(report, ServingConfig(
            num_chips=2, resilience=ResilienceConfig(seed=2)))
        trace = synthetic_trace(60, engine.plan.throughput_fps, seed=2)
        telemetry = engine.serve(trace)
        assert telemetry.resilience is not None


# ----------------------------------------------------------------------
# Chaos-seed conservation property (satellite of docs/resilience.md's
# harness) and the acceptance A/B.
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def chaos_payload():
    from repro.serve.resilience.chaos import two_point_front_payload
    return two_point_front_payload()


class TestChaosConservation:
    @pytest.fixture(scope="class")
    def chaos_run(self, chaos_payload):
        from repro.serve.resilience.chaos import run_chaos
        return run_chaos([3, 7, 11], payload=chaos_payload)

    def test_every_invariant_holds(self, chaos_run):
        _, problems = chaos_run
        assert problems == []

    def test_conservation_on_both_fleets_every_seed(self, chaos_run):
        rows, _ = chaos_run
        assert [row["seed"] for row in rows] == [3, 7, 11]
        for row in rows:
            for side in ("on", "off"):
                total = (row[f"completed_{side}"] + row[f"rejected_{side}"]
                         + row[f"failed_{side}"])
                assert total == row["num_requests"]

    def test_armed_rows_carry_resilience_columns(self, chaos_run):
        rows, _ = chaos_run
        for row in rows:
            assert row["retries_scheduled"] >= 0
            assert row["brownout_ms"] >= 0.0


class TestAcceptance:
    def test_resilience_wins_flash_crowd_with_chip_kill(self, chaos_payload):
        """The PR's acceptance cell: flash crowd at full offered load
        with a mid-run chip kill.  The armed fleet must beat the bare
        one on availability *and* tail latency, with conservation on
        both sides."""
        from repro.serve.resilience.chaos import build_chaos_fleets
        from repro.serve.scenarios import get_scenario
        from repro.serve.scenarios.faults import parse_faults

        fleets = build_chaos_fleets(chaos_payload, num_chips=6)
        on, off = fleets["resilience-on"], fleets["resilience-off"]
        assert on.config.num_chips == off.config.num_chips
        trace = get_scenario("flash-crowd").to_trace(
            5000, rate_rps=on.plan.throughput_fps, seed=42)
        faults = parse_faults("chip-kill@t=0.5:chip=0")
        t_on = on.serve(trace, faults=faults,
                        resilience=ResilienceConfig(seed=42))
        t_off = off.serve(trace, faults=faults)
        assert conserved(t_on, 5000) and conserved(t_off, 5000)
        assert t_on.availability() > t_off.availability()
        assert t_on.latency_percentile(99.0) \
            < t_off.latency_percentile(99.0)
