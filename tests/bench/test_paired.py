"""The paired A-vs-B primitive and the speed gates' verdict rule."""

import gc
import importlib
from fractions import Fraction
from math import comb

import pytest

from repro.bench.paired import (MIN_BLOCKS, PairedTiming, collector_paused,
                                gate, interval_rank, paired)

paired_module = importlib.import_module("repro.bench.paired")


class FakeClock:
    """Stands in for ``perf_counter``; sides advance it by set amounts."""

    def __init__(self):
        self.now = 0.0
        self.reads = 0

    def __call__(self):
        self.reads += 1
        return self.now


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(paired_module, "perf_counter", fake)
    return fake


def sides(clock, log):
    """Two logging sides: ``a`` costs 1.0 clock units, ``b`` 1.25."""
    def a(case):
        log.append(("a", case))
        clock.now += 1.0
        return case

    def b(case):
        log.append(("b", case))
        clock.now += 1.25
        return case

    return a, b


def same(x, y):
    return x == y


def test_constant_sides_give_an_exact_ratio_and_totals(clock):
    a, b = sides(clock, [])
    result = paired(a, b, ["x", "y"], rounds=4, same=same)
    assert result == PairedTiming(ratio=1.25, low=1.25, high=1.25,
                                  a_s=8 * 2.0, b_s=8 * 2.5, blocks=8)
    assert clock.reads == 4 * 8           # the warm-up is never timed


def test_call_log_is_warmup_then_abba_per_case_per_round(clock):
    log = []
    a, b = sides(clock, log)
    paired(a, b, ["x", "y", "z"], rounds=2, same=same)
    warmup = [("a", "x"), ("b", "x"), ("a", "y"), ("b", "y"),
              ("a", "z"), ("b", "z")]
    blocks = [(side, case) for _ in range(2) for case in "xyz"
              for side in "abba"]
    assert log == warmup + blocks


def test_unequal_work_raises_before_any_timed_call(clock):
    log = []
    a, b = sides(clock, log)
    with pytest.raises(AssertionError, match="different work on case 1"):
        paired(a, b, ["x", "y"], rounds=3,
               same=lambda x, y: x == y == "x")
    assert clock.reads == 0
    assert log == [("a", "x"), ("b", "x"), ("a", "y"), ("b", "y")]


def test_too_few_blocks_raise_before_any_call(clock):
    log = []
    a, b = sides(clock, log)
    with pytest.raises(ValueError, match="no 95% interval"):
        paired(a, b, ["x"], rounds=MIN_BLOCKS - 1, same=same)
    with pytest.raises(ValueError):
        paired(a, b, [], rounds=100, same=same)
    assert log == [] and clock.reads == 0
    assert paired(a, b, ["x"], rounds=MIN_BLOCKS, same=same).blocks == 6


@pytest.mark.parametrize("enabled", [True, False])
def test_a_side_raising_mid_block_restores_the_collector(clock, enabled):
    log = []
    a, b = sides(clock, log)

    def flaky(case):
        if len(log) > 5:                 # past the warm-up, mid-block
            raise RuntimeError("boom")
        return b(case)

    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with pytest.raises(RuntimeError, match="boom"):
            paired(a, flaky, ["x", "y"], rounds=3, same=same)
        assert log[-2:] == [("a", "x"), ("b", "x")]
        assert gc.isenabled() is enabled
        paired(a, b, ["x"], rounds=6, same=same)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_collector_is_off_inside_the_pause_only():
    assert gc.isenabled()
    with collector_paused():
        assert not gc.isenabled()
    assert gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False])
def test_pause_collects_fully_first_then_restores(enabled):
    runs = []

    def count(phase, info):
        if phase == "start":
            runs.append((info["generation"], gc.isenabled()))

    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    gc.callbacks.append(count)
    try:
        with collector_paused():
            assert runs == [(2, enabled)]
            assert not gc.isenabled()
        assert gc.isenabled() is enabled
    finally:
        gc.callbacks.remove(count)
        (gc.enable if was else gc.disable)()


def test_one_outlier_block_moves_neither_median_nor_upper_bound(clock):
    calls = []

    def b(case):
        calls.append(case)
        # call 1 is the warm-up; block j's calls are 2 + 2j and 3 + 2j
        clock.now += 12.5 if len(calls) in (28, 29) else 1.25
        return case

    a, _ = sides(clock, [])
    result = paired(a, b, ["x"], rounds=24, same=same)
    assert (result.ratio, result.high) == (1.25, 1.25)
    assert result.blocks == 24


@pytest.mark.parametrize("rounds", [6, 12, 24])
def test_interval_is_the_sorted_ratios_at_ranks_k_and_n_minus_1_minus_k(
        clock, rounds):
    calls = []

    def b(case):
        calls.append(case)
        # block j (calls 2 + 2j and 3 + 2j) takes 1 + j / 100 per call
        clock.now += 1.0 + (len(calls) - 2) // 2 / 100
        return case

    a, _ = sides(clock, [])
    result = paired(a, b, ["x"], rounds=rounds, same=same)
    k = interval_rank(rounds)
    assert result.low == pytest.approx(1.0 + k / 100)
    assert result.high == pytest.approx(1.0 + (rounds - 1 - k) / 100)
    assert result.ratio == pytest.approx(1.0 + (rounds - 1) / 200)


def reference_rank(n):
    """Largest k with P(Binomial(n, 1/2) <= k) <= 1/40, by fractions."""
    tail, k = Fraction(0), -1
    while True:
        tail += Fraction(comb(n, k + 1), 2 ** n)
        if tail > Fraction(1, 40):
            return k
        k += 1


def coverage(n, k):
    """P(sorted[k] <= median <= sorted[n - 1 - k]) for a continuous law."""
    return 1 - 2 * sum(Fraction(comb(n, i), 2 ** n) for i in range(k + 1))


def test_interval_rank_is_the_largest_rank_with_95pct_coverage():
    for n in range(MIN_BLOCKS, 301):
        k = interval_rank(n)
        assert k == reference_rank(n), n
        assert 0 <= k < n - 1 - k
        assert coverage(n, k) >= Fraction(95, 100), n
        assert coverage(n, k + 1) < Fraction(95, 100), n
    assert [interval_rank(n) for n in range(1, MIN_BLOCKS)] == [-1] * 5


def timing(ratio, low, high):
    return PairedTiming(ratio=ratio, low=low, high=high, a_s=1.0,
                        b_s=ratio, blocks=96)


def test_overhead_gate_fails_only_when_the_whole_interval_is_above():
    with pytest.raises(AssertionError) as failure:
        gate(timing(1.063, 1.051, 1.071), "arming", budget_pct=5.0)
    message = str(failure.value)
    for figure in ("6.30%", "5.10%", "7.10%", "5% budget", "96 ABBA"):
        assert figure in message
    assert message.startswith("arming: overhead_pct")

    straddling = gate(timing(1.045, 1.035, 1.062), "arming", budget_pct=5.0)
    assert straddling == pytest.approx({
        "overhead_pct": 4.5, "overhead_pct_low": 3.5,
        "overhead_pct_high": 6.2, "blocks": 96.0})
    # a median past the budget is not enough: the lower bound decides
    assert gate(timing(1.055, 1.045, 1.065), "arming", budget_pct=5.0)
    assert gate(timing(1.01, 0.99, 1.03), "arming", budget_pct=5.0)


def test_speedup_gate_fails_only_when_the_whole_interval_is_below():
    with pytest.raises(AssertionError) as failure:
        gate(timing(8.6, 7.9, 9.4), "vectorized", floor=10.0)
    message = str(failure.value)
    for figure in ("8.60x", "7.90x", "9.40x", "10x floor"):
        assert figure in message

    straddling = gate(timing(9.5, 8.8, 10.4), "vectorized", floor=10.0)
    assert straddling == {"speedup": 9.5, "speedup_low": 8.8,
                          "speedup_high": 10.4, "blocks": 96.0}
    assert gate(timing(11.0, 10.2, 12.5), "vectorized", floor=10.0)


def test_gate_takes_exactly_one_limit():
    with pytest.raises(ValueError):
        gate(timing(1.0, 1.0, 1.0), "x")
    with pytest.raises(ValueError):
        gate(timing(1.0, 1.0, 1.0), "x", budget_pct=5.0, floor=10.0)
