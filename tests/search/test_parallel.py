"""The restart fan-out (repro.search.parallel).

Pins order preservation, which the restart reductions build on, and the
premise that lets pooled restarts ship no work counters back: a restart
only reads the pre-built grid, so it simulates nothing.
"""

from dataclasses import replace

import pytest

from repro.models.specs import resnet18_spec
from repro.pim.lut import DEFAULT_LUT
from repro.pim.simulator import SimCounters, sim_counters
from repro.search import EvoSearchConfig, build_candidate_grid
from repro.search.evolve import _restart_task, _run_restarts
from repro.search.parallel import (
    ENV_FORCE_WORKERS,
    effective_workers,
    parallel_map,
)
from repro.search.pareto import _pareto_task, pareto_search


def square(x):
    return x * x


def counter_delta(args):
    """Run ``task(payload)`` and return its :class:`SimCounters` delta,
    measured in whichever process runs it."""
    task, payload = args
    before = sim_counters().as_dict()
    task(payload)
    after = sim_counters().as_dict()
    return {key: after[key] - before[key] for key in after}


NO_WORK = dict.fromkeys(SimCounters().as_dict(), 0)


class TestEffectiveWorkers:
    def test_serial_requests_stay_serial(self):
        assert effective_workers(1, 100) == 1
        assert effective_workers(0, 100) == 1

    def test_capped_by_tasks(self, monkeypatch):
        monkeypatch.setenv(ENV_FORCE_WORKERS, "1")
        assert effective_workers(8, 3) == 3
        assert effective_workers(8, 1) == 1

    def test_capped_by_cpu_count(self, monkeypatch):
        monkeypatch.delenv(ENV_FORCE_WORKERS, raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        assert effective_workers(8, 100) == 2

    def test_force_env_bypasses_cpu_cap(self, monkeypatch):
        monkeypatch.setenv(ENV_FORCE_WORKERS, "1")
        monkeypatch.setattr("os.cpu_count", lambda: 1)
        assert effective_workers(4, 100) == 4


class TestParallelMap:
    def test_serial_path(self):
        assert parallel_map(square, [1, 2, 3], workers=1) == [1, 4, 9]

    def test_pool_preserves_order(self, monkeypatch):
        monkeypatch.setenv(ENV_FORCE_WORKERS, "1")
        payloads = list(range(40))
        assert parallel_map(square, payloads, workers=2) \
            == [x * x for x in payloads]

    def test_empty_payloads(self):
        assert parallel_map(square, [], workers=4) == []


@pytest.fixture(scope="module")
def grid():
    return build_candidate_grid(resnet18_spec(), weight_bits=9,
                                activation_bits=9)


CONFIGS = [EvoSearchConfig(population_size=8, iterations=2, restarts=1,
                           seed=s) for s in (0, 1)]


class TestEvolveFanOutCounters:
    """Forced-pool restarts, of both search modes, leave every
    :class:`SimCounters` field unchanged: measured inside each worker
    and in the parent."""

    def test_pooled_restarts_leave_counters_unchanged(self, monkeypatch,
                                                      grid):
        monkeypatch.setenv(ENV_FORCE_WORKERS, "1")
        payloads = [(_restart_task, (grid, None, config, DEFAULT_LUT))
                    for config in CONFIGS]
        assert parallel_map(counter_delta, payloads, workers=2) \
            == [NO_WORK] * len(CONFIGS)
        before = sim_counters().as_dict()
        serial = _run_restarts(grid, None, CONFIGS, DEFAULT_LUT, workers=1)
        parallel = _run_restarts(grid, None, CONFIGS, DEFAULT_LUT, workers=2)
        assert sim_counters().as_dict() == before
        assert [r.genome for r in serial] == [r.genome for r in parallel]
        assert [r.eval for r in serial] == [r.eval for r in parallel]

    def test_pooled_pareto_restarts_leave_counters_unchanged(
            self, monkeypatch, grid):
        monkeypatch.setenv(ENV_FORCE_WORKERS, "1")
        payloads = [(_pareto_task, (grid, None, config, DEFAULT_LUT))
                    for config in CONFIGS]
        assert parallel_map(counter_delta, payloads, workers=2) \
            == [NO_WORK] * len(CONFIGS)
        search = EvoSearchConfig(population_size=8, iterations=2,
                                 restarts=2, seed=0)
        before = sim_counters().as_dict()
        serial = pareto_search(grid, None, search)
        parallel = pareto_search(grid, None, replace(search, workers=2))
        assert sim_counters().as_dict() == before
        assert [p.genome for p in serial.points] == \
            [p.genome for p in parallel.points]
