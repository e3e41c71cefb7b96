"""The metric catalog is exact at runtime: a serve+search+pim smoke
run publishes every metric ``repro.obs.catalog`` declares, and nothing
else, and records a span in every declared span category.

The catalog is the repo's metric manifest (it replaced
docs/metrics-manifest.json, and the tests keep the manifest's names).
This closes the loop from the other side of it: ``publish`` refuses
undeclared names and ``repro lint`` (M201) keeps publication going
through it, while this proves every row is still published somewhere,
so dead declarations cannot pile up unnoticed.  The smoke's
``# HELP``/``# TYPE`` lines are pinned too.
"""

import pytest

from repro.models.specs import resnet18_spec
from repro.obs.catalog import SPAN_CATEGORIES, metric_names
from repro.obs.export import prometheus_text
from repro.obs.metrics import Gauge, MetricsRegistry
from repro.obs.runtime import use_metrics, use_tracer
from repro.obs.tracer import Tracer
from repro.pim.simulator import sim_counters
from repro.search import (
    EvoSearchConfig,
    build_candidate_grid,
    evolution_search,
    pareto_search,
)
from repro.serve.engine import ServingConfig, ServingEngine
from repro.serve.resilience import ResilienceConfig
from repro.serve.scheduler import SchedulerConfig
from repro.serve.trace import synthetic_trace

from tests.lint.test_engine import REPO_ROOT

HEADERS_GOLDEN = (REPO_ROOT / "tests" / "baselines" / "obs"
                  / "smoke-help-type.txt")


@pytest.fixture(scope="module")
def smoke():
    """One serve+search+pim smoke run capturing every publication."""
    registry = MetricsRegistry()
    tracer = Tracer()
    with use_tracer(tracer), use_metrics(registry):
        # serve: a faulted run publishes serve.engine.*,
        # serve.scheduler.* and the full serve.faults.* family.
        engine = ServingEngine.from_spec(
            "resnet18", ServingConfig(
                num_chips=2, scheduler=SchedulerConfig(max_batch_size=4)))
        trace = synthetic_trace(
            40, rate_rps=0.8 * engine.plan.throughput_fps, seed=3)
        engine.serve(trace, metrics=registry,
                     faults="straggler@t=0.2:factor=3:until=0.8")
        # serve.resilience.*: an armed replay publishes the whole
        # family (controllers that never fire still publish zeros).
        engine.serve(trace, metrics=registry,
                     resilience=ResilienceConfig(seed=3))
        # search: grid build publishes search.gridcache.*, the two
        # searches publish search.evolve.* / search.pareto.* plus their
        # per-generation tracer spans.
        grid = build_candidate_grid(resnet18_spec(), weight_bits=9,
                                    activation_bits=9)
        config = EvoSearchConfig(population_size=8, iterations=3,
                                 restarts=1, seed=0)
        evolution_search(grid, crossbar_budget=4000, search=config)
        pareto_search(grid, crossbar_budget=4000, search=config)
        # pim: simulator work counters mirror in as gauges.
        sim_counters().publish(registry)
    return registry, tracer


def test_every_runtime_metric_is_in_the_manifest(smoke):
    registry, _ = smoke
    declared = set(metric_names())
    unsanctioned = [name for name in registry.names()
                    if name not in declared]
    assert unsanctioned == []


def test_every_manifest_metric_is_published_at_runtime(smoke):
    registry, _ = smoke
    published = set(registry.names())
    unpublished = [name for name in metric_names()
                   if name not in published]
    assert unpublished == []


def test_every_manifest_wildcard_has_runtime_members(smoke):
    """``pim.simulator``, the manifest's one wildcard family, is
    declared member by member now: each member is published, as a
    gauge carrying the help the catalog gives it."""
    registry, _ = smoke
    prefix = "pim.simulator."
    declared = [n for n in metric_names() if n.startswith(prefix)]
    assert declared
    assert [n for n in registry.names() if n.startswith(prefix)] == declared
    for name in declared:
        gauge = registry.get(name)
        assert isinstance(gauge, Gauge)
        assert gauge.help == ("simulator work counter: "
                              + name[len(prefix):])


def test_manifest_span_categories_are_emitted(smoke):
    _, tracer = smoke
    observed = {span.category for span in tracer.spans}
    missing = [cat for cat in SPAN_CATEGORIES if cat not in observed]
    assert missing == []


def test_smoke_exercised_every_family(smoke):
    """Guard the fixture itself: a family the smoke stops reaching is
    named here, not just as a missing row of the catalog comparison."""
    registry, _ = smoke
    roots = {name.split(".", 2)[0] + "." + name.split(".", 2)[1]
             for name in registry.names()}
    assert {"serve.engine", "serve.scheduler", "serve.faults",
            "search.gridcache", "search.evolve",
            "search.pareto", "pim.simulator"} <= roots


def test_help_and_type_lines_match_golden(smoke, update_goldens):
    """Every family's ``# HELP``/``# TYPE`` exposition lines, pinned:
    the scalar-telemetry digests cover only the four serve families
    they replay, so this is what holds ``search.*`` and
    ``pim.simulator.*`` headers still."""
    registry, _ = smoke
    rendered = "".join(
        line + "\n" for line in prometheus_text(registry).splitlines()
        if line.startswith(("# HELP ", "# TYPE ")))
    if update_goldens:
        HEADERS_GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        HEADERS_GOLDEN.write_text(rendered)
    assert HEADERS_GOLDEN.exists(), (
        f"golden fixture {HEADERS_GOLDEN.name} missing — run "
        f"pytest --update-goldens to create it")
    assert rendered == HEADERS_GOLDEN.read_text(), (
        f"# HELP/# TYPE lines drifted from {HEADERS_GOLDEN.name} — if "
        f"the change is intentional, refresh with pytest --update-goldens")
