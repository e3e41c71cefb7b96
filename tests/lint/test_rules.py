"""Per-rule behaviour: seeded fixture violations per rule family.

Every rule gets at least one fixture that *must* fire (the gate
catches the violation) and one that must stay silent (no false
positive on the sanctioned idiom).
"""

import textwrap

import pytest

from repro.lint.config import LintConfig
from repro.lint.engine import run_lint


def lint_source(tmp_path, source, relpath="src/pkg/serve/mod.py",
                **config_kw):
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    config = LintConfig(root=tmp_path, paths=("src",),
                        baseline_path=None, **config_kw)
    return run_lint(config)


def rules_of(result):
    return [f.rule for f in result.findings]


# ---------------------------------------------------------------------
# D-rules
# ---------------------------------------------------------------------

def test_d101_flags_np_random_free_function(tmp_path):
    result = lint_source(tmp_path, """
        import numpy as np
        def jitter(n):
            return np.random.rand(n)
    """, select=("D",))
    assert rules_of(result) == ["D101"]
    assert "np.random.rand" in result.findings[0].message
    assert result.findings[0].symbol == "jitter"


def test_d101_flags_stdlib_random_and_from_import(tmp_path):
    result = lint_source(tmp_path, """
        import random
        from random import choice
        def pick(items):
            random.shuffle(items)
            return choice(items)
    """, select=("D",))
    assert rules_of(result) == ["D101", "D101"]


def test_d101_allows_explicit_generator(tmp_path):
    result = lint_source(tmp_path, """
        import numpy as np
        def sample(rng: np.random.Generator, n):
            return rng.random(n)
        def seeded():
            return np.random.default_rng(7).random(3)
    """, select=("D",))
    assert result.findings == []


def test_d102_flags_unseeded_default_rng_any_import_form(tmp_path):
    result = lint_source(tmp_path, """
        import numpy as np
        from numpy.random import default_rng
        a = np.random.default_rng()
        b = default_rng()
        c = default_rng(42)
    """, select=("D",))
    assert rules_of(result) == ["D102", "D102"]


def test_d103_flags_wall_clock_only_in_deterministic_dirs(tmp_path):
    source = """
        import time, os
        from datetime import datetime
        def stamp():
            return time.time(), datetime.now(), os.urandom(8)
    """
    hot = lint_source(tmp_path / "a", source, relpath="src/pkg/pim/sim.py",
                      select=("D103",))
    assert rules_of(hot) == ["D103", "D103", "D103"]
    cold = lint_source(tmp_path / "b", source,
                       relpath="src/pkg/analysis/rep.py", select=("D103",))
    assert cold.findings == []


def test_d103_allows_perf_counter(tmp_path):
    result = lint_source(tmp_path, """
        import time
        def measure():
            return time.perf_counter()
    """, relpath="src/pkg/search/grid.py", select=("D103",))
    assert result.findings == []


def test_d104_flags_set_iteration_feeding_output(tmp_path):
    result = lint_source(tmp_path, """
        def dump(items):
            out = []
            for name in set(items):
                out.append(name)
            dedup = list({x for x in items})
            return out, dedup
    """, select=("D104",))
    assert rules_of(result) == ["D104", "D104"]


def test_d104_allows_sorted_set(tmp_path):
    result = lint_source(tmp_path, """
        def dump(items):
            return [name for name in sorted(set(items))]
    """, select=("D104",))
    assert result.findings == []


# ---------------------------------------------------------------------
# M-rule
# ---------------------------------------------------------------------
# M201 is the one M rule: repro.obs.catalog declares and checks every
# name, so lint keeps metric accessors out of call sites and tracer
# categories to SPAN_CATEGORIES literals.  The fixtures keep the names
# they had when M201-M205 checked call sites against a manifest; each
# docstring says what it holds now.

def test_m201_flags_bad_grammar(tmp_path):
    """The catalog checks grammar where it loads; a call site that
    names a metric is flagged whatever the name."""
    result = lint_source(tmp_path, """
        def publish(registry):
            registry.counter("serve.engine.CamelCase").inc()
            registry.gauge("frontend.engine.chips").set(1)
            registry.counter("serve.only_two").inc()
    """, select=("M",))
    assert rules_of(result) == ["M201", "M201", "M201"]
    assert "repro.obs.catalog" in result.findings[0].message


def test_m202_flags_name_missing_from_manifest(tmp_path):
    """Declared or not, a direct accessor call is flagged; publishing
    through the catalog is the idiom that passes."""
    result = lint_source(tmp_path, """
        def publish_all(registry, values):
            registry.histogram("serve.engine.latency_ms").observe_many(
                values)
            registry.counter("serve.engine.latencyy_ms").inc()
            publish(registry, "serve.engine", {"latency_ms": values})
    """, select=("M",))
    assert rules_of(result) == ["M201", "M201"]
    assert [f.line for f in result.findings] == [3, 5]


def test_m202_folds_local_constant_fstrings(tmp_path):
    """Nothing folds a name built from local constants any more: the
    call is the finding, whatever its name folds to."""
    result = lint_source(tmp_path, """
        def publish(registry):
            eng = "serve.engine"
            registry.gauge(f"{eng}.chips").set(2)
            registry.gauge(f"{eng}.chipz").set(2)
    """, select=("M",))
    assert rules_of(result) == ["M201", "M201"]


def test_m203_dynamic_name_needs_wildcard_cover(tmp_path):
    """No wildcard covers a dynamic name: outside repro/obs/ each one
    is flagged, and inside it, where ``publish`` names metrics from
    catalog rows, none is."""
    source = """
        def publish(registry, fields):
            for name in fields:
                registry.gauge(f"pim.simulator.{name}").set(1)
                registry.gauge(f"pim.mystery.{name}").set(1)
    """
    result = lint_source(tmp_path, source, select=("M",))
    assert rules_of(result) == ["M201", "M201"]
    inside = lint_source(tmp_path / "obs", source,
                         relpath="src/repro/obs/catalog.py", select=("M",))
    assert inside.findings == []


def test_m202_checks_span_categories(tmp_path):
    result = lint_source(tmp_path, """
        def trace(tracer, category):
            with tracer.span("generation[0]", "search.evolve"):
                pass
            tracer.record("gen", "search.pareto", 0.0, 1.0)
            tracer.record("gen", "search.evolvee", 0.0, 1.0)
            tracer.record("gen", category, 0.0, 1.0)
            with tracer.span("untitled"):
                pass
            other.record("not a tracer", "whatever")
    """, select=("M",))
    assert rules_of(result) == ["M201", "M201", "M201"]
    assert [f.line for f in result.findings] == [6, 7, 8]


# ---------------------------------------------------------------------
# H-rules
# ---------------------------------------------------------------------

def test_h301_flags_loop_allocation_in_hot_region(tmp_path):
    result = lint_source(tmp_path, """
        import numpy as np
        # reprolint: hot-loop
        def dispatch(events):
            for event in events:
                buf = np.zeros(64)
                scratch = list(event)
            tail = np.zeros(8)      # outside the loop: fine
            return tail
    """, select=("H",))
    assert rules_of(result) == ["H301", "H301"]


def test_h301_ignores_unmarked_function(tmp_path):
    result = lint_source(tmp_path, """
        import numpy as np
        def dispatch(events):
            for event in events:
                buf = np.zeros(64)
            return buf
    """, select=("H",))
    assert result.findings == []


def test_h301_for_iter_is_not_per_iteration(tmp_path):
    result = lint_source(tmp_path, """
        # reprolint: hot-loop
        def dispatch(events):
            for event in list(events):
                pass
    """, select=("H301",))
    assert result.findings == []


def test_h302_flags_per_event_observability(tmp_path):
    result = lint_source(tmp_path, """
        # reprolint: hot-loop
        def dispatch(events, registry, tracer):
            for event in events:
                registry.counter("serve.engine.x").inc()
                hist.observe(event.latency)
                tracer.record("req", "serve.request", 0, 1)
            hist.observe_many(latencies)    # bulk: sanctioned
    """, select=("H302",))
    assert rules_of(result) == ["H302", "H302", "H302"]


def test_h302_flags_publish_calls_in_hot_regions(tmp_path):
    result = lint_source(tmp_path, """
        # reprolint: hot-loop
        def dispatch(events, registry, counters):
            for event in events:
                publish(registry, "serve.engine", {"chips": 1})
                counters.publish(registry)
            self._publish_metrics(registry)     # not named publish

        def after(registry):
            publish(registry, "serve.engine", {"chips": 1})
    """, select=("H302",))
    assert rules_of(result) == ["H302", "H302"]
    assert [f.line for f in result.findings] == [5, 6]


def test_h303_flags_fstring_logging(tmp_path):
    result = lint_source(tmp_path, """
        # reprolint: hot-loop
        def dispatch(events, log):
            for event in events:
                print(f"handling {event}")
                log.debug("state %s" % event)
            print("done")               # constant: fine
    """, select=("H303",))
    assert rules_of(result) == ["H303", "H303"]


def test_h304_dangling_marker(tmp_path):
    result = lint_source(tmp_path, """
        x = 1
        # reprolint: hot-loop
        y = 2
    """, select=("H304",))
    assert rules_of(result) == ["H304"]


def test_hot_loop_marker_on_loop_statement(tmp_path):
    result = lint_source(tmp_path, """
        import numpy as np
        def dispatch(events):
            # reprolint: hot-loop
            for event in events:
                buf = np.empty(4)
            for event in events:
                other = np.empty(4)     # unmarked loop: fine
    """, select=("H301",))
    assert rules_of(result) == ["H301"]


# ---------------------------------------------------------------------
# C-rules
# ---------------------------------------------------------------------

def test_c401_benchmark_must_declare_work(tmp_path):
    result = lint_source(tmp_path, """
        from repro.bench.registry import Workload, benchmark

        @benchmark("suite.lazy", suite="suite")
        def bench_lazy(fast):
            return Workload(fn=lambda: None)

        @benchmark("suite.good", suite="suite")
        def bench_good(fast):
            return Workload(fn=lambda: None, items=4.0, unit="ops")

        @benchmark("suite.counted", suite="suite")
        def bench_counted(fast):
            return Workload(fn=lambda: None, counters=lambda: {"n": 1})
    """, select=("C401",))
    assert rules_of(result) == ["C401"]
    assert result.findings[0].symbol == "bench_lazy"


def test_c402_doc_flag_must_exist(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs/usage.md").write_text(
        "Run with `--num-requests 5` or `--ghost-flag`.\n"
        "External `--cov` is allowlisted.\n")
    result = lint_source(tmp_path, """
        import argparse
        def build():
            p = argparse.ArgumentParser()
            p.add_argument("--num-requests", type=int)
            return p
    """, select=("C402",))
    assert rules_of(result) == ["C402"]
    assert "--ghost-flag" in result.findings[0].message
    assert result.findings[0].path == "docs/usage.md"


# ---------------------------------------------------------------------
# cross-cutting
# ---------------------------------------------------------------------

def test_findings_report_locations_and_fingerprints(tmp_path):
    result = lint_source(tmp_path, """
        import numpy as np
        def jitter(n):
            return np.random.rand(n)
    """, select=("D101",))
    finding, = result.findings
    assert finding.path == "src/pkg/serve/mod.py"
    assert finding.line == 4
    assert len(finding.fingerprint) == 16


def test_select_and_ignore_are_prefix_matched(tmp_path):
    source = """
        import numpy as np
        unseeded = np.random.default_rng()
        noisy = np.random.rand(3)
    """
    only_d102 = lint_source(tmp_path, source, select=("D102",))
    assert rules_of(only_d102) == ["D102"]
    no_d = lint_source(tmp_path, source, select=("D",), ignore=("D101",))
    assert rules_of(no_d) == ["D102"]


@pytest.mark.parametrize("directive", ["disable=D101", "disable=all"])
def test_inline_suppression(tmp_path, directive):
    result = lint_source(tmp_path, f"""
        import numpy as np
        def jitter(n):
            return np.random.rand(n)   # reprolint: {directive}
    """, select=("D101",))
    assert result.findings == []
    assert result.suppressed == 1


def test_file_level_suppression(tmp_path):
    result = lint_source(tmp_path, """
        # reprolint: disable-file=D101
        import numpy as np
        a = np.random.rand(3)
        b = np.random.rand(3)
        c = np.random.default_rng()
    """, select=("D",))
    assert rules_of(result) == ["D102"]
