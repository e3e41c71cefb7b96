"""The metric catalog: one declaration per metric, and the docs table
rendered from it.

``repro.obs.catalog`` is the only place a metric's name, kind, help and
buckets are written.  These tests hold the three things that used to
be kept in sync by hand: the generated table of docs/observability.md
(refresh with ``pytest --update-goldens``), the grammar every row must
parse against, and ``publish`` refusing a name nobody declared.
"""

import re

import numpy as np
import pytest

from repro.obs import catalog
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry

from tests.lint.test_engine import REPO_ROOT

DOC = REPO_ROOT / "docs" / "observability.md"
BEGIN = "<!-- metrics-table:begin -->\n"
END = "<!-- metrics-table:end -->"


def test_docs_table_is_generated_from_the_catalog(update_goldens):
    text = DOC.read_text()
    head, rest = text.split(BEGIN)
    table, tail = rest.split(END)
    if update_goldens:
        DOC.write_text(head + BEGIN + catalog.docs_table() + END + tail)
        table = catalog.docs_table()
    assert table == catalog.docs_table(), (
        "the metric table of docs/observability.md is stale — refresh "
        "it with pytest --update-goldens")
    backticked = set(re.findall(r"`([^`\n]+)`", text))
    missing = [c for c in catalog.SPAN_CATEGORIES if c not in backticked]
    assert missing == [], "span categories missing from the span taxonomy"


def test_publish_rejects_an_undeclared_name():
    registry = MetricsRegistry()
    with pytest.raises(KeyError, match="serve.engine.chipz"):
        catalog.publish(registry, "serve.engine", {"chipz": 2})
    with pytest.raises(KeyError, match="serve.engin.chips"):
        catalog.publish(registry, "serve.engin", {"chips": 2})
    assert len(registry) == 0


def test_rows_must_parse_against_the_grammar():
    for family, short in (("serve.engine", "CamelCase"),
                          ("serve.engine", "9lives"), ("serve", "chips"),
                          ("frontend.engine", "chips")):
        with pytest.raises(ValueError, match="does not parse"):
            catalog._specs({family: ((short, "counter", "help"),)})
    with pytest.raises(ValueError, match="kind"):
        catalog._specs({"serve.engine": (("chips", "gauje", "help"),)})
    with pytest.raises(ValueError, match="repeats"):
        catalog._specs({"serve.engine": (("chips", "gauge", "a"),
                                         ("chips", "gauge", "b"))})
    assert all(catalog.METRIC_NAME_RE.match(n)
               for n in catalog.metric_names())
    assert all(catalog.SPAN_CATEGORY_RE.match(c)
               for c in catalog.SPAN_CATEGORIES)


def test_publish_dispatches_on_kind_and_publishes_only_given_keys():
    registry = MetricsRegistry()
    values = np.array([1.0, 3.0, 70.0])
    catalog.publish(registry, "serve.engine", {
        "requests_completed": 3, "chips": 2, "batch_size": values})
    catalog.publish(registry, "serve.engine", {"requests_completed": 2})
    assert registry.names() == ["serve.engine.batch_size",
                                "serve.engine.chips",
                                "serve.engine.requests_completed"]
    completed = registry.get("serve.engine.requests_completed")
    assert isinstance(completed, Counter) and completed.value == 5.0
    assert completed.help == "requests served to completion"
    chips = registry.get("serve.engine.chips")
    assert isinstance(chips, Gauge) and chips.value == 2.0
    sizes = registry.get("serve.engine.batch_size")
    assert isinstance(sizes, Histogram) and sizes.count == 3
    assert sizes.buckets == (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
