"""M-rule: metrics and spans are published through the catalog.

Every metric is declared once, in :mod:`repro.obs.catalog`, whose
:func:`~repro.obs.catalog.publish` checks each name and the catalog
each row's grammar.  What is left to check statically is that nothing
goes around it: a ``<recv>.counter/.gauge/.histogram(...)`` call
outside ``repro/obs/`` would publish an undeclared, undocumented name,
and a tracer span (``<tracer>.span(name, category)`` /
``<tracer>.record(name, category, ...)`` on a receiver named
``tracer``/``_tracer`` or ``get_tracer()``) must name a category the
catalog lists in ``SPAN_CATEGORIES``, as a literal.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from . import FileRule, register
from ..context import FileContext
from ..findings import Finding
from ...obs.catalog import SPAN_CATEGORIES

_METRIC_METHODS = ("counter", "gauge", "histogram")
_SPAN_METHODS = ("span", "record")


def _tracer_receiver(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id.lstrip("_") == "tracer"
    if isinstance(node, ast.Attribute):
        return node.attr.lstrip("_") == "tracer"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id == "get_tracer"
    return False


def _span_category_arg(node: ast.Call) -> Optional[ast.AST]:
    if len(node.args) >= 2:
        return node.args[1]
    for kw in node.keywords:
        if kw.arg == "category":
            return kw.value
    return None


@register
class PublishThroughCatalog(FileRule):
    id = "M201"
    name = "publish-through-catalog"
    summary = ("metric accessor called outside repro/obs/ (use "
               "repro.obs.catalog.publish), or a tracer span whose "
               "category is not a SPAN_CATEGORIES literal")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        in_obs = "/repro/obs/" in f"/{ctx.relpath}"
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) \
                    or not isinstance(node.func, ast.Attribute):
                continue
            method = node.func.attr
            if method in _METRIC_METHODS and not in_obs:
                yield self.finding(
                    ctx, node.lineno, node.col_offset,
                    f"direct '.{method}(...)' call: declare the metric in "
                    f"repro.obs.catalog and publish it with "
                    f"repro.obs.catalog.publish", node)
            elif method in _SPAN_METHODS \
                    and _tracer_receiver(node.func.value):
                category = _span_category_arg(node)
                if not (isinstance(category, ast.Constant)
                        and category.value in SPAN_CATEGORIES):
                    yield self.finding(
                        ctx, node.lineno, node.col_offset,
                        f"tracer '.{method}(...)' category must be a "
                        f"string literal listed in repro.obs.catalog."
                        f"SPAN_CATEGORIES", node)
