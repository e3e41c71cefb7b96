"""H-rules: hot-loop hygiene.

The design stance in docs/observability.md — zero tracing code in hot
loops, bulk post-run metric publication, the <5% ``obs.overhead``
gate — only holds as long as nobody *adds* per-event work to the
engine dispatch loop, the scheduler heaps or the vectorized evaluator.
Those regions are marked in source with ``# reprolint: hot-loop`` on
(or directly above) a ``def``/``for``/``while`` statement; inside a
marked region these rules flag:

- **H301** known-allocator calls *inside loop bodies* (numpy array
  constructors, ``list()/dict()/set()`` constructor calls, deepcopy) —
  per-iteration allocation is the classic silent 10x;
- **H302** per-event observability calls anywhere in the region
  (``tracer.record/span``, ``.counter/.gauge/.histogram``, scalar
  ``.observe``, and ``publish(...)``, bare or as an attribute) —
  publication belongs after the loop, in bulk (``observe_many`` and
  ``Tracer.add_source`` stay legal);
- **H303** f-string/%-formatted ``print``/logger calls — the formatting
  runs even when the log level is off;
- **H304** a dangling marker that attached to no statement.
"""

from __future__ import annotations

import ast
from typing import Iterator

from . import FileRule, register
from ..context import FileContext
from ..findings import Finding

_NP_ALLOCATORS = {"zeros", "ones", "empty", "full", "array", "arange",
                  "zeros_like", "ones_like", "empty_like", "full_like",
                  "eye", "identity", "tile", "repeat", "meshgrid"}
_BUILTIN_ALLOCATORS = {"list", "dict", "set", "bytearray"}
_OBS_METHODS = {"counter", "gauge", "histogram", "observe", "publish"}
_LOG_LEVELS = {"debug", "info", "warning", "error", "critical",
               "exception", "log"}


def _allocator_call(ctx: FileContext, node: ast.Call) -> str:
    dotted = ctx.imports.resolve(node.func)
    if dotted:
        if dotted.startswith("numpy.") \
                and dotted.split(".")[-1] in _NP_ALLOCATORS:
            return dotted
        if dotted in ("copy.deepcopy", "copy.copy"):
            return dotted
    if isinstance(node.func, ast.Name) \
            and node.func.id in _BUILTIN_ALLOCATORS:
        return node.func.id
    return ""


def _in_loop_body(ctx: FileContext, node: ast.AST, region) -> bool:
    cursor = ctx.parents.get(node)
    while cursor is not None:
        if isinstance(cursor, (ast.For, ast.While)) \
                and cursor.lineno >= region.start:
            # Being in the loop's iter/test is not "per iteration body"
            # for For (the iterable is evaluated once) — but any call
            # in a While test *does* run per iteration, so only For
            # iters are excused.
            if isinstance(cursor, ast.For) and _within(node, cursor.iter):
                cursor = ctx.parents.get(cursor)
                continue
            return True
        cursor = ctx.parents.get(cursor)
    return False


def _within(node: ast.AST, container: ast.AST) -> bool:
    return node is container or any(node is sub
                                    for sub in ast.walk(container))


def _hot_nodes(ctx: FileContext):
    for node in ast.walk(ctx.tree):
        line = getattr(node, "lineno", None)
        if line is not None and ctx.in_hot_region(line):
            yield node


@register
class HotLoopAllocation(FileRule):
    id = "H301"
    name = "hot-loop-allocation"
    summary = ("allocator call inside a loop body of a hot-loop region — "
               "hoist it out or preallocate")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in _hot_nodes(ctx):
            if not isinstance(node, ast.Call):
                continue
            what = _allocator_call(ctx, node)
            if not what:
                continue
            region = next(r for r in ctx.hot_regions
                          if node.lineno in r)
            if _in_loop_body(ctx, node, region):
                yield self.finding(
                    ctx, node.lineno, node.col_offset,
                    f"per-iteration allocation '{what}(...)' inside a "
                    f"hot loop; hoist or preallocate", node)


@register
class HotLoopObservability(FileRule):
    id = "H302"
    name = "hot-loop-observability"
    summary = ("per-event tracer/metric call inside a hot-loop region — "
               "publish in bulk after the loop (observe_many/add_source)")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        from .metrics import _tracer_receiver
        for node in _hot_nodes(ctx):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "publish":
                call = "publish(...)"
            elif isinstance(func, ast.Attribute) and (
                    func.attr in _OBS_METHODS
                    or (func.attr in ("record", "span")
                        and _tracer_receiver(func.value))):
                call = f".{func.attr}(...)"
            else:
                continue
            yield self.finding(
                ctx, node.lineno, node.col_offset,
                f"per-event observability call '{call}' in a hot-loop "
                f"region; keep native records and publish in bulk after "
                f"the loop (observe_many / Tracer.add_source)", node)


@register
class HotLoopFStringLogging(FileRule):
    id = "H303"
    name = "hot-loop-fstring-logging"
    summary = ("eagerly-formatted print/log call in a hot-loop region — "
               "formatting runs every iteration even when silenced")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in _hot_nodes(ctx):
            if not isinstance(node, ast.Call):
                continue
            is_print = isinstance(node.func, ast.Name) \
                and node.func.id == "print"
            is_log = isinstance(node.func, ast.Attribute) \
                and node.func.attr in _LOG_LEVELS \
                and isinstance(node.func.value, (ast.Name, ast.Attribute))
            if not (is_print or is_log):
                continue
            for arg in node.args:
                formatted = isinstance(arg, ast.JoinedStr) or (
                    isinstance(arg, ast.BinOp)
                    and isinstance(arg.op, (ast.Mod, ast.Add))
                    and isinstance(arg.left, (ast.Constant, ast.JoinedStr)))
                if formatted:
                    yield self.finding(
                        ctx, node.lineno, node.col_offset,
                        "eagerly-formatted logging in a hot-loop region; "
                        "move it out of the region or defer formatting",
                        node)
                    break


@register
class DanglingHotLoopMarker(FileRule):
    id = "H304"
    name = "dangling-hot-loop-marker"
    summary = ("# reprolint: hot-loop attached to no def/for/while "
               "statement")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for line in ctx.dangling_markers:
            yield Finding(
                rule=self.id, path=ctx.relpath, line=line, col=0,
                message="hot-loop marker must sit on (or directly above) "
                        "a def/for/while statement",
                source_line=ctx.source_line(line))
