"""D-rules: determinism contracts.

The serving/search/PIM stack promises same-seed byte-identical outputs
(``tools/test_cli_matrix.py`` replays every cell twice, each run in a
fresh process, and compares the summary JSON and the artifacts byte for
byte).  These rules reject the constructs that silently break that
promise: process-global RNG streams, unseeded generators, wall-clock
reads inside simulated-time subsystems, and iteration order borrowed
from hash-randomized ``set``s.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from . import FileRule, register
from ..context import FileContext
from ..findings import Finding

# numpy.random attributes that are *not* the legacy global stream.
_NP_RANDOM_OK = {
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "RandomState", "PCG64", "PCG64DXSM", "Philox", "MT19937", "SFC64",
}

# stdlib ``random`` attributes that are explicit-instance safe.
_STDLIB_RANDOM_OK = {"Random", "SystemRandom", "getstate", "setstate"}

_WALL_CLOCK = {
    "time.time": "time.time() reads the wall clock",
    "time.time_ns": "time.time_ns() reads the wall clock",
    "datetime.datetime.now": "datetime.now() reads the wall clock",
    "datetime.datetime.utcnow": "datetime.utcnow() reads the wall clock",
    "datetime.date.today": "date.today() reads the wall clock",
    "os.urandom": "os.urandom() is non-deterministic entropy",
    "uuid.uuid4": "uuid4() is non-deterministic entropy",
}


def _called_name(ctx: FileContext, node: ast.Call) -> Optional[str]:
    return ctx.imports.resolve(node.func)


@register
class GlobalRandomCall(FileRule):
    id = "D101"
    name = "global-rng-call"
    summary = ("module-global RNG free function (np.random.*, random.*) — "
               "thread an explicit numpy Generator instead")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _called_name(ctx, node)
            if dotted is None:
                continue
            if dotted.startswith("numpy.random."):
                attr = dotted.split(".", 2)[2]
                if "." not in attr and attr not in _NP_RANDOM_OK:
                    yield self.finding(
                        ctx, node.lineno, node.col_offset,
                        f"call to module-global numpy RNG "
                        f"'np.random.{attr}'; thread an explicit "
                        f"np.random.Generator parameter", node)
            elif dotted.startswith("random."):
                attr = dotted.split(".", 1)[1]
                if "." not in attr and attr not in _STDLIB_RANDOM_OK:
                    yield self.finding(
                        ctx, node.lineno, node.col_offset,
                        f"call to module-global stdlib RNG "
                        f"'random.{attr}'; thread an explicit "
                        f"np.random.Generator parameter", node)


@register
class UnseededDefaultRng(FileRule):
    id = "D102"
    name = "unseeded-default-rng"
    summary = ("default_rng() without a seed draws OS entropy — pass a "
               "seed or an existing Generator")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _called_name(ctx, node)
            if dotted == "numpy.random.default_rng" \
                    and not node.args and not node.keywords:
                yield self.finding(
                    ctx, node.lineno, node.col_offset,
                    "unseeded np.random.default_rng(): every run gets a "
                    "different stream; pass a seed (or accept an rng "
                    "parameter)", node)


@register
class WallClockInDeterministic(FileRule):
    id = "D103"
    name = "wall-clock-in-deterministic"
    summary = ("wall-clock/entropy read inside a simulated-time subsystem "
               "(pim/serve/search); use simulated time or perf_counter "
               "for telemetry-only durations")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.deterministic:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _called_name(ctx, node)
            if dotted is None:
                continue
            # `from datetime import datetime` resolves to datetime.datetime,
            # so now/utcnow land on datetime.datetime.now either way.
            reason = _WALL_CLOCK.get(dotted) or _WALL_CLOCK.get(
                dotted.replace("datetime.now", "datetime.datetime.now"))
            if reason:
                yield self.finding(
                    ctx, node.lineno, node.col_offset,
                    f"{reason}; deterministic subsystems must run on "
                    f"simulated time and seeded entropy", node)


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id == "set":
        return True
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


@register
class UnorderedSetIteration(FileRule):
    id = "D104"
    name = "unordered-set-iteration"
    summary = ("iterating a set (hash order) in a deterministic subsystem "
               "— wrap in sorted() before the order can leak into output")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.deterministic:
            return
        for node in ast.walk(ctx.tree):
            iters = []
            if isinstance(node, ast.For):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            elif isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Name) and node.func.id in (
                    "list", "tuple") and len(node.args) == 1:
                iters.append(node.args[0])
            for it in iters:
                if _is_set_expr(it):
                    yield self.finding(
                        ctx, it.lineno, it.col_offset,
                        "set iteration order is hash-randomized across "
                        "processes; use sorted(...) so serialized output "
                        "stays byte-identical", node)
