"""One A-vs-B timing primitive and the verdict rule of every speed gate.

:func:`paired` times two callables that must do the same work on each
case (bare vs instrumented serving, the vectorized engine vs the scalar
loop) and reports how many times slower ``b`` is than ``a``:

1. **Equal work.** One untimed warm-up call of ``a(case)`` and ``b(case)``
   per case; ``same(x, y)`` must hold on their results, else it raises
   before any timing.
2. **ABBA blocks.** Each round times one block per case, ``a``, ``b``,
   ``b``, ``a`` back to back, and keeps ``(b1 + b2) / (a1 + a2)``.  Host
   speed drifts by tens of percent across seconds on shared hardware; a
   block of one case is short enough that a drift hits both of its sides
   alike, and the symmetric order cancels a linear ramp inside it.
3. **A median with its interval.** The result is the median block ratio
   and a distribution-free ~95% interval on it: the sorted ratios at
   ranks ``k`` and ``n - 1 - k`` (:func:`interval_rank`).  A stray slow
   block moves neither.  Below 6 blocks no interval exists.

:func:`gate` fails a gate only when the whole interval is past its limit,
so no gate needs a retry.
"""

from __future__ import annotations

import gc
import math
import statistics
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, Optional

from ..obs.gcpause import gc_paused

__all__ = ["MIN_BLOCKS", "PairedTiming", "collector_paused", "gate",
           "interval_rank", "paired"]

MIN_BLOCKS = 6


@contextmanager
def collector_paused():
    """Collect, keep the cyclic collector off, then restore its prior
    state: a collection would charge one sample for others' garbage."""
    gc.collect()
    with gc_paused():
        yield


def interval_rank(n: int) -> int:
    """Largest ``k`` with ``P(Binomial(n, 1/2) <= k) <= 2.5%`` (-1 if
    none): the sorted sample's ranks ``k`` and ``n - 1 - k`` then bracket
    its median with probability >= 95%, whatever the distribution."""
    below, k = 0, -1
    while 40 * (below + math.comb(n, k + 1)) <= 2 ** n:
        k += 1
        below += math.comb(n, k)
    return k


@dataclass(frozen=True)
class PairedTiming:
    """What :func:`paired` measured: ``b``'s time over ``a``'s."""

    ratio: float        # median block ratio
    low: float          # its ~95% interval
    high: float
    a_s: float          # timed seconds per side, all blocks
    b_s: float
    blocks: int


def paired(a: Callable[[Any], Any], b: Callable[[Any], Any],
           cases: Iterable[Any], *, rounds: int,
           same: Callable[[Any, Any], bool]) -> PairedTiming:
    """Time ``b`` against ``a`` in ABBA blocks, one per case per round."""
    cases = list(cases)
    blocks = len(cases) * rounds
    if blocks < MIN_BLOCKS:
        raise ValueError(f"{blocks} blocks give no 95% interval; "
                         f"need at least {MIN_BLOCKS}")
    for index, case in enumerate(cases):
        if not same(a(case), b(case)):
            raise AssertionError(
                f"the two sides did different work on case {index} of "
                f"{len(cases)}; a time ratio between them is meaningless")

    ratios = []
    a_s = b_s = 0.0
    with collector_paused():
        for _ in range(rounds):
            for case in cases:
                t0 = perf_counter()
                a(case)
                t1 = perf_counter()
                b(case)
                b(case)
                t2 = perf_counter()
                a(case)
                t3 = perf_counter()
                a_block, b_block = (t1 - t0) + (t3 - t2), t2 - t1
                ratios.append(b_block / a_block)
                a_s += a_block
                b_s += b_block
    ratios.sort()
    k = interval_rank(blocks)
    return PairedTiming(ratio=statistics.median(ratios), low=ratios[k],
                        high=ratios[blocks - 1 - k], a_s=a_s, b_s=b_s,
                        blocks=blocks)


def gate(result: PairedTiming, what: str, *,
         budget_pct: Optional[float] = None,
         floor: Optional[float] = None) -> Dict[str, float]:
    """Every speed gate's verdict; returns the counters it records.

    Give one limit.  ``budget_pct`` caps ``b``'s overhead over ``a``
    (``overhead_pct``): the gate fails when the interval's lower bound
    is above it.  ``floor`` is the least speedup of ``a`` over ``b``
    (``speedup``, the ratio itself): it fails when the upper bound is
    below it.  An interval that straddles the limit passes.
    """
    if (budget_pct is None) == (floor is None):
        raise ValueError("give exactly one of budget_pct and floor")
    if budget_pct is not None:
        name, unit = "overhead_pct", "%"
        limit = f"above the {budget_pct:g}% budget"
        median, low, high = ((r - 1.0) * 100.0
                             for r in (result.ratio, result.low, result.high))
        past = low > budget_pct
    else:
        name, unit = "speedup", "x"
        limit = f"below the {floor:g}x floor"
        median, low, high = result.ratio, result.low, result.high
        past = high < floor
    if past:
        raise AssertionError(
            f"{what}: {name} {median:.2f}{unit}, 95% interval "
            f"[{low:.2f}{unit}, {high:.2f}{unit}] over {result.blocks} "
            f"ABBA blocks, lies wholly {limit}")
    return {name: median, f"{name}_low": low, f"{name}_high": high,
            "blocks": float(result.blocks)}
