"""Multiprocess fan-out for the search engine's restarts.

One helper serves both restart call sites — the evolve loop's restarts
and the Pareto mode's restarts.  Results come back in payload order
regardless of which worker finished first, so the restart-winner and
front-merge reductions are bit-for-bit identical to a serial run.

Restarts search a grid that is already built, so no simulation runs in
a worker: the process-global :class:`~repro.pim.simulator.SimCounters`
read the same after a pooled fan-out as after a serial one
(``tests/search/test_parallel.py`` checks this).  The candidate-grid
build itself always runs in-process; see
:func:`repro.search.grid.build_candidate_grid`.

Platforms that refuse to fork (sandboxes, restricted containers) degrade
to serial execution with a warning — never a behaviour change.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, List, Sequence

__all__ = ["ENV_FORCE_WORKERS", "effective_workers", "parallel_map"]

# Set to any non-empty value to bypass the cpu_count cap (tests use this to
# exercise the pool path on single-core machines, where it is otherwise
# skipped because a process pool can only add overhead there).
ENV_FORCE_WORKERS = "REPRO_SEARCH_FORCE_WORKERS"


def effective_workers(requested: int, tasks: int) -> int:
    """Workers actually worth spawning for ``tasks`` payloads.

    Capped at the machine's CPU count (a pool on a single-core host can
    only lose) and at the task count.  ``REPRO_SEARCH_FORCE_WORKERS``
    bypasses the CPU cap.
    """
    if requested <= 1 or tasks <= 1:
        return 1
    cap = os.cpu_count() or 1
    if os.environ.get(ENV_FORCE_WORKERS):
        cap = requested
    return max(1, min(requested, cap, tasks))


def parallel_map(task: Callable, payloads: Sequence, workers: int) -> List:
    """Map ``task`` over ``payloads``, optionally across processes.

    Results preserve payload order.  Falls back to serial execution when
    the pool cannot be created or :func:`effective_workers` says
    parallelism cannot pay.
    """
    n = effective_workers(workers, len(payloads))
    if n > 1:
        try:
            with ProcessPoolExecutor(max_workers=n) as pool:
                return list(pool.map(task, payloads))
        except (OSError, PermissionError) as exc:
            warnings.warn(f"process pool unavailable ({exc}); running "
                          "tasks serially", stacklevel=3)
    return [task(payload) for payload in payloads]
