"""One scoped pause of CPython's cyclic garbage collector.

The library's bulk serving and observability paths (both replay
engines, trace materialization, span synthesis and the span exports,
the Prometheus export, the validators) allocate container objects per
request or span, and build no reference cycles: reference counting
frees all of it.  Left on, the collector still runs a pass every few
hundred net allocations and now and then a full collection that frees
nothing.  ``@gc_paused()`` turns it off for one call.

Safety rests on those paths staying acyclic: ``tests/test_gc_pause.py``
runs each paused path with the collector off and requires
``gc.collect()`` to find nothing afterwards, so a new paused path joins
that test.  The switch is process-wide: a thread leaving a paused call
re-enables the collector while another thread's call still runs, which
makes that call slower, never unsafe.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager

__all__ = ["gc_paused"]


@contextmanager
def gc_paused():
    """Keep the cyclic collector off for one block or decorated call.

    No collection on entry; the prior state is restored in ``finally``;
    a no-op when the collector is already off, so nested pauses and a
    caller's own pause are left alone.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
