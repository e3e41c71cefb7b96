"""Request traces: the workload a serving run replays.

A trace is an ordered list of :class:`Request` records — immutable
tuples of request id, arrival time in simulated milliseconds, priority
class and model tag.  Synthetic traces use Poisson arrivals (exponential
inter-arrival gaps at a configured offered load), the standard open-loop
model for serving benchmarks; traces round-trip through JSON so a run is
exactly reproducible from a file (``python -m repro serve --requests
trace.json``).

Web-scale traces additionally exist in *columnar* form:
:class:`TraceArrays` holds the same workload as parallel NumPy columns so
a million-request trace never materializes a million ``Request`` objects.
:meth:`TraceArrays.materialize` produces the exact object trace the
column form describes (bit-identical arrival floats, one tuple per row
and no per-row validation once the column has passed), which is the
contract the engine-equivalence test harness pins: every generator
builds the arrays first and derives the object trace *from them*, so the
two forms cannot drift.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["Request", "REPLAY_ORDER", "TraceArrays", "check_arrivals",
           "arrays_from_requests", "synthetic_trace",
           "synthetic_trace_arrays", "save_trace", "load_trace"]

_INF = float("inf")
_ARRIVAL_RULE = "arrival_ms must be finite and >= 0"
_tuple_new = tuple.__new__


class _RequestFields(NamedTuple):
    request_id: int
    arrival_ms: float
    priority: int = 0
    model: str = ""


class Request(_RequestFields):
    """One inference request: an immutable tuple record
    ``(request_id, arrival_ms, priority, model)``.

    Being a tuple, a ``Request`` compares (and hashes) equal to a plain
    tuple of its fields, and pickles and copies as itself.  Every
    constructor checks the arrival rule: ``Request(...)``, and also
    ``_make`` and ``_replace``, which a plain ``NamedTuple`` lets bypass
    ``__new__``.

    Attributes
    ----------
    request_id:
        Unique id within the trace.
    arrival_ms:
        Simulated arrival time (milliseconds from trace start).
    priority:
        Larger = more urgent; only consulted by the ``"priority"``
        scheduling policy.
    model:
        Model class tag for multi-model request mixes (see
        :mod:`repro.serve.scenarios`); empty for single-model traces.
        Pure accounting today — the engine serves whatever deployment
        it holds — but it round-trips through trace files so recorded
        mixes replay faithfully.
    """

    __slots__ = ()

    def __new__(cls, request_id: int, arrival_ms: float, priority: int = 0,
                model: str = ""):
        # NaN fails both comparisons; inf would never let a replay end.
        if not 0.0 <= arrival_ms < _INF:
            raise ValueError(_ARRIVAL_RULE)
        return _tuple_new(cls, (request_id, arrival_ms, priority, model))

    @classmethod
    def _make(cls, iterable):
        # The namedtuple version checks the length only; _replace calls it.
        return cls(*super()._make(iterable))


# The replay order both engines impose: (arrival_ms, request_id).
REPLAY_ORDER = itemgetter(1, 0)


def check_arrivals(arrival_ms: np.ndarray) -> None:
    """The :class:`Request` arrival rule over a whole column, vectorized
    (a NaN makes ``min()`` NaN, which fails the comparison).  NumPy
    columns stay writable after a :class:`TraceArrays` is built, so each
    consumer checks the column it is about to replay."""
    if arrival_ms.size and not (0.0 <= arrival_ms.min()
                                and arrival_ms.max() < _INF):
        raise ValueError(_ARRIVAL_RULE)


@dataclass(frozen=True)
class TraceArrays:
    """A request trace as parallel columns (no per-request objects).

    The columnar twin of a ``List[Request]``: ``arrival_ms[k]``,
    ``request_id[k]`` and ``priority[k]`` describe request ``k``;
    ``model`` is ``None`` for single-model traces (every request serves
    the deployment's one network) or a per-request tag tuple for mixes.
    Rows are ordered by ``(arrival_ms, request_id)`` — the replay order
    both engines use — when produced by the in-repo generators;
    :func:`arrays_from_requests` enforces it for arbitrary input.

    The vectorized replay engine consumes this form directly; the scalar
    engine (and anything else wanting objects) goes through
    :meth:`materialize`, which yields exactly the ``Request`` list the
    object-based generators used to build — same floats, same ints.
    """

    arrival_ms: np.ndarray              # float64, nondecreasing
    request_id: np.ndarray              # int64, unique within the trace
    priority: np.ndarray                # int64
    model: Optional[Tuple[str, ...]] = None

    def __post_init__(self):
        n = self.arrival_ms.shape[0]
        if self.request_id.shape[0] != n or self.priority.shape[0] != n:
            raise ValueError("trace columns must share one length")
        if self.model is not None and len(self.model) != n:
            raise ValueError("model column must match the trace length")
        check_arrivals(self.arrival_ms)

    def __len__(self) -> int:
        return int(self.arrival_ms.shape[0])

    def materialize(self) -> List[Request]:
        """Expand the columns into the equivalent ``Request`` list.

        Bit-identical to the object path by construction: each field
        goes through the same ``float()``/``int()`` conversion the
        object-based generators applied element-wise.  The arrival
        column is checked once, vectorized, so each row is built as a
        bare tuple without re-running the per-request check.
        """
        check_arrivals(self.arrival_ms)
        models = (repeat("", len(self)) if self.model is None
                  else self.model)
        return list(map(_tuple_new, repeat(Request),
                        zip(self.request_id.tolist(),
                            self.arrival_ms.tolist(),
                            self.priority.tolist(), models)))


def arrays_from_requests(requests: Sequence[Request]) -> TraceArrays:
    """Column form of an existing object trace, sorted by
    ``(arrival_ms, request_id)`` — the replay order the engine imposes,
    so replaying the arrays is replaying the list."""
    ordered = sorted(requests, key=REPLAY_ORDER)
    ids, arrival, priority, model = tuple(zip(*ordered)) or ((),) * 4
    return TraceArrays(arrival_ms=np.array(arrival, dtype=np.float64),
                       request_id=np.array(ids, dtype=np.int64),
                       priority=np.array(priority, dtype=np.int64),
                       model=model if any(model) else None)


def synthetic_trace_arrays(num_requests: int, rate_rps: float, seed: int = 0,
                           priority_levels: int = 1,
                           start_ms: float = 0.0) -> TraceArrays:
    """Columnar Poisson trace — :func:`synthetic_trace` without the
    per-request objects (same RNG stream, same floats)."""
    if num_requests < 1:
        raise ValueError("num_requests must be >= 1")
    if rate_rps <= 0:
        raise ValueError("rate_rps must be > 0")
    if priority_levels < 1:
        raise ValueError("priority_levels must be >= 1")
    rng = np.random.default_rng(seed)
    gaps_ms = rng.exponential(1000.0 / rate_rps, size=num_requests)
    arrivals = start_ms + np.cumsum(gaps_ms)
    if priority_levels > 1:
        priorities = rng.integers(0, priority_levels, size=num_requests)
    else:
        priorities = np.zeros(num_requests, dtype=int)
    return TraceArrays(arrival_ms=arrivals,
                       request_id=np.arange(num_requests, dtype=np.int64),
                       priority=priorities.astype(np.int64))


def synthetic_trace(num_requests: int, rate_rps: float, seed: int = 0,
                    priority_levels: int = 1,
                    start_ms: float = 0.0) -> List[Request]:
    """Poisson arrival trace at an offered load of ``rate_rps`` req/s.

    ``priority_levels > 1`` draws each request's priority uniformly from
    ``0..priority_levels-1`` (higher is more urgent).  Materialized from
    :func:`synthetic_trace_arrays`, so the object and column forms of
    the same ``(n, rate, seed)`` tuple are identical by construction.
    """
    return synthetic_trace_arrays(
        num_requests, rate_rps, seed=seed,
        priority_levels=priority_levels, start_ms=start_ms).materialize()


def save_trace(requests: Sequence[Request], path: Union[str, Path]) -> None:
    """Write a trace as JSON (``{"requests": [...]}``)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)

    def entry(r: Request) -> Dict:
        out = {"id": r.request_id, "arrival_ms": r.arrival_ms,
               "priority": r.priority}
        if r.model:
            out["model"] = r.model
        return out

    payload: Dict = {"requests": [entry(r) for r in requests]}
    path.write_text(json.dumps(payload, indent=2))


def load_trace(path: Union[str, Path]) -> List[Request]:
    """Read a trace written by :func:`save_trace` (extra keys ignored)."""
    payload = json.loads(Path(path).read_text())
    requests = [Request(request_id=int(entry["id"]),
                        arrival_ms=float(entry["arrival_ms"]),
                        priority=int(entry.get("priority", 0)),
                        model=str(entry.get("model", "")))
                for entry in payload["requests"]]
    return sorted(requests, key=REPLAY_ORDER)
