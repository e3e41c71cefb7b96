"""The serving engine: a deployed EPIM network behind a request queue.

:class:`ServingEngine` turns a simulated deployment (a
:class:`~repro.pim.simulator.NetworkReport`, a format-2 export manifest,
or a model spec compiled on demand) into a servable endpoint: requests
arrive on a simulated clock, the micro-batching scheduler forms batches,
and a discrete-event loop executes them against the per-batch latency
model on however many chips the shard plan provisions.

Timing model.  Each replica group (one or more chips holding a full copy
of the network, see :mod:`repro.serve.sharding`) is a pipelined executor:
a batch dispatched at ``t`` emits its ``j``-th image at ``t + fill +
j * interval`` and frees its first stage for the next batch at
``t + batch * interval`` — so back-to-back batches overlap exactly as a
weight-stationary layer pipeline does, and the engine's achieved
throughput converges to the plan's ``pipelined_throughput_fps`` under
saturation.  Everything is simulated time; no wall-clock sleeps.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from ..core.designer import (
    EpitomeAssignment,
    build_deployments,
    uniform_assignment,
)
from ..core.export import deployments_from_manifest
from ..models.specs import NetworkSpec, get_network_spec
from ..obs.catalog import publish
from ..obs.gcpause import gc_paused
from ..obs.metrics import MetricsRegistry
from ..obs.runtime import get_metrics, get_tracer
from ..obs.tracer import Tracer
from ..pim.config import DEFAULT_CONFIG, HardwareConfig
from ..pim.lut import DEFAULT_LUT, ComponentLUT
from ..pim.simulator import NetworkReport, simulate_network
from .resilience import BrownoutPlan, ResilienceConfig, ResilienceRuntime
from .scenarios.faults import FaultPlan, ResolvedFault, parse_faults
from .scheduler import Batch, MicroBatchScheduler, SchedulerConfig
from .sharding import ShardPlan, plan_sharding
from .telemetry import COMPLETION_FIELDS, TelemetryCollector
from .trace import REPLAY_ORDER, Request, TraceArrays
from .vectorized import replay_vectorized

__all__ = ["ServingConfig", "ServingEngine", "DEFAULT_WIPE_STALL_FACTOR",
           "ENGINES"]

_EPS = 1e-9
_INF = float("inf")

# Replay engine choices: "scalar" is the per-request event loop below
# (the permanent oracle), "vectorized" the whole-trace array engine in
# repro.serve.vectorized, and "auto" picks vectorized whenever nothing
# armed needs per-request control flow (docs/vectorized-replay.md).
ENGINES = ("auto", "scalar", "vectorized")

# A cache wipe stalls each replica's next dispatch for a recompile,
# priced as this multiple of the deployment's pipeline fill latency
# unless the fault spec pins an explicit ``stall_ms``.
DEFAULT_WIPE_STALL_FACTOR = 20.0


@dataclass(frozen=True)
class ServingConfig:
    """Engine-level knobs: fleet size, shard mode, batching policy."""

    num_chips: int = 1
    mode: str = "auto"                  # auto | replica | layer
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    # Arms the resilience runtime (admission control, retry budgets,
    # circuit breakers, brownout) for every serve() call on the engine;
    # None keeps the plain fast path byte-identical to prior releases.
    resilience: Optional[ResilienceConfig] = None
    # Replay engine: one of ENGINES.  "auto" runs the vectorized engine
    # when the run arms nothing it cannot express and falls back to the
    # scalar loop otherwise (recording engine_fallback_reason).
    engine: str = "auto"

    def __post_init__(self):
        if self.num_chips < 1:
            raise ValueError("num_chips must be >= 1")
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}")


@dataclass
class _Executor:
    """One replica group's dispatch state (including fault state)."""

    index: int
    chip_ids: Tuple[int, ...]
    plan: ShardPlan
    free_at_ms: float = 0.0
    track: str = ""             # tracer track name, precomputed
    alive: bool = True
    straggle_factor: float = 1.0
    straggle_until_ms: Optional[float] = None
    pending_stall_ms: float = 0.0       # recompile debt from a cache wipe

    def occupancy_ms(self, batch_size: int) -> float:
        """Time until the first pipeline stage can accept the next batch."""
        return batch_size * self.plan.image_interval_ms

    def service_factor(self, now_ms: float) -> float:
        """Current service-time multiplier (1.0 healthy; a straggler
        window multiplies intervals until it expires)."""
        if self.straggle_until_ms is not None \
                and now_ms >= self.straggle_until_ms:
            self.straggle_factor = 1.0
            self.straggle_until_ms = None
        return self.straggle_factor

    def reset(self) -> None:
        self.free_at_ms = 0.0
        self.alive = True
        self.straggle_factor = 1.0
        self.straggle_until_ms = None
        self.pending_stall_ms = 0.0


def _span_events(telemetry: TelemetryCollector, tracks) -> List[tuple]:
    """Synthesize the serve span set from a run's telemetry.

    Lazy tracer source (see :meth:`repro.obs.tracer.Tracer.add_source`)
    for both replay engines, reading the per-field completion lists
    (:meth:`TelemetryCollector.completion_lists`): one ``request`` span
    per completed request on the ``requests`` track running arrival to
    finish (queue wait and service time are its geometry — it overlaps
    its batch span from dispatch on), plus one ``batch`` span per
    dispatch on the owning replica's track.  Batches are recovered by
    grouping consecutive completions sharing a dispatch time and chip
    set; ``tracks`` maps ``chip_ids`` to ``(replica, track)``.

    Fault episodes land on a dedicated ``faults`` track: a ``failover``
    span runs from a chip kill to the last requeued request's eventual
    finish, a ``straggler`` span covers its degradation window, and a
    ``cache-wipe`` marks the wipe instant (zero duration).

    Resilience episodes share the ``faults`` track (they are responses
    to the same adversity): breaker-open/close transition pairs become
    per-replica ``breaker`` spans and brownout enter/exit pairs become
    ``brownout`` spans.  An episode still open when the run ends extends
    to the run's last known instant.
    """
    ids, arrivals, starts, finishes, chip_ids, sizes = \
        telemetry.completion_lists()
    events: List[tuple] = [
        ("request", "serve.request", arrival, finish, "requests", rid)
        for rid, arrival, finish in zip(ids, arrivals, finishes)]
    batches: List[list] = []
    key = None
    for start, finish, chips, size in zip(starts, finishes, chip_ids, sizes):
        k = (start, chips)
        if k != key:
            key = k
            batches.append([start, finish, chips, size])
        else:
            batches[-1][1] = finish
    for start, finish, chips, size in batches:
        replica, track = tracks.get(chips, (-1, "replica?"))
        events.append(("batch", "serve.batch", start, finish, track,
                       {"batch_size": size, "chips": chips,
                        "replica": replica}))
    fault_events = telemetry.fault_events
    resilience_events = telemetry.resilience_events
    if fault_events:
        finish_by_id = dict(zip(ids, finishes))
        for event in fault_events:
            start = float(event.get("at_ms", 0.0))
            kind = event.get("kind")
            if kind == "chip-kill":
                ends = [finish_by_id[rid]
                        for rid in event.get("retried_ids", ())
                        if rid in finish_by_id]
                end = max(ends) if ends else start
                events.append((
                    "failover", "serve.failover", start, end, "faults",
                    {"chip": event.get("chip"),
                     "replica": event.get("replica", -1),
                     "requeued": event.get("requeued", 0),
                     "lost": event.get("lost", 0),
                     "outcome": event.get("outcome", "")}))
            elif kind == "straggler":
                end = event.get("until_ms")
                events.append((
                    "straggler", "serve.fault", start,
                    start if end is None else float(end), "faults",
                    {"chip": event.get("chip"),
                     "factor": event.get("factor"),
                     "outcome": event.get("outcome", "")}))
            else:
                events.append((
                    "cache-wipe", "serve.fault", start, start, "faults",
                    {"stall_ms": event.get("stall_ms"),
                     "outcome": event.get("outcome", "")}))
    if resilience_events:
        run_end = max(
            finishes
            + [float(e.get("at_ms", 0.0)) for e in resilience_events]
            or [0.0])
        open_breakers: dict = {}    # replica -> episode start
        brownout_start = None
        brownout_plan = ""
        for event in resilience_events:
            at = float(event.get("at_ms", 0.0))
            kind = event.get("kind")
            if kind == "breaker-open":
                open_breakers.setdefault(event.get("replica"), at)
            elif kind == "breaker-close":
                replica = event.get("replica")
                start = open_breakers.pop(replica, at)
                events.append((
                    "breaker", "serve.breaker", start, at, "faults",
                    {"replica": replica, "outcome": "closed by probe"}))
            elif kind == "brownout-enter":
                brownout_start = at
                brownout_plan = event.get("plan", "")
            elif kind == "brownout-exit" and brownout_start is not None:
                events.append((
                    "brownout", "serve.brownout", brownout_start, at,
                    "faults", {"plan": event.get("plan", ""),
                               "outcome": "recovered"}))
                brownout_start = None
        for replica, start in sorted(open_breakers.items(),
                                     key=lambda kv: (kv[1], str(kv[0]))):
            events.append((
                "breaker", "serve.breaker", start, run_end, "faults",
                {"replica": replica, "outcome": "open at end of run"}))
        if brownout_start is not None:
            events.append((
                "brownout", "serve.brownout", brownout_start, run_end,
                "faults", {"plan": brownout_plan,
                           "outcome": "browned out at end of run"}))
    return events


class ServingEngine:
    """Serves request traces against a deployed network on N chips."""

    def __init__(self, report: NetworkReport,
                 config: ServingConfig = ServingConfig(),
                 hardware: HardwareConfig = DEFAULT_CONFIG,
                 lut: ComponentLUT = DEFAULT_LUT):
        self.report = report
        self.config = config
        self.hardware = hardware
        self.lut = lut
        self.plan = plan_sharding(report, config.num_chips, mode=config.mode,
                                  config=hardware, lut=lut)
        if not self.plan.fits:
            warnings.warn(
                "shard plan exceeds chip capacity "
                f"({max(s.num_tiles for s in self.plan.shards)} tiles on a "
                f"{hardware.tiles_per_chip}-tile chip with "
                f"{config.num_chips} chip(s)); serving what-if timings for "
                "hardware that cannot be built — provision more chips or "
                "use mode='auto'/'layer'", stacklevel=2)
        # Filled by repro.serve.deploy when the engine serves a searched
        # operating point; None for manifest/spec deployments.  The
        # manifest is kept so exporting the deployment needs no recompile.
        self.operating_point = None
        self.deployment_manifest = None
        # Degraded operating point for brownout mode; attached by
        # repro.serve.deploy from the search front (attach_brownout) or
        # synthesized from BrownoutPolicy fallback scales at serve time.
        self.brownout_plan: Optional[BrownoutPlan] = None
        self.executors: List[_Executor] = [
            _Executor(index=replica, chip_ids=ids, plan=self.plan,
                      track=f"replica{replica}")
            for replica, ids in enumerate(self.plan.replica_groups())]
        # Which replay engine the last serve() actually used, and why
        # auto fell back to scalar (None on a vectorized or explicit
        # run) — surfaced by describe() and the serve CLI.
        self.last_engine: Optional[str] = None
        self.engine_fallback_reason: Optional[str] = None

    # ------------------------------------------------------------------
    # Construction paths
    # ------------------------------------------------------------------
    @classmethod
    def from_manifest(cls, manifest, config: ServingConfig = ServingConfig(),
                      lut: ComponentLUT = DEFAULT_LUT) -> "ServingEngine":
        """Load a format-2 deployment manifest (dict or path) and serve it.

        The manifest's embedded :class:`HardwareConfig` is used, so the
        replayed timing matches the machine the manifest was exported for.
        """
        deployments, hardware = deployments_from_manifest(manifest)
        report = simulate_network(deployments, hardware, lut)
        return cls(report, config, hardware, lut)

    @classmethod
    def from_spec(cls, spec: Union[str, NetworkSpec],
                  config: ServingConfig = ServingConfig(),
                  assignment: Optional[EpitomeAssignment] = None,
                  epitome: bool = True,
                  weight_bits: Optional[int] = 9,
                  activation_bits: Optional[int] = 9,
                  use_wrapping: bool = True,
                  epitome_rows: int = 1024, epitome_cols: int = 256,
                  hardware: HardwareConfig = DEFAULT_CONFIG,
                  lut: ComponentLUT = DEFAULT_LUT) -> "ServingEngine":
        """Compile a deployment from a network spec (designer path):
        per-layer deployments, then the closed-form network simulation.
        """
        if isinstance(spec, str):
            spec = get_network_spec(spec)
        if assignment is None and epitome:
            assignment = uniform_assignment(spec, epitome_rows, epitome_cols)
        deployments = build_deployments(
            spec, assignment, weight_bits=weight_bits,
            activation_bits=activation_bits,
            use_wrapping=use_wrapping, config=hardware)
        report = simulate_network(deployments, hardware, lut)
        return cls(report, config, hardware, lut)

    @classmethod
    def from_search(cls, source, policy: str = "knee", **kwargs
                    ) -> "ServingEngine":
        """Deploy an operating point of a ``repro search --json`` result
        (path, payload dict, or a pre-parsed
        :class:`~repro.serve.deploy.LoadedSearchResult`).

        Thin delegate to :func:`repro.serve.deploy.engine_from_search`,
        which documents the policy choices and fleet-size derivation.
        """
        from .deploy import engine_from_search

        return engine_from_search(source, policy=policy, **kwargs)

    def attach_brownout(self, plan: BrownoutPlan) -> None:
        """Install the degraded operating point brownout mode serves
        from (see :mod:`repro.serve.resilience.brownout`).  Scales must
        describe the degraded point *relative to this engine's primary
        plan*: ``interval_scale < 1`` means the degraded point sustains
        more throughput, ``fill_scale > 1`` means it fills slower."""
        self.brownout_plan = plan

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    # The event-dispatch loop: no per-event tracing/metrics (the
    # obs.overhead benchmark gates enabled-mode overhead <5%) and no
    # per-iteration allocator calls — enforced by the H-rules.
    @gc_paused()
    # reprolint: hot-loop
    def serve(self, requests: Union[Sequence[Request], TraceArrays],
              tracer: Optional[Tracer] = None,
              metrics: Optional[MetricsRegistry] = None,
              faults: Union[FaultPlan, str, None] = None,
              resilience: Optional[ResilienceConfig] = None,
              engine: Optional[str] = None
              ) -> TelemetryCollector:
        """Replay a trace through the scheduler/executors; returns the
        telemetry of the whole run (simulated time).

        ``faults`` injects timed adverse events — a
        :class:`~repro.serve.scenarios.faults.FaultPlan` or a spec string
        like ``"chip-kill@t=0.5"`` (see :mod:`repro.serve.scenarios.faults`
        for the grammar).  A killed chip takes its whole replica group
        down; in-flight requests on it are retried on the surviving
        replicas (failover), and requests that cannot be recovered count
        against availability.  With ``faults=None`` the fast path is
        numerically identical to previous releases.

        ``resilience`` (or ``config.resilience``; the call-site argument
        wins) arms the resilience runtime — adaptive admission control in
        front of the scheduler, budgeted failover retries with seeded
        backoff instead of retry-once, per-replica circuit breakers, and
        brownout down-shifts to the attached degraded plan.  See
        :mod:`repro.serve.resilience` and docs/resilience.md.  Disarmed,
        none of its branches execute.

        Observability: spans go to ``tracer`` (default: the installed
        :func:`repro.obs.runtime.get_tracer`, a no-op unless a run
        installs a real one) and the run's aggregate metrics are published
        in bulk under ``serve.engine.*`` / ``serve.scheduler.*`` (plus
        ``serve.faults.*`` when a plan is supplied) into ``metrics``
        (default: the installed registry).  Tracing costs the replay loop
        nothing either way: an enabled tracer receives one lazy closure
        per run that expands the telemetry's completion columns into
        spans at export time — see the ``obs.overhead`` benchmark.

        ``engine`` overrides ``config.engine`` for this call: ``"scalar"``
        forces the event loop below, ``"vectorized"`` the whole-trace
        array engine (:mod:`repro.serve.vectorized` — byte-identical
        summaries, held to that by tests/serve/test_engine_equivalence),
        and ``"auto"`` picks vectorized unless the run arms per-request
        control flow it cannot express (a fault plan, the resilience
        runtime, a non-FIFO scheduler policy) — then it falls back to
        scalar and records :attr:`engine_fallback_reason`.  Requesting
        ``"vectorized"`` with such a blocker armed raises ``ValueError``
        rather than silently changing results.  ``requests`` may be a
        :class:`~repro.serve.trace.TraceArrays` column trace; the scalar
        path materializes it, the vectorized path consumes it directly.
        """
        tracer = tracer if tracer is not None else get_tracer()
        metrics = metrics if metrics is not None else get_metrics()
        if isinstance(faults, str):
            faults = parse_faults(faults)
        if resilience is None:
            resilience = self.config.resilience

        choice = engine if engine is not None else self.config.engine
        if choice not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}")
        blockers = []
        if faults is not None:
            blockers.append("fault plan armed")
        if resilience is not None:
            blockers.append("resilience runtime armed")
        blockers.extend(self.config.scheduler.vectorization_blockers())
        if choice == "vectorized" and blockers:
            raise ValueError(
                "vectorized engine cannot express: " + "; ".join(blockers)
                + " — use engine='scalar' or 'auto'")
        use_vectorized = (choice == "vectorized"
                          or (choice == "auto" and not blockers))
        self.last_engine = "vectorized" if use_vectorized else "scalar"
        self.engine_fallback_reason = (blockers[0]
                                       if choice == "auto" and blockers
                                       else None)
        if use_vectorized:
            telemetry = replay_vectorized(self, requests)
            if not (telemetry.num_completed or telemetry.num_rejected):
                return telemetry
            # Stand-in for the scheduler the scalar loop would have run:
            # on this path every offered request was either accepted and
            # dispatched or shed by the bounded queue, so the lifetime
            # counters _publish_metrics folds in are fully determined.
            scheduler = MicroBatchScheduler(self.config.scheduler)
            scheduler.num_submitted = (telemetry.num_completed
                                       + telemetry.num_rejected)
            scheduler.num_rejected = telemetry.num_rejected
            scheduler.num_batches = telemetry.num_batches
            self._add_span_source(tracer, telemetry)
            self._publish_metrics(telemetry, scheduler, metrics)
            return telemetry

        if isinstance(requests, TraceArrays):
            requests = requests.materialize()
        trace = sorted(requests, key=REPLAY_ORDER)
        scheduler = MicroBatchScheduler(self.config.scheduler)
        telemetry = TelemetryCollector(self.config.num_chips,
                                       [ex.chip_ids for ex in self.executors])
        for ex in self.executors:
            ex.reset()

        i, n = 0, len(trace)
        if n == 0:
            return telemetry
        now = trace[0].arrival_ms
        # arrivals[i] is the next arrival's time, inf once i == n.
        arrivals = [request.arrival_ms for request in trace] + [_INF]
        # Telemetry is written through bound column appends: one call
        # per completion field or queue sample, no per-event object.
        completion_appends = telemetry.appenders(*COMPLETION_FIELDS)
        sample_ms, sample_depth = telemetry.appenders("queue_ms",
                                                      "queue_depth")

        fault_queue: List[ResolvedFault] = []
        if faults is not None:
            fault_queue = faults.resolve(trace[0].arrival_ms,
                                         trace[-1].arrival_ms)
        # fault_at[fault_idx] is the next fault's time, inf once none is left.
        fault_at = [fault.at_ms for fault in fault_queue] + [_INF]
        fault_idx, num_faults = 0, len(fault_queue)
        retried_ids: set = set()    # retry-once budget (disarmed path)
        runtime: Optional[ResilienceRuntime] = None
        retry_heap, breakers = None, ()
        if resilience is not None:
            # All control thresholds scale off the service quantum (one
            # pipeline fill plus one batching window), so a single
            # ResilienceConfig transfers across deployments.
            runtime = ResilienceRuntime(
                resilience,
                base_ms=(self.plan.per_image_latency_ms
                         + self.config.scheduler.window_ms),
                capacity_fps=self.plan.throughput_fps,
                offered=n,
                num_replicas=len(self.executors),
                brownout_plan=self.brownout_plan)
            # Pre-bound hot-path handles: the armed loop touches these
            # once or twice per event, and the lookup chain (runtime ->
            # controller -> method) is measurable against the <5% arming
            # budget enforced by the serve.overload_resilience benchmark.
            retry_heap, breakers = runtime.retry_heap, runtime.breakers
            admission = runtime.admission
            admission_admit = admission.admit
            adm_target_ms = admission.target_ms
            adm_rate_per_ms = admission.rate_per_ms
            adm_burst = admission.burst
            # The bucket's mutable fast-path state lives in loop locals
            # (written back before finalize); nothing else reads the
            # controller mid-run, and per-arrival attribute traffic is
            # the single biggest slice of the <5% arming budget.  The
            # clock starts at the first arrival: its refill adds 0.0.
            adm_tokens = admission.tokens
            adm_last_refill = now
            adm_admitted = admission.admitted
            # True while the CoDel side holds armed state that a healthy
            # sample must clear (first_above set, or actively dropping).
            adm_codel_armed = (admission.dropping
                               or admission.first_above_ms >= 0.0)
            brownout_ctl = runtime.brownout
            brownout_threshold = brownout_ctl.enter_ms - 1e-9
        # True whenever the brownout controller holds non-idle state
        # (active, or an entry clock running); while False, arrivals
        # under the entry threshold skip update() entirely.
        brownout_watch = False
        open_episodes = 0   # runtime's; only _execute changes it
        executors = self.executors
        execute = self._execute
        live = scheduler._live      # the queued requests; len() is depth
        oldest_arrival = scheduler.oldest_arrival_ms
        max_batch = self.config.scheduler.max_batch_size
        window_ms = self.config.scheduler.window_ms
        max_finish_ms = now         # latest completion dispatched so far

        # Faults with firing times past the last queue event still apply
        # while dispatched work is in flight (a kill during drain must
        # retract those completions), hence the third loop condition.
        while i < n or live or retry_heap \
                or fault_at[fault_idx] <= max_finish_ms + _EPS:
            if fault_idx < num_faults:
                while fault_at[fault_idx] <= now + _EPS:
                    fault = fault_queue[fault_idx]
                    fault_idx += 1
                    if self._apply_fault(fault, scheduler, telemetry,
                                         retried_ids, runtime):
                        # Total outage: no replica left to serve anything.
                        # Queued, backing-off, and still-arriving requests
                        # are lost.
                        while live:
                            batch = scheduler.next_batch(now, force=True)
                            for request in batch.requests:
                                telemetry.record_failure(request.request_id)
                        while retry_heap:
                            telemetry.record_failure(
                                runtime.pop_retry().request_id)
                        for request in trace[i:]:
                            telemetry.record_failure(request.request_id)
                        i = n
                        fault_idx = num_faults
                        break
                if i >= n and not live and not retry_heap:
                    break

            # Backed-off retries whose deadline has come re-enter the
            # queue ahead of this event's fresh arrivals (failover work
            # is older).  A still-full queue burns another budget slot
            # for a later attempt or fails the request for good.
            while retry_heap and retry_heap[0][0] <= now + _EPS:
                request = runtime.pop_retry()
                if not scheduler.submit(request):
                    if runtime.try_schedule_retry(request, now):
                        telemetry.record_retry(request.request_id)
                    else:
                        telemetry.record_failure(request.request_id)

            while arrivals[i] <= now + _EPS:
                request = trace[i]
                i += 1
                if runtime is not None:
                    # Inline read of the scheduler's window-anchor cache
                    # (oldest_arrival_ms's fast path) — one arrival-rate
                    # call saved against the <5% arming budget.
                    oldest = (oldest_arrival() if scheduler._oldest_dirty
                              else scheduler._oldest_cache)
                    delay = now - oldest if oldest is not None else 0.0
                    # The brownout controller is clocked by the same
                    # arrival-time sojourn sample admission uses (CoDel
                    # style); quiet stretches defer its exit until
                    # traffic resumes or finalize() settles the books.
                    # While the controller is idle and the delay is under
                    # the entry threshold, update() is provably a no-op.
                    if brownout_watch or delay >= brownout_threshold:
                        transition = brownout_ctl.update(now, delay)
                        if transition:
                            runtime.note_brownout_transition(
                                transition, now, telemetry)
                        brownout_watch = (
                            brownout_ctl.active
                            or brownout_ctl._over_since_ms >= 0.0)
                    # Inline of AdmissionController.admit()'s healthy
                    # exit (refill, two compares, decrement) on the
                    # loop-local bucket state: the method call plus its
                    # attribute traffic is a measurable slice of the <5%
                    # arming budget.  Any other case syncs the state
                    # back and takes the full decision path.
                    adm_tokens += (now - adm_last_refill) * adm_rate_per_ms
                    if adm_tokens > adm_burst:
                        adm_tokens = adm_burst
                    adm_last_refill = now
                    if delay < adm_target_ms and adm_tokens >= 1.0:
                        if adm_codel_armed:
                            admission.first_above_ms = -1.0
                            admission.dropping = False
                            adm_codel_armed = False
                        adm_tokens -= 1.0
                        adm_admitted += 1
                    else:
                        admission.tokens = adm_tokens
                        admission.last_refill_ms = adm_last_refill
                        admission.admitted = adm_admitted
                        verdict = admission_admit(now, delay,
                                                  request.priority)
                        adm_tokens = admission.tokens
                        adm_admitted = admission.admitted
                        adm_codel_armed = (admission.dropping
                                           or admission.first_above_ms
                                           >= 0.0)
                        if not verdict:
                            telemetry.record_rejection(request.request_id)
                            continue
                if not scheduler.submit(request):
                    telemetry.record_rejection(request.request_id)

            # has_ready_batch's rule (a full batch, or the head's window
            # expired), then one pass for the free executor with the
            # lowest (free_at_ms, index).  allows() must run on every
            # free one, in index order: it half-opens expired breakers.
            while live:
                if len(live) < max_batch:
                    oldest = (oldest_arrival() if scheduler._oldest_dirty
                              else scheduler._oldest_cache)
                    if now < oldest + window_ms:
                        break
                horizon = now + _EPS
                ex = gated = None
                for cand in executors:
                    if cand.alive and cand.free_at_ms <= horizon:
                        if ex is None or cand.free_at_ms < ex.free_at_ms:
                            ex = cand
                        if open_episodes \
                                and breakers[cand.index].allows(now) \
                                and (gated is None
                                     or cand.free_at_ms < gated.free_at_ms):
                            gated = cand
                if ex is None:
                    break
                if open_episodes:
                    if gated is not None:
                        ex = gated
                    elif open_episodes \
                            >= sum(1 for e in executors if e.alive):
                        # Every live replica is tripped: serving through
                        # an open breaker beats serving nothing.
                        runtime.fail_open_batches += 1
                    else:
                        # Healthy capacity exists but is busy or cooling
                        # down; wait for it rather than feed a tripped
                        # replica (its open_until_ms is a candidate).
                        break
                last_finish = execute(ex, scheduler.next_batch(now), now,
                                      telemetry, completion_appends, runtime)
                if last_finish > max_finish_ms:
                    max_finish_ms = last_finish
                if runtime is not None:
                    open_episodes = runtime.open_episodes
            # Exactly one depth sample per event (the settled post-dispatch
            # state) — asymmetric sampling would bias the mean.
            sample_ms(now)
            sample_depth(len(live))
            # Next event: the running minimum of the candidates past
            # now + _EPS — next arrival, retry-heap head; while work is
            # queued, the window expiry, live executors' free times and
            # open breakers' probe times; the next fault while dispatched
            # work is in flight.
            horizon = now + _EPS
            nxt = arrivals[i]
            if retry_heap and horizon < retry_heap[0][0] < nxt:
                nxt = retry_heap[0][0]
            if live:
                oldest = (oldest_arrival() if scheduler._oldest_dirty
                          else scheduler._oldest_cache)
                if horizon < oldest + window_ms < nxt:
                    nxt = oldest + window_ms
                for ex in executors:
                    if ex.alive and horizon < ex.free_at_ms < nxt:
                        nxt = ex.free_at_ms
                if open_episodes:
                    for breaker in breakers:
                        if breaker.is_open \
                                and horizon < breaker.open_until_ms < nxt:
                            nxt = breaker.open_until_ms
            if horizon < fault_at[fault_idx] < nxt \
                    and fault_at[fault_idx] <= max_finish_ms + _EPS:
                nxt = fault_at[fault_idx]
            if nxt == _INF:
                if i >= n and not live and not retry_heap:
                    break
                # Ready work with an expired window but nothing to wait
                # for would be a scheduling bug; advance minimally.
                now += _EPS
                continue
            now = nxt
        if runtime is not None:
            admission.tokens = adm_tokens
            admission.last_refill_ms = adm_last_refill
            admission.admitted = adm_admitted
            runtime.finalize(now, telemetry)
        self._add_span_source(tracer, telemetry)
        self._publish_metrics(telemetry, scheduler, metrics,
                              faults_active=faults is not None,
                              resilience=telemetry.resilience)
        return telemetry

    def _add_span_source(self, tracer: Tracer,
                         telemetry: TelemetryCollector) -> None:
        """Tracing costs either replay engine nothing: the telemetry
        already holds every request's full lifecycle, so an enabled
        tracer gets one lazy closure that synthesizes the spans if and
        when they are exported (see Tracer.add_source and the
        obs.overhead benchmark)."""
        if tracer.enabled:
            tracks = {ex.chip_ids: (ex.index, ex.track)
                      for ex in self.executors}
            tracer.add_source(lambda: _span_events(telemetry, tracks))

    def _execute(self, executor: _Executor, batch: Batch, now: float,
                 telemetry: TelemetryCollector,
                 completion_appends: tuple,
                 runtime: Optional[ResilienceRuntime] = None) -> float:
        """Dispatch ``batch`` on ``executor``; returns the finish time of
        the batch's last image (the engine's in-flight horizon).
        ``completion_appends`` are the telemetry's column appenders in
        ``COMPLETION_FIELDS`` order."""
        size = batch.size
        factor = executor.service_factor(now)
        stall = executor.pending_stall_ms
        executor.pending_stall_ms = 0.0
        interval = self.plan.image_interval_ms * factor
        fill = self.plan.per_image_latency_ms * factor + stall
        occupancy_scale = 1.0
        if runtime is not None:
            breaker = runtime.breakers[executor.index]
            # Inline of on_dispatch()'s closed-and-healthy branch; the
            # state machine only runs on a slow dispatch or open episode.
            if breaker._state or factor >= breaker.slow_factor - 1e-12:
                delta = breaker.on_dispatch(now, factor)
                if delta:
                    runtime.note_breaker_transition(executor.index, delta,
                                                    now, telemetry)
            else:
                breaker.slow_streak = 0
            if runtime.degraded:
                # Brownout: serve this batch at the degraded operating
                # point — denser packing sustains a shorter image
                # interval at the price of a slower pipeline fill.
                plan = runtime.brownout_plan
                occupancy_scale = plan.interval_scale
                interval *= plan.interval_scale
                fill = (self.plan.per_image_latency_ms * factor
                        * plan.fill_scale + stall)
                runtime.degraded_completions += size
        executor.free_at_ms = now + stall + size * interval
        telemetry.record_batch(size)
        for chip_id, shard in zip(executor.chip_ids, self.plan.shards):
            telemetry.record_chip_busy(
                chip_id, stall + size * shard.image_interval_ms * factor
                * occupancy_scale)
        (add_id, add_arrival, add_start, add_finish, add_executor,
         add_size, add_priority, add_model) = completion_appends
        index = executor.index
        for j, request in enumerate(batch.requests):
            add_id(request.request_id)
            add_arrival(request.arrival_ms)
            add_start(now)
            add_finish(now + fill + j * interval)
            add_executor(index)
            add_size(size)
            add_priority(request.priority)
            add_model(request.model)
        return now + fill + (size - 1) * interval

    # ------------------------------------------------------------------
    # Fault application
    # ------------------------------------------------------------------
    def _executor_for_chip(self, chip_id: int) -> Optional[_Executor]:
        replica = self.plan.replica_of_chip(chip_id)
        if replica is None or replica >= len(self.executors):
            return None
        return self.executors[replica]

    def _apply_fault(self, fault: ResolvedFault,
                     scheduler: MicroBatchScheduler,
                     telemetry: TelemetryCollector,
                     retried_ids: set,
                     runtime: Optional[ResilienceRuntime] = None) -> bool:
        """Apply one resolved fault; returns True when the whole fleet is
        down afterwards (total outage — the caller fails everything)."""
        if fault.kind == "chip-kill":
            return self._apply_chip_kill(fault, scheduler, telemetry,
                                         retried_ids, runtime)
        if fault.kind == "straggler":
            ex = self._executor_for_chip(fault.chip)
            event = {"kind": "straggler", "at_ms": fault.at_ms,
                     "chip": fault.chip, "until_ms": fault.until_ms,
                     "factor": fault.factor,
                     "label": f"straggler chip={fault.chip} "
                              f"x{fault.factor:g}"}
            if ex is None or not ex.alive:
                event["outcome"] = "no-op (chip unowned or dead)"
            else:
                ex.straggle_factor = fault.factor
                ex.straggle_until_ms = fault.until_ms
                event["replica"] = ex.index
                event["outcome"] = (f"replica{ex.index} degraded "
                                    f"{fault.factor:g}x")
            telemetry.record_fault(event)
            return False
        # cache-wipe: every live replica pays a recompile stall on its
        # next dispatch.
        stall = (fault.stall_ms if fault.stall_ms is not None
                 else DEFAULT_WIPE_STALL_FACTOR
                 * self.plan.per_image_latency_ms)
        touched = 0
        for ex in self.executors:
            if ex.alive:
                ex.pending_stall_ms += stall
                touched += 1
        telemetry.record_fault({
            "kind": "cache-wipe", "at_ms": fault.at_ms,
            "stall_ms": stall, "label": "cache-wipe",
            "outcome": f"{touched} replica(s) stalled {stall:g} ms"})
        return False

    def _apply_chip_kill(self, fault: ResolvedFault,
                         scheduler: MicroBatchScheduler,
                         telemetry: TelemetryCollector,
                         retried_ids: set,
                         runtime: Optional[ResilienceRuntime] = None) -> bool:
        """Kill the replica group owning ``fault.chip``; fail over its
        in-flight requests.  With the resilience runtime armed each
        retraction draws on the run's retry budget and backs off before
        resubmitting; disarmed, the legacy retry-once set applies."""
        ex = self._executor_for_chip(fault.chip)
        event = {"kind": "chip-kill", "at_ms": fault.at_ms,
                 "chip": fault.chip,
                 "label": f"chip-kill chip={fault.chip}"}
        if ex is None or not ex.alive:
            event.update(outcome="no-op (chip unowned or already dead)",
                         failover=False, requeued=0, lost=0,
                         retried_ids=())
            telemetry.record_fault(event)
            return not any(e.alive for e in self.executors)
        ex.alive = False
        # Completions are recorded eagerly at dispatch; retract every one
        # this replica would have emitted after the kill instant.
        inflight = telemetry.retract(ex.index, fault.at_ms + _EPS)
        survivors = any(e.alive for e in self.executors)
        requeued_ids = []
        for request in inflight:
            rid = request.request_id
            if runtime is not None:
                retried = survivors and runtime.try_schedule_retry(
                    request, fault.at_ms)
            else:
                retried = survivors and rid not in retried_ids
                if retried:
                    retried_ids.add(rid)
                    retried = scheduler.submit(request)
            if retried:
                telemetry.record_retry(rid)
                requeued_ids.append(rid)
            else:
                telemetry.record_failure(rid)
        requeued = len(requeued_ids)
        lost = len(inflight) - requeued
        event.update(
            outcome=(f"replica{ex.index} down; {requeued} retried, "
                     f"{lost} lost" if survivors
                     else f"replica{ex.index} down; fleet offline"),
            replica=ex.index, failover=survivors, requeued=requeued,
            lost=lost, retried_ids=tuple(requeued_ids))
        telemetry.record_fault(event)
        return not survivors

    def _publish_metrics(self, telemetry: TelemetryCollector,
                         scheduler: MicroBatchScheduler,
                         registry: MetricsRegistry,
                         faults_active: bool = False,
                         resilience: Optional[dict] = None) -> None:
        """Bulk post-run publication under ``serve.engine.*`` /
        ``serve.scheduler.*``, plus ``serve.faults.*`` when a fault plan
        was supplied and ``serve.resilience.*`` when armed
        (docs/observability.md).  Deliberately not per-event: one
        vectorized ``observe_many`` per histogram keeps the instrumented
        hot loop indistinguishable from the bare one."""
        engine = {
            "requests_completed": telemetry.num_completed,
            "requests_rejected": telemetry.num_rejected,
            "batches_dispatched": telemetry.num_batches,
            "chips": self.config.num_chips,
            "throughput_fps": telemetry.throughput_fps(),
        }
        if telemetry.num_completed:
            latency = telemetry.latency_values()
            wait = telemetry.wait_values()
            engine.update(latency_ms=latency, wait_ms=wait,
                          service_ms=latency - wait)
        if telemetry.num_batches:
            engine["batch_size"] = telemetry.batch_size_values()
        if telemetry.num_queue_samples:
            engine["queue_depth"] = telemetry.queue_depth_values()
        publish(registry, "serve.engine", engine)
        if faults_active:
            kinds = [event.get("kind") for event in telemetry.fault_events]
            publish(registry, "serve.faults", {
                "injected": len(kinds),
                "chip_kills": kinds.count("chip-kill"),
                "stragglers": kinds.count("straggler"),
                "cache_wipes": kinds.count("cache-wipe"),
                "retries": telemetry.num_retried,
                "failovers": telemetry.num_failovers,
                "unrecoverable": telemetry.num_failed,
                "chips_lost": sum(len(ex.chip_ids) for ex in self.executors
                                  if not ex.alive),
            })
        if resilience is not None:
            publish(registry, "serve.resilience", resilience)
        scheduler.publish_metrics(registry)

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """One-paragraph engine summary (deployment + shard plan)."""
        r = self.report
        header = []
        if self.operating_point is not None:
            p = self.operating_point
            header.append(
                f"operating point: {p.label} ({len(p.assignment)} epitome "
                f"layers; search eval {p.crossbars} XBs, "
                f"{p.latency_ms:.3f} ms, {p.energy_mj:.4f} mJ)")
        if self.brownout_plan is not None:
            b = self.brownout_plan
            header.append(
                f"brownout plan: {b.label} (interval x{b.interval_scale:.3f},"
                f" fill x{b.fill_scale:.3f})")
        engine_line = f"engine: {self.config.engine}"
        if self.last_engine is not None:
            engine_line += f"; last run: {self.last_engine}"
            if self.engine_fallback_reason:
                engine_line += f" (fallback: {self.engine_fallback_reason})"
        return "\n".join(header + [
            f"deployment: {len(r.layers)} layers, {r.num_crossbars} "
            f"crossbars, fill latency {r.latency_ms:.3f} ms, "
            f"image interval {r.image_interval_ms:.3f} ms",
            self.plan.summary(),
            f"scheduler: max_batch={self.config.scheduler.max_batch_size} "
            f"window={self.config.scheduler.window_ms} ms "
            f"queue_depth={self.config.scheduler.queue_depth} "
            f"policy={self.config.scheduler.policy}",
            engine_line,
        ])
