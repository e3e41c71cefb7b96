"""Deploy search results as serving fleets: the ``search -> serve`` bridge.

``python -m repro search --json result.json`` writes a versioned payload
(schema ``repro-search-result`` v1, see docs/search-to-serve.md); this
module turns that artifact into running fleets:

- :func:`load_search_result` parses and validates the payload (winner or
  whole Pareto front) into :class:`LoadedSearchResult`, failing loudly on
  malformed or wrong-version inputs;
- :meth:`LoadedSearchResult.select` picks an operating point off the front
  by policy — ``latency-opt`` for interactive fleets, ``energy-opt`` for
  batch, ``knee`` (min EDP) as the balanced default, or an explicit
  ``index`` (the same policies as :meth:`repro.search.ParetoResult.select`);
- :func:`engine_from_search` compiles the chosen per-layer assignment at
  the search's recorded precision and instantiates a
  :class:`~repro.serve.engine.ServingEngine`, provisioning chips from the
  assignment's crossbar demand when the caller does not pin a fleet size;
- :func:`ab_offered_load_sweep` replays *identical* Poisson traces against
  two (or more) deployed operating points and reports per-policy p50/p99
  latency, achieved throughput and energy per request — the A/B an
  operator runs before routing interactive vs batch traffic.

Everything goes through the format-2 manifest compile path, so the fleet
serves exactly the artifact a production hand-off would replay.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..analysis.tables import Table
from ..core.designer import EpitomeAssignment, build_deployments
from ..core.export import export_deployments
from ..models.specs import get_network_spec
from ..obs.slo import SLO
from ..pim.config import DEFAULT_CONFIG, HardwareConfig
from ..pim.lut import DEFAULT_LUT, ComponentLUT
from ..pim.simulator import NetworkReport, simulate_network
from ..search.cli import SEARCH_RESULT_SCHEMA, SEARCH_RESULT_VERSION
from ..search.pareto import select_index
from .engine import ServingConfig, ServingEngine
from .scheduler import SchedulerConfig
from .sharding import recommended_chips
from .trace import REPLAY_ORDER, Request, synthetic_trace

__all__ = [
    "SEARCH_RESULT_SCHEMA",
    "SUPPORTED_SCHEMA_VERSIONS",
    "AB_LOAD_FACTORS",
    "SearchResultError",
    "OperatingPoint",
    "LoadedSearchResult",
    "load_search_result",
    "manifest_from_point",
    "report_from_point",
    "engine_from_search",
    "brownout_plan_from_search",
    "ab_offered_load_sweep",
    "render_ab",
]

# The contract constants live with the producer (repro.search.cli writes
# the payload); this consumer re-exports them so neither side can drift.
SUPPORTED_SCHEMA_VERSIONS = (SEARCH_RESULT_VERSION,)

# Offered loads for the A/B sweep, as fractions of the *slowest* fleet's
# capacity: a comfortable region and a loaded-but-stable one.  Both fleets
# see the same absolute request rate — the comparison is only fair if the
# traffic is identical.
AB_LOAD_FACTORS = (0.5, 0.8)


class SearchResultError(ValueError):
    """A search-result payload that cannot be deployed (malformed,
    missing fields, or an unsupported schema version)."""


@dataclass(frozen=True)
class OperatingPoint:
    """One deployable design off a search result: the per-layer epitome
    assignment plus the search-side metrics it was picked by."""

    label: str                      # "best" or "front[i]"
    assignment: EpitomeAssignment   # layer name -> (rows, cols), conv skipped
    crossbars: int
    latency_ms: float
    energy_mj: float

    @property
    def edp(self) -> float:
        return self.latency_ms * self.energy_mj


@dataclass(frozen=True)
class LoadedSearchResult:
    """A parsed ``repro search --json`` artifact, ready to deploy."""

    model: str
    objective: str
    budget: Optional[int]
    feasible: bool
    weight_bits: Optional[int]
    activation_bits: Optional[int]
    use_wrapping: bool
    layers: Tuple[str, ...]
    best: OperatingPoint
    front: Optional[Tuple[OperatingPoint, ...]]

    @property
    def points(self) -> Tuple[OperatingPoint, ...]:
        """Selectable operating points: the front, or just the winner for
        scalar-objective results."""
        return self.front if self.front else (self.best,)

    def select(self, policy: str = "knee",
               index: Optional[int] = None) -> OperatingPoint:
        """Pick an operating point by policy (latency-opt | energy-opt |
        knee | index; see :func:`repro.search.select_index`)."""
        points = self.points
        metrics = [(p.latency_ms, p.energy_mj, p.edp) for p in points]
        try:
            return points[select_index(metrics, policy, index)]
        except ValueError as exc:
            raise SearchResultError(str(exc)) from None


def _require(payload: Mapping, key: str, context: str) -> object:
    if key not in payload:
        raise SearchResultError(
            f"search result {context} is missing required key {key!r}")
    return payload[key]


def _parse_candidate(raw, where: str):
    if raw is None:
        return None
    if (not isinstance(raw, (list, tuple)) or len(raw) != 2
            or not all(isinstance(v, int) for v in raw)):
        raise SearchResultError(
            f"{where}: candidate must be null or a [rows, cols] pair, "
            f"got {raw!r}")
    return (raw[0], raw[1])


def _parse_point(entry: Mapping, label: str,
                 layers: Sequence[str]) -> OperatingPoint:
    if not isinstance(entry, Mapping):
        raise SearchResultError(
            f"{label}: must be an object, got {type(entry).__name__}")
    genome = _require(entry, "genome", label)
    if not isinstance(genome, (list, tuple)):
        raise SearchResultError(
            f"{label}: 'genome' must be a list, "
            f"got {type(genome).__name__}")
    if len(genome) != len(layers):
        raise SearchResultError(
            f"{label}: genome has {len(genome)} entries for "
            f"{len(layers)} layers")
    assignment = {}
    for name, raw in zip(layers, genome):
        cand = _parse_candidate(raw, f"{label} layer {name!r}")
        if cand is not None:
            assignment[name] = cand
    try:
        return OperatingPoint(
            label=label,
            assignment=assignment,
            crossbars=int(_require(entry, "crossbars", label)),
            latency_ms=float(_require(entry, "latency_ms", label)),
            energy_mj=float(_require(entry, "energy_mj", label)),
        )
    except (TypeError, ValueError) as exc:
        raise SearchResultError(f"{label}: non-numeric metric: {exc}") \
            from None


def load_search_result(source: Union[str, Path, Mapping]
                       ) -> LoadedSearchResult:
    """Parse a ``repro search --json`` payload (dict, or path to one).

    Validates the schema marker and version before touching any field, so
    a file from a future incompatible ``repro`` (or a deployment manifest
    passed by mistake) fails with an actionable message instead of a
    KeyError deep in the compile path.
    """
    context = "payload"
    if not isinstance(source, Mapping):
        context = str(source)
        try:
            payload = json.loads(Path(source).read_text())
        except OSError as exc:
            raise SearchResultError(
                f"cannot read search result {context}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise SearchResultError(
                f"{context} is not valid JSON: {exc}") from None
    else:
        payload = source
    if not isinstance(payload, Mapping):
        raise SearchResultError(
            f"search result {context} must be a JSON object, "
            f"got {type(payload).__name__}")

    schema = payload.get("schema")
    if schema != SEARCH_RESULT_SCHEMA:
        raise SearchResultError(
            f"{context} is not a {SEARCH_RESULT_SCHEMA} payload "
            f"(schema={schema!r}); write one with "
            "`python -m repro search --json result.json`")
    version = payload.get("schema_version")
    if version not in SUPPORTED_SCHEMA_VERSIONS:
        raise SearchResultError(
            f"{context} has schema_version {version!r}; this build "
            f"supports {sorted(SUPPORTED_SCHEMA_VERSIONS)} — re-run the "
            "search with a matching repro version")

    model = _require(payload, "model", context)
    layers = _require(payload, "layers", context)
    if not isinstance(layers, list) or not layers:
        raise SearchResultError(
            f"{context}: 'layers' must be a non-empty list of layer names")
    precision = _require(payload, "precision", context)
    if not isinstance(precision, Mapping):
        raise SearchResultError(
            f"{context}: 'precision' must be an object with "
            f"weight_bits/activation_bits/use_wrapping, "
            f"got {type(precision).__name__}")
    best = _parse_point(_require(payload, "best", context), "best", layers)

    front = None
    if payload.get("front") is not None:
        front = tuple(
            _parse_point(entry, f"front[{i}]", layers)
            for i, entry in enumerate(payload["front"]))
        if not front:
            raise SearchResultError(f"{context}: 'front' is empty")

    budget = payload.get("budget")
    return LoadedSearchResult(
        model=str(model),
        objective=str(payload.get("objective", "")),
        budget=int(budget) if budget is not None else None,
        feasible=bool(payload.get("feasible", True)),
        weight_bits=precision.get("weight_bits"),
        activation_bits=precision.get("activation_bits"),
        use_wrapping=bool(precision.get("use_wrapping", True)),
        layers=tuple(layers),
        best=best,
        front=front,
    )


# ----------------------------------------------------------------------
# Deployment
# ----------------------------------------------------------------------

def manifest_from_point(result: LoadedSearchResult, point: OperatingPoint,
                        config: HardwareConfig = DEFAULT_CONFIG) -> Dict:
    """Compile an operating point into a format-2 deployment manifest at
    the search's recorded precision — the servable hand-off artifact."""
    spec = get_network_spec(result.model)
    deployments = build_deployments(
        spec, point.assignment,
        weight_bits=result.weight_bits,
        activation_bits=result.activation_bits,
        use_wrapping=result.use_wrapping,
        config=config)
    return export_deployments(deployments, config,
                              name=f"{result.model}@{point.label}")


def _report_from_manifest(manifest: Dict,
                          lut: ComponentLUT = DEFAULT_LUT) -> NetworkReport:
    from ..core.export import deployments_from_manifest

    deployments, hardware = deployments_from_manifest(manifest)
    return simulate_network(deployments, hardware, lut)


def report_from_point(result: LoadedSearchResult, point: OperatingPoint,
                      config: HardwareConfig = DEFAULT_CONFIG,
                      lut: ComponentLUT = DEFAULT_LUT) -> NetworkReport:
    """Simulate an operating point's deployment (via the manifest path, so
    serve-side numbers come from the same artifact production replays)."""
    return _report_from_manifest(manifest_from_point(result, point, config),
                                 lut)


def engine_from_search(source: Union[str, Path, Mapping, LoadedSearchResult],
                       policy: str = "knee",
                       index: Optional[int] = None,
                       num_chips: Optional[int] = None,
                       replicas: int = 1,
                       mode: str = "auto",
                       scheduler: Optional[SchedulerConfig] = None,
                       config: HardwareConfig = DEFAULT_CONFIG,
                       lut: ComponentLUT = DEFAULT_LUT,
                       resilience=None,
                       brownout_policy: Optional[str] = None,
                       brownout_index: Optional[int] = None,
                       engine: str = "auto"
                       ) -> ServingEngine:
    """A :class:`ServingEngine` serving one operating point of a search.

    ``num_chips=None`` derives the fleet from the assignment's crossbar
    demand: the minimum chips one full copy needs at
    ``config.tiles_per_chip`` (see
    :func:`repro.serve.sharding.recommended_chips`), times ``replicas``.
    The selected point and its compiled manifest are attached to the
    engine as ``engine.operating_point`` / ``engine.deployment_manifest``
    (telemetry labelling; exporting without recompiling).

    ``resilience`` (a :class:`~repro.serve.resilience.ResilienceConfig`)
    arms the resilience runtime for every serve() call on the engine.
    ``engine`` picks the replay engine (``auto``/``scalar``/
    ``vectorized``, see docs/vectorized-replay.md).
    ``brownout_policy`` selects a *second* point off the same front as
    the degraded brownout plan (usually ``energy-opt`` against a
    ``latency-opt`` primary): its timing is simulated at the engine's
    fleet size and attached via :meth:`ServingEngine.attach_brownout`,
    so brownout serves real search-front physics — a shorter sustained
    image interval bought with a slower pipeline fill — instead of the
    policy's fallback scales (see docs/resilience.md).
    """
    result = (source if isinstance(source, LoadedSearchResult)
              else load_search_result(source))
    point = result.select(policy, index)
    manifest = manifest_from_point(result, point, config)
    report = _report_from_manifest(manifest, lut)
    if num_chips is None:
        num_chips = recommended_chips(report, config, replicas=replicas)
    serving = ServingConfig(num_chips=num_chips, mode=mode,
                            scheduler=scheduler or SchedulerConfig(),
                            resilience=resilience, engine=engine)
    served = ServingEngine(report, serving, config, lut)
    served.operating_point = point
    served.deployment_manifest = manifest
    if brownout_policy is not None:
        served.attach_brownout(brownout_plan_from_search(
            result, served, policy=brownout_policy, index=brownout_index,
            config=config, lut=lut))
    return served


def brownout_plan_from_search(result: LoadedSearchResult,
                              engine: ServingEngine,
                              policy: str = "energy-opt",
                              index: Optional[int] = None,
                              config: HardwareConfig = DEFAULT_CONFIG,
                              lut: ComponentLUT = DEFAULT_LUT):
    """Derive a degraded :class:`~repro.serve.resilience.BrownoutPlan`
    from a second operating point of the search front.

    The degraded point is compiled and shard-planned at the *engine's*
    fleet size, so the scales compare like with like: ``interval_scale``
    is the ratio of sustained image intervals (how much more throughput
    the fleet holds browned out — typically < 1 because a smaller-epitome
    point packs more replica groups onto the same chips) and
    ``fill_scale`` the ratio of pipeline fills (the latency price).
    Raises :class:`SearchResultError` when the policy lands on the
    engine's own operating point — a brownout that changes nothing is a
    configuration error, not a degraded mode.
    """
    from .resilience import BrownoutPlan
    from .sharding import plan_sharding

    degraded = result.select(policy, index)
    primary = engine.operating_point
    if primary is not None and degraded.label == primary.label:
        raise SearchResultError(
            f"brownout policy {policy!r} selects the engine's own "
            f"operating point ({degraded.label}); pick a policy that "
            "lands on a different front point — a degraded mode must "
            "actually degrade")
    degraded_report = report_from_point(result, degraded, config, lut)
    degraded_plan = plan_sharding(degraded_report, engine.config.num_chips,
                                  mode=engine.config.mode, config=config,
                                  lut=lut)
    interval_scale = (engine.plan.throughput_fps
                      / degraded_plan.throughput_fps)
    fill_scale = (degraded_plan.per_image_latency_ms
                  / engine.plan.per_image_latency_ms)
    return BrownoutPlan(interval_scale=interval_scale,
                        fill_scale=fill_scale,
                        label=f"{result.model}@{degraded.label} ({policy})",
                        point=degraded)


# ----------------------------------------------------------------------
# A/B offered-load sweep
# ----------------------------------------------------------------------

def _job_seed(seed: int, index: int) -> int:
    """Deterministic per-job trace seed for the A/B sweep.

    Each (sweep seed, job index) pair spawns an independent stream via
    :class:`numpy.random.SeedSequence` — explicit propagation, never the
    global numpy RNG state, so a sweep is reproducible regardless of what
    any surrounding code did to ``np.random`` and different load factors
    do not replay the same underlying uniform draws.
    """
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def ab_offered_load_sweep(engines: Mapping[str, ServingEngine],
                          num_requests: int = 400,
                          load_factors: Sequence[float] = AB_LOAD_FACTORS,
                          seed: int = 0,
                          rate_fps: Optional[float] = None,
                          trace: Optional[Sequence[Request]] = None,
                          priority_levels: int = 1,
                          slo: Optional[SLO] = None,
                          scenario=None,
                          faults=None,
                          resilience=None) -> List[Dict]:
    """Serve identical traces against several deployed operating points.

    ``engines`` maps a label (usually the selection policy) to a deployed
    engine.  Each load factor is taken against the *minimum* capacity
    across the fleets (or ``rate_fps`` pins absolute rates, ignoring
    ``load_factors``), and every fleet replays the *same* trace —
    identical arrivals, so latency/energy differences are attributable to
    the operating point alone.  A recorded ``trace`` replaces the
    synthetic sweep entirely: one row per fleet at the trace's own
    measured arrival rate.

    Trace seeds are derived per job as ``SeedSequence([seed, job_index])``
    and passed explicitly to the generator — the sweep never consults
    numpy's global RNG state, so results are reproducible from ``seed``
    alone.  ``scenario`` (a registered name or
    :class:`~repro.serve.scenarios.Scenario`) swaps the plain Poisson
    generator for that scenario's arrival process; ``faults`` (spec
    string or :class:`~repro.serve.scenarios.faults.FaultPlan`) injects
    the same fault plan into every fleet's replay, and the rows then gain
    ``failed``/``availability`` columns.

    Each row carries the serving telemetry (p50/p99 latency, achieved
    throughput, shed count) plus ``energy_per_request_mj``, the deployed
    design's per-image energy — the number a batch fleet provisions by.
    With ``slo`` given, every row also gains the flat ``slo_*``
    attainment keys of :meth:`repro.obs.slo.SLOReport.as_dict`, so the
    A/B answers "which operating point still meets the SLO at this
    load" directly.  ``resilience`` arms the resilience runtime for
    every replay (same config across fleets, so the A/B stays fair).
    """
    if not engines:
        raise ValueError("ab_offered_load_sweep needs at least one engine")
    if isinstance(scenario, str):
        from .scenarios import get_scenario

        scenario = get_scenario(scenario)
    if trace is not None:
        replay = sorted(trace, key=REPLAY_ORDER)
        if not replay:
            raise ValueError("cannot A/B an empty trace")
        span_ms = replay[-1].arrival_ms - replay[0].arrival_ms
        offered = (len(replay) / span_ms * 1000.0 if span_ms > 0
                   else float(len(replay)))
        jobs = [(offered, replay)]
    else:
        base = min(engine.plan.throughput_fps for engine in engines.values())
        rates = ([rate_fps] if rate_fps is not None
                 else [factor * base for factor in load_factors])
        if scenario is not None:
            jobs = [(rate, scenario.to_trace(num_requests, rate_rps=rate,
                                             seed=_job_seed(seed, index)))
                    for index, rate in enumerate(rates)]
        else:
            jobs = [(rate, synthetic_trace(num_requests, rate_rps=rate,
                                           seed=_job_seed(seed, index),
                                           priority_levels=priority_levels))
                    for index, rate in enumerate(rates)]
    rows: List[Dict] = []
    for rate, requests in jobs:
        for label, engine in engines.items():
            telemetry = engine.serve(requests, faults=faults,
                                     resilience=resilience)
            row = {
                "point": label,
                "offered_fps": rate,
                "capacity_fps": engine.plan.throughput_fps,
                "achieved_fps": telemetry.throughput_fps(),
                "p50_ms": telemetry.latency_percentile(50.0),
                "p99_ms": telemetry.latency_percentile(99.0),
                "shed": telemetry.num_rejected,
                "energy_per_request_mj": engine.report.energy_mj,
                "num_chips": engine.config.num_chips,
            }
            if faults is not None:
                row["failed"] = telemetry.num_failed
                row["availability"] = telemetry.availability()
            if slo is not None:
                row.update(telemetry.slo_attainment(slo).as_dict())
            rows.append(row)
    return rows


def render_ab(rows: Sequence[Dict],
              title: str = "A/B operating points under load") -> str:
    """Render A/B sweep rows as a paper-style table.

    Rows produced with an SLO (see :func:`ab_offered_load_sweep`) gain an
    ``SLO`` verdict column — ``yes``/``NO`` per (point, load) cell.
    """
    with_slo = any("slo_attained" in row for row in rows)
    columns = ["point", "chips", "offered_fps", "achieved_fps",
               "p50_ms", "p99_ms", "shed", "energy/req (mJ)"]
    if with_slo:
        columns.append("SLO")
    table = Table(columns, title=title)
    for row in rows:
        cells = [row["point"], row["num_chips"], row["offered_fps"],
                 row["achieved_fps"], row["p50_ms"], row["p99_ms"],
                 row["shed"], row["energy_per_request_mj"]]
        if with_slo:
            verdict = row.get("slo_attained")
            cells.append("-" if verdict is None
                         else ("yes" if verdict else "NO"))
        table.add_row(*cells)
    return table.render()
