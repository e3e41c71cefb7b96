"""LRU cache of compiled deployments.

Running the epitome designer + crossbar mapping + performance model for a
network is the expensive part of bringing a model online; a serving tier
that hosts many models (or re-deploys the same model across hardware
variants) should pay it once per distinct (model spec, hardware config)
pair.  Keys are content fingerprints — a hash over every layer shape, the
epitome assignment and precision, plus every field of the
:class:`~repro.pim.config.HardwareConfig` — so logically identical deploys
hit regardless of object identity.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections import OrderedDict
from typing import Callable, Dict, Optional

from ..core.designer import EpitomeAssignment, build_deployments
from ..models.specs import NetworkSpec
from ..obs.catalog import publish
from ..obs.runtime import get_metrics
from ..pim.config import DEFAULT_CONFIG, HardwareConfig
from ..pim.lut import DEFAULT_LUT, ComponentLUT
from ..pim.simulator import NetworkReport, simulate_network

__all__ = ["spec_fingerprint", "hardware_fingerprint", "deployment_key",
           "compile_deployment", "DeploymentCache"]


def compile_deployment(spec: NetworkSpec,
                       assignment: Optional[EpitomeAssignment] = None,
                       weight_bits: Optional[int] = None,
                       activation_bits: Optional[int] = None,
                       use_wrapping: bool = False,
                       config: HardwareConfig = DEFAULT_CONFIG,
                       lut: ComponentLUT = DEFAULT_LUT) -> NetworkReport:
    """The designer compile path: per-layer deployments + simulation.

    The single recipe behind both the cached (:meth:`DeploymentCache.deploy`)
    and uncached (:meth:`repro.serve.engine.ServingEngine.from_spec`)
    paths, so the two can never diverge.
    """
    deployments = build_deployments(
        spec, assignment, weight_bits=weight_bits,
        activation_bits=activation_bits,
        use_wrapping=use_wrapping, config=config)
    return simulate_network(deployments, config, lut)


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def spec_fingerprint(spec: NetworkSpec) -> str:
    """Content hash of a network's layers — names and shapes, in order.

    Layer names are part of the identity: the cached
    :class:`~repro.pim.simulator.NetworkReport` embeds them, and epitome
    assignments are keyed by them.  Independent of object identity: two
    separately-built specs with the same layers hash alike."""
    payload = [[layer.name, layer.kind, layer.in_channels,
                layer.out_channels, list(layer.kernel_size), layer.stride,
                list(layer.in_size), list(layer.out_size)]
               for layer in spec]
    return _digest(payload)


def hardware_fingerprint(config: HardwareConfig) -> str:
    """Content hash over every HardwareConfig field."""
    return _digest(dataclasses.asdict(config))


def deployment_key(spec: NetworkSpec,
                   config: HardwareConfig = DEFAULT_CONFIG,
                   assignment: Optional[EpitomeAssignment] = None,
                   weight_bits: Optional[int] = None,
                   activation_bits: Optional[int] = None,
                   use_wrapping: bool = False,
                   lut: ComponentLUT = DEFAULT_LUT) -> str:
    """Cache key for one fully-specified deployment request.

    Every input that shapes the simulated report participates — the spec,
    all hardware fields, the epitome assignment, precision, wrapping, and
    the component LUT (a LUT sweep must not hit stale timings).
    """
    payload = {
        "spec": spec_fingerprint(spec),
        "hardware": hardware_fingerprint(config),
        "lut": _digest(dataclasses.asdict(lut)),
        "assignment": sorted(
            (name, list(choice) if choice is not None else None)
            for name, choice in (assignment or {}).items()),
        "weight_bits": weight_bits,
        "activation_bits": activation_bits,
        "use_wrapping": use_wrapping,
    }
    return _digest(payload)


class DeploymentCache:
    """Bounded LRU of compiled :class:`NetworkReport` deployments."""

    def __init__(self, capacity: int = 8):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[str, NetworkReport]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    @property
    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "size": len(self._entries)}

    # ------------------------------------------------------------------
    def get_or_build(self, key: str,
                     builder: Callable[[], NetworkReport]) -> NetworkReport:
        """Return the cached report for ``key``, building on first use.

        A hit refreshes recency; when full, the least-recently-used entry
        is evicted.  Outcomes are mirrored into the installed metrics
        registry under ``serve.cache.*`` — deploys are rare next to
        requests, so the per-call counter increment is noise.
        """
        registry = get_metrics()
        if key in self._entries:
            self.hits += 1
            publish(registry, "serve.cache", {"hits": 1})
            self._entries.move_to_end(key)
            return self._entries[key]
        self.misses += 1
        publish(registry, "serve.cache", {"misses": 1})
        report = builder()
        self._entries[key] = report
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
            publish(registry, "serve.cache", {"evictions": 1})
        return report

    def deploy(self, spec: NetworkSpec,
               assignment: Optional[EpitomeAssignment] = None,
               weight_bits: Optional[int] = None,
               activation_bits: Optional[int] = None,
               use_wrapping: bool = False,
               config: HardwareConfig = DEFAULT_CONFIG,
               lut: ComponentLUT = DEFAULT_LUT) -> NetworkReport:
        """Designer-path deploy with caching: run
        :func:`compile_deployment`, skipping it entirely on a key hit."""
        key = deployment_key(spec, config, assignment, weight_bits,
                             activation_bits, use_wrapping, lut)
        return self.get_or_build(key, lambda: compile_deployment(
            spec, assignment, weight_bits=weight_bits,
            activation_bits=activation_bits, use_wrapping=use_wrapping,
            config=config, lut=lut))

    def clear(self) -> None:
        self._entries.clear()
