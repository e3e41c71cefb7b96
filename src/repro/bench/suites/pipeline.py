"""Benchmarks for the compile/export path (``repro.core``).

``pipeline.compile`` times epitome deployment compilation — network spec in,
per-layer :class:`~repro.pim.simulator.LayerDeployment` list out (the
designer's per-layer shape choice and closed-form execution sums).
``pipeline.export_roundtrip`` times the servable format-2 manifest path:
export -> JSON text -> parse -> rebuild deployments, i.e. exactly what
``python -m repro serve --manifest`` pays per deployment load.
"""

from __future__ import annotations

import json

from ...core.designer import build_deployments, uniform_assignment
from ...core.export import deployments_from_manifest, export_deployments
from ...models.specs import get_network_spec
from ...pim.config import DEFAULT_CONFIG
from ..registry import Workload, benchmark

__all__ = ["compile_factory", "export_roundtrip_factory"]


@benchmark("pipeline.compile", suite="pipeline",
           description="spec -> epitome deployments compilation")
def compile_factory(fast: bool) -> Workload:
    spec = get_network_spec("resnet18" if fast else "resnet50")
    assignment = uniform_assignment(spec)

    def fn():
        return build_deployments(spec, assignment, weight_bits=9,
                                 activation_bits=9, use_wrapping=True)

    return Workload(fn=fn, items=float(len(spec)), unit="layers")


@benchmark("pipeline.export_roundtrip", suite="pipeline",
           description="manifest export -> JSON -> rebuilt deployments")
def export_roundtrip_factory(fast: bool) -> Workload:
    spec = get_network_spec("resnet18" if fast else "resnet50")
    deployments = build_deployments(spec, uniform_assignment(spec),
                                    weight_bits=9, activation_bits=9,
                                    use_wrapping=True)

    def fn():
        manifest = export_deployments(deployments, DEFAULT_CONFIG,
                                      name="bench")
        rebuilt, _config = deployments_from_manifest(
            json.loads(json.dumps(manifest)))
        if len(rebuilt) != len(deployments):
            raise AssertionError("manifest round-trip lost layers")
        return rebuilt

    return Workload(fn=fn, items=float(len(deployments)), unit="layers")
