"""Deployment manifest export: the artifact a PIM toolchain consumes.

After the EPIM flow (design -> train -> quantize), a real deployment hands
the accelerator a complete description of what to program: per layer, the
stored tensor dimensions, crossbar allocation, precision, the quantization
scales to configure the shift-add rescalers, the IFAT/IFRT/OFAT tables, and
whether channel wrapping is enabled.  :func:`export_manifest` produces that
description as a JSON-serialisable dict (and optionally writes it), tying
together the software and hardware halves of the reproduction.

Two manifest formats live here:

- ``epim-deployment-manifest/1`` (:func:`export_manifest`) — the
  epitome-layer programming description for a *runnable* converted model
  (quant scales, index tables); hardware-programming oriented.
- ``epim-deployment-manifest/2`` (:func:`export_deployments` /
  :func:`deployments_from_manifest`) — a complete, lossless round-trip of
  every :class:`~repro.pim.simulator.LayerDeployment` of a network plus its
  :class:`~repro.pim.config.HardwareConfig`.  This is the servable
  artifact: :class:`repro.serve.engine.ServingEngine` loads it back into
  per-layer deployments and simulates requests against them without
  re-running the designer.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from ..models.specs import LayerSpec
from ..pim.config import DEFAULT_CONFIG, HardwareConfig
from ..pim.mapping import map_matrix
from ..pim.simulator import LayerDeployment

if TYPE_CHECKING:       # pragma: no cover - typing only
    from .. import nn
    from .equant import EpitomeQuantConfig
    from .layers import EpitomeConv2d

__all__ = [
    "export_manifest",
    "write_manifest",
    "manifest_summary",
    "export_deployments",
    "deployments_from_manifest",
    "load_manifest",
]

DEPLOYMENT_FORMAT = "epim-deployment-manifest/2"


def _layer_entry(name: str, module: EpitomeConv2d,
                 quant: Optional[EpitomeQuantConfig],
                 config: HardwareConfig,
                 include_tables: bool) -> Dict:
    from ..pim.datapath import build_index_tables
    from .equant import epitome_scales

    shape = module.epitome_shape
    weight_bits = quant.bits if quant is not None else None
    alloc = map_matrix(shape.rows, shape.cols,
                       weight_bits if weight_bits is not None
                       else config.fp_equivalent_bits, config)
    entry = {
        "name": name,
        "type": "epitome_conv2d",
        "virtual_shape": list(module.plan.virtual_shape),
        "epitome_shape": list(shape.as_tuple()),
        "rows": shape.rows,
        "cols": shape.cols,
        "stride": module.stride,
        "padding": module.padding,
        "compression": module.compression,
        "weight_bits": weight_bits,
        "crossbars": {
            "row_groups": alloc.row_groups,
            "col_groups": alloc.col_groups,
            "count": alloc.num_crossbars,
            "utilization": alloc.utilization,
        },
        "wrapping_factor": module.plan.n_co_blocks,
        "activation_rounds": module.plan.rounds_per_position,
    }
    if quant is not None:
        scales, group_ids = epitome_scales(module, quant, config)
        entry["quantization"] = {
            "mode": quant.mode,
            "bits": quant.bits,
            "num_scale_groups": int(scales.size),
            "scales": [float(s) for s in scales],
        }
    if include_tables:
        tables = build_index_tables(module.plan, (0, 0))
        entry["index_tables"] = {
            "n_patches": tables.n_patches,
            "ifat": tables.ifat.tolist(),
            "ifrt_rows_enabled": [int(row.sum()) for row in tables.ifrt],
            "ofat": tables.ofat.tolist(),
        }
    return entry


def export_manifest(model: nn.Module,
                    quant: Optional[EpitomeQuantConfig] = None,
                    config: HardwareConfig = DEFAULT_CONFIG,
                    include_tables: bool = False) -> Dict:
    """Build the deployment manifest for every epitome layer of a model.

    Parameters
    ----------
    model:
        A (converted, trained) network containing
        :class:`~repro.core.layers.EpitomeConv2d` modules.
    quant:
        When given, per-layer quantization scales (the shift-add rescaler
        configuration) are computed and embedded.
    include_tables:
        Embed the full IFAT/OFAT contents (IFRT as enabled-row counts);
        large, so off by default.
    """
    from .designer import epitome_layers

    layers = epitome_layers(model)
    entries: List[Dict] = [
        _layer_entry(name, module, quant, config, include_tables)
        for name, module in layers]
    total_xbars = sum(e["crossbars"]["count"] for e in entries)
    return {
        "format": "epim-deployment-manifest/1",
        "hardware": {
            "xbar_rows": config.xbar_rows,
            "xbar_cols": config.xbar_cols,
            "cell_bits": config.cell_bits,
            "dac_bits": config.dac_bits,
            "adc_bits": config.adc_bits,
        },
        "num_epitome_layers": len(entries),
        "total_crossbars": total_xbars,
        "layers": entries,
    }


def write_manifest(manifest: Dict, path: Union[str, Path]) -> None:
    """Serialise a manifest to JSON on disk."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, indent=2))


def load_manifest(path: Union[str, Path]) -> Dict:
    """Read a manifest (either format) back from JSON."""
    try:
        return json.loads(Path(path).read_text())
    except RecursionError:
        raise ValueError(f"{path}: JSON nesting too deep") from None


# ----------------------------------------------------------------------
# Format 2: full LayerDeployment round-trip (the servable artifact)
# ----------------------------------------------------------------------

def _spec_entry(spec: LayerSpec) -> Dict:
    return {
        "name": spec.name,
        "kind": spec.kind,
        "in_channels": spec.in_channels,
        "out_channels": spec.out_channels,
        "kernel_size": list(spec.kernel_size),
        "stride": spec.stride,
        "in_size": list(spec.in_size),
        "out_size": list(spec.out_size),
        "index": spec.index,
    }


def _spec_from_entry(entry: Dict) -> LayerSpec:
    return LayerSpec(
        name=entry["name"],
        kind=entry["kind"],
        in_channels=entry["in_channels"],
        out_channels=entry["out_channels"],
        kernel_size=tuple(entry["kernel_size"]),
        stride=entry["stride"],
        in_size=tuple(entry["in_size"]),
        out_size=tuple(entry["out_size"]),
        index=entry.get("index", 0),
    )


def export_deployments(deployments: Sequence[LayerDeployment],
                       config: HardwareConfig,
                       name: str = "model") -> Dict:
    """Serialise a full per-layer deployment list (format 2).

    ``config`` is required and MUST be the :class:`HardwareConfig` the
    deployments were mapped with — it is embedded in the manifest and a
    :class:`~repro.pim.simulator.LayerDeployment` carries no config of its
    own, so a mismatch here would silently replay timings for hardware
    the model was never mapped to.

    The result is lossless: :func:`deployments_from_manifest` rebuilds
    byte-identical :class:`~repro.pim.simulator.LayerDeployment` records
    and the hardware config, so ``simulate_network`` of the round-trip
    matches the original exactly.
    """
    entries: List[Dict] = []
    for dep in deployments:
        alloc = map_matrix(dep.stored_rows, dep.stored_cols,
                           dep.resolved_weight_bits(config), config)
        entries.append({
            "spec": _spec_entry(dep.spec),
            "style": dep.style,
            "weight_bits": dep.weight_bits,
            "activation_bits": dep.activation_bits,
            "stored_rows": dep.stored_rows,
            "stored_cols": dep.stored_cols,
            "exec_rounds": dep.exec_rounds,
            "exec_rows": dep.exec_rows,
            "exec_cols": dep.exec_cols,
            "exec_cells": dep.exec_cells,
            "n_co_blocks": dep.n_co_blocks,
            "n_ci_blocks": dep.n_ci_blocks,
            "use_wrapping": dep.use_wrapping,
            "crossbars": alloc.num_crossbars,
        })
    return {
        "format": DEPLOYMENT_FORMAT,
        "model": name,
        "hardware": dataclasses.asdict(config),
        "num_layers": len(entries),
        "total_crossbars": sum(e["crossbars"] for e in entries),
        "layers": entries,
    }


def deployments_from_manifest(manifest: Union[Dict, str, Path]
                              ) -> Tuple[List[LayerDeployment], HardwareConfig]:
    """Rebuild the deployment list and hardware config from a format-2
    manifest (dict or path to a JSON file)."""
    if not isinstance(manifest, dict):
        manifest = load_manifest(manifest)
    fmt = manifest.get("format")
    if fmt != DEPLOYMENT_FORMAT:
        raise ValueError(
            f"expected a {DEPLOYMENT_FORMAT!r} manifest, got {fmt!r} "
            "(format-1 manifests describe epitome programming only and "
            "cannot be replayed; re-export with export_deployments)")
    config = HardwareConfig(**manifest["hardware"])
    deployments = [
        LayerDeployment(
            spec=_spec_from_entry(entry["spec"]),
            style=entry["style"],
            weight_bits=entry["weight_bits"],
            activation_bits=entry["activation_bits"],
            stored_rows=entry["stored_rows"],
            stored_cols=entry["stored_cols"],
            exec_rounds=entry["exec_rounds"],
            exec_rows=entry["exec_rows"],
            exec_cols=entry["exec_cols"],
            exec_cells=entry["exec_cells"],
            n_co_blocks=entry["n_co_blocks"],
            n_ci_blocks=entry["n_ci_blocks"],
            use_wrapping=entry["use_wrapping"],
        )
        for entry in manifest["layers"]]
    return deployments, config


def manifest_summary(manifest: Dict) -> str:
    """Human-readable one-screen summary of a manifest (either format)."""
    if manifest.get("format") == DEPLOYMENT_FORMAT:
        return _deployment_manifest_summary(manifest)
    lines = [
        f"EPIM deployment manifest ({manifest['num_epitome_layers']} epitome "
        f"layers, {manifest['total_crossbars']} crossbars)",
        f"hardware: {manifest['hardware']['xbar_rows']}x"
        f"{manifest['hardware']['xbar_cols']} arrays, "
        f"{manifest['hardware']['cell_bits']}-bit cells",
    ]
    for entry in manifest["layers"]:
        quant = entry.get("quantization")
        quant_text = (f" W{quant['bits']} {quant['mode']} "
                      f"({quant['num_scale_groups']} scales)" if quant else "")
        lines.append(
            f"  {entry['name']:<24s} {entry['rows']}x{entry['cols']} "
            f"-> {entry['crossbars']['count']} XBs, "
            f"{entry['activation_rounds']} rounds, "
            f"r={entry['wrapping_factor']}{quant_text}")
    return "\n".join(lines)


def _deployment_manifest_summary(manifest: Dict) -> str:
    """Format-2 rendering: every layer with style/precision/crossbars."""
    hw = manifest["hardware"]
    lines = [
        f"EPIM servable deployment ({manifest.get('model', 'model')}: "
        f"{manifest['num_layers']} layers, "
        f"{manifest['total_crossbars']} crossbars)",
        f"hardware: {hw['xbar_rows']}x{hw['xbar_cols']} arrays, "
        f"{hw['cell_bits']}-bit cells, {hw['tiles_per_chip']} tiles/chip",
    ]
    for entry in manifest["layers"]:
        bits = entry["weight_bits"]
        lines.append(
            f"  {entry['spec']['name']:<24s} {entry['style']:<7s} "
            f"{entry['stored_rows']}x{entry['stored_cols']} "
            f"W{bits if bits is not None else 'fp'}"
            f"A{entry['activation_bits']} -> {entry['crossbars']} XBs, "
            f"{entry['exec_rounds']} rounds"
            f"{' [wrap]' if entry['use_wrapping'] else ''}")
    return "\n".join(lines)
