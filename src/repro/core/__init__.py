"""repro.core — the paper's contribution.

- :mod:`repro.core.epitome` — the epitome operator: shapes, sampler,
  reconstruction plans with index maps and repetition counts;
- :mod:`repro.core.layers` — trainable :class:`EpitomeConv2d` /
  :class:`EpitomeLinear`;
- :mod:`repro.core.designer` — conv -> epitome conversion for runnable
  models and shape-level PIM deployments (Fig. 2a's "Designer");
- :mod:`repro.core.wrapping` — output channel wrapping (Eqs. 8-9);
- :mod:`repro.core.equant` — epitome-aware quantization (Eqs. 4-5);
- :mod:`repro.core.pipeline` — the end-to-end EPIM flow.

The evolutionary layer-wise design (Alg. 1) lives in :mod:`repro.search`.
"""

from .designer import (
    EpitomeAssignment,
    build_deployments,
    choose_epitome_shape,
    convert_model,
    epitome_layers,
    model_compression_summary,
    spec_from_model,
    uniform_assignment,
)
from .epitome import EpitomePlan, EpitomeShape, PatchSample, build_plan
from .equant import (
    EpitomeQuantConfig,
    apply_epitome_quantization,
    crossbar_group_ids,
    epitome_scales,
    make_epitome_quant_hook,
    remove_epitome_quantization,
    weighted_range,
)
from .export import export_manifest, manifest_summary, write_manifest
from .layers import EpitomeConv2d, EpitomeLinear
from .pipeline import EpimPipeline, EpimPipelineConfig, EpimResult
from .wrapping import (
    WrappingSavings,
    verify_ofm_invariance,
    verify_weight_invariance,
    wrapping_factor,
    wrapping_savings,
)

__all__ = [
    "EpitomeShape",
    "PatchSample",
    "EpitomePlan",
    "build_plan",
    "EpitomeConv2d",
    "EpitomeLinear",
    "EpitomeAssignment",
    "choose_epitome_shape",
    "uniform_assignment",
    "build_deployments",
    "spec_from_model",
    "convert_model",
    "epitome_layers",
    "model_compression_summary",
    "WrappingSavings",
    "wrapping_factor",
    "wrapping_savings",
    "verify_weight_invariance",
    "verify_ofm_invariance",
    "EpitomeQuantConfig",
    "crossbar_group_ids",
    "weighted_range",
    "epitome_scales",
    "make_epitome_quant_hook",
    "apply_epitome_quantization",
    "remove_epitome_quantization",
    "EpimPipeline",
    "EpimPipelineConfig",
    "EpimResult",
    "export_manifest",
    "write_manifest",
    "manifest_summary",
]
