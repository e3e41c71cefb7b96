"""The Epitome Designer (Fig. 2a): replaces convolutions with epitomes.

Two entry points, matching the two halves of the evaluation:

- :func:`convert_model` rewrites a *runnable* :mod:`repro.nn` network,
  swapping :class:`~repro.nn.Conv2d` layers for
  :class:`~repro.core.layers.EpitomeConv2d` (used by the accuracy
  experiments).  Existing conv weights warm-start the epitomes.
- :func:`build_deployments` turns a *shape-level*
  :class:`~repro.models.specs.NetworkSpec` plus a per-layer epitome
  assignment into the :class:`~repro.pim.simulator.LayerDeployment` list
  the PIM performance model consumes (used by the hardware experiments on
  the full-size ResNet-50/101).

Shape policy (section 4.1): a layer gets an epitome only when that actually
compresses it; epitome dimensions are aligned to integral multiples of the
crossbar size whenever the budget allows, so word/bit lines are fully
utilised (the paper's "memristor utilization" column).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from ..models.specs import LayerSpec, NetworkSpec
from ..pim.config import DEFAULT_CONFIG, HardwareConfig
from ..pim.simulator import (
    LayerDeployment,
    baseline_deployment,
    epitome_deployment_from_shape,
)
from .epitome import EpitomeShape

if TYPE_CHECKING:       # pragma: no cover - typing only
    from .. import nn
    from .layers import EpitomeConv2d

__all__ = [
    "EpitomeAssignment",
    "choose_epitome_shape",
    "uniform_assignment",
    "build_deployments",
    "spec_from_model",
    "convert_model",
    "epitome_layers",
    "model_compression_summary",
]

# Per-layer choice: (rows, cols) hardware description, or None to keep the
# layer as a plain convolution.
EpitomeAssignment = Dict[str, Optional[Tuple[int, int]]]


MIN_EPITOME_IN_CHANNELS = 8


def choose_epitome_shape(spec: LayerSpec, rows: int, cols: int,
                         config: HardwareConfig = DEFAULT_CONFIG
                         ) -> Optional[EpitomeShape]:
    """Pick a concrete epitome shape for one layer, or None to keep conv.

    The requested ``rows x cols`` budget is clipped to the layer and the
    row extent is aligned down to a multiple of the crossbar rows when that
    is possible without dropping below one full array (section 4.1's
    alignment rule).  Returns None when the epitome would not compress the
    layer (small layers keep their convolution — the layer-wise design
    principle of section 5.2), and never converts input stems with fewer
    than ``MIN_EPITOME_IN_CHANNELS`` input channels (sharing RGB channels
    is the standard exclusion in compression work).
    """
    if spec.kind != "conv":
        return None
    if spec.in_channels < MIN_EPITOME_IN_CHANNELS:
        return None
    rows = min(rows, spec.weight_rows)
    cols = min(cols, spec.weight_cols)
    shape = EpitomeShape.from_rows_cols(rows, cols, spec.kernel_size,
                                        spec.in_channels)
    # Crossbar alignment (section 4.1): prefer ei such that ei*eh*ew is a
    # multiple of the crossbar row count, so allocated word lines are fully
    # used.  ``per_xbar`` is the number of epitome channels filling exactly
    # one array's rows; rounding ei down to a multiple of it keeps every
    # allocated array full.
    unit = shape.height * shape.width
    per_xbar = config.xbar_rows // unit
    if shape.rows > config.xbar_rows and per_xbar >= 1 \
            and config.xbar_rows % unit == 0:
        aligned_ei = (shape.in_channels // per_xbar) * per_xbar
        if aligned_ei >= per_xbar:
            shape = EpitomeShape(shape.out_channels, aligned_ei,
                                 shape.height, shape.width)
    if shape.num_params >= spec.num_weights:
        return None
    if shape.in_channels > spec.in_channels:
        return None
    return shape


def uniform_assignment(spec: NetworkSpec, rows: int = 1024, cols: int = 256
                       ) -> EpitomeAssignment:
    """The paper's uniform design: the same ``rows x cols`` epitome everywhere
    (Table 1's "1024 x 256" rows). Layers it cannot compress keep their conv."""
    return {layer.name: (rows, cols) for layer in spec if layer.kind == "conv"}


def build_deployments(spec: NetworkSpec,
                      assignment: Optional[EpitomeAssignment] = None,
                      weight_bits: Optional[int] = None,
                      activation_bits: Optional[int] = None,
                      use_wrapping: bool = False,
                      config: HardwareConfig = DEFAULT_CONFIG,
                      bit_map: Optional[Dict[str, int]] = None,
                      ) -> List[LayerDeployment]:
    """Create per-layer PIM deployments for a shape-level network.

    Parameters
    ----------
    spec:
        Network shape table (e.g. ``resnet50_spec()``).
    assignment:
        Per-layer epitome choice; missing / ``None`` entries and fc layers
        stay baseline convolutions.  ``None`` deploys the whole network as
        a baseline.
    weight_bits / activation_bits:
        Precision (None = FP32 mapping).
    use_wrapping:
        Enable output channel wrapping on every epitome layer.
    bit_map:
        Optional per-layer weight-bit overrides (layer name -> bits) — the
        HAWQ mixed-precision deployments (Table 1's W3mp rows).

    Epitome layers are deployed in closed form
    (:func:`~repro.pim.simulator.epitome_deployment_from_shape`): the
    deployment needs only the sums of the patch sizes, so no patch
    schedule is built.
    """
    assignment = assignment or {}
    deployments: List[LayerDeployment] = []
    for layer in spec:
        layer_bits = weight_bits
        if bit_map is not None and layer.name in bit_map:
            layer_bits = bit_map[layer.name]
        choice = assignment.get(layer.name)
        shape = None
        if choice is not None:
            shape = choose_epitome_shape(layer, choice[0], choice[1], config)
        if shape is None:
            deployments.append(baseline_deployment(
                layer, weight_bits=layer_bits,
                activation_bits=activation_bits, config=config))
            continue
        deployments.append(epitome_deployment_from_shape(
            layer, shape.as_tuple(), weight_bits=layer_bits,
            activation_bits=activation_bits, use_wrapping=use_wrapping,
            config=config))
    return deployments


def spec_from_model(model: nn.Module, input_size: Tuple[int, int],
                    name: str = "model") -> NetworkSpec:
    """Trace a runnable model's conv/linear layers into a NetworkSpec.

    Spatial sizes are propagated through strides in module order (which is
    execution order for our ResNets).  The resulting spec lets the
    evolutionary search and the PIM simulator operate on trainable models
    exactly as they do on the full-size ResNet shape tables.
    """
    from .. import nn
    from .layers import EpitomeConv2d

    layers: List[LayerSpec] = []
    size = input_size
    # Input size per channel count: a residual shortcut conv appears *after*
    # the main path in module order, but consumes the *block input* — which
    # is the last feature map that had its in_channels (the same heuristic
    # the pipeline tracer uses, so both paths agree layer for layer).
    stage_sizes: Dict[int, Tuple[int, int]] = {}
    index = 0
    for mod_name, module in model.named_modules():
        if isinstance(module, (nn.Conv2d, EpitomeConv2d)):
            in_size = stage_sizes.get(module.in_channels, size)
            kh, kw = module.kernel_size
            pad = module.padding
            stride = module.stride
            oh = (in_size[0] + 2 * pad - kh) // stride + 1
            ow = (in_size[1] + 2 * pad - kw) // stride + 1
            index += 1
            layers.append(LayerSpec(
                name=mod_name, kind="conv",
                in_channels=module.in_channels,
                out_channels=module.out_channels,
                kernel_size=module.kernel_size, stride=stride,
                in_size=in_size, out_size=(oh, ow), index=index))
            stage_sizes[module.out_channels] = (oh, ow)
            size = (oh, ow)
        elif isinstance(module, nn.Linear):
            index += 1
            layers.append(LayerSpec(
                name=mod_name, kind="fc",
                in_channels=module.in_features,
                out_channels=module.out_features,
                kernel_size=(1, 1), stride=1,
                in_size=(1, 1), out_size=(1, 1), index=index))
    return NetworkSpec(name=name, input_size=input_size, layers=layers)


# ----------------------------------------------------------------------
# Runnable-model conversion
# ----------------------------------------------------------------------

def convert_model(model: nn.Module,
                  rows: int = 1024, cols: int = 256,
                  assignment: Optional[EpitomeAssignment] = None,
                  config: HardwareConfig = DEFAULT_CONFIG,
                  warm_start: bool = True,
                  seed: int = 0) -> int:
    """Replace eligible Conv2d layers of a runnable model with epitomes.

    Mutates ``model`` in place and returns the number of layers converted.

    Parameters
    ----------
    rows / cols:
        Uniform epitome budget used for layers without an explicit entry in
        ``assignment``.
    assignment:
        Optional per-layer overrides keyed by module path (as produced by
        ``model.named_modules()``); value ``None`` forces a layer to stay
        convolutional.
    warm_start:
        Initialise each epitome from the trained conv weights
        (least-squares averaging over shared positions).
    """
    from .. import nn
    from .layers import EpitomeConv2d

    rng = np.random.default_rng(seed)
    converted = 0
    for name, module in list(model.named_modules()):
        for child_name, child in list(module._modules.items()):
            if type(child) is not nn.Conv2d:
                continue
            full_name = f"{name}.{child_name}" if name else child_name
            if assignment is not None and full_name in assignment:
                choice = assignment[full_name]
                if choice is None:
                    continue
                layer_rows, layer_cols = choice
            else:
                layer_rows, layer_cols = rows, cols
            spec = _layer_spec_from_conv(full_name, child)
            shape = choose_epitome_shape(spec, layer_rows, layer_cols, config)
            if shape is None:
                continue
            replacement = EpitomeConv2d(
                child.in_channels, child.out_channels, child.kernel_size,
                stride=child.stride, padding=child.padding,
                bias=child.bias is not None, epitome_shape=shape, rng=rng)
            if warm_start:
                replacement.load_from_conv(child)
            setattr(module, child_name, replacement)
            converted += 1
    return converted


def _layer_spec_from_conv(name: str, conv: nn.Conv2d) -> LayerSpec:
    """Adapt a runnable conv module to the LayerSpec interface (shapes only)."""
    return LayerSpec(
        name=name, kind="conv",
        in_channels=conv.in_channels, out_channels=conv.out_channels,
        kernel_size=conv.kernel_size, stride=conv.stride,
        in_size=(0, 0), out_size=(0, 0))


def epitome_layers(model: nn.Module) -> List[Tuple[str, EpitomeConv2d]]:
    """All epitome conv layers of a model with their module paths."""
    from .layers import EpitomeConv2d

    return [(name, module) for name, module in model.named_modules()
            if isinstance(module, EpitomeConv2d)]


def model_compression_summary(model: nn.Module) -> Dict[str, float]:
    """Parameter accounting before/after epitome conversion.

    Returns total parameters, the virtual (uncompressed-equivalent)
    parameter count, and the resulting compression rate — the metric
    Table 3 compares against pruning.
    """
    from .layers import EpitomeConv2d

    actual = model.num_parameters()
    virtual = 0
    for _, module in model.named_modules():
        for child in module._modules.values():
            if isinstance(child, EpitomeConv2d):
                virtual += (child.plan.num_virtual_weights
                            - child.num_epitome_params())
    virtual += actual
    return {
        "params": float(actual),
        "virtual_params": float(virtual),
        "compression": virtual / actual if actual else 0.0,
    }
