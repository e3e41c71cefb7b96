"""Exact layer-shape specifications of the ResNet family.

The paper's hardware numbers (Table 1, Figures 3-4) are functions of layer
*shapes* only — crossbar counts, activation rounds, buffer traffic — not of
trained weights.  This module provides :class:`LayerSpec` records for every
weight layer of torchvision-equivalent ResNet-18/34/50/101 at 224x224 input,
which feed the PIM simulator and the epitome designer directly, so the
full-size networks are modelled exactly even though they are too large to
*train* on the NumPy substrate (the accuracy experiments train scaled
ResNets on the synthetic task of :mod:`repro.data.synthetic` instead).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

__all__ = [
    "LayerSpec",
    "NetworkSpec",
    "resnet18_spec",
    "resnet34_spec",
    "resnet50_spec",
    "resnet101_spec",
    "vgg16_spec",
    "get_network_spec",
]


@dataclass(frozen=True)
class LayerSpec:
    """Shape record for one weight layer.

    Attributes
    ----------
    name:
        Hierarchical name, e.g. ``"layer3.4.conv2"``.
    kind:
        ``"conv"`` or ``"fc"``.
    in_channels / out_channels:
        Channel counts (for ``fc`` these are input/output features).
    kernel_size:
        Spatial kernel ``(kh, kw)``; ``(1, 1)`` for fc layers.
    stride:
        Spatial stride (1 for fc).
    in_size:
        Input spatial resolution ``(h, w)`` seen by this layer ((1, 1) for fc).
    out_size:
        Output spatial resolution ``(h, w)``.
    index:
        1-based position in the network's weight-layer enumeration (the
        numbering used when the paper speaks of "Layer 9 / 41 / 67").
    """

    name: str
    kind: str
    in_channels: int
    out_channels: int
    kernel_size: Tuple[int, int]
    stride: int
    in_size: Tuple[int, int]
    out_size: Tuple[int, int]
    index: int = 0

    @property
    def weight_rows(self) -> int:
        """Crossbar word-line demand: ``cin * kh * kw`` (MNSIM mapping)."""
        return self.in_channels * self.kernel_size[0] * self.kernel_size[1]

    @property
    def weight_cols(self) -> int:
        """Crossbar bit-line demand before bit-slicing: ``cout``."""
        return self.out_channels

    @property
    def num_weights(self) -> int:
        return self.weight_rows * self.weight_cols

    @property
    def output_positions(self) -> int:
        """Number of sliding-window positions = crossbar activation count."""
        return self.out_size[0] * self.out_size[1]

    @property
    def macs(self) -> int:
        return self.num_weights * self.output_positions

    def __str__(self) -> str:
        kh, kw = self.kernel_size
        return (f"[{self.index:3d}] {self.name:<22s} {self.kind:<4s} "
                f"{self.in_channels:4d}->{self.out_channels:4d} {kh}x{kw}/"
                f"{self.stride} @{self.in_size[0]}x{self.in_size[1]}")


@dataclass
class NetworkSpec:
    """A named ordered list of :class:`LayerSpec` (one full network)."""

    name: str
    input_size: Tuple[int, int]
    layers: List[LayerSpec] = field(default_factory=list)

    def __iter__(self):
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> LayerSpec:
        return self.layers[index]

    @property
    def conv_layers(self) -> List[LayerSpec]:
        return [layer for layer in self.layers if layer.kind == "conv"]

    @property
    def total_weights(self) -> int:
        return sum(layer.num_weights for layer in self.layers)

    @property
    def total_macs(self) -> int:
        return sum(layer.macs for layer in self.layers)

    def by_name(self, name: str) -> LayerSpec:
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise KeyError(f"no layer named {name!r} in {self.name}")

    def by_index(self, index: int) -> LayerSpec:
        """1-based lookup in the weight-layer enumeration."""
        for layer in self.layers:
            if layer.index == index:
                return layer
        raise KeyError(f"no layer with index {index} in {self.name}")

    def summary(self) -> str:
        lines = [f"{self.name}: {len(self.layers)} weight layers, "
                 f"{self.total_weights / 1e6:.2f} M weights, "
                 f"{self.total_macs / 1e9:.2f} G MACs"]
        lines.extend(str(layer) for layer in self.layers)
        return "\n".join(lines)


class _SpecBuilder:
    """Incrementally build a :class:`NetworkSpec`, tracking spatial size."""

    def __init__(self, name: str, input_size: Tuple[int, int]):
        self.spec = NetworkSpec(name=name, input_size=input_size)
        self._index = 0

    def conv(self, name: str, cin: int, cout: int, kernel: int, stride: int,
             in_size: Tuple[int, int], padding: Optional[int] = None) -> Tuple[int, int]:
        if padding is None:
            padding = kernel // 2
        oh = (in_size[0] + 2 * padding - kernel) // stride + 1
        ow = (in_size[1] + 2 * padding - kernel) // stride + 1
        self._index += 1
        self.spec.layers.append(LayerSpec(
            name=name, kind="conv", in_channels=cin, out_channels=cout,
            kernel_size=(kernel, kernel), stride=stride,
            in_size=in_size, out_size=(oh, ow), index=self._index))
        return oh, ow

    def fc(self, name: str, fin: int, fout: int) -> None:
        self._index += 1
        self.spec.layers.append(LayerSpec(
            name=name, kind="fc", in_channels=fin, out_channels=fout,
            kernel_size=(1, 1), stride=1, in_size=(1, 1), out_size=(1, 1),
            index=self._index))


def _bottleneck_resnet(name: str, block_counts: Tuple[int, int, int, int],
                       num_classes: int = 1000,
                       input_size: Tuple[int, int] = (224, 224)) -> NetworkSpec:
    """Build ResNet-50/101/152-style spec (bottleneck blocks, expansion 4)."""
    builder = _SpecBuilder(name, input_size)
    size = builder.conv("conv1", 3, 64, kernel=7, stride=2, in_size=input_size, padding=3)
    # 3x3 max-pool stride 2 (no weights, but changes spatial size).
    size = ((size[0] + 2 * 1 - 3) // 2 + 1, (size[1] + 2 * 1 - 3) // 2 + 1)

    in_channels = 64
    stage_widths = (64, 128, 256, 512)
    for stage_idx, (blocks, width) in enumerate(zip(block_counts, stage_widths), start=1):
        out_channels = width * 4
        for block_idx in range(blocks):
            stride = 2 if (stage_idx > 1 and block_idx == 0) else 1
            prefix = f"layer{stage_idx}.{block_idx}"
            builder.conv(f"{prefix}.conv1", in_channels, width, kernel=1,
                         stride=1, in_size=size, padding=0)
            mid_size = ((size[0] - 1) // stride + 1, (size[1] - 1) // stride + 1)
            builder.conv(f"{prefix}.conv2", width, width, kernel=3,
                         stride=stride, in_size=size)
            builder.conv(f"{prefix}.conv3", width, out_channels, kernel=1,
                         stride=1, in_size=mid_size, padding=0)
            if block_idx == 0:
                builder.conv(f"{prefix}.downsample", in_channels, out_channels,
                             kernel=1, stride=stride, in_size=size, padding=0)
            size = mid_size
            in_channels = out_channels
    builder.fc("fc", in_channels, num_classes)
    return builder.spec


def _basic_resnet(name: str, block_counts: Tuple[int, int, int, int],
                  num_classes: int = 1000,
                  input_size: Tuple[int, int] = (224, 224)) -> NetworkSpec:
    """Build ResNet-18/34-style spec (basic blocks, expansion 1)."""
    builder = _SpecBuilder(name, input_size)
    size = builder.conv("conv1", 3, 64, kernel=7, stride=2, in_size=input_size, padding=3)
    size = ((size[0] + 2 * 1 - 3) // 2 + 1, (size[1] + 2 * 1 - 3) // 2 + 1)

    in_channels = 64
    stage_widths = (64, 128, 256, 512)
    for stage_idx, (blocks, width) in enumerate(zip(block_counts, stage_widths), start=1):
        for block_idx in range(blocks):
            stride = 2 if (stage_idx > 1 and block_idx == 0) else 1
            prefix = f"layer{stage_idx}.{block_idx}"
            out_size = ((size[0] - 1) // stride + 1, (size[1] - 1) // stride + 1)
            builder.conv(f"{prefix}.conv1", in_channels, width, kernel=3,
                         stride=stride, in_size=size)
            builder.conv(f"{prefix}.conv2", width, width, kernel=3,
                         stride=1, in_size=out_size)
            if stride != 1 or in_channels != width:
                builder.conv(f"{prefix}.downsample", in_channels, width,
                             kernel=1, stride=stride, in_size=size, padding=0)
            size = out_size
            in_channels = width
    builder.fc("fc", in_channels, num_classes)
    return builder.spec


def resnet18_spec(num_classes: int = 1000) -> NetworkSpec:
    """Layer shapes of ResNet-18 at 224x224."""
    return _basic_resnet("ResNet18", (2, 2, 2, 2), num_classes)


def resnet34_spec(num_classes: int = 1000) -> NetworkSpec:
    """Layer shapes of ResNet-34 at 224x224."""
    return _basic_resnet("ResNet34", (3, 4, 6, 3), num_classes)


def resnet50_spec(num_classes: int = 1000) -> NetworkSpec:
    """Layer shapes of ResNet-50 at 224x224 (the paper's main workload)."""
    return _bottleneck_resnet("ResNet50", (3, 4, 6, 3), num_classes)


def resnet101_spec(num_classes: int = 1000) -> NetworkSpec:
    """Layer shapes of ResNet-101 at 224x224 (the paper's second workload)."""
    return _bottleneck_resnet("ResNet101", (3, 4, 23, 3), num_classes)


def vgg16_spec(num_classes: int = 1000,
               input_size: Tuple[int, int] = (224, 224)) -> NetworkSpec:
    """Layer shapes of VGG-16 at 224x224.

    Not evaluated by the paper, but the standard second workload of the PIM
    literature (PRIME/ISAAC/PIM-Prune all report it); provided so the
    simulator and designer generalise beyond residual networks.
    """
    builder = _SpecBuilder("VGG16", input_size)
    size = input_size
    channels = 3
    stage_config = [(64, 2), (128, 2), (256, 3), (512, 3), (512, 3)]
    for stage_idx, (width, convs) in enumerate(stage_config, start=1):
        for conv_idx in range(convs):
            size = builder.conv(f"conv{stage_idx}_{conv_idx + 1}", channels,
                                width, kernel=3, stride=1, in_size=size)
            channels = width
        size = (size[0] // 2, size[1] // 2)     # 2x2 max pool
    flat = channels * size[0] * size[1]
    builder.fc("fc1", flat, 4096)
    builder.fc("fc2", 4096, 4096)
    builder.fc("fc3", 4096, num_classes)
    return builder.spec


_REGISTRY = {
    "resnet18": resnet18_spec,
    "resnet34": resnet34_spec,
    "resnet50": resnet50_spec,
    "resnet101": resnet101_spec,
    "vgg16": vgg16_spec,
}


def get_network_spec(name: str, num_classes: int = 1000) -> NetworkSpec:
    """Look up a network spec by lowercase name (``"resnet50"`` etc.)."""
    try:
        factory = _REGISTRY[name.lower()]
    except KeyError:
        raise KeyError(f"unknown network {name!r}; choices: {sorted(_REGISTRY)}") from None
    return factory(num_classes)
