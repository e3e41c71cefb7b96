"""Deterministic synthetic image datasets — the offline ImageNet stand-in.

The paper's accuracy numbers come from ImageNet, which is unavailable here.
In its place we generate a *learnable* classification task that preserves
what the experiments actually measure: the accuracy RANKING across
configurations (FP32 > epitome FP32 > low-bit quantized; epitome-aware
quantization > naive quantization; epitome > aggressive pruning at matched
compression).

Each class is a procedural texture: a class-specific mixture of oriented
sinusoidal gratings and a Gaussian colour blob, perturbed per-sample by
random phase, shift, amplitude jitter and additive noise.  Difficulty is
controlled by ``noise`` and ``phase_jitter``; at the defaults a ResNet-20
reaches high-90s train / low-90s validation accuracy in a few epochs, leaving
visible head-room for quantization-induced degradation — the regime the
paper's tables live in.

Everything is seeded: identical arguments produce bit-identical datasets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..nn.data import ArrayDataset

__all__ = ["SyntheticImageConfig", "SyntheticImageDataset", "make_synthetic_classification"]


@dataclass(frozen=True)
class SyntheticImageConfig:
    """Parameters of the procedural texture task."""

    num_classes: int = 10
    image_size: int = 32
    channels: int = 3
    gratings_per_class: int = 3
    noise: float = 0.35
    phase_jitter: float = 1.0
    amplitude_jitter: float = 0.25
    seed: int = 1234


class SyntheticImageDataset(ArrayDataset):
    """Materialised synthetic dataset with ``images (N, C, H, W)`` float32.

    Parameters
    ----------
    num_samples:
        Total samples, distributed uniformly over classes.
    config:
        Task definition; the *class prototypes* are derived from
        ``config.seed`` so train and validation splits of the same task must
        share a config.
    split_seed:
        Seed for the per-sample randomness (phase, jitter, noise); use
        different values for train and validation.
    """

    def __init__(self, num_samples: int, config: SyntheticImageConfig,
                 split_seed: int = 0):
        self.config = config
        proto_rng = np.random.default_rng(config.seed)
        prototypes = _class_prototypes(config, proto_rng)
        sample_rng = np.random.default_rng((config.seed, split_seed))
        images, labels = _render_samples(num_samples, config, prototypes, sample_rng)
        super().__init__(images, labels)


def _class_prototypes(config: SyntheticImageConfig,
                      rng: np.random.Generator) -> dict:
    """Draw per-class grating banks and colour blobs."""
    k = config.num_classes
    g = config.gratings_per_class
    return {
        # orientation in radians, spatial frequency in cycles/image, weight
        "theta": rng.uniform(0.0, math.pi, size=(k, g)),
        "freq": rng.uniform(2.0, 6.0, size=(k, g)),
        "weight": rng.uniform(0.5, 1.0, size=(k, g)),
        # colour response of each channel to each grating
        "color": rng.uniform(-1.0, 1.0, size=(k, g, config.channels)),
        # blob centre (relative coords) and width
        "blob_xy": rng.uniform(0.25, 0.75, size=(k, 2)),
        "blob_sigma": rng.uniform(0.15, 0.3, size=(k,)),
        "blob_color": rng.uniform(-1.0, 1.0, size=(k, config.channels)),
    }


def _render_samples(num_samples: int, config: SyntheticImageConfig,
                    proto: dict, rng: np.random.Generator
                    ) -> Tuple[np.ndarray, np.ndarray]:
    size = config.image_size
    coords = (np.arange(size) + 0.5) / size
    yy, xx = np.meshgrid(coords, coords, indexing="ij")

    labels = np.arange(num_samples) % config.num_classes
    rng.shuffle(labels)
    images = np.empty((num_samples, config.channels, size, size), dtype=np.float32)

    for i, label in enumerate(labels):
        img = np.zeros((config.channels, size, size), dtype=np.float64)
        for j in range(config.gratings_per_class):
            theta = proto["theta"][label, j]
            freq = proto["freq"][label, j]
            phase = rng.uniform(0.0, 2.0 * math.pi) * config.phase_jitter
            amp = proto["weight"][label, j] * (
                1.0 + config.amplitude_jitter * rng.standard_normal())
            wave = np.sin(
                2.0 * math.pi * freq * (xx * math.cos(theta) + yy * math.sin(theta))
                + phase)
            for c in range(config.channels):
                img[c] += amp * proto["color"][label, j, c] * wave
        # class-specific colour blob with a small random shift
        bx, by = proto["blob_xy"][label] + rng.uniform(-0.08, 0.08, size=2)
        sigma = proto["blob_sigma"][label]
        blob = np.exp(-((xx - bx) ** 2 + (yy - by) ** 2) / (2.0 * sigma ** 2))
        for c in range(config.channels):
            img[c] += proto["blob_color"][label, c] * blob
        img += config.noise * rng.standard_normal(img.shape)
        images[i] = img.astype(np.float32)

    # normalise the whole dataset to zero mean / unit variance per channel
    mean = images.mean(axis=(0, 2, 3), keepdims=True)
    std = images.std(axis=(0, 2, 3), keepdims=True) + 1e-8
    images = (images - mean) / std
    return images, labels.astype(np.int64)


def make_synthetic_classification(
        num_train: int = 2000, num_val: int = 500,
        num_classes: int = 10, image_size: int = 32,
        noise: float = 0.35, seed: int = 1234,
        ) -> Tuple[SyntheticImageDataset, SyntheticImageDataset]:
    """Build matched train/validation splits of the synthetic task.

    Returns ``(train_dataset, val_dataset)`` sharing class prototypes but
    with independent per-sample randomness.
    """
    config = SyntheticImageConfig(num_classes=num_classes,
                                  image_size=image_size, noise=noise,
                                  seed=seed)
    train = SyntheticImageDataset(num_train, config, split_seed=1)
    val = SyntheticImageDataset(num_val, config, split_seed=2)
    return train, val
