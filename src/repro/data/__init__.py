"""repro.data — deterministic synthetic datasets (the ImageNet stand-in).

See :mod:`repro.data.synthetic` for why a procedural texture task preserves the
accuracy *rankings* that the paper's ImageNet experiments measure.
"""

from .synthetic import (
    SyntheticImageConfig,
    SyntheticImageDataset,
    make_synthetic_classification,
)

__all__ = [
    "SyntheticImageConfig",
    "SyntheticImageDataset",
    "make_synthetic_classification",
]
