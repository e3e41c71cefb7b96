"""Accuracy-experiment presets: the size and budget of each training run.

Kept apart from :mod:`repro.analysis.accuracy` so the runners' defaults
and the CLI's ``--preset`` choices do not load the training stack:

- ``smoke``   — seconds; used by the integration tests;
- ``default`` — a few minutes; the ``run_table*`` runners' default;
- ``full``    — tens of minutes; the largest task and longest schedules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

if TYPE_CHECKING:       # pragma: no cover - typing only
    from ..nn.training import TrainConfig

__all__ = ["AccuracyPreset", "PRESETS"]


@dataclass(frozen=True)
class AccuracyPreset:
    """Size/budget of the accuracy experiments.

    ``noise`` sets task difficulty; it is tuned (1.2) so the trained models
    sit in the high-80s/low-90s — the regime where quantization-induced
    degradation is visible, mirroring the paper's ImageNet operating point.
    Presets that undertrain hide the rankings (a half-trained FP32 model
    can lose to a QAT run that simply trained longer).
    """

    name: str
    num_train: int
    num_val: int
    num_classes: int
    image_size: int
    epochs: int
    qat_epochs: int
    finetune_epochs: int
    lr: float = 0.05
    batch_size: int = 32
    noise: float = 1.2
    seed: int = 0
    epitome_rows: int = 128
    epitome_cols: int = 32
    # Crossbar size used for the *quantization grouping* on the scaled
    # substrate models.  The paper's 1024-row epitomes span 4+ arrays of
    # 256 rows; our 128-row epitomes span 2+ arrays of 64 rows — same
    # groups-per-epitome ratio, so the per-crossbar-scale mechanism
    # (section 4.2) is exercised rather than degenerate.
    quant_xbar: int = 64

    def train_config(self, epochs: Optional[int] = None,
                     lr: Optional[float] = None) -> TrainConfig:
        from ..nn.training import TrainConfig

        return TrainConfig(epochs=epochs if epochs is not None else self.epochs,
                           lr=lr if lr is not None else self.lr)


PRESETS: Dict[str, AccuracyPreset] = {
    "smoke": AccuracyPreset(
        name="smoke", num_train=512, num_val=192, num_classes=10,
        image_size=16, epochs=6, qat_epochs=2, finetune_epochs=2),
    "default": AccuracyPreset(
        name="default", num_train=1024, num_val=320, num_classes=10,
        image_size=16, epochs=8, qat_epochs=3, finetune_epochs=3),
    "full": AccuracyPreset(
        name="full", num_train=4096, num_val=1024, num_classes=10,
        image_size=32, epochs=15, qat_epochs=5, finetune_epochs=5),
}
