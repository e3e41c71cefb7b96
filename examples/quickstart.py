#!/usr/bin/env python
"""Quickstart: the EPIM flow in ~60 lines.

Builds a small convolutional ResNet, replaces its convolutions with
epitomes (the paper's compact PIM-friendly operator), trains on a synthetic
classification task, applies epitome-aware 3-bit quantization, and deploys
the result on the simulated PIM accelerator — printing the compression,
accuracy and hardware numbers the paper's Table 1 reports.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.core.equant import EpitomeQuantConfig
from repro.core.pipeline import EpimPipeline, EpimPipelineConfig
from repro.data import make_synthetic_classification
from repro.models.resnet import resnet20
from repro.nn.data import DataLoader
from repro.nn.training import TrainConfig


def main():
    # 1. Data: a deterministic synthetic stand-in for ImageNet (the
    #    repro.data.synthetic docstring explains why this preserves the
    #    paper's rankings).
    train_set, val_set = make_synthetic_classification(
        num_train=1024, num_val=256, num_classes=8, image_size=16,
        noise=1.0)
    train_loader = DataLoader(train_set, batch_size=64, shuffle=True,
                              rng=np.random.default_rng(0))
    val_loader = DataLoader(val_set, batch_size=128)

    # 2. Model: a plain convolutional ResNet-20.
    model = resnet20(num_classes=8)
    print(f"baseline parameters: {model.num_parameters():,}")

    # 3. The EPIM pipeline: design -> train -> quantize -> deploy (Fig. 2a).
    pipeline = EpimPipeline(EpimPipelineConfig(
        epitome_rows=128, epitome_cols=32,      # the layer epitome budget
        use_wrapping=True,                      # output channel wrapping
        train=TrainConfig(epochs=4, lr=0.05),
        quant=EpitomeQuantConfig(bits=3, mode="crossbar_overlap"),
        qat_epochs=2,
    ))
    result = pipeline.run(model, train_loader, val_loader,
                          input_size=(16, 16))

    # 4. Report.
    print(f"epitome parameters:  {int(result.compression['params']):,} "
          f"({result.compression['compression']:.2f}x compression)")
    print("top-1 accuracy (3-bit, epitome-aware quant): "
          f"{result.accuracy * 100:.1f}%")
    report = result.report
    print(f"PIM deployment: {report.num_crossbars} crossbars, "
          f"{report.latency_ms:.3f} ms, {report.energy_mj:.4f} mJ, "
          f"utilization {report.utilization * 100:.1f}%")
    print("(low utilization is a toy-scale artifact: these epitomes are far "
          "smaller than one 256x256 array; see "
          "examples/full_resnet50_deployment.py for the full-size numbers)")


if __name__ == "__main__":
    main()
