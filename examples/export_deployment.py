#!/usr/bin/env python
"""Export a trained, quantized EPIM model as a deployment package.

Demonstrates the artefacts a real PIM toolchain would consume after the
EPIM flow: a checkpoint (.npz with the epitome parameters) and a JSON
deployment manifest recording, per layer, the crossbar allocation, the
quantization scales configuring the shift-add rescalers, the channel
wrapping factor, and (optionally) the IFAT/IFRT/OFAT index tables.

Run:  python examples/export_deployment.py
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from repro.core.designer import convert_model
from repro.core.equant import EpitomeQuantConfig
from repro.core.export import export_manifest, manifest_summary, write_manifest
from repro.data import make_synthetic_classification
from repro.models.resnet import resnet20
from repro.nn.data import DataLoader
from repro.nn.serialization import load_checkpoint, save_checkpoint
from repro.nn.training import TrainConfig, evaluate_accuracy, train_classifier


def main():
    # Train a small epitome network.
    train_set, val_set = make_synthetic_classification(
        num_train=512, num_val=192, num_classes=10, image_size=16, noise=1.2)
    train_loader = DataLoader(train_set, batch_size=32, shuffle=True,
                              rng=np.random.default_rng(0))
    val_loader = DataLoader(val_set, batch_size=192)
    model = resnet20(num_classes=10)
    converted = convert_model(model, rows=128, cols=32)
    print(f"converted {converted} conv layers to epitomes")
    train_classifier(model, train_loader, val_loader,
                     TrainConfig(epochs=4, lr=0.05))
    accuracy = evaluate_accuracy(model, val_loader)
    print(f"trained accuracy: {accuracy * 100:.1f}%")

    out_dir = Path(tempfile.mkdtemp(prefix="epim-deploy-"))

    # 1. Checkpoint: the trained epitome parameters.
    ckpt_path = out_dir / "model.npz"
    save_checkpoint(model, ckpt_path)
    print(f"\ncheckpoint written: {ckpt_path} "
          f"({ckpt_path.stat().st_size / 1024:.0f} KiB)")

    # Round-trip sanity: a fresh model restored from disk scores the same.
    clone = resnet20(num_classes=10)
    convert_model(clone, rows=128, cols=32)
    load_checkpoint(clone, ckpt_path)
    assert abs(evaluate_accuracy(clone, val_loader) - accuracy) < 1e-9
    print("checkpoint round-trip verified")

    # 2. Deployment manifest with 3-bit epitome-aware quantization scales.
    quant = EpitomeQuantConfig(bits=3, mode="crossbar_overlap")
    manifest = export_manifest(model, quant=quant, include_tables=True)
    manifest_path = out_dir / "manifest.json"
    write_manifest(manifest, manifest_path)
    print(f"manifest written:   {manifest_path} "
          f"({manifest_path.stat().st_size / 1024:.0f} KiB)\n")
    print(manifest_summary(manifest))

    # Peek at one layer's tables.
    entry = manifest["layers"][-1]
    print(f"\nlast layer ({entry['name']}) IFAT/OFAT:")
    print(json.dumps(entry["index_tables"]["ofat"][:4], indent=None))


if __name__ == "__main__":
    main()
