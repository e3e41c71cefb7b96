#!/usr/bin/env python
"""Epitome-aware quantization ablation (paper section 4.2 / Table 2).

Trains one epitome network, then compares the three quantization modes at
3 bits:

1. naive       — one min/max scaling factor for the whole layer;
2. crossbar    — one scaling factor per crossbar tile (parallel crossbars
                 make this free at runtime);
3. crossbar_overlap — additionally blend the clipping range toward the
                 highly-repeated overlap region of the epitome (Eqs. 4-5).

Also demonstrates HAWQ-style mixed precision (the W3mp rows): genuine
Hessian-trace sensitivities via finite-difference Hutchinson estimation
drive a 3/5-bit per-layer allocation.

Run:  python examples/quantization_ablation.py
"""

from collections import Counter

from repro.analysis.accuracy import PRESETS, AccuracyWorkbench


def main():
    preset = PRESETS["default"]
    bench = AccuracyWorkbench(preset)

    _, fp_acc = bench.epitome_fp()
    print(f"FP32 epitome accuracy: {fp_acc * 100:.1f}%")
    print("epitome parameter compression: "
          f"{bench.epitome_param_compression():.2f}x\n")

    print("3-bit quantization (QAT fine-tuned):")
    for mode, label in (("naive", "naive min/max"),
                        ("crossbar", "+ per-crossbar scales"),
                        ("crossbar_overlap", "+ overlap-weighted range")):
        acc = bench.quantized_accuracy(3, mode=mode,
                                       cache_key=f"ex-t2-{mode}")
        print(f"  {label:<26s} {acc * 100:5.1f}%")

    print("\nHAWQ mixed precision (3/5-bit):")
    bit_map = bench.hawq_bit_map()
    print(f"  allocation: {dict(Counter(bit_map.values()))}")
    mp_acc = bench.quantized_accuracy(3, bit_map=bit_map,
                                      cache_key="ex-t2-mp")
    print(f"  W3mp accuracy: {mp_acc * 100:.1f}%  "
          "(uniform 3-bit: "
          f"{bench.quantized_accuracy(3, cache_key='ex-t2-crossbar_overlap3') * 100:.1f}%)")
    print("\npaper reference (ImageNet ResNet-50): "
          "69.95 -> 71.35 -> 71.59 at 3-bit; W3mp 72.98")


if __name__ == "__main__":
    main()
