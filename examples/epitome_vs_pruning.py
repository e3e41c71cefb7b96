#!/usr/bin/env python
"""Epitome vs pruning on PIM (paper section 7.2 / Table 3).

Compares four compression strategies on the same trained substrate:

- Epitome alone (the paper's operator),
- Epitome + 50% element pruning of the epitome tensors (stacked),
- PIM-Prune at 50% and 75% (structured crossbar-aware pruning baseline),

reporting accuracy and the paper's parameter-compression metric (survivors
+ bitmap index overhead for pruning; virtual/actual for epitomes).  Also
prints the PIM-Prune *crossbar* compression on the full-size ResNet-50
shapes via the compaction model.

Run:  python examples/epitome_vs_pruning.py
"""

from repro.analysis.accuracy import PRESETS, AccuracyWorkbench
from repro.baselines.pim_prune import pim_prune_network
from repro.models.specs import resnet50_spec


def main():
    bench = AccuracyWorkbench(PRESETS["default"])

    print("accuracy & parameter compression (synthetic substrate):")
    _, ep_acc = bench.epitome_fp()
    print(f"  {'Epitome':<24s} acc {ep_acc * 100:5.1f}%  "
          f"CR {bench.epitome_param_compression():.2f}x")

    acc, cr = bench.epitome_pruned_accuracy(0.5)
    print(f"  {'Epitome + Pruning 50%':<24s} acc {acc * 100:5.1f}%  "
          f"CR {cr:.2f}x")

    for ratio in (0.5, 0.75):
        acc, cr = bench.pruned_baseline_accuracy(ratio)
        print(f"  {'PIM-Prune %d%%' % int(ratio * 100):<24s} "
              f"acc {acc * 100:5.1f}%  CR {cr:.2f}x")

    print("\nPIM-Prune crossbar compaction on full-size ResNet-50 shapes:")
    spec = resnet50_spec()
    for ratio in (0.5, 0.75):
        result = pim_prune_network(spec, ratio)
        print(f"  {int(ratio * 100)}%: param CR {result.param_compression:.2f}x, "
              f"crossbar CR {result.crossbar_compression:.2f}x "
              f"({result.crossbars} crossbars)")
    print("\npaper reference (ImageNet): Epitome 74.00%/2.25x; "
          "Epitome+Pruning 73.18%/3.49x; PIM-Prune 50% 72.77%/1.80x; "
          "PIM-Prune 75% 72.19%/3.38x")


if __name__ == "__main__":
    main()
