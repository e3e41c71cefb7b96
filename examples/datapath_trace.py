#!/usr/bin/env python
"""Inspect the EPIM datapath: IFAT / IFRT / OFAT tables + exact execution.

Builds the paper's "1024x256" epitome for a 3x3 512->512 convolution,
prints the index tables the modified datapath uses (section 4.3), runs an
integer input through the functional crossbar pipeline — bit-sliced 2-bit
cells, bit-serial 1-bit DAC, sign-column correction, IFRT word-line gating,
OFAT/joint-module reassembly — and verifies the result equals the software
convolution bit for bit, with and without output channel wrapping.

Run:  python examples/datapath_trace.py
"""

import numpy as np

from repro import nn
from repro.core.epitome import EpitomeShape, build_plan
from repro.core.wrapping import wrapping_savings
from repro.nn import functional as F
from repro.pim.config import DEFAULT_CONFIG
from repro.pim.datapath import build_index_tables, execute_epitome_conv


def main():
    # A scaled version of the paper's flagship layer (full 512x512@3x3 runs
    # too, just slower): epitome rows x cols = 288 x 16.
    ci, co, k = 32, 32, 3
    shape = EpitomeShape.from_rows_cols(288, 16, (k, k), ci)
    plan = build_plan((co, ci, k, k), shape)
    print(f"epitome: {shape}")
    print(f"virtual conv: {co}x{ci}x{k}x{k} "
          f"({plan.num_virtual_weights:,} weights from "
          f"{plan.num_params:,} parameters = "
          f"{plan.compression:.2f}x compression)")
    print(f"sampling schedule: {plan.n_ci_blocks} input-channel blocks x "
          f"{plan.n_co_blocks} output tiles = "
          f"{len(plan.patches)} patches/activation rounds")

    reps = plan.repetition_counts()
    spatial = reps.sum(axis=(0, 1))
    print("\nspatial repetition profile (Fig. 2c — centre repeated more):")
    for row in spatial:
        print("   " + " ".join(f"{v:7d}" for v in row))

    tables = build_index_tables(plan, (8, 8))
    print(f"\n{tables.summary()}")

    savings = wrapping_savings(plan)
    print(f"\nchannel wrapping: r={savings.replication_factor}, "
          f"rounds {savings.rounds_without} -> {savings.rounds_with}, "
          f"buffer writes cut {savings.write_reduction:.1f}x")

    # Functional execution: exact integer equivalence.
    rng = np.random.default_rng(0)
    epitome_int = rng.integers(-16, 16, size=shape.as_tuple())
    x_int = rng.integers(0, 256, size=(1, ci, 8, 8))
    hw = execute_epitome_conv(x_int, epitome_int, plan, stride=1, padding=1,
                              config=DEFAULT_CONFIG, activation_bits=8,
                              weight_bits=6)
    hw_wrapped = execute_epitome_conv(x_int, epitome_int, plan, 1, 1,
                                      DEFAULT_CONFIG, 8, 6,
                                      use_wrapping=True)
    w_virtual = plan.reconstruct(epitome_int)
    sw = F.conv2d(nn.Tensor(x_int.astype(np.float64)),
                  nn.Tensor(w_virtual.astype(np.float64)),
                  None, 1, 1).data.astype(np.int64)
    print("\nfunctional check: datapath == software conv: "
          f"{np.array_equal(hw, sw)}")
    print("functional check: wrapped == unwrapped:        "
          f"{np.array_equal(hw, hw_wrapped)}")


if __name__ == "__main__":
    main()
