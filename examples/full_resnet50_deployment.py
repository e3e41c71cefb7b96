#!/usr/bin/env python
"""Deploy full-size ResNet-50/101 on the simulated PIM accelerator.

Regenerates the hardware side of the paper's Table 1 on the exact
torchvision layer shapes at 224x224: crossbar counts, compression rates,
latency, energy, memristor utilization — for the FP32 baseline, the uniform
1024x256 epitome, and the quantized W9/W7/W5/W3 deployments — plus the
chip floorplan (tiles/PEs/ADCs/area) for two of them.

Run:  python examples/full_resnet50_deployment.py
"""

from repro.analysis.tables import Table
from repro.core.designer import build_deployments, uniform_assignment
from repro.models.specs import get_network_spec
from repro.pim.accelerator import build_floorplan
from repro.pim.simulator import baseline_deployment, simulate_network


def deploy(spec, assignment=None, w_bits=None, a_bits=None, wrap=False):
    if assignment is None:
        deps = [baseline_deployment(l, weight_bits=w_bits,
                                    activation_bits=a_bits) for l in spec]
    else:
        deps = build_deployments(spec, assignment, weight_bits=w_bits,
                                 activation_bits=a_bits, use_wrapping=wrap)
    return simulate_network(deps)


def main():
    for model_name in ("resnet50", "resnet101"):
        spec = get_network_spec(model_name)
        uniform = uniform_assignment(spec, 1024, 256)
        base = deploy(spec)

        table = Table(["Config", "#XBs", "CR", "Latency(ms)", "Energy(mJ)",
                       "Util(%)"],
                      title=f"\n{spec.name} @224x224 on the PIM fabric")
        rows = [("FP32 baseline", deploy(spec)),
                ("EPIM FP32 1024x256", deploy(spec, uniform)),
                ("EPIM W9A9", deploy(spec, uniform, 9, 9, wrap=True)),
                ("EPIM W7A9", deploy(spec, uniform, 7, 9, wrap=True)),
                ("EPIM W5A9", deploy(spec, uniform, 5, 9, wrap=True)),
                ("EPIM W3A9", deploy(spec, uniform, 3, 9, wrap=True))]
        for label, report in rows:
            table.add_row(label, report.num_crossbars,
                          base.num_crossbars / report.num_crossbars,
                          report.latency_ms, report.energy_mj,
                          report.utilization * 100)
        print(table)

        print("\nchip floorplans:")
        for label, report in (rows[0], rows[-1]):
            plan = build_floorplan(report)
            print(f"--- {label} ---")
            print(plan.summary())

        print("\nenergy breakdown of EPIM W9A9 (mJ):")
        for key, value in sorted(rows[2][1].energy_breakdown().items()):
            print(f"  {key:<14s} {value / 1e9:8.2f}")


if __name__ == "__main__":
    main()
