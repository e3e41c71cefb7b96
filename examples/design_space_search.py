#!/usr/bin/env python
"""Layer-wise epitome design for ResNet-50 via (vectorized) evolutionary search.

Reproduces the workflow behind Table 1's "Latency-Opt"/"Energy-Opt" rows
and Figure 4 (section 5.2, Algorithm 1): given a crossbar budget, search
the per-layer epitome design space (the paper quotes ~2x10^7 combinations
for its grid; ours is larger) for the deployment minimising latency,
energy, or EDP — then trade the scalar knob for the full Pareto front of
latency x energy x crossbars, the view a serving fleet actually picks
operating points from.

The search runs on ``repro.search``: populations are integer index
arrays scored by numpy gathers over the grid's lookup matrices, restarts
can fan out across processes, and the same engine backs the
``python -m repro search`` CLI.

Run:  python examples/design_space_search.py
"""

from repro.models.specs import resnet50_spec
from repro.pim.simulator import baseline_deployment, simulate_network
from repro.search import (
    EvoSearchConfig,
    build_candidate_grid,
    evolution_search,
    pareto_search,
)
from repro.core.designer import build_deployments, uniform_assignment


def main():
    spec = resnet50_spec()
    print(f"workload: {spec.name}, {len(spec)} weight layers, "
          f"{spec.total_weights / 1e6:.1f} M weights @224x224")

    # Baseline (no epitomes) at W9A9 fixes the crossbar reference.
    base = simulate_network([baseline_deployment(l, 9, 9) for l in spec])
    print(f"baseline: {base.num_crossbars} crossbars, "
          f"{base.latency_ms:.1f} ms, {base.energy_mj:.1f} mJ")

    # Uniform 1024x256 epitomes (the paper's hand design).
    uniform = simulate_network(build_deployments(
        spec, uniform_assignment(spec), weight_bits=9, activation_bits=9))
    print(f"uniform 1024x256: {uniform.num_crossbars} crossbars "
          f"(CR {base.num_crossbars / uniform.num_crossbars:.2f}x), "
          f"{uniform.latency_ms:.1f} ms, {uniform.energy_mj:.1f} mJ")

    # Evolutionary search under the same crossbar budget, per objective.
    grid = build_candidate_grid(spec, weight_bits=9, activation_bits=9,
                                use_wrapping=True)
    print(f"design space: {grid.design_space_size:.3e} combinations")
    budget = uniform.num_crossbars
    for objective in ("latency", "energy", "edp"):
        result = evolution_search(
            grid, budget,
            EvoSearchConfig(population_size=64, iterations=60,
                            objective=objective, seed=0))
        ev = result.eval
        print(f"  {objective:>8s}-opt: {ev.crossbars} crossbars "
              f"(CR {base.num_crossbars / ev.crossbars:.2f}x), "
              f"{ev.latency_ms:6.1f} ms, {ev.energy_mj:5.1f} mJ, "
              f"EDP {ev.edp:7.1f}  "
              f"[{len(result.assignment)} layers converted]")

    # The multi-objective view: the whole latency/energy/crossbars front
    # in one search instead of one scalar optimum per run.
    front = pareto_search(grid, budget,
                          EvoSearchConfig(population_size=64, iterations=40,
                                          restarts=2, seed=0))
    knee = front.knee()
    print(f"\nPareto front (latency x energy x crossbars): "
          f"{len(front)} non-dominated designs")
    for point in front.points[:8]:
        marker = "  <- knee (min EDP)" if point.eval == knee.eval else ""
        print(f"  {point.eval.crossbars:4d} XBs  "
              f"{point.eval.latency_ms:6.1f} ms  "
              f"{point.eval.energy_mj:5.1f} mJ  "
              f"EDP {point.eval.edp:7.1f}{marker}")
    if len(front) > 8:
        print(f"  ... {len(front) - 8} more")

    # Show a slice of the winning layer-wise design.
    result = evolution_search(grid, budget,
                              EvoSearchConfig(objective="edp", seed=0))
    print("\nper-layer choices of the EDP-optimal design (first 12):")
    for name, choice in list(result.assignment.items())[:12]:
        print(f"  {name:<22s} -> {choice[0]}x{choice[1]}")


if __name__ == "__main__":
    main()
