"""Benchmark: regenerate Figure 4 (design-optimization comparison).

Four methods at matched crossbar compression: Uniform epitomes,
EPIM-Channel-Wrapping, EPIM-Evo-Search, and EPIM-Opt (both).  Three panels:
(a) latency, (b) energy, (c) EDP.  Paper claims for EPIM-Opt vs Uniform at
similar compression: up to 3.07x speedup, 2.36x energy savings, 7.13x EDP
reduction.
"""


from repro.analysis.experiments import run_figure4
from repro.search import EvoSearchConfig


def test_figure4_latency_energy_edp(benchmark):
    result = benchmark.pedantic(
        lambda: run_figure4(
            search=EvoSearchConfig(population_size=48, iterations=40),
            verbose=False),
        rounds=1, iterations=1)
    print()
    print(result.rendered)

    for point in result.points:
        uniform = point.metrics["Uniform"]
        wrap = point.metrics["EPIM-CW"]
        opt = point.metrics["EPIM-Opt"]
        # wrapping never hurts latency or energy
        assert wrap[0] <= uniform[0] * 1.001
        assert wrap[1] <= uniform[1] * 1.001
        # the combined method dominates uniform on EDP
        assert opt[2] < uniform[2]

    # paper-scale gains at the higher-compression end of the sweep
    last = result.points[-1]
    speedup = last.metrics["Uniform"][0] / last.metrics["EPIM-Opt"][0]
    energy_gain = last.metrics["Uniform"][1] / last.metrics["EPIM-Opt"][1]
    edp_gain = last.metrics["Uniform"][2] / last.metrics["EPIM-Opt"][2]
    print(f"\n  EPIM-Opt vs Uniform at CR={last.compression:.1f}: "
          f"{speedup:.2f}x faster, {energy_gain:.2f}x less energy, "
          f"{edp_gain:.2f}x lower EDP "
          "(paper: up to 3.07x / 2.36x / 7.13x)")
    assert speedup > 2.0
    assert energy_gain > 1.8
    assert edp_gain > 5.0
