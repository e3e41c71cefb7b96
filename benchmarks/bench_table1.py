"""Benchmark: regenerate Table 1 (main results).

Hardware columns (crossbars, CR, latency, energy, utilization) are exact
reproductions on the full-size ResNet-50/101 shapes; the accuracy column is
measured on the synthetic substrate at the configured preset (see
conftest).  The printed tables parallel the paper's Table 1 row for row.
"""


from repro.analysis.experiments import run_table1
from repro.analysis.hardware import table1_hardware_rows
from repro.search import EvoSearchConfig


def test_table1_resnet50_hardware(benchmark):
    """Hardware columns for ResNet-50 (the paper's top block)."""
    rows = benchmark.pedantic(
        lambda: table1_hardware_rows(
            "resnet50",
            search=EvoSearchConfig(population_size=48, iterations=40)),
        rounds=1, iterations=1)
    base = rows[0]
    w3 = next(r for r in rows if r.bitwidth == "W3A9")
    print()
    for row in rows:
        print(f"  {row.model:<28s} {row.bitwidth:<7s} "
              f"XBs={row.xbars if row.xbars else '-':>6} "
              f"CR={row.cr:6.2f} "
              f"lat={row.latency_ms if row.latency_ms else float('nan'):7.1f}ms "
              f"E={row.energy_mj if row.energy_mj else float('nan'):7.1f}mJ")
    assert w3.cr > 15        # paper: 30.65x (shape: >15x)
    assert base.cr == 1.0


def test_table1_resnet101_hardware(benchmark):
    """Hardware columns for ResNet-101 (the paper's bottom block)."""
    rows = benchmark.pedantic(
        lambda: table1_hardware_rows(
            "resnet101", include_opt_rows=False,
            search=EvoSearchConfig(population_size=32, iterations=25)),
        rounds=1, iterations=1)
    print()
    for row in rows:
        print(f"  {row.model:<28s} {row.bitwidth:<7s} CR={row.cr:6.2f}")
    w3 = next(r for r in rows if r.bitwidth == "W3A9")
    assert w3.cr > 15        # paper: 31.22x


def test_table1_full_with_accuracy(benchmark, workbench, preset):
    """The complete Table 1 including the synthetic-substrate accuracy
    column (rankings, not absolute ImageNet numbers)."""
    result = benchmark.pedantic(
        lambda: run_table1("resnet50", preset=preset, workbench=workbench,
                           verbose=False),
        rounds=1, iterations=1)
    print()
    print(result.rendered)
    acc = result.accuracy
    # Ranking claims that must survive the substrate swap:
    assert acc["EPIM W9A9"] >= acc["EPIM W3A9"] - 0.05
    assert acc["EPIM FP32"] >= acc["EPIM W3A9"] - 0.10
