"""Tests for the top-level experiment runners (hardware-only paths).

Accuracy-bearing runners are exercised end-to-end by the benchmark harness;
here we verify structure, rendering and the hardware-only code paths stay
correct and fast.
"""

import pytest

from repro.analysis.experiments import (
    run_figure3,
    run_figure4,
    run_search,
    run_table1,
)
from repro.analysis.hardware import FIGURE4_UNIFORM_LADDER
from repro.search import EvoSearchConfig


class TestRunTable1HardwareOnly:
    @pytest.fixture(scope="class")
    def result(self):
        return run_table1("resnet50", with_accuracy=False, verbose=False)

    def test_rendered_contains_all_rows(self, result):
        text = result.rendered
        for token in ("ResNet50", "EPIM-ResNet50", "PIM-Prune",
                      "W9A9", "W3A9", "Latency-Opt", "Energy-Opt"):
            assert token in text

    def test_accuracy_column_dashes(self, result):
        assert result.accuracy == {}
        # accuracy cells render as '-'
        lines = result.rendered.splitlines()
        data_lines = [l for l in lines if "EPIM" in l]
        assert all("-" in l for l in data_lines)

    def test_hardware_rows_structured(self, result):
        assert len(result.hardware_rows) == 10


class TestRunFigure3:
    def test_returns_rows_and_text(self):
        result = run_figure3(verbose=False)
        assert len(result.rows) == 3
        assert "Figure 3" in result.rendered
        assert "layer4" in result.rendered


class TestRunSearch:
    SMALL = EvoSearchConfig(population_size=16, iterations=5, restarts=1)

    def test_scalar_objective_renders_and_meets_budget(self):
        outcome = run_search("resnet18", objective="latency",
                             search=self.SMALL, verbose=False)
        assert "latency-opt" in outcome.rendered
        assert outcome.result.eval.crossbars <= outcome.budget
        assert outcome.front is None
        assert outcome.baseline_crossbars > outcome.budget

    def test_pareto_objective_renders_front(self):
        outcome = run_search("resnet18", objective="pareto",
                             search=self.SMALL, verbose=False)
        assert outcome.front is not None and len(outcome.front) >= 1
        assert "*knee" in outcome.rendered
        assert all(p.eval.crossbars <= outcome.budget
                   for p in outcome.front)

    def test_absolute_budget_wins_over_fraction(self):
        outcome = run_search("resnet18", objective="edp", budget=250,
                             search=self.SMALL, verbose=False)
        assert outcome.budget == 250


class TestRunFigure4:
    def test_blocks_rendered(self):
        result = run_figure4(
            ladder=[(1024, 256), (512, 128)],
            search=EvoSearchConfig(population_size=16, iterations=6),
            verbose=False)
        assert "Figure 4a" in result.rendered
        assert "Figure 4b" in result.rendered
        assert "Figure 4c" in result.rendered
        assert len(result.points) == 2
        for point in result.points:
            assert set(point.metrics) == {"Uniform", "EPIM-CW",
                                          "EPIM-Evo", "EPIM-Opt"}

    def test_default_ladder_tabulates_only_designs_within_budget(self):
        """Every numeric EPIM-Evo/EPIM-Opt cell of the default ladder is a
        design within its point's crossbar budget.  At (128, 32) the
        budget is below every candidate design, so both cells are '-'."""
        result = run_figure4(verbose=False)
        points = result.points
        assert [p.uniform_shape for p in points] == FIGURE4_UNIFORM_LADDER
        blocks = result.rendered.split("\n\n")
        assert len(blocks) == 3
        for block in blocks:
            lines = block.splitlines()
            header = lines[1].split()
            rows = [line.split() for line in lines[3:3 + len(points)]]
            for point, row in zip(points, rows):
                cells = dict(zip(header, row))
                for method in ("EPIM-Evo", "EPIM-Opt"):
                    if cells[method] != "-":
                        float(cells[method])
                        assert point.crossbars[method] <= \
                            point.target_crossbars, (point, method)
                    if point.uniform_shape == (128, 32):
                        assert cells[method] == "-"
                        assert point.crossbars[method] > \
                            point.target_crossbars
        assert result.rendered.endswith(
            "- : no design found within the uniform design's crossbar count")
