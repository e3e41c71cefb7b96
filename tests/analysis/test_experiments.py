"""Tests for the top-level experiment runners.

The hardware-only paths are checked for structure, rendering and speed.
The accuracy-bearing drivers (Table 1 with accuracy, Tables 2 and 3) run
once on a preset small enough for tier-1, which checks that they run and
render, not how their accuracies rank.
"""

from pathlib import Path

import pytest

from repro.analysis.accuracy import AccuracyPreset, AccuracyWorkbench
from repro.analysis.experiments import (
    run_figure3,
    run_figure4,
    run_search,
    run_table1,
    run_table2,
    run_table3,
)
from repro.analysis.hardware import FIGURE4_UNIFORM_LADDER
from repro.search import EvoSearchConfig

from tests.helpers import check_json_golden

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "baselines" / "paper"


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


class TestAccuracyDrivers:
    def test_tables_render_on_a_tiny_preset(self):
        """64 training and 32 validation 8x8 images, one epoch of each
        phase.  That is too little training for accuracy ranks, so only
        the range of each accuracy is checked; Table 3's compression rates
        do not depend on training, so their order is."""
        preset = AccuracyPreset(name="tiny", num_train=64, num_val=32,
                                num_classes=10, image_size=8, epochs=1,
                                qat_epochs=1, finetune_epochs=1)
        bench = AccuracyWorkbench(preset)

        # ResNet-18's hardware rows are the cheapest to build; ResNet-50's
        # are pinned in test_hardware.py.
        table1 = run_table1("resnet18", preset=preset, workbench=bench,
                            verbose=False)
        assert set(table1.accuracy) == {
            "FP32 baseline", "EPIM FP32", "EPIM W9A9", "EPIM W7A9",
            "EPIM W5A9", "EPIM W3mpA9", "EPIM W3A9", "PIM-Prune"}
        for row in table1.hardware_rows:
            assert row.model in table1.rendered

        table2 = run_table2(preset=preset, workbench=bench, verbose=False)
        assert len(table2.accuracies) == 6
        assert len(table2.ptq_accuracies) == 3
        assert "(3-5 bit, QAT)" in table2.rendered
        assert "(3-bit, PTQ)" in table2.rendered

        table3 = run_table3(preset=preset, workbench=bench, verbose=False)
        rows = {row["Method"]: row for row in table3.rows}
        assert list(rows) == ["Epitome", "Epitome + Pruning 50%",
                              "PIM-Prune 50%", "PIM-Prune 75%"]
        for method in rows:
            assert method in table3.rendered
        assert (rows["Epitome + Pruning 50%"]["Compress. Rate"]
                > rows["Epitome"]["Compress. Rate"])

        accuracies = [*table1.accuracy.values(),
                      *table2.accuracies.values(),
                      *table2.ptq_accuracies.values(),
                      *(row["Accuracy(%)"] / 100 for row in rows.values())]
        assert all(0.0 <= acc <= 1.0 for acc in accuracies)


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

    def test_default_ladder_tabulates_only_designs_within_budget(
            self, update_goldens):
        """Every numeric EPIM-Evo/EPIM-Opt cell of the default ladder is a
        design within its point's crossbar budget.  At (128, 32) the
        budget is below every candidate design, so both cells are '-'.
        The points themselves are pinned by ``float.hex`` in
        ``tests/baselines/paper/figure4-resnet50.json``."""
        result = run_figure4(verbose=False)
        points = result.points
        assert [p.uniform_shape for p in points] == FIGURE4_UNIFORM_LADDER
        payload = [{"uniform_shape": list(point.uniform_shape),
                    "target_crossbars": point.target_crossbars,
                    "compression": point.compression.hex(),
                    "metrics": {method: [value.hex() for value in values]
                                for method, values in point.metrics.items()},
                    "crossbars": point.crossbars}
                   for point in points]
        check_json_golden(GOLDEN_DIR / "figure4-resnet50.json", payload,
                          update_goldens)
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
