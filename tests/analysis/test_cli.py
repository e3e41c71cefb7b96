"""Tests for the command-line interface (repro.analysis.cli)."""

import pytest

from repro.analysis.cli import build_parser, main


class TestParser:
    def test_commands_registered(self):
        parser = build_parser()
        for command in ("table1", "table2", "table3", "figure3", "figure4",
                        "summary"):
            args = parser.parse_args([command] if command not in
                                     ("table2", "table3")
                                     else [command])
            assert args.command == command

    def test_table1_flags(self):
        parser = build_parser()
        args = parser.parse_args(["table1", "--model", "resnet101",
                                  "--preset", "default", "--no-accuracy"])
        assert args.model == "resnet101"
        assert args.preset == "default"
        assert args.no_accuracy

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--model", "vgg"])


class TestExecution:
    def test_figure3_runs(self, capsys):
        assert main(["figure3"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out

    def test_table1_no_accuracy_runs(self, capsys):
        assert main(["table1", "--no-accuracy"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "EPIM-ResNet50" in out

    def test_figure3_rejects_a_model_without_its_layers(self, capsys):
        """ResNet-18 has no 'layer3.2.conv2': exit 2, one error line."""
        assert main(["figure3", "--model", "resnet18"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ResNet18 has no layer named "
                                       "'layer3.2.conv2'")

    def test_summary_rejects_it_before_printing_table1(self, capsys):
        assert main(["summary", "--model", "resnet18"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ResNet18 has no layer named "
                                       "'layer3.2.conv2'")
