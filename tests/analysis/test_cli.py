"""Tests for the command-line interface (repro.analysis.cli)."""

import argparse
import os
import subprocess
import sys
from pathlib import Path

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

    def test_no_parser_matches_an_option_prefix(self):
        parsers, seen = [build_parser()], []
        while parsers:
            parser = parsers.pop()
            seen.append(parser.prog)
            assert parser.allow_abbrev is False, parser.prog
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    parsers.extend(action.choices.values())
        assert "python -m repro serve scenarios list" in seen

    @pytest.mark.parametrize("flag", ["--trace", "--metrics", "--save",
                                      "--export"])
    def test_an_input_flag_typo_reaches_no_output_flag(self, flag, capsys):
        """``--trace`` once parsed as ``--trace-out`` and overwrote the
        file it named."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["serve", flag, "t.json"])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err


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

    @pytest.mark.parametrize("command", ["figure3", "summary"])
    def test_refuses_resnet34_before_printing(self, command, capsys):
        """Its layer4.2.conv1 is no 1x1 2048->512 conv: exit 2, one line."""
        assert main([command, "--model", "resnet34"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: layer4.2.conv1 is a 3x3 512->512 conv in ResNet34, not "
            "the 1x1 2048->512 conv of ResNet50 that figure 3 plots as "
            "layer 67\n")


def test_a_reader_that_closes_the_pipe_early_is_no_error():
    """`repro figure3 | head -2`: the reading end is closed before the
    child (~0.5 s to import) writes, so every write meets a closed pipe.
    The child exits 1 and prints nothing about it."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    children = []
    for argv in (["figure3"], ["serve", "--num-requests", "500"]):
        read_end, write_end = os.pipe()
        children.append(subprocess.Popen(
            [sys.executable, "-m", "repro", *argv], stdout=write_end,
            stderr=subprocess.PIPE, env=env, text=True))
        os.close(write_end)
        os.close(read_end)
    for child in children:
        _, err = child.communicate(timeout=60)
        assert child.returncode == 1, err
        for marker in ("Traceback", "Exception ignored", "error:"):
            assert marker not in err, err
