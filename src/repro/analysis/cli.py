"""Command-line interface: regenerate any paper artefact from the shell.

Usage::

    python -m repro table1 [--model resnet50|resnet101] [--preset smoke]
    python -m repro table2 [--preset default]
    python -m repro table3 [--preset default]
    python -m repro figure3 [--model resnet50]
    python -m repro figure4 [--model resnet50]
    python -m repro summary            # hardware-only overview, no training
    python -m repro search [...]       # design-space search (repro.search.cli)
    python -m repro serve [...]        # serving runtime (repro.serve.cli)
    python -m repro bench [...]        # benchmark harness (repro.bench.cli)
    python -m repro obs [...]          # trace/metrics artifacts (repro.obs.cli)
    python -m repro lint [...]         # static analysis (repro.lint.cli)

``--preset`` controls the accuracy-side cost (smoke | default | full); the
hardware columns are always exact.  ``--no-accuracy`` skips training
entirely for table1.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .experiments import run_figure3, run_figure4, run_table1, run_table2, run_table3
from .presets import PRESETS
from ..bench.cli import add_bench_parser, run_bench
from ..lint.cli import add_lint_parser, run_lint_cli
from ..models.specs import get_network_spec
from ..obs.cli import add_obs_parser, run_obs
from ..search.cli import add_search_parser, run_search_cli
from ..serve.cli import add_serve_parser, run_serve

__all__ = ["main", "build_parser"]


class _WholeNameParser(argparse.ArgumentParser):
    """Matches options by their whole names only: by prefix, a mistyped
    input flag reaches an output flag, and ``serve --trace t.json``
    writes spans over ``t.json`` as ``--trace-out``.  ``add_subparsers``
    builds each subcommand's parser with its parent's class, so this
    reaches every one."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _WholeNameParser(
        prog="python -m repro",
        description="Regenerate the EPIM paper's tables and figures.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, model: bool = False, preset: bool = False):
        if model:
            p.add_argument("--model", default="resnet50",
                           choices=["resnet18", "resnet34", "resnet50",
                                    "resnet101"],
                           help="full-size network for the hardware columns")
        if preset:
            p.add_argument("--preset", default="smoke",
                           choices=sorted(PRESETS),
                           help="accuracy experiment scale")

    p1 = sub.add_parser("table1", help="main results (Table 1)")
    add_common(p1, model=True, preset=True)
    p1.add_argument("--no-accuracy", action="store_true",
                    help="hardware columns only (no training)")

    p2 = sub.add_parser("table2", help="quantization ablation (Table 2)")
    add_common(p2, preset=True)

    p3 = sub.add_parser("table3", help="epitome vs pruning (Table 3)")
    add_common(p3, preset=True)

    f3 = sub.add_parser("figure3", help="per-layer costs (Figure 3)")
    add_common(f3, model=True)

    f4 = sub.add_parser("figure4", help="design optimization sweep (Figure 4)")
    add_common(f4, model=True)

    s = sub.add_parser("summary",
                       help="hardware overview of every artefact (fast)")
    add_common(s, model=True)

    add_search_parser(sub)
    add_serve_parser(sub)
    add_bench_parser(sub)
    add_obs_parser(sub)
    add_lint_parser(sub)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = _run(args)
        sys.stdout.flush()      # a closed pipe raises here, not at exit
    except BrokenPipeError:
        # The reader closed the pipe early (`repro figure3 | head -2`),
        # which is no error. As Python's SIGPIPE note advises, point
        # stdout at devnull so the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


def _run(args: argparse.Namespace) -> int:
    if args.command in ("figure3", "summary"):
        # Checked before anything prints: `summary` would otherwise print
        # Table 1 and then fail on Figure 3.
        from .hardware import figure3_layers

        try:
            figure3_layers(get_network_spec(args.model))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    if args.command == "table1":
        run_table1(args.model, preset=PRESETS[args.preset],
                   with_accuracy=not args.no_accuracy)
    elif args.command == "table2":
        run_table2(preset=PRESETS[args.preset])
    elif args.command == "table3":
        run_table3(preset=PRESETS[args.preset])
    elif args.command == "figure3":
        run_figure3(args.model)
    elif args.command == "figure4":
        run_figure4(args.model)
    elif args.command == "summary":
        run_table1(args.model, with_accuracy=False)
        print()
        run_figure3(args.model)
        print()
        run_figure4(args.model)
    elif args.command == "search":
        return run_search_cli(args)
    elif args.command == "serve":
        return run_serve(args)
    elif args.command == "bench":
        return run_bench(args)
    elif args.command == "obs":
        return run_obs(args)
    elif args.command == "lint":
        return run_lint_cli(args)
    return 0


if __name__ == "__main__":      # pragma: no cover - exercised via __main__
    sys.exit(main())
