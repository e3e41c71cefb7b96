"""``python -m repro lint``: the static-analysis gate.

Usage::

    python -m repro lint                     # lint src/ against the
                                             # baseline
    python -m repro lint --format=github     # CI annotations
    python -m repro lint --update-baseline   # re-record current findings
    python -m repro lint --list-rules        # rule catalog
    python -m repro lint path/to/file.py --no-baseline --select D,M

Exit codes: 0 clean, 1 unbaselined findings, 2 usage/config error.
The rule catalog and suppression policy live in docs/static-analysis.md.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .report import FORMATS

# The engine and the rules load in run_lint_cli: every ``repro`` command
# builds this parser, and only ``repro lint`` runs them.

__all__ = ["add_lint_parser", "run_lint_cli"]


def add_lint_parser(subparsers) -> argparse.ArgumentParser:
    p = subparsers.add_parser(
        "lint",
        help="project-aware static analysis (determinism / metric "
             "namespace / hot-loop / contract rules)")
    p.add_argument("paths", nargs="*", default=None,
                   help="files or directories to lint (default: src)")
    p.add_argument("--root", default=".",
                   help="repository root (baseline/docs are resolved "
                        "against it)")
    p.add_argument("--format", default="human", choices=sorted(FORMATS),
                   help="finding output format")
    p.add_argument("--select", default="",
                   help="comma-separated rule-id prefixes to run "
                        "(e.g. 'D,M20')")
    p.add_argument("--ignore", default="",
                   help="comma-separated rule-id prefixes to skip")
    p.add_argument("--baseline", default="lint-baseline.json",
                   help="baseline file (repo-root relative)")
    p.add_argument("--no-baseline", action="store_true",
                   help="ignore the baseline file entirely")
    p.add_argument("--update-baseline", action="store_true",
                   help="rewrite the baseline from the current findings "
                        "and exit 0")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalog and exit")
    return p


def run_lint_cli(args: argparse.Namespace) -> int:
    from .baseline import Baseline
    from .config import LintConfig
    from .engine import LintError, run_lint
    from .report import render
    from .rules import RULES, all_rule_ids

    if args.list_rules:
        for rule_id in all_rule_ids():
            rule = RULES[rule_id]
            print(f"{rule_id}  {rule.name:<28} {rule.summary}")
        return 0
    config = LintConfig(
        root=Path(args.root).resolve(),
        paths=tuple(args.paths) if args.paths else ("src",),
        select=tuple(t.strip() for t in args.select.split(",")
                     if t.strip()),
        ignore=tuple(t.strip() for t in args.ignore.split(",")
                     if t.strip()),
        baseline_path=None if args.no_baseline else args.baseline,
    )
    try:
        result = run_lint(config)
    except LintError as exc:
        print(f"reprolint: error: {exc}", file=sys.stderr)
        return 2
    if args.update_baseline:
        baseline = Baseline.from_findings(result.findings
                                          + result.baselined)
        path = baseline.write(config.resolve(args.baseline))
        print(f"baseline updated: {len(baseline)} finding(s) "
              f"recorded in {path}")
        return 0
    render(result, args.format, sys.stdout)
    return result.exit_code
