"""``python -m repro obs`` — validate and summarize observability artifacts.

Examples::

    # validate a trace + metrics pair a serve run wrote
    python -m repro serve --num-requests 200 \
        --trace-out t.json --metrics-out m.prom
    python -m repro obs validate t.json m.prom

    # human-readable view of an exported metrics file
    python -m repro obs summarize m.prom
    python -m repro obs summarize m.jsonl

``validate`` exits 0 only when every file passes its structural
validator (Chrome trace-event schema, Prometheus text exposition, or
JSONL — see :mod:`repro.obs.validate`); CI pipes every smoke artifact
through it.  ``summarize`` renders a metrics file (either export format)
as the repo's standard table.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List

from .export import parse_prometheus_text
from .validate import iter_jsonl, validate_file

__all__ = ["add_obs_parser", "run_obs"]


def add_obs_parser(subparsers) -> argparse.ArgumentParser:
    """Register the ``obs`` subcommand on an existing subparser set."""
    p = subparsers.add_parser(
        "obs", help="observability artifacts: validate / summarize")
    obs_sub = p.add_subparsers(dest="obs_command", required=True)

    val = obs_sub.add_parser(
        "validate",
        help="structurally validate trace/metrics files (exit 0 = all ok)")
    val.add_argument("files", nargs="+", metavar="FILE",
                     help="Chrome trace JSON, Prometheus text, or JSONL")

    summ = obs_sub.add_parser(
        "summarize", help="render an exported metrics file as a table")
    summ.add_argument("file", metavar="FILE",
                      help="metrics file (.prom/.txt or .jsonl)")
    return p


def _cmd_validate(paths: List[str]) -> int:
    failures = 0
    for raw in paths:
        kind, problems = validate_file(raw)
        if problems:
            failures += 1
            print(f"{raw}: INVALID ({kind})")
            for problem in problems:
                print(f"  - {problem}")
        else:
            print(f"{raw}: ok ({kind})")
    if failures:
        print(f"{failures} of {len(paths)} file(s) failed validation",
              file=sys.stderr)
        return 1
    return 0


def _rows_from_prometheus(text: str) -> List[dict]:
    rows = []
    for name, family in sorted(parse_prometheus_text(text).items()):
        if family["type"] == "histogram":
            count = sum(v for s, _, v in family["samples"]
                        if s == f"{name}_count")
            total = sum(v for s, _, v in family["samples"]
                        if s == f"{name}_sum")
            mean = total / count if count else float("nan")
            rows.append({"metric": name, "type": "histogram",
                         "value": f"count={count:g} mean={mean:.4g}"})
        else:
            for sample_name, labels, value in family["samples"]:
                label = "".join(f'{{{k}="{v}"}}'
                                for k, v in sorted(labels.items()))
                rows.append({"metric": sample_name + label,
                             "type": family["type"], "value": f"{value:g}"})
    return rows


def _rows_from_jsonl(text: str) -> List[dict]:
    """Table rows, one per line; raises :class:`ValueError` naming the
    first line that is not a JSON object."""
    rows = []
    for lineno, payload in iter_jsonl(text):
        if not isinstance(payload, dict):
            raise ValueError(f"line {lineno}: expected a JSON object, "
                             f"got {type(payload).__name__}")
        if payload.get("type") == "histogram":
            quantiles = payload.get("quantiles")
            if not isinstance(quantiles, dict):
                quantiles = {}
            parts = [f"count={payload.get('count')}"]
            parts += [f"{k}={v:.4g}" for k, v in sorted(quantiles.items())
                      if isinstance(v, (int, float))]
            value = " ".join(parts)
        else:
            value = f"{payload.get('value')}"
        rows.append({"metric": payload.get("name", "?"),
                     "type": payload.get("type", "?"), "value": value})
    return rows


def _cmd_summarize(raw: str) -> int:
    from ..analysis.tables import Table

    path = Path(raw)
    kind, problems = validate_file(path)
    if problems:
        print(f"error: {raw} failed validation ({kind}): {problems[0]}",
              file=sys.stderr)
        return 2
    if kind == "chrome-trace":
        print(f"error: {raw} is a trace, not a metrics file; "
              "load it in Perfetto (https://ui.perfetto.dev)",
              file=sys.stderr)
        return 2
    text = path.read_text()
    if kind == "jsonl":
        try:
            rows = _rows_from_jsonl(text)
        except ValueError as exc:
            print(f"error: {raw} {exc}", file=sys.stderr)
            return 2
    else:
        rows = _rows_from_prometheus(text)
    table = Table(["metric", "type", "value"],
                  title=f"metrics: {path.name} ({kind})")
    for row in rows:
        table.add_dict_row(row)
    print(table.render())
    return 0


def run_obs(args) -> int:
    """Dispatch a parsed ``obs`` namespace (wired from repro.analysis.cli)."""
    if args.obs_command == "validate":
        return _cmd_validate(args.files)
    if args.obs_command == "summarize":
        return _cmd_summarize(args.file)
    raise ValueError(f"unknown obs command {args.obs_command!r}")
