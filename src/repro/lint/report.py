"""Finding reporters: human, JSONL and GitHub-annotation formats.

``human`` groups by file for terminal reading; ``jsonl`` emits one
finding object per line for pipelines; ``github`` emits workflow
commands (``::error file=...``) so CI findings annotate the diff view.
"""

from __future__ import annotations

import json
from typing import IO, TYPE_CHECKING, List

from .findings import Finding

if TYPE_CHECKING:       # pragma: no cover - typing only
    from .engine import LintResult

__all__ = ["FORMATS", "render"]


def _human(result: LintResult, stream: IO[str]) -> None:
    current = None
    for finding in result.findings:
        if finding.path != current:
            current = finding.path
            stream.write(f"{finding.path}\n")
        where = f"{finding.line}:{finding.col + 1}"
        symbol = f"  [{finding.symbol}]" if finding.symbol else ""
        stream.write(f"  {where:>9}  {finding.rule}  "
                     f"{finding.message}{symbol}\n")
    stream.write(_summary(result) + "\n")


def _jsonl(result: LintResult, stream: IO[str]) -> None:
    for finding in result.findings:
        stream.write(json.dumps(finding.as_dict(), sort_keys=True) + "\n")
    stream.write(json.dumps({
        "summary": True,
        "findings": len(result.findings),
        "baselined": len(result.baselined),
        "suppressed": result.suppressed,
        "files_checked": result.files_checked,
    }, sort_keys=True) + "\n")


def _github(result: LintResult, stream: IO[str]) -> None:
    for finding in result.findings:
        message = finding.message.replace("%", "%25") \
            .replace("\r", "%0D").replace("\n", "%0A")
        stream.write(
            f"::error file={finding.path},line={finding.line},"
            f"col={finding.col + 1},title=reprolint {finding.rule}"
            f"::{message}\n")
    stream.write(_summary(result) + "\n")


def _summary(result: LintResult) -> str:
    bits = [f"{result.files_checked} files checked",
            f"{len(result.findings)} findings"]
    if result.baselined:
        bits.append(f"{len(result.baselined)} baselined")
    if result.suppressed:
        bits.append(f"{result.suppressed} suppressed inline")
    return ", ".join(bits)


FORMATS = {"human": _human, "jsonl": _jsonl, "github": _github}


def render(result: LintResult, fmt: str, stream: IO[str]) -> None:
    try:
        FORMATS[fmt](result, stream)
    except KeyError:
        raise ValueError(f"unknown format {fmt!r}; "
                         f"known: {sorted(FORMATS)}") from None


def render_findings(findings: List[Finding]) -> str:     # pragma: no cover
    """Convenience for interactive debugging."""
    return "\n".join(f"{f.location()} {f.rule} {f.message}"
                     for f in findings)
