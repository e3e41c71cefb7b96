"""Lint configuration: what to scan, where the contracts live.

The defaults encode this repository's layout (``src/`` package root,
``lint-baseline.json``, the docs C402 scans); tests point the same
knobs at fixture trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

__all__ = ["LintConfig"]


@dataclass
class LintConfig:
    """Everything :func:`repro.lint.engine.run_lint` needs to know."""

    root: Path = field(default_factory=Path.cwd)
    paths: Sequence[str] = ("src",)
    select: Sequence[str] = ()          # rule-id prefixes; empty = all
    ignore: Sequence[str] = ()          # rule-id prefixes to drop
    baseline_path: Optional[str] = "lint-baseline.json"
    # Docs scanned by C402 (flags referenced there must exist in code)
    # and the code trees whose ``add_argument`` calls define the flags.
    doc_globs: Sequence[str] = ("README.md", "docs/*.md")
    flag_source_globs: Sequence[str] = (
        "src/**/*.py", "tools/*.py", "examples/*.py")
    # Flags documented but owned by external tools (never defined here).
    external_flags: Sequence[str] = ("--cov",)
    # A file is "deterministic-subsystem" when any of these appear in
    # its repo-relative path parts (D103/D104 scope).
    deterministic_parts: Sequence[str] = ("pim", "serve", "search",
                                          "scenarios")

    def resolve(self, rel: str) -> Path:
        return self.root / rel

    def rule_enabled(self, rule_id: str) -> bool:
        if self.select and not any(rule_id.startswith(p)
                                   for p in self.select):
            return False
        return not any(rule_id.startswith(p) for p in self.ignore)
