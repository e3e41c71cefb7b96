"""The lint engine: walk, parse, run rules, apply suppressions/baseline.

One :func:`run_lint` call is one gate decision:

1. discover ``*.py`` files under ``config.paths``;
2. build a :class:`~repro.lint.context.FileContext` per file;
3. run the enabled per-file rules, dropping findings suppressed by an
   inline ``# reprolint: disable=`` pragma;
4. run the enabled project rules (doc cross-checks);
5. fingerprint everything and split into *new* vs *baselined*.

``LintResult.exit_code`` is the CLI contract: 0 clean, 1 findings,
2 configuration/usage error (raised as :class:`LintError`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import List

from .baseline import Baseline
from .config import LintConfig
from .context import FileContext, ProjectContext
from .findings import Finding, assign_fingerprints
from .rules import file_rules, project_rules

__all__ = ["LintError", "LintResult", "run_lint"]


class LintError(RuntimeError):
    """Configuration/usage failure (exit code 2), not a finding."""


@dataclass
class LintResult:
    findings: List[Finding] = field(default_factory=list)       # new
    baselined: List[Finding] = field(default_factory=list)
    suppressed: int = 0
    files_checked: int = 0

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0


def _discover(config: LintConfig) -> List[Path]:
    files: List[Path] = []
    for rel in config.paths:
        target = config.resolve(rel)
        if target.is_file():
            files.append(target)
        elif target.is_dir():
            files.extend(sorted(target.rglob("*.py")))
        else:
            raise LintError(f"lint path does not exist: {target}")
    return files


def run_lint(config: LintConfig) -> LintResult:
    result = LintResult()
    project = ProjectContext(config=config)

    # ---- per-file pass ----------------------------------------------
    contexts: List[FileContext] = []
    for path in _discover(config):
        try:
            source = path.read_text()
            tree = ast.parse(source)
        except (SyntaxError, UnicodeDecodeError) as exc:
            raise LintError(f"cannot parse {path}: {exc}") from exc
        rel = path.resolve().relative_to(
            config.root.resolve()).as_posix() \
            if path.resolve().is_relative_to(config.root.resolve()) \
            else path.as_posix()
        ctx = FileContext(path=path, relpath=rel, source=source,
                          tree=tree, config=config)
        contexts.append(ctx)
    result.files_checked = len(contexts)

    raw: List[Finding] = []
    for ctx in contexts:
        for rule in file_rules():
            if not config.rule_enabled(rule.id):
                continue
            for finding in rule.check(ctx):
                if ctx.is_suppressed(finding.rule, finding.line):
                    result.suppressed += 1
                else:
                    raw.append(finding)

    # ---- project pass -----------------------------------------------
    for rule in project_rules():
        if not config.rule_enabled(rule.id):
            continue
        raw.extend(rule.check_project(project))

    # ---- baseline ---------------------------------------------------
    ordered = assign_fingerprints(raw)
    baseline = Baseline()
    if config.baseline_path:
        try:
            baseline = Baseline.load(config.resolve(config.baseline_path))
        except ValueError as exc:
            raise LintError(str(exc)) from exc
    for finding in ordered:
        if finding.fingerprint in baseline:
            result.baselined.append(finding)
        else:
            result.findings.append(finding)
    return result
