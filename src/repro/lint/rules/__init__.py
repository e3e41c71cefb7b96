"""Rule registry: per-file rules and project rules.

A *file rule* visits one :class:`~repro.lint.context.FileContext` and
yields findings; a *project rule* runs once per lint invocation over
the :class:`~repro.lint.context.ProjectContext` (doc-flag
existence).  Adding a rule = subclass, set the
class attributes, decorate with :func:`register` — the engine, the CLI
``--select/--ignore`` matching, ``--list-rules`` and the docs table in
``docs/static-analysis.md`` all key off the registry.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Type

from ..context import FileContext, ProjectContext
from ..findings import Finding

__all__ = ["FileRule", "ProjectRule", "RULES", "register",
           "all_rule_ids", "file_rules", "project_rules"]


class FileRule:
    """Base: one rule checked independently against every file."""

    id: str = ""
    name: str = ""
    summary: str = ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, line: int, col: int,
                message: str, node=None) -> Finding:
        return Finding(rule=self.id, path=ctx.relpath, line=line, col=col,
                       message=message,
                       symbol=ctx.qualname(node) if node is not None else "",
                       source_line=ctx.source_line(line))


class ProjectRule(FileRule):
    """Base: one rule checked once against the whole project."""

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        raise NotImplementedError

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        return iter(())


RULES: Dict[str, FileRule] = {}


def register(cls: Type[FileRule]) -> Type[FileRule]:
    if not cls.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if cls.id in RULES:
        raise ValueError(f"duplicate rule id {cls.id}")
    RULES[cls.id] = cls()
    return cls


def all_rule_ids() -> List[str]:
    _load()
    return sorted(RULES)


def file_rules() -> List[FileRule]:
    _load()
    return [rule for rule in RULES.values()
            if not isinstance(rule, ProjectRule)]


def project_rules() -> List[ProjectRule]:
    _load()
    return [rule for rule in RULES.values()
            if isinstance(rule, ProjectRule)]


def _load() -> None:
    """Import the rule modules (idempotent; registration is on import)."""
    from . import contracts, determinism, hotloop, metrics  # noqa: F401
