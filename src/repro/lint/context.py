"""Per-file and per-project analysis context shared by every rule.

One :class:`FileContext` is built per Python file: the parsed AST with
a parent map, an import-alias map (so ``np.random.default_rng`` and
``from numpy.random import default_rng`` resolve to the same dotted
name), and the ``# reprolint:`` directives found by tokenizing comments
(inline suppressions, file suppressions, hot-loop region markers).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from .config import LintConfig

__all__ = ["FileContext", "ProjectContext", "ImportMap", "HotRegion"]

_DIRECTIVE = re.compile(r"#\s*reprolint:\s*(.+?)\s*$")
_HOT_NODE_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.For,
                   ast.While)


class ImportMap:
    """Resolve local names to the dotted module paths they alias.

    ``import numpy as np``            -> ``np``  maps to ``numpy``
    ``from numpy.random import rand`` -> ``rand`` maps to ``numpy.random.rand``
    ``resolve(node)`` walks an ``ast.Attribute``/``ast.Name`` chain and
    returns the fully-qualified dotted name, or ``None`` when the base
    is not an import (a local variable, an attribute of ``self``, ...).
    """

    def __init__(self, tree: ast.AST):
        self._aliases: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else \
                        alias.name.split(".")[0]
                    self._aliases[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module \
                    and node.level == 0:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self._aliases[local] = f"{node.module}.{alias.name}"

    def resolve(self, node: ast.AST) -> Optional[str]:
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self._aliases.get(node.id)
        if base is None:
            return None
        return ".".join([base] + list(reversed(parts)))


@dataclass(frozen=True)
class HotRegion:
    """A ``# reprolint: hot-loop`` marked statement's line range."""

    start: int
    end: int

    def __contains__(self, line: int) -> bool:
        return self.start <= line <= self.end


def _scan_comments(source: str) -> List[Tuple[int, str]]:
    """``(line, directive)`` pairs for every ``# reprolint:`` comment."""
    out: List[Tuple[int, str]] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type == tokenize.COMMENT:
                match = _DIRECTIVE.search(tok.string)
                if match:
                    out.append((tok.start[0], match.group(1)))
    except (tokenize.TokenError, IndentationError):
        pass
    return out


class FileContext:
    """Everything the per-file rules need about one source file."""

    def __init__(self, path: Path, relpath: str, source: str,
                 tree: ast.Module, config: LintConfig):
        self.path = path
        self.relpath = relpath
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        self.config = config
        self.imports = ImportMap(tree)
        self.parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self.parents[child] = parent
        parts = Path(relpath).parts
        self.deterministic = any(p in config.deterministic_parts
                                 for p in parts)
        # ---- reprolint directives -----------------------------------
        self.suppressed_lines: Dict[int, Set[str]] = {}
        self.suppressed_file: Set[str] = set()
        self.hot_regions: List[HotRegion] = []
        self.dangling_markers: List[int] = []
        hot_candidates = {
            node.lineno: node for node in ast.walk(tree)
            if isinstance(node, _HOT_NODE_TYPES)}
        for line, raw in _scan_comments(source):
            # Trailing free text after the directive token is welcome
            # (e.g. "hot-loop -- scheduler drain path").
            directive = raw.split()[0] if raw.split() else ""
            if directive.startswith("disable-file="):
                self.suppressed_file |= _parse_rules(
                    directive[len("disable-file="):])
            elif directive.startswith("disable="):
                rules = _parse_rules(directive[len("disable="):])
                self.suppressed_lines.setdefault(line, set()).update(rules)
            elif directive == "hot-loop":
                # Marker on the statement's own line, or alone on the
                # line above it.
                node = hot_candidates.get(line) or hot_candidates.get(
                    line + 1)
                if node is None:
                    self.dangling_markers.append(line)
                else:
                    self.hot_regions.append(
                        HotRegion(node.lineno, node.end_lineno or
                                  node.lineno))

    # ---- helpers ----------------------------------------------------
    def qualname(self, node: ast.AST) -> str:
        """Dotted def/class chain enclosing ``node`` ("" at module level)."""
        names: List[str] = []
        cursor: Optional[ast.AST] = node
        while cursor is not None:
            if isinstance(cursor, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
                names.append(cursor.name)
            cursor = self.parents.get(cursor)
        return ".".join(reversed(names))

    def source_line(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def in_hot_region(self, line: int) -> bool:
        return any(line in region for region in self.hot_regions)

    def is_suppressed(self, rule: str, line: int) -> bool:
        if rule in self.suppressed_file or "all" in self.suppressed_file:
            return True
        rules = self.suppressed_lines.get(line, ())
        return rule in rules or "all" in rules


def _parse_rules(spec: str) -> Set[str]:
    return {token.strip() for token in spec.split(",") if token.strip()}


@dataclass
class ProjectContext:
    """Cross-file state handed to the project rules."""

    config: LintConfig
