#!/usr/bin/env python
"""Verify that local markdown links in README.md and docs/ resolve, and
that every ``*.md`` file Python prose names exists.

The README links docs/architecture.md and docs/search-to-serve.md (and
the docs cross-link each other); this script fails CI when a rename or
deletion leaves a dangling reference. External (http/https/mailto)
links are out of scope — only repo-relative paths are checked, resolved
against the file that contains the link.

Also fails on *orphans*: every docs/*.md must be reachable — linked
from README.md or from another doc — so new documentation cannot land
invisible.

Python files point at docs too ("see docs/scenarios.md").  Every
``*.md`` name in a docstring or ``#`` comment of a ``.py`` file must
resolve against that file's directory or the repo root.  Other string
literals are code, not prose, and are skipped: a test may write a doc
that exists only in a temporary directory.

Usage: python tools/check_docs_links.py   (exit 1 on any broken link)
"""

from __future__ import annotations

import ast
import io
import re
import sys
import tokenize
from pathlib import Path
from typing import Iterator, List, Tuple

LINK = re.compile(r"\[[^\]]*\]\(([^)#\s]+)(#[^)\s]*)?\)")
SKIP_PREFIXES = ("http://", "https://", "mailto:")
# A path-like *.md name; the lookbehind skips URL tails and glob patterns
# such as docs/*.md.
MD_NAME = re.compile(r"(?<![\w./*:-])\w[\w./-]*\.md\b")
PYTHON_ROOTS = ("src", "tests", "examples", "benchmarks", "tools")

REPO = Path(__file__).resolve().parent.parent


def iter_sources(repo: Path) -> Iterator[Path]:
    yield repo / "README.md"
    yield from sorted((repo / "docs").glob("*.md"))


def markdown_problems(repo: Path) -> Tuple[int, int, List[str]]:
    """``(links checked, orphans, problems)`` of README.md and docs/."""
    broken = []
    checked = 0
    linked = set()
    for source in iter_sources(repo):
        for match in LINK.finditer(source.read_text()):
            target = match.group(1)
            if target.startswith(SKIP_PREFIXES):
                continue
            checked += 1
            resolved = (source.parent / target)
            if resolved.exists():
                linked.add(resolved.resolve())
            else:
                broken.append(f"{source.relative_to(repo)}: "
                              f"broken link -> {target}")
    orphans = [doc for doc in sorted((repo / "docs").glob("*.md"))
               if doc.resolve() not in linked]
    for doc in orphans:
        broken.append(f"{doc.relative_to(repo)}: orphan — not linked "
                      f"from README.md or any other doc")
    return checked, len(orphans), broken


def python_prose(source: str) -> Iterator[Tuple[int, str]]:
    """``(first line, text)`` of every docstring and ``#`` comment."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc is not None:
                yield node.body[0].lineno, doc
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            yield token.start[0], token.string


def python_problems(repo: Path) -> Tuple[int, List[str]]:
    """``(names checked, problems)`` of the ``*.md`` names in the Python
    prose under :data:`PYTHON_ROOTS` and the repo root."""
    files = [path for root in PYTHON_ROOTS
             for path in sorted((repo / root).rglob("*.py"))]
    files += sorted(repo.glob("*.py"))
    broken = []
    checked = 0
    for path in files:
        for line, text in python_prose(path.read_text()):
            for match in MD_NAME.finditer(text):
                name = match.group(0)
                checked += 1
                if not ((path.parent / name).exists()
                        or (repo / name).exists()):
                    at = line + text.count("\n", 0, match.start())
                    broken.append(f"{path.relative_to(repo)}:{at}: "
                                  f"names missing file {name}")
    return checked, broken


def main() -> int:
    links, orphans, broken = markdown_problems(REPO)
    names, dangling = python_problems(REPO)
    broken += dangling
    for line in broken:
        print(line, file=sys.stderr)
    print(f"{links} local links and {names} *.md names in Python prose "
          f"checked, {len(broken)} problems ({orphans} orphans)")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
