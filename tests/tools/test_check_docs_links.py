"""Tests for the docs link checker (tools/check_docs_links.py)."""

import importlib.util
import textwrap
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[2] / "tools" / "check_docs_links.py"


@pytest.fixture(scope="module")
def checker():
    spec = importlib.util.spec_from_file_location("check_docs_links", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(text))


@pytest.fixture
def repo(tmp_path):
    write(tmp_path / "README.md", "See [the guide](docs/guide.md).\n")
    write(tmp_path / "docs" / "guide.md", "Back to [README](../README.md).\n")
    write(tmp_path / "src" / "pkg" / "notes.md", "local notes\n")
    return tmp_path


def test_names_in_docstrings_and_comments_must_resolve(checker, repo):
    write(repo / "src" / "pkg" / "mod.py", '''\
        """Module doc: see docs/guide.md and DESIGN.md section 2."""

        # notes.md sits next to this file; missing.md exists nowhere


        class Thing:
            """Pinned by
            EXPERIMENTS.md."""

            def run(self):
                """See README.md, or https://example.org/spec/NOTES.md."""
                return "docs/usage.md"   # a literal, not prose
        ''')
    checked, problems = checker.python_problems(repo)
    assert checked == 6
    assert problems == [
        "src/pkg/mod.py:1: names missing file DESIGN.md",
        "src/pkg/mod.py:8: names missing file EXPERIMENTS.md",
        "src/pkg/mod.py:3: names missing file missing.md",
    ]


def test_globs_and_clean_trees_pass(checker, repo):
    write(repo / "tools" / "scan.py", '''\
        """Scans every docs/*.md and ``*.md`` under the tree."""
        ''')
    assert checker.python_problems(repo) == (0, [])
    assert checker.markdown_problems(repo) == (2, 0, [])


def test_markdown_links_and_orphans(checker, repo):
    write(repo / "docs" / "lost.md", "Links [nowhere](gone.md).\n")
    checked, orphans, problems = checker.markdown_problems(repo)
    assert (checked, orphans) == (3, 1)
    assert problems == ["docs/lost.md: broken link -> gone.md",
                        "docs/lost.md: orphan — not linked from "
                        "README.md or any other doc"]


def test_repository_is_clean(checker):
    assert checker.main() == 0
