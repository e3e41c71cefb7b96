"""Every script under ``examples/`` still imports.

Each script keeps its work behind ``if __name__ == "__main__"``, so
running it under another ``run_name`` executes its imports and
definitions only: an import that no longer resolves fails here, in well
under a second, instead of when someone next runs the example.
"""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted(
    (Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


def test_examples_are_found():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_imports_resolve(path):
    namespace = runpy.run_path(str(path), run_name="example_under_test")
    assert callable(namespace.get("main"))
