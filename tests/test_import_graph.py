"""The import rule: serving, search, observability and the CLI entry do
not load the training stack.

``repro.core``, ``repro.pim``, ``repro.models``, ``repro.analysis`` and
``repro.baselines`` re-export nothing, and the training-side code (the
numpy autograd substrate and everything built on it, the functional
crossbar and datapath, the accuracy and paper-table experiments) is
imported inside the functions that run it. So a fresh interpreter that
imports the entry modules below holds none of it, and no process pool
either: ``repro.search.parallel`` imports one only to build a pool.
See docs/architecture.md, "Import graph".
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ENTRY_MODULES = ("repro.serve", "repro.search", "repro.obs",
                 "repro.analysis.experiments", "repro.analysis.cli")

# The training stack, as whole packages and then single modules, and
# the process pool: no entry module may load any of them.
BANNED_PACKAGES = ("repro.nn", "repro.quant", "repro.baselines",
                     "repro.data")
BANNED_MODULES = (
    "repro.models.resnet",
    "repro.core.pipeline", "repro.core.equant", "repro.core.layers",
    "repro.core.wrapping",
    "repro.analysis.accuracy", "repro.analysis.hardware",
    "repro.pim.datapath", "repro.pim.crossbar",
    "concurrent.futures", "multiprocessing",
)


def _loaded_after_import(modules) -> set:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys\nfor name in sys.argv[1:]:\n    __import__(name)\n"
            "print(*sys.modules)")
    result = subprocess.run([sys.executable, "-c", code, *modules], env=env,
                            capture_output=True, text=True, timeout=60,
                            check=True)
    return set(result.stdout.split())


def _banned(loaded: set) -> list:
    return sorted(
        name for name in loaded
        if name in BANNED_MODULES
        or any(name == package or name.startswith(package + ".")
               for package in BANNED_PACKAGES))


def test_entry_modules_do_not_load_the_training_stack():
    loaded = _loaded_after_import(ENTRY_MODULES)
    assert "repro.serve.engine" in loaded       # the imports did run
    assert _banned(loaded) == []


def test_the_cli_entry_does_not_load_the_bench_harness_or_the_linter():
    """Every ``repro`` command builds the ``bench`` and ``lint``
    parsers; the runner (and ``subprocess``) and the lint engine load
    only when one of those commands runs."""
    loaded = _loaded_after_import(["repro.analysis.cli"])
    assert "repro.bench.cli" in loaded and "repro.lint.cli" in loaded
    assert {"subprocess", "repro.bench.runner", "repro.lint.engine"} \
        & loaded == set()


def test_the_probe_sees_a_training_import():
    # The accuracy workbench trains models, so it must show up.
    loaded = _loaded_after_import(["repro.analysis.accuracy"])
    assert {"repro.nn", "repro.analysis.accuracy"} <= set(
        _banned(loaded))
