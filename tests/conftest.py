"""Shared fixtures for the EPIM reproduction test suite.

Gradient-check helpers live in :mod:`tests.helpers` (a plain importable
module) so test files can use them without relative imports; they are
re-exported here for any existing ``from conftest import ...`` use.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn

from tests.helpers import assert_grad_close, gradcheck, numerical_gradient  # noqa: F401


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens", action="store_true", default=False,
        help="rewrite golden fixtures (tests/baselines) "
             "instead of comparing against them")


@pytest.fixture
def update_goldens(request):
    """True when the run should rewrite golden fixtures in place."""
    return request.config.getoption("--update-goldens")


@pytest.fixture(autouse=True)
def _hermetic_grid_cache(tmp_path, monkeypatch):
    """Keep the persistent grid cache out of the user's home during tests.

    Anything that builds a candidate grid with caching enabled (the
    search CLI defaults to it) lands in a per-test temp dir instead of
    ``~/.cache/repro/grids``, and never reads a pre-existing user cache.
    """
    monkeypatch.setenv("REPRO_GRID_CACHE_DIR", str(tmp_path / "grid-cache"))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_conv_model():
    """A 2-layer conv net for wiring tests."""
    gen = np.random.default_rng(0)
    return nn.Sequential(
        nn.Conv2d(3, 8, 3, padding=1, rng=gen),
        nn.ReLU(),
        nn.Conv2d(8, 4, 3, padding=1, rng=gen),
        nn.GlobalAvgPool2d(),
        nn.Linear(4, 3, rng=gen),
    )
