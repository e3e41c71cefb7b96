"""Importable test helpers (gradient checking, a time limit, JSON goldens).

Lives outside ``conftest.py`` so test modules can import it as a plain
module (``from tests.helpers import gradcheck``) — relative imports from
conftest break pytest collection when the test tree is not a package.
"""

from __future__ import annotations

import json
import signal
from contextlib import contextmanager

import numpy as np


def numerical_gradient(func, tensor, eps: float = 1e-5,
                       max_entries: int = 32) -> np.ndarray:
    """Central finite differences of a scalar-valued ``func()`` w.r.t.
    ``tensor.data``; only the first ``max_entries`` entries are probed
    (sufficient to catch wiring mistakes without quadratic cost)."""
    grad = np.zeros_like(tensor.data, dtype=np.float64)
    flat = tensor.data.reshape(-1)
    gflat = grad.reshape(-1)
    n = min(flat.size, max_entries)
    for i in range(n):
        orig = flat[i]
        flat[i] = orig + eps
        plus = float(func())
        flat[i] = orig - eps
        minus = float(func())
        flat[i] = orig
        gflat[i] = (plus - minus) / (2.0 * eps)
    return grad


def assert_grad_close(analytic: np.ndarray, numeric: np.ndarray,
                      max_entries: int = 32, atol: float = 1e-4,
                      rtol: float = 1e-3) -> None:
    """Compare analytic grads to FD grads over the probed prefix."""
    a = analytic.reshape(-1)[:max_entries]
    n = numeric.reshape(-1)[:max_entries]
    np.testing.assert_allclose(a, n, atol=atol, rtol=rtol)


def gradcheck(build_loss, tensors, max_entries: int = 24,
              atol: float = 1e-4, rtol: float = 1e-3) -> None:
    """Full gradient check: backward once, FD-probe every input tensor.

    ``build_loss()`` must construct the graph from the current ``.data`` of
    the given tensors and return a scalar Tensor.
    """
    for tensor in tensors:
        tensor.grad = None
    loss = build_loss()
    loss.backward()
    for tensor in tensors:
        assert tensor.grad is not None, "missing gradient"
        numeric = numerical_gradient(lambda: build_loss().data, tensor,
                                     max_entries=max_entries)
        assert_grad_close(tensor.grad, numeric, max_entries, atol, rtol)


@contextmanager
def deadline(seconds):
    """Fail the block with TimeoutError, rather than hang, if it runs
    longer than ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def check_json_golden(path, payload, update_goldens):
    """Compare ``payload``, rendered as indented JSON, with the fixture at
    ``path``; with ``update_goldens`` rewrite the fixture first.  Write
    floats with ``float.hex`` so that no digit is lost."""
    rendered = json.dumps(payload, indent=1) + "\n"
    if update_goldens:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(rendered)
    assert path.exists(), (
        f"golden fixture {path.name} missing — run "
        f"pytest --update-goldens to create it")
    assert rendered == path.read_text(), (
        f"output drifted from golden {path.name} — if the change "
        f"is intentional, refresh with pytest --update-goldens")
