"""HAWQ-style Hessian-aware mixed-precision bit allocation.

The paper integrates HAWQ [Dong et al., ICCV 2019] to produce its
mixed-precision rows (Table 1, "W3mpA9": 3-5 bit weights).  HAWQ ranks
layers by their Hessian sensitivity and gives more bits to sensitive
layers under a global size budget.

HAWQ needs per-layer Hessian *trace* estimates.  The reference
implementation uses double-backward Hessian-vector products; our autograd
is single-backward, so we use the mathematically equivalent
finite-difference HVP (a standard substitution):

    H v  ~=  (grad(w + eps*v) - grad(w - eps*v)) / (2*eps)

combined with Hutchinson's estimator ``trace(H) = E_v[v^T H v]`` over
Rademacher vectors ``v``.  Bit allocation is then the HAWQ-V2 greedy rule:
start everything at the highest candidate precision and repeatedly demote
the layer with the smallest *sensitivity increase per crossbar saved*
until the budget is met.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import nn

__all__ = [
    "LayerSensitivity",
    "hutchinson_trace",
    "layer_sensitivities",
    "allocate_bits",
]


@dataclass
class LayerSensitivity:
    """Hessian-trace sensitivity of one parameter tensor."""

    name: str
    trace: float
    num_params: int

    @property
    def normalized_trace(self) -> float:
        """Average trace per parameter (HAWQ-V2's ranking statistic)."""
        return self.trace / max(self.num_params, 1)


def _flat_grads(params: Sequence[nn.Parameter]) -> List[np.ndarray]:
    grads = []
    for param in params:
        if param.grad is None:
            grads.append(np.zeros_like(param.data))
        else:
            grads.append(param.grad.copy())
    return grads


def hutchinson_trace(loss_fn: Callable[[], nn.Tensor],
                     params: Sequence[nn.Parameter],
                     n_samples: int = 8,
                     eps: float = 1e-3,
                     rng: Optional[np.random.Generator] = None
                     ) -> List[float]:
    """Estimate ``trace(H)`` per parameter tensor via Hutchinson + FD-HVP.

    Parameters
    ----------
    loss_fn:
        Zero-argument callable that recomputes the training loss on a fixed
        batch (so finite differences see a deterministic function).
    params:
        The parameter tensors to estimate traces for.
    n_samples:
        Rademacher probe vectors per tensor.
    eps:
        Finite-difference step, scaled per-tensor by the parameter RMS.

    Returns
    -------
    list of float
        One trace estimate per input tensor.
    """
    generator = rng if rng is not None else np.random.default_rng(0)
    traces = [0.0 for _ in params]
    originals = [param.data.copy() for param in params]

    for _ in range(n_samples):
        probes = [generator.choice([-1.0, 1.0], size=param.data.shape
                                   ).astype(param.data.dtype)
                  for param in params]
        steps = [eps * max(float(np.sqrt((orig ** 2).mean())), 1e-8)
                 for orig in originals]

        for param, orig, probe, step in zip(params, originals, probes, steps):
            param.data = orig + step * probe
        for param in params:
            param.grad = None
        loss_fn().backward()
        grads_plus = _flat_grads(params)

        for param, orig, probe, step in zip(params, originals, probes, steps):
            param.data = orig - step * probe
        for param in params:
            param.grad = None
        loss_fn().backward()
        grads_minus = _flat_grads(params)

        for i, (probe, step) in enumerate(zip(probes, steps)):
            hv = (grads_plus[i] - grads_minus[i]) / (2.0 * step)
            traces[i] += float((probe * hv).sum())

    for param, orig in zip(params, originals):
        param.data = orig
        param.grad = None
    return [trace / n_samples for trace in traces]


def layer_sensitivities(model: nn.Module,
                        loss_fn: Callable[[], nn.Tensor],
                        param_filter: Optional[Callable[[str], bool]] = None,
                        n_samples: int = 8,
                        rng: Optional[np.random.Generator] = None
                        ) -> List[LayerSensitivity]:
    """Per-layer Hessian-trace sensitivities of a model's weight tensors."""
    named = [(name, param) for name, param in model.named_parameters()
             if param_filter is None or param_filter(name)]
    if not named:
        raise ValueError("param_filter excluded every parameter")
    names = [name for name, _ in named]
    params = [param for _, param in named]
    traces = hutchinson_trace(loss_fn, params, n_samples=n_samples, rng=rng)
    return [LayerSensitivity(name=name, trace=max(trace, 0.0),
                             num_params=param.data.size)
            for name, param, trace in zip(names, params, traces)]


def allocate_bits(sensitivities: Sequence[LayerSensitivity],
                  candidate_bits: Sequence[int],
                  cost_fn: Callable[[str, int], float],
                  budget: float) -> Dict[str, int]:
    """Assign per-layer bit widths under a hardware budget (HAWQ-V2 greedy).

    Every layer starts at ``max(candidate_bits)``.  While the total cost
    (e.g. crossbars, from ``cost_fn(layer, bits)``) exceeds ``budget``, the
    layer whose demotion to the next lower precision costs the least
    *sensitivity per unit of hardware saved* is demoted.

    The quantization perturbation model follows HAWQ-V2: demoting a layer
    from ``b1`` to ``b2`` bits increases expected loss by approximately
    ``trace * (delta(b2)^2 - delta(b1)^2)`` with ``delta(b) ~ 2^-b``.

    Returns
    -------
    dict name -> bits
        The chosen precision per layer.  Raises ``RuntimeError`` if even
        the lowest precision everywhere cannot meet the budget.
    """
    bits_sorted = sorted(set(candidate_bits), reverse=True)
    if not bits_sorted:
        raise ValueError("candidate_bits is empty")
    current: Dict[str, int] = {s.name: bits_sorted[0] for s in sensitivities}
    sens_map = {s.name: s for s in sensitivities}

    def total_cost() -> float:
        return sum(cost_fn(name, bits) for name, bits in current.items())

    def perturbation(name: str, bits: int) -> float:
        delta = 2.0 ** (-bits)
        return sens_map[name].trace * delta * delta

    while total_cost() > budget:
        best_choice: Optional[Tuple[str, int]] = None
        best_ratio = np.inf
        for name, bits in current.items():
            idx = bits_sorted.index(bits)
            if idx + 1 >= len(bits_sorted):
                continue
            lower = bits_sorted[idx + 1]
            saved = cost_fn(name, bits) - cost_fn(name, lower)
            if saved <= 0:
                continue
            harm = perturbation(name, lower) - perturbation(name, bits)
            ratio = harm / saved
            if ratio < best_ratio:
                best_ratio = ratio
                best_choice = (name, lower)
        if best_choice is None:
            raise RuntimeError(
                "cannot meet the budget even at the lowest candidate precision")
        current[best_choice[0]] = best_choice[1]
    return current
