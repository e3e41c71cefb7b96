"""repro.core — the paper's contribution.

- :mod:`repro.core.epitome` — the epitome operator: shapes, sampler,
  reconstruction plans with index maps and repetition counts;
- :mod:`repro.core.layers` — trainable :class:`EpitomeConv2d` /
  :class:`EpitomeLinear`;
- :mod:`repro.core.designer` — conv -> epitome conversion for runnable
  models and shape-level PIM deployments (Fig. 2a's "Designer");
- :mod:`repro.core.wrapping` — output channel wrapping (Eqs. 8-9);
- :mod:`repro.core.equant` — epitome-aware quantization (Eqs. 4-5);
- :mod:`repro.core.pipeline` — the end-to-end EPIM flow.

The evolutionary layer-wise design (Alg. 1) lives in :mod:`repro.search`.
"""
