"""repro.baselines — comparison methods reproduced from the literature.

- :mod:`repro.baselines.pim_prune` — PIM-Prune (Chu et al., DAC 2020),
  the crossbar-aware pruning framework the paper benchmarks against;
- :mod:`repro.baselines.element_prune` — magnitude element pruning, used
  standalone and stacked with epitomes (Table 3).
"""
