"""First-class benchmark suites, one module per layer of the system:

- :mod:`repro.bench.suites.nn` — autodiff engine hot paths (matmul,
  conv forward, full training step);
- :mod:`repro.bench.suites.pim` — behaviour-level simulator
  (``simulate_network``) and multi-chip shard planning;
- :mod:`repro.bench.suites.pipeline` — epitome compile + deployment
  manifest export round-trip;
- :mod:`repro.bench.suites.search` — design-space search: vectorized
  population evaluator (plus its scalar reference), Algorithm 1 end to
  end, and the Pareto multi-objective mode;
- :mod:`repro.bench.suites.serve` — serving runtime offered-load sweep
  and the deep-queue micro-batcher stress.

Importing a module registers its benchmarks on the default registry;
:func:`repro.bench.registry.load_suites` imports all of them.
"""
