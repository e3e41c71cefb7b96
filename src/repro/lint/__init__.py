"""Project-aware static analysis: ``python -m repro lint``.

``repro.lint`` machine-checks the contracts the rest of the repo only
promises at runtime:

- **D-rules (determinism)** — no module-global RNG, no unseeded
  ``default_rng()``, no wall-clock reads or unordered-``set`` iteration
  inside the deterministic subsystems (``pim``, ``serve``, ``search``).
- **M-rule (metrics/spans)** — metrics are declared once, in
  :mod:`repro.obs.catalog`, and published through its ``publish``: a
  ``counter()/gauge()/histogram()`` call outside ``repro/obs/``, or a
  ``span()/record()`` category that is not a ``SPAN_CATEGORIES``
  literal, fails CI instead of silently vanishing from a dashboard.
- **H-rules (hot-loop hygiene)** — inside ``# reprolint: hot-loop``
  regions, no per-iteration allocations, no per-event tracer/metric
  calls, no f-string logging.
- **C-rules (contracts)** — ``@benchmark`` factories must declare work
  (``items=``/``counters=``); CLI flags referenced in docs must exist.

Findings can be suppressed inline (``# reprolint: disable=RULE``) or
carried in a reviewed baseline file (``lint-baseline.json``).  The rule
catalog and suppression policy live in ``docs/static-analysis.md``.
"""
