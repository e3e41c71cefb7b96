"""repro.analysis — experiment runners regenerating every table and figure.

- :mod:`repro.analysis.hardware` — exact shape-level hardware experiments;
- :mod:`repro.analysis.accuracy` — trainable-substrate accuracy workbench;
- :mod:`repro.analysis.experiments` — one runner per paper table/figure;
- :mod:`repro.analysis.tables` — paper-style text rendering.
"""
