"""repro.pim — MNSIM-style behaviour-level PIM accelerator simulator.

Two complementary halves:

- *functional*: :mod:`repro.pim.crossbar` (bit-sliced integer MVM with
  optional device noise / ADC saturation) and :mod:`repro.pim.datapath`
  (IFAT/IFRT/OFAT tables + joint module), which compute real values and are
  tested for exact equivalence with software convolution;
- *performance*: :mod:`repro.pim.mapping`, :mod:`repro.pim.simulator` and
  :mod:`repro.pim.accelerator`, which turn behaviour counts into crossbar
  allocations, latency, energy and area via the component LUT
  (:mod:`repro.pim.lut`).
"""
