"""Functional crossbar array: bit-sliced, bit-serial integer MVM.

This is the *numerically faithful* half of the simulator (the performance
half is :mod:`repro.pim.simulator`).  A :class:`CrossbarArray` is programmed
with an integer weight matrix, stores it as 2-bit (configurable) cell
slices, and evaluates matrix-vector products the way the analogue fabric
does:

1. inputs are decomposed into ``dac_bits`` chunks and streamed cycle by
   cycle (bit-serial),
2. each cycle every cell slice contributes ``input_chunk * cell_value`` in
   the analogue domain,
3. per-slice column sums are digitised (optionally through a saturating
   ADC) and recombined by shift-and-add over both cell slices and input
   cycles,
4. signed weights are handled with the standard sign-column trick: the
   unsigned two's-complement body is programmed into the slices and the
   weight sign indicator is stored in one extra column whose digitised sum
   corrects the result (exactly — see :meth:`matmul`).

With ``adc_bits=None`` (ideal ADC) and ``noise_std=0`` the result is exactly
equal to the integer matrix product, which is what the datapath equivalence
tests assert.  Device conductance variation can be injected per read to
study robustness.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .config import HardwareConfig

__all__ = ["CrossbarArray"]


class CrossbarArray:
    """A (multi-array) crossbar storing one integer weight matrix.

    Parameters
    ----------
    config:
        Hardware description (cell bits, DAC bits, ADC model).
    ideal_adc:
        When True the ADC is a perfect digitiser (no clipping) — required
        for the exact-equivalence tests.  When False, per-slice column sums
        saturate at ``2**adc_bits - 1`` after right-shifting, emulating
        limited ADC headroom.
    noise_std:
        Relative Gaussian conductance noise applied to cell values at each
        read (0 disables noise).
    ir_drop_beta:
        First-order IR-drop / sense saturation coefficient.  Wire
        resistance makes large column currents read low; modelled as
        ``measured = ideal * (1 - beta * ideal / full_scale)`` where
        ``full_scale`` is the maximum possible column sum.  0 disables it.
        Because degradation grows with the column current, *partially
        enabled* word lines (the IFRT-gated epitome rounds) are relatively
        less affected than fully-driven arrays — a structural robustness
        property of the epitome datapath.
    rng:
        Generator used for noise draws.
    """

    def __init__(self, config: HardwareConfig, ideal_adc: bool = True,
                 noise_std: float = 0.0,
                 ir_drop_beta: float = 0.0,
                 rng: Optional[np.random.Generator] = None):
        self.config = config
        self.ideal_adc = ideal_adc
        self.noise_std = noise_std
        self.ir_drop_beta = ir_drop_beta
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._slices: Optional[np.ndarray] = None   # (n_slices, rows, cols)
        self._sign_column: Optional[np.ndarray] = None  # (rows, cols) 0/1
        self.weight_bits: int = 0
        self.rows: int = 0
        self.cols: int = 0

    # ------------------------------------------------------------------
    def program(self, weights: np.ndarray, weight_bits: int) -> None:
        """Program an integer matrix ``(rows, cols)`` of signed weights.

        Weights must fit in ``weight_bits`` signed two's complement, i.e.
        ``-2**(b-1) <= w <= 2**(b-1) - 1``.
        """
        weights = np.asarray(weights)
        if weights.ndim != 2:
            raise ValueError("crossbar weights must be a 2-D matrix")
        if not np.issubdtype(weights.dtype, np.integer):
            raise TypeError("crossbar weights must be integers (quantize first)")
        lo, hi = -(1 << (weight_bits - 1)), (1 << (weight_bits - 1)) - 1
        if weights.min() < lo or weights.max() > hi:
            raise ValueError(
                f"weights out of range for {weight_bits}-bit signed storage "
                f"[{lo}, {hi}]: found [{weights.min()}, {weights.max()}]")

        self.rows, self.cols = weights.shape
        self.weight_bits = weight_bits
        # Two's-complement unsigned body + sign indicator column set.
        unsigned = np.where(weights < 0, weights + (1 << weight_bits), weights)
        unsigned = unsigned.astype(np.int64)
        self._sign_column = (weights < 0).astype(np.int64)

        n_slices = math.ceil(weight_bits / self.config.cell_bits)
        cell_mask = (1 << self.config.cell_bits) - 1
        slices = np.empty((n_slices, self.rows, self.cols), dtype=np.int64)
        for s in range(n_slices):
            slices[s] = (unsigned >> (s * self.config.cell_bits)) & cell_mask
        self._slices = slices

    @property
    def n_slices(self) -> int:
        if self._slices is None:
            raise RuntimeError("crossbar not programmed")
        return self._slices.shape[0]

    # ------------------------------------------------------------------
    def matmul(self, inputs: np.ndarray, activation_bits: int,
               row_mask: Optional[np.ndarray] = None) -> np.ndarray:
        """Compute ``inputs @ W`` through the bit-serial analogue pipeline.

        Parameters
        ----------
        inputs:
            Integer array ``(batch, rows)`` of **non-negative** activations
            (quantized, e.g. post-ReLU); must fit in ``activation_bits``.
        activation_bits:
            Bit width of the inputs (sets the number of DAC cycles).
        row_mask:
            Optional boolean word-line enable of length ``rows`` — this is
            the IFRT in hardware: disabled rows drive zero volts so their
            weights do not contribute.

        Returns
        -------
        np.ndarray
            ``(batch, cols)`` signed integer results.
        """
        if self._slices is None:
            raise RuntimeError("crossbar not programmed")
        inputs = np.asarray(inputs)
        if inputs.ndim == 1:
            inputs = inputs[None, :]
        if inputs.shape[1] != self.rows:
            raise ValueError(
                f"input width {inputs.shape[1]} != crossbar rows {self.rows}")
        if not np.issubdtype(inputs.dtype, np.integer):
            raise TypeError("crossbar inputs must be integers")
        if inputs.min() < 0:
            raise ValueError("crossbar inputs must be non-negative "
                             "(shift/offset signed activations in software)")
        if inputs.max() >= (1 << activation_bits):
            raise ValueError(f"inputs exceed {activation_bits}-bit range")

        x = inputs.astype(np.int64)
        if row_mask is not None:
            row_mask = np.asarray(row_mask, dtype=bool)
            x = x * row_mask[None, :]

        n_cycles = self.config.cycles_for(activation_bits)
        dac_mask = (1 << self.config.dac_bits) - 1

        body = np.zeros((x.shape[0], self.cols), dtype=np.int64)
        sign_sum = np.zeros((x.shape[0], self.cols), dtype=np.int64)
        for cycle in range(n_cycles):
            chunk = (x >> (cycle * self.config.dac_bits)) & dac_mask
            if not chunk.any():
                continue
            for s in range(self.n_slices):
                col_sums = self._analog_read(chunk, self._slices[s])
                col_sums = self._digitise(col_sums)
                body += col_sums << (s * self.config.cell_bits
                                     + cycle * self.config.dac_bits)
            sign_sums = self._analog_read(chunk, self._sign_column)
            sign_sums = self._digitise(sign_sums)
            sign_sum += sign_sums << (cycle * self.config.dac_bits)

        # Two's-complement correction: w = u - 2^b * sign(w).
        return body - (sign_sum << self.weight_bits)

    # ------------------------------------------------------------------
    def _analog_read(self, chunk: np.ndarray, cells: np.ndarray) -> np.ndarray:
        """One analogue column-sum read with optional conductance noise.

        Independent relative noise of std ``noise_std`` on every cell's
        conductance propagates to a column sum as a Gaussian with variance
        ``noise_std^2 * sum((x_i * g_i)^2)`` — computed exactly here, then
        rounded by the ADC.
        """
        col_sums = chunk @ cells
        analog = col_sums.astype(np.float64)
        if self.ir_drop_beta > 0.0:
            cell_max = (1 << self.config.cell_bits) - 1
            dac_max = (1 << self.config.dac_bits) - 1
            full_scale = max(self.rows * cell_max * dac_max, 1)
            analog = analog * (1.0 - self.ir_drop_beta * analog / full_scale)
        if self.noise_std > 0.0:
            variance = ((chunk.astype(np.float64) ** 2)
                        @ (cells.astype(np.float64) ** 2))
            sigma = self.noise_std * np.sqrt(variance)
            analog = analog + self._rng.normal(0.0, 1.0,
                                               size=analog.shape) * sigma
        if self.ir_drop_beta <= 0.0 and self.noise_std <= 0.0:
            return col_sums
        return np.rint(analog).astype(np.int64)

    def _digitise(self, col_sums: np.ndarray) -> np.ndarray:
        if self.ideal_adc:
            return col_sums
        limit = (1 << self.config.adc_bits) - 1
        return np.clip(col_sums, 0, limit)
