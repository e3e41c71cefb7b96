"""The epitome operator: compact tensor + sampler + reconstruction plan.

An *epitome* (paper section 2.2, Eq. 1) is a small learnable 4-D tensor
``E[eo, ei, eh, ew]`` together with a sampler that repeatedly extracts
sub-tensors and concatenates them into a full convolution weight
``W[co, ci, kh, kw]``.  The paper leaves the sampling schedule abstract; we
implement this concrete schedule:

- **output channels** are tiled with period ``eo`` (every tile samples
  epitome columns ``[0, eo)``), which makes output-channel tiles identical —
  exactly the translation invariance (Eq. 8) that output channel wrapping
  (section 5.3) exploits;
- **input channels** are covered by windows of size ``min(ei, ci)``; when a
  window is narrower than ``ei`` its start offset is spread evenly so the
  whole epitome is used;
- **spatial** kernels of size ``(kh, kw)`` are sampled from the (possibly
  larger) epitome spatial map ``(eh, ew)`` at offsets cycling over the
  ``(eh-kh+1) x (ew-kw+1)`` offset grid, one offset per input-channel block.
  Overlapping spatial windows make *interior* epitome elements repeat more
  often than border ones — the property the overlap-weighted quantization
  (Eqs. 4-5) is built on (Fig. 2c).

The whole reconstruction is materialised once as an integer **index map**
with ``W = E.flat[index_map]``; gradients flow back by scatter-add.  The
plan also records one :class:`PatchSample` per crossbar activation round,
which is what the PIM datapath (IFAT / IFRT / OFAT) and the performance
model consume.

Naming convention: the paper writes an epitome as "``1024 x 256``", meaning
``rows = ei*eh*ew = 1024`` word lines and ``cols = eo = 256`` bit lines
(Table 1 caption).  :meth:`EpitomeShape.from_rows_cols` builds a 4-D shape
from that hardware-level description.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

__all__ = ["EpitomeShape", "PatchSample", "EpitomePlan", "build_plan"]


@dataclass(frozen=True)
class EpitomeShape:
    """4-D shape of an epitome tensor ``E[eo, ei, eh, ew]``."""

    out_channels: int   # eo  -> bit lines
    in_channels: int    # ei
    height: int         # eh
    width: int          # ew

    def __post_init__(self):
        for name in ("out_channels", "in_channels", "height", "width"):
            if getattr(self, name) < 1:
                raise ValueError(f"EpitomeShape.{name} must be >= 1")

    @property
    def rows(self) -> int:
        """Word-line extent on a crossbar: ``ei * eh * ew`` (paper's cin*p*q)."""
        return self.in_channels * self.height * self.width

    @property
    def cols(self) -> int:
        """Bit-line extent: ``eo`` (before weight bit-slicing)."""
        return self.out_channels

    @property
    def num_params(self) -> int:
        return self.out_channels * self.in_channels * self.height * self.width

    def as_tuple(self) -> Tuple[int, int, int, int]:
        return (self.out_channels, self.in_channels, self.height, self.width)

    @staticmethod
    def from_rows_cols(rows: int, cols: int, kernel_size: Tuple[int, int],
                       in_channels: int) -> "EpitomeShape":
        """Build a 4-D epitome shape from the paper's ``rows x cols`` notation.

        For a k x k kernel with k > 1 the spatial map is enlarged beyond the
        kernel (up to ``(k+1) x (k+1)``) to create overlapping spatial
        sampling offsets — but only as many offsets as the layer has
        input-channel blocks to consume them.  A spatial map with more
        offsets than blocks would leave epitome rows *never sampled*: dead
        parameters that waste crossbar cells and receive no gradient.  For
        1x1 kernels the map is 1x1.

        Parameters
        ----------
        rows, cols:
            The hardware description, e.g. ``1024, 256``.
        kernel_size:
            Kernel of the convolution this epitome will reconstruct.
        in_channels:
            Input channels of that convolution (upper bound for ``ei`` and,
            through the block count, on the useful spatial slack).
        """
        kh, kw = kernel_size

        def candidate(eh: int, ew: int) -> Optional["EpitomeShape"]:
            if eh * ew > rows:
                return None
            n_offsets = (eh - kh + 1) * (ew - kw + 1)
            # Keep ei small enough that every spatial offset is consumed by
            # some input-channel block; otherwise part of the epitome map is
            # never sampled (dead parameters).  This is also what makes the
            # epitome *compress* layers whose row extent fits the budget:
            # e.g. a 3x3 64-ch layer (576 rows) under a 1024-row budget gets
            # ei=16 and a 4x4 map (256 rows) — the paper's Fig. 3 "L9"
            # arithmetic (36.9k -> 16.4k parameters).
            ei = min(max(1, rows // (eh * ew)), in_channels,
                     max(1, in_channels // n_offsets))
            n_ci = math.ceil(in_channels / ei)
            if n_offsets > n_ci:
                return None
            return EpitomeShape(out_channels=cols, in_channels=ei,
                                height=eh, width=ew)

        if kh > 1 or kw > 1:
            for eh, ew in ((kh + 1, kw + 1), (kh + 1, kw), (kh, kw)):
                shape = candidate(eh, ew)
                if shape is not None:
                    return shape
        ei = min(max(1, rows // (kh * kw)), in_channels)
        return EpitomeShape(out_channels=cols, in_channels=ei,
                            height=kh, width=kw)

    def __str__(self) -> str:
        return (f"{self.rows}x{self.cols} "
                f"(eo={self.out_channels}, ei={self.in_channels}, "
                f"{self.height}x{self.width})")


@dataclass(frozen=True)
class PatchSample:
    """One sampled sub-tensor = one crossbar activation round (Eq. 1).

    Virtual coordinates locate the patch inside the reconstructed weight
    ``W[co, ci, kh, kw]``; epitome coordinates locate the sampled window in
    ``E[eo, ei, eh, ew]``.  All output-channel blocks of the same
    ``ci_block`` share identical epitome coordinates (translation
    invariance, Eq. 8), recorded via ``co_block``.
    """

    co_block: int          # output-channel tile index (0-based)
    ci_block: int          # input-channel block index (0-based)
    co_start: int          # virtual output-channel offset of this tile
    ci_start: int          # virtual input-channel offset of this block
    co_size: int           # tile width (may be partial at the edge)
    ci_size: int           # block width (may be partial at the edge)
    e_ci_start: int        # epitome input-channel window start
    e_h_start: int         # epitome spatial row offset of the kernel window
    e_w_start: int         # epitome spatial col offset of the kernel window

    def word_lines(self, shape: EpitomeShape, kernel_size: Tuple[int, int]
                   ) -> np.ndarray:
        """Crossbar word-line (row) indices this patch activates.

        The epitome maps onto crossbar rows in ``(ei, eh, ew)`` raster order:
        ``row = e_ci * (eh*ew) + e_h * ew + e_w``.  A patch touches the
        sub-grid ``[e_ci_start, +ci_size) x [e_h_start, +kh) x [e_w_start, +kw)``
        — generally a *scattered* set of rows, which is why the paper's IFRT
        exists.
        """
        kh, kw = kernel_size
        eh, ew = shape.height, shape.width
        ci_idx = np.arange(self.e_ci_start, self.e_ci_start + self.ci_size)
        h_idx = np.arange(self.e_h_start, self.e_h_start + kh)
        w_idx = np.arange(self.e_w_start, self.e_w_start + kw)
        grid = (ci_idx[:, None, None] * (eh * ew)
                + h_idx[None, :, None] * ew
                + w_idx[None, None, :])
        return grid.reshape(-1)


@dataclass
class EpitomePlan:
    """Complete reconstruction plan for one layer.

    Attributes
    ----------
    epitome_shape:
        Shape of the compact parameter tensor.
    virtual_shape:
        ``(co, ci, kh, kw)`` of the convolution being reconstructed
        (``kh = kw = 1`` for linear layers).
    index_map:
        int64 array of ``virtual_shape``; ``W = E.flat[index_map]``.
    patches:
        One :class:`PatchSample` per (co_block, ci_block) pair, in activation
        order.
    n_co_blocks / n_ci_blocks:
        Tiling factors.  ``n_co_blocks`` is the channel-wrapping replication
        factor ``r`` of section 5.3.
    """

    epitome_shape: EpitomeShape
    virtual_shape: Tuple[int, int, int, int]
    index_map: np.ndarray
    patches: List[PatchSample]
    n_co_blocks: int
    n_ci_blocks: int

    @property
    def kernel_size(self) -> Tuple[int, int]:
        return self.virtual_shape[2], self.virtual_shape[3]

    @property
    def num_virtual_weights(self) -> int:
        return int(np.prod(self.virtual_shape))

    @property
    def num_params(self) -> int:
        return self.epitome_shape.num_params

    @property
    def compression(self) -> float:
        """Parameter compression of this layer (virtual / epitome)."""
        return self.num_virtual_weights / self.num_params

    @property
    def rounds_per_position(self) -> int:
        """Crossbar activation rounds per output position, without wrapping."""
        return len(self.patches)

    @property
    def wrapped_rounds_per_position(self) -> int:
        """Activation rounds with output channel wrapping: co tiles computed once."""
        return self.n_ci_blocks

    def repetition_counts(self) -> np.ndarray:
        """How many times each epitome element appears in the virtual weight.

        Shape equals ``epitome_shape``; interior (overlap) elements have the
        largest counts — this drives the overlap-weighted quantization range
        of Eqs. 4-5.
        """
        counts = np.bincount(self.index_map.ravel(),
                             minlength=self.epitome_shape.num_params)
        return counts.reshape(self.epitome_shape.as_tuple())

    def reconstruct(self, epitome: np.ndarray) -> np.ndarray:
        """Numpy-level reconstruction (the autograd path lives in
        :class:`repro.core.layers.EpitomeConv2d`)."""
        if epitome.shape != self.epitome_shape.as_tuple():
            raise ValueError(
                f"epitome shape {epitome.shape} does not match plan "
                f"{self.epitome_shape.as_tuple()}")
        return epitome.reshape(-1)[self.index_map]

    def overlap_mask(self, quantile: float = 0.5) -> np.ndarray:
        """Boolean mask of the "highly repeated" region (Fig. 2c, green).

        Elements whose repetition count is strictly greater than the
        ``quantile`` of all counts are considered part of the overlap region.
        Falls back to the > min rule when the counts are uniform.
        """
        counts = self.repetition_counts()
        threshold = np.quantile(counts, quantile)
        mask = counts > threshold
        if not mask.any():
            mask = counts >= threshold
        return mask


def _window_starts(extent: int, window: int, n_blocks: int) -> List[int]:
    """Evenly spread ``n_blocks`` window start offsets over ``[0, extent-window]``."""
    slack = extent - window
    if slack <= 0 or n_blocks <= 1:
        return [0] * n_blocks
    return [round(j * slack / (n_blocks - 1)) for j in range(n_blocks)]


def build_plan(virtual_shape: Tuple[int, int, int, int],
               epitome_shape: EpitomeShape,
               with_index_map: bool = True) -> EpitomePlan:
    """Construct the deterministic sampling schedule for one layer.

    Parameters
    ----------
    virtual_shape:
        ``(co, ci, kh, kw)`` of the convolution to reconstruct.
    epitome_shape:
        Target epitome.  Must satisfy ``ei <= ci``, ``eh >= kh``,
        ``ew >= kw`` and ``eo <= co`` so every epitome element can
        participate (the designer clips shapes before calling).
    with_index_map:
        When False, skip materialising the (possibly multi-megabyte) index
        map and only build the patch schedule — sufficient for the
        performance model, and what the evolutionary search uses to stay
        fast.  ``index_map`` is then an empty array.

    Returns
    -------
    EpitomePlan
        With the index map (optional), the patch list, and tiling factors.
    """
    co, ci, kh, kw = virtual_shape
    eo, ei, eh, ew = epitome_shape.as_tuple()
    if eo > co:
        raise ValueError(f"epitome out_channels {eo} exceeds layer's {co}")
    if ei > ci:
        raise ValueError(f"epitome in_channels {ei} exceeds layer's {ci}")
    if eh < kh or ew < kw:
        raise ValueError(
            f"epitome spatial map {eh}x{ew} smaller than kernel {kh}x{kw}")

    n_co = math.ceil(co / eo)
    n_ci = math.ceil(ci / ei)
    spatial_offsets = [(a, b)
                       for a in range(eh - kh + 1)
                       for b in range(ew - kw + 1)]

    if with_index_map:
        index_map = np.empty(virtual_shape, dtype=np.int64)
    else:
        index_map = np.empty((0,), dtype=np.int64)
    patches: List[PatchSample] = []

    # Precompute flat epitome indices: E[eo, ei, eh, ew] raster order.
    stride_o = ei * eh * ew
    stride_i = eh * ew
    stride_h = ew

    for j in range(n_ci):
        ci_start = j * ei
        ci_size = min(ei, ci - ci_start)
        # Partial blocks sample a window inside the epitome channel extent,
        # spread so the whole epitome is exercised (Eq. 1's cin offset).
        e_ci_start = _window_starts(ei, ci_size, n_ci)[j] if ci_size < ei else 0
        dh, dw = spatial_offsets[j % len(spatial_offsets)]

        if with_index_map:
            e_co = np.arange(eo)
            e_ci = e_ci_start + np.arange(ci_size)
            e_h = dh + np.arange(kh)
            e_w = dw + np.arange(kw)
            block = (e_co[:, None, None, None] * stride_o
                     + e_ci[None, :, None, None] * stride_i
                     + e_h[None, None, :, None] * stride_h
                     + e_w[None, None, None, :])

        for b in range(n_co):
            co_start = b * eo
            co_size = min(eo, co - co_start)
            if with_index_map:
                index_map[co_start:co_start + co_size,
                          ci_start:ci_start + ci_size] = block[:co_size]
            patches.append(PatchSample(
                co_block=b, ci_block=j,
                co_start=co_start, ci_start=ci_start,
                co_size=co_size, ci_size=ci_size,
                e_ci_start=e_ci_start, e_h_start=dh, e_w_start=dw))

    return EpitomePlan(
        epitome_shape=epitome_shape,
        virtual_shape=virtual_shape,
        index_map=index_map,
        patches=patches,
        n_co_blocks=n_co,
        n_ci_blocks=n_ci,
    )
