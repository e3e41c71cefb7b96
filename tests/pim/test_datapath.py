"""Tests for the EPIM datapath (repro.pim.datapath) — IFAT/IFRT/OFAT.

The central assertions are the *exact* equivalences:
datapath execution == software convolution of the reconstructed weight,
with and without output channel wrapping.
"""

import numpy as np
import pytest

from repro import nn
from repro.core.epitome import EpitomeShape, build_plan
from repro.nn import functional as F
from repro.pim.config import DEFAULT_CONFIG
from repro.pim.datapath import (
    build_index_tables,
    epitome_to_matrix,
    execute_epitome_conv,
)


def make_case(rng, co=12, ci=16, k=3, rows=72, cols=8, h=9,
              a_bits=4, w_bits=5):
    shape = EpitomeShape.from_rows_cols(rows, cols, (k, k), ci)
    plan = build_plan((co, ci, k, k), shape)
    epitome = rng.integers(-(1 << (w_bits - 1)), (1 << (w_bits - 1)),
                           size=shape.as_tuple())
    x = rng.integers(0, 1 << a_bits, size=(2, ci, h, h))
    return plan, epitome, x, a_bits, w_bits


def reference_conv(x, weight, stride, padding):
    out = F.conv2d(nn.Tensor(x.astype(np.float64)),
                   nn.Tensor(weight.astype(np.float64)),
                   None, stride=stride, padding=padding)
    return np.rint(out.data).astype(np.int64)


class TestIndexTables:
    def test_table_shapes(self, rng):
        plan, _, _, _, _ = make_case(rng)
        tables = build_index_tables(plan, (9, 9))
        assert tables.n_patches == len(plan.patches)
        assert tables.ifat.shape == (tables.n_patches, 2)
        assert tables.ifrt.shape == (tables.n_patches,
                                     plan.epitome_shape.rows)
        assert tables.ofat.shape == (tables.n_patches, 2)

    def test_ifat_addresses_cover_channel_slabs(self, rng):
        plan, _, _, _, _ = make_case(rng)
        tables = build_index_tables(plan, (9, 9))
        for p, patch in enumerate(plan.patches):
            assert tables.ifat[p, 0] == patch.ci_start * 81
            assert tables.ifat[p, 1] == (patch.ci_start + patch.ci_size) * 81

    def test_ifrt_enables_match_patch_rows(self, rng):
        plan, _, _, _, _ = make_case(rng)
        tables = build_index_tables(plan, (9, 9))
        k = plan.kernel_size[0]
        for p, patch in enumerate(plan.patches):
            assert tables.ifrt[p].sum() == patch.ci_size * k * k

    def test_ofat_ranges_tile_output_channels(self, rng):
        plan, _, _, _, _ = make_case(rng)
        tables = build_index_tables(plan, (9, 9))
        covered = np.zeros(plan.virtual_shape[0], dtype=int)
        for p in range(tables.n_patches):
            covered[tables.ofat[p, 0]:tables.ofat[p, 1]] += 1
        # every output channel covered by n_ci_blocks patches
        assert np.all(covered == plan.n_ci_blocks)

    def test_summary_renders(self, rng):
        plan, _, _, _, _ = make_case(rng)
        text = build_index_tables(plan, (9, 9)).summary()
        assert "IFAT" in text and "OFAT" in text


class TestEpitomeToMatrix:
    def test_layout(self, rng):
        e = rng.standard_normal((3, 2, 2, 2))
        m = epitome_to_matrix(e)
        assert m.shape == (8, 3)
        # word line r = raster(ci, h, w); bit line = eo
        assert m[0, 1] == e[1, 0, 0, 0]
        assert m[7, 2] == e[2, 1, 1, 1]


class TestExactEquivalence:
    @pytest.mark.parametrize("stride,padding", [(1, 1), (1, 0), (2, 1)])
    def test_matches_software_conv(self, rng, stride, padding):
        plan, epitome, x, a_bits, w_bits = make_case(rng)
        expected = reference_conv(x, plan.reconstruct(epitome), stride, padding)
        got = execute_epitome_conv(x, epitome, plan, stride, padding,
                                   DEFAULT_CONFIG, a_bits, w_bits)
        np.testing.assert_array_equal(got, expected)

    def test_wrapping_equals_unwrapped(self, rng):
        plan, epitome, x, a_bits, w_bits = make_case(rng)
        plain = execute_epitome_conv(x, epitome, plan, 1, 1, DEFAULT_CONFIG,
                                     a_bits, w_bits, use_wrapping=False)
        wrapped = execute_epitome_conv(x, epitome, plan, 1, 1, DEFAULT_CONFIG,
                                       a_bits, w_bits, use_wrapping=True)
        np.testing.assert_array_equal(plain, wrapped)

    def test_partial_output_tile(self, rng):
        """co not a multiple of eo exercises the partial OFAT range."""
        plan, epitome, x, a_bits, w_bits = make_case(rng, co=10, cols=4)
        expected = reference_conv(x, plan.reconstruct(epitome), 1, 1)
        for wrap in (False, True):
            got = execute_epitome_conv(x, epitome, plan, 1, 1, DEFAULT_CONFIG,
                                       a_bits, w_bits, use_wrapping=wrap)
            np.testing.assert_array_equal(got, expected)

    def test_1x1_conv_case(self, rng):
        shape = EpitomeShape.from_rows_cols(8, 4, (1, 1), 16)
        plan = build_plan((8, 16, 1, 1), shape)
        epitome = rng.integers(-4, 4, size=shape.as_tuple())
        x = rng.integers(0, 8, size=(1, 16, 5, 5))
        expected = reference_conv(x, plan.reconstruct(epitome), 1, 0)
        got = execute_epitome_conv(x, epitome, plan, 1, 0, DEFAULT_CONFIG,
                                   3, 4)
        np.testing.assert_array_equal(got, expected)

    def test_noise_breaks_exactness_but_stays_close(self, rng):
        """Conductance noise degrades gracefully: the error grows with the
        noise, and at 10% noise the mean error stays under a fifth of the
        largest output."""
        plan, epitome, x, a_bits, w_bits = make_case(rng)
        exact = execute_epitome_conv(x, epitome, plan, 1, 1, DEFAULT_CONFIG,
                                     a_bits, w_bits)

        def noisy(noise_std):
            return execute_epitome_conv(x, epitome, plan, 1, 1,
                                        DEFAULT_CONFIG, a_bits, w_bits,
                                        noise_std=noise_std,
                                        rng=np.random.default_rng(0))

        out = noisy(0.05)
        assert not np.array_equal(exact, out)
        denom = np.maximum(np.abs(exact), 1)
        assert np.median(np.abs(out - exact) / denom) < 0.3
        errors = [np.abs(noisy(s) - exact).mean() for s in (0.01, 0.03, 0.1)]
        assert errors == sorted(errors)
        assert errors[-1] < 0.2 * np.abs(exact).max()

    def test_saturating_adc_reads_low_and_stays_bounded(self, rng):
        """The 8-bit ADC clips a column sum above 255.  A round of
        ``make_case`` drives at most 72 word lines of 2-bit cells
        (72 * 3 < 255), so it never clips.  A 144-line round of weights
        12..15 (upper 2-bit slice 3) under inputs with the top bit set
        sums to 432 in the last input cycle, so it clips, and
        non-negative weights then only lose current."""
        plan, epitome, x, a_bits, w_bits = make_case(rng)
        exact = execute_epitome_conv(x, epitome, plan, 1, 1, DEFAULT_CONFIG,
                                     a_bits, w_bits)
        np.testing.assert_array_equal(
            execute_epitome_conv(x, epitome, plan, 1, 1, DEFAULT_CONFIG,
                                 a_bits, w_bits, ideal_adc=False), exact)

        shape = EpitomeShape.from_rows_cols(256, 16, (3, 3), 64)
        plan = build_plan((16, 64, 3, 3), shape)
        epitome = rng.integers(12, 16, size=shape.as_tuple())
        x = rng.integers(128, 256, size=(1, 64, 8, 8))
        exact = execute_epitome_conv(x, epitome, plan, 1, 1, DEFAULT_CONFIG,
                                     8, 5)
        clipped = execute_epitome_conv(x, epitome, plan, 1, 1,
                                       DEFAULT_CONFIG, 8, 5, ideal_adc=False)
        assert np.all(clipped <= exact)
        assert np.any(clipped < exact)
        assert np.abs(clipped - exact).mean() < 0.5 * np.abs(exact).max()

    def test_ir_drop_loses_less_on_smaller_rounds(self, rng):
        """IR drop only lowers the outputs of non-negative weights, by a
        share that grows with beta and with the column current: a 128-row
        epitome (72 word lines per round) loses less than a 512-row one
        (144 per round).  Beta 0 is exact."""
        def lost_shares(rows, betas):
            shape = EpitomeShape.from_rows_cols(rows, 16, (3, 3), 64)
            plan = build_plan((16, 64, 3, 3), shape)
            epitome = rng.integers(0, 8, size=shape.as_tuple())
            x = rng.integers(0, 64, size=(1, 64, 8, 8))
            exact = execute_epitome_conv(x, epitome, plan, 1, 1,
                                         DEFAULT_CONFIG, 6, 4)
            shares = []
            for beta in betas:
                dropped = execute_epitome_conv(x, epitome, plan, 1, 1,
                                               DEFAULT_CONFIG, 6, 4,
                                               ir_drop_beta=beta)
                assert np.all(dropped <= exact)
                shares.append((exact - dropped).sum() / exact.sum())
            return shares

        sweep = lost_shares(256, (0.0, 0.1, 0.3, 0.6))
        assert sweep[0] == 0.0
        assert all(a < b for a, b in zip(sweep, sweep[1:]))
        [small] = lost_shares(128, (0.4,))
        [large] = lost_shares(512, (0.4,))
        assert small < large
