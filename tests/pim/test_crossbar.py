"""Tests for the functional crossbar (repro.pim.crossbar)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.pim.config import DEFAULT_CONFIG, HardwareConfig
from repro.pim.crossbar import CrossbarArray


def programmed(weights, bits):
    xbar = CrossbarArray(DEFAULT_CONFIG)
    xbar.program(np.asarray(weights), bits)
    return xbar


class TestProgramming:
    def test_slice_count(self):
        xbar = programmed(np.zeros((4, 4), dtype=np.int64), 9)
        assert xbar.n_slices == 5

    def test_range_validation(self):
        with pytest.raises(ValueError):
            programmed(np.array([[100]]), 4)     # 4-bit max is 7
        with pytest.raises(ValueError):
            programmed(np.array([[-9]]), 4)      # 4-bit min is -8

    def test_requires_integers(self):
        with pytest.raises(TypeError):
            programmed(np.array([[0.5]]), 4)

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            programmed(np.zeros(4, dtype=np.int64), 4)

    def test_unprogrammed_matmul_raises(self):
        xbar = CrossbarArray(DEFAULT_CONFIG)
        with pytest.raises(RuntimeError):
            xbar.matmul(np.zeros((1, 4), dtype=np.int64), 4)


class TestExactness:
    def test_matches_integer_matmul(self, rng):
        w = rng.integers(-64, 64, size=(32, 16))
        x = rng.integers(0, 256, size=(8, 32))
        xbar = programmed(w, 8)
        np.testing.assert_array_equal(xbar.matmul(x, 8), x @ w)

    def test_negative_weights_handled(self):
        w = np.array([[-8, 7], [3, -1]])
        x = np.array([[1, 2], [5, 0]])
        xbar = programmed(w, 4)
        np.testing.assert_array_equal(xbar.matmul(x, 3), x @ w)

    def test_1d_input_promoted(self):
        w = np.array([[2], [3]])
        xbar = programmed(w, 4)
        out = xbar.matmul(np.array([4, 5]), 3)
        assert out.shape == (1, 1)
        assert out[0, 0] == 23

    def test_row_mask_zeroes_rows(self, rng):
        w = rng.integers(-4, 4, size=(6, 3))
        x = rng.integers(0, 8, size=(2, 6))
        mask = np.array([True, False, True, True, False, True])
        xbar = programmed(w, 4)
        expected = (x * mask[None, :]) @ w
        np.testing.assert_array_equal(xbar.matmul(x, 3, row_mask=mask),
                                      expected)

    def test_input_validation(self, rng):
        xbar = programmed(np.zeros((4, 2), dtype=np.int64), 4)
        with pytest.raises(ValueError):
            xbar.matmul(np.array([[-1, 0, 0, 0]]), 4)     # negative input
        with pytest.raises(ValueError):
            xbar.matmul(np.array([[99, 0, 0, 0]]), 4)     # over range
        with pytest.raises(ValueError):
            xbar.matmul(np.array([[1, 0]]), 4)            # wrong width
        with pytest.raises(TypeError):
            xbar.matmul(np.array([[0.5, 0, 0, 0]]), 4)    # non-integer


class TestNonIdealities:
    def test_adc_clipping_changes_result(self, rng):
        w = np.full((256, 4), 3, dtype=np.int64)
        x = np.full((1, 256), 1, dtype=np.int64)
        ideal = CrossbarArray(DEFAULT_CONFIG, ideal_adc=True)
        ideal.program(w, 4)
        clipped = CrossbarArray(DEFAULT_CONFIG, ideal_adc=False)
        clipped.program(w, 4)
        exact = ideal.matmul(x, 1)
        sat = clipped.matmul(x, 1)
        assert np.all(sat <= exact)
        assert np.any(sat < exact)

    def test_noise_perturbs_but_tracks(self, rng):
        w = rng.integers(-16, 16, size=(64, 8))
        x = rng.integers(0, 128, size=(4, 64))
        noisy = CrossbarArray(DEFAULT_CONFIG, noise_std=0.05,
                              rng=np.random.default_rng(0))
        noisy.program(w, 6)
        out = noisy.matmul(x, 8)
        exact = x @ w
        assert not np.array_equal(out, exact)
        # relative error stays moderate
        denom = np.maximum(np.abs(exact), 1)
        assert np.median(np.abs(out - exact) / denom) < 0.2

    def test_zero_noise_is_exact(self, rng):
        w = rng.integers(-16, 16, size=(16, 4))
        x = rng.integers(0, 16, size=(2, 16))
        xbar = CrossbarArray(DEFAULT_CONFIG, noise_std=0.0)
        xbar.program(w, 6)
        np.testing.assert_array_equal(xbar.matmul(x, 4), x @ w)

    def test_ir_drop_reads_low(self, rng):
        """IR drop only ever reduces measured (non-negative) column sums,
        and loses a smaller share of them when fewer word lines are
        driven, as in an IFRT-gated epitome round."""
        w = rng.integers(0, 8, size=(64, 4))        # non-negative weights
        x = rng.integers(0, 64, size=(3, 64))
        ideal = CrossbarArray(DEFAULT_CONFIG)
        ideal.program(w, 6)
        dropped = CrossbarArray(DEFAULT_CONFIG, ir_drop_beta=0.5)
        dropped.program(w, 6)
        exact = ideal.matmul(x, 6)
        low = dropped.matmul(x, 6)
        assert np.all(low <= exact)
        assert np.any(low < exact)
        gated = np.arange(64) < 16
        gated_exact = ideal.matmul(x, 6, row_mask=gated)
        gated_low = dropped.matmul(x, 6, row_mask=gated)
        assert ((gated_exact - gated_low).sum() / gated_exact.sum()
                < (exact - low).sum() / exact.sum())

    def test_ir_drop_zero_is_exact(self, rng):
        w = rng.integers(-8, 8, size=(16, 4))
        x = rng.integers(0, 16, size=(2, 16))
        xbar = CrossbarArray(DEFAULT_CONFIG, ir_drop_beta=0.0)
        xbar.program(w, 5)
        np.testing.assert_array_equal(xbar.matmul(x, 4), x @ w)

    def test_ir_drop_monotone_in_beta(self, rng):
        w = rng.integers(0, 8, size=(128, 4))
        x = rng.integers(0, 64, size=(2, 128))
        exact = x @ w
        errors = []
        for beta in (0.1, 0.3, 0.6):
            xbar = CrossbarArray(DEFAULT_CONFIG, ir_drop_beta=beta)
            xbar.program(w, 6)
            out = xbar.matmul(x, 6)
            errors.append(np.abs(out - exact).sum())
        assert errors[0] <= errors[1] <= errors[2]


@given(seed=st.integers(0, 2 ** 31), bits=st.integers(2, 10),
       abits=st.integers(1, 9), dac=st.sampled_from([1, 2, 3]),
       cell=st.sampled_from([1, 2, 4]))
@settings(max_examples=60, deadline=None)
def test_exactness_property(seed, bits, abits, dac, cell):
    """Bit-sliced bit-serial evaluation is exact for any geometry."""
    rng = np.random.default_rng(seed)
    config = HardwareConfig(dac_bits=dac, cell_bits=cell)
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    w = rng.integers(lo, hi + 1, size=(12, 5))
    x = rng.integers(0, 1 << abits, size=(3, 12))
    xbar = CrossbarArray(config)
    xbar.program(w, bits)
    np.testing.assert_array_equal(xbar.matmul(x, abits), x @ w)
