"""``sorted_quantiles`` and histogram quantiles against NumPy, and
sorted bucket counts against one comparison pass per bound.

The histograms and ``summary()`` read their quantiles off one sorted
copy of each sample with :func:`repro.obs.metrics.sorted_quantiles`,
which promises what ``np.quantile`` (and ``np.percentile``, through
``np.true_divide(q, 100)``) return, bit for bit.  The property is
checked by ``float.hex`` over arrays that reach the corners of NumPy's
arithmetic: one or two elements, ties and all-equal arrays, signed
zeros, infinities and NaN, arrays longer than ``SAMPLE_CAP``, and
the exact probability vectors the histograms and ``summary()`` use.
A histogram that has seen at most ``SAMPLE_CAP`` values must report
``np.quantile`` of all of them, however they were split into publishes.

NumPy selects by partition, which may leave tied ``-0.0`` and ``0.0``
in another order than a sort does; where an array holds both, the
results must be equal as numbers (NaN included), and may differ only in
the sign of a zero.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.obs.metrics import (
    DEFAULT_QUANTILES,
    SAMPLE_CAP,
    Histogram,
    sorted_quantiles,
)

SUMMARY_PERCENTILES = [50.0, 95.0, 99.0]
SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan]
BOUNDS = (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0)


@st.composite
def samples(draw, long_sizes=(SAMPLE_CAP + 1, 3 * SAMPLE_CAP)):
    """A float64 array: small with hypothesis-drawn values, or one of
    ``long_sizes`` (by default longer than ``SAMPLE_CAP``) drawn from a
    seeded pool."""
    kind = draw(st.sampled_from(["floats", "ties", "equal", "long"]))
    if kind == "floats":
        values = draw(st.lists(st.floats(allow_nan=True,
                                         allow_infinity=True),
                               min_size=1, max_size=40))
        return np.array(values, dtype=np.float64)
    if kind == "equal":
        n = draw(st.integers(1, 12))
        value = draw(st.sampled_from(SPECIALS + [1.0, -2.5]))
        return np.full(n, value)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = (draw(st.integers(1, 40)) if kind == "ties"
         else draw(st.integers(*long_sizes)))
    values = rng.integers(-3, 12, n).astype(np.float64) / 2.0
    specials = rng.random(n) < draw(st.sampled_from([0.0, 0.05, 0.3]))
    values[specials] = rng.choice(SPECIALS, int(specials.sum()))
    return values


def probabilities():
    return st.one_of(
        st.just(list(DEFAULT_QUANTILES)),
        st.just(list(np.true_divide(SUMMARY_PERCENTILES, 100))),
        st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0])),
                 min_size=1, max_size=8))


def hexes(values) -> list:
    return [float.hex(v) for v in np.asarray(values).tolist()]


def assert_numpy_result(got, expected, data):
    assert np.array_equal(got, expected, equal_nan=True), (got, expected)
    zeros = data[data == 0.0]
    if not (np.signbit(zeros).any() and not np.signbit(zeros).all()):
        assert hexes(got) == hexes(expected)


@settings(max_examples=400, deadline=None)
@given(data=samples(), probs=probabilities())
def test_matches_np_quantile(data, probs):
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, 2 * max
        got = sorted_quantiles(np.sort(data), probs)
        expected = np.quantile(data, probs)
    assert_numpy_result(got, expected, data)


@settings(max_examples=200, deadline=None)
@given(data=samples(),
       qs=st.one_of(st.just(SUMMARY_PERCENTILES),
                    st.lists(st.floats(0.0, 100.0), min_size=1, max_size=4)))
def test_matches_np_percentile(data, qs):
    with np.errstate(invalid="ignore", over="ignore"):
        got = sorted_quantiles(np.sort(data), np.true_divide(qs, 100))
        expected = np.percentile(data, qs)
    assert_numpy_result(got, expected, data)


@settings(max_examples=300, deadline=None)
@given(data=samples(long_sizes=(SAMPLE_CAP // 2, SAMPLE_CAP)),
       probs=probabilities(), cuts=st.lists(st.floats(0.0, 1.0), max_size=6),
       single=st.booleans())
def test_histogram_quantiles_match_all_publishes(data, probs, cuts, single):
    """Split at most ``SAMPLE_CAP`` values into publishes anywhere (a
    one-value publish through ``observe`` or ``observe_many``): the
    histogram reports ``np.quantile`` of their concatenation."""
    edges = sorted({int(c * data.size) for c in cuts} | {0, data.size})
    h = Histogram("h")
    with np.errstate(invalid="ignore", over="ignore"):
        for lo, hi in zip(edges, edges[1:]):
            if hi - lo == 1 and single:
                h.observe(float(data[lo]))
            else:
                h.observe_many(data[lo:hi])
        quantiles = h.quantiles(probs)
        expected = np.quantile(data, probs)
    got = [quantiles[p] for p in probs]
    assert h.count == data.size <= SAMPLE_CAP
    assert_numpy_result(np.array(got), expected, data)


def test_known_corners():
    """Cases that fail without one of NumPy's rules."""
    cases = [
        # g >= 0.5 takes b - d*(1 - g); a + d*g rounds differently here
        (np.array([0.1, 0.7]), [0.7]),
        # index at n - 1 clamps both neighbours to the last element,
        # with weight index + 1: inf - inf makes q = 1 NaN
        (np.array([1.0, np.inf]), [1.0]),
        # one element: every quantile is it
        (np.array([-0.0]), [0.0, 0.5, 1.0]),
        # a NaN anywhere makes every quantile NaN
        (np.array([1.0, 2.0, np.nan]), [0.0, 0.5]),
    ]
    with np.errstate(invalid="ignore"):
        for data, probs in cases:
            assert hexes(sorted_quantiles(np.sort(data), probs)) == \
                hexes(np.quantile(data, probs))


@settings(max_examples=200, deadline=None)
@given(data=samples())
def test_sorted_bucket_counts_match_comparisons(data):
    """One ``searchsorted`` of the bounds into the sorted sample counts
    what one comparison pass per bound does; NaN lands in +Inf."""
    ordered = np.sort(data)
    at_or_below = np.searchsorted(ordered, BOUNDS, "right").tolist()
    assert at_or_below == [int(np.count_nonzero(data <= bound))
                           for bound in BOUNDS]
    h = Histogram("h", buckets=BOUNDS)
    with np.errstate(invalid="ignore", over="ignore"):   # the sum may overflow
        h.observe_many(data)
    index = np.searchsorted(BOUNDS, data[~np.isnan(data)], side="left")
    expected = np.bincount(index, minlength=len(BOUNDS) + 1)
    expected[-1] += int(np.isnan(data).sum())
    assert h.bucket_counts == expected.tolist()
