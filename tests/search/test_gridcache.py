"""Build-path equivalence and the persistent grid cache.

The PR 4 contract: the deduped and the warm-cache grid builds are
*bit-for-bit* identical to the retained serial reference — layer names,
options, cache cells and ``GridMatrices`` arrays — and the cache
invalidates on any ``HardwareConfig`` / ``ComponentLUT`` change via
content addressing.
"""

import io
import json
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.models.specs import resnet18_spec
from repro.pim.config import DEFAULT_CONFIG
from repro.pim.lut import DEFAULT_LUT
from repro.search import (
    GridCache,
    build_candidate_grid,
    build_candidate_grid_serial,
    grid_context_key,
    layer_signature,
)

BUILD_KWARGS = dict(weight_bits=9, activation_bits=9, use_wrapping=True)


@pytest.fixture(scope="module")
def spec():
    return resnet18_spec()


@pytest.fixture(scope="module")
def serial(spec):
    return build_candidate_grid_serial(spec, **BUILD_KWARGS)


def assert_grids_identical(a, b):
    """Exact equality: candidates, cache cells and matrices arrays."""
    assert a.spec == b.spec
    assert a.candidates == b.candidates
    assert list(a.cache) == list(b.cache)
    for key, cell in a.cache.items():
        other = b.cache[key]
        # Tuple equality is exact for the int and both floats; spell the
        # float comparison out so a failure names the differing field.
        assert cell[0] == other[0], key
        assert cell[1] == other[1], key
        assert cell[2] == other[2], key
    ma, mb = a.matrices(), b.matrices()
    assert ma.layer_names == mb.layer_names
    assert ma.options == mb.options
    for field in ("num_options", "crossbars", "latency_ns", "dynamic_pj"):
        fa, fb = getattr(ma, field), getattr(mb, field)
        assert fa.dtype == fb.dtype
        assert np.array_equal(fa, fb), field


class TestBuildEquivalence:
    def test_dedup_equals_serial(self, spec, serial):
        assert_grids_identical(
            build_candidate_grid(spec, **BUILD_KWARGS), serial)
        assert build_candidate_grid(spec, **BUILD_KWARGS) == serial

    def test_warm_cache_equals_serial(self, spec, serial, tmp_path):
        cache = GridCache(tmp_path)
        cold = build_candidate_grid(spec, cache=cache, **BUILD_KWARGS)
        warm = build_candidate_grid(spec, cache=cache, **BUILD_KWARGS)
        assert_grids_identical(cold, serial)
        assert_grids_identical(warm, serial)
        assert cold.build_stats.cache_hits == 0
        assert cold.build_stats.simulated > 0
        assert warm.build_stats.simulated == 0
        assert warm.build_stats.cache_misses == 0
        assert warm.build_stats.cache_hits == \
            cold.build_stats.sim_tasks_unique

    def test_no_wrapping_variant(self, spec):
        kwargs = dict(weight_bits=9, activation_bits=9, use_wrapping=False)
        assert_grids_identical(build_candidate_grid(spec, **kwargs),
                               build_candidate_grid_serial(spec, **kwargs))

    def test_fp32_variant(self, spec):
        assert_grids_identical(build_candidate_grid(spec),
                               build_candidate_grid_serial(spec))

    def test_build_stats_dedup_accounting(self, spec):
        grid = build_candidate_grid(spec, **BUILD_KWARGS)
        stats = grid.build_stats
        assert stats.layers == len(spec)
        assert stats.unique_signatures < stats.layers
        assert stats.sim_tasks_unique < stats.sim_tasks_total
        assert stats.sim_tasks_total == len(grid.cache)
        assert stats.simulated == stats.sim_tasks_unique   # no cache
        assert not stats.cache_enabled
        assert stats.build_s > 0


class TestPartialHits:
    def test_candidate_list_edit_partially_hits(self, spec, tmp_path):
        cache = GridCache(tmp_path)
        subset = [None, (1024, 256), (512, 128)]
        build_candidate_grid(spec, subset, cache=cache, **BUILD_KWARGS)
        full = build_candidate_grid(spec, cache=cache, **BUILD_KWARGS)
        stats = full.build_stats
        assert stats.cache_hits > 0, "shared candidates must hit"
        assert stats.simulated > 0, "new candidates must simulate"
        assert_grids_identical(
            full, build_candidate_grid_serial(spec, **BUILD_KWARGS))

    def test_different_spec_shares_shapes(self, tmp_path):
        # ResNet-34 reuses ResNet-18's block shapes; a warm ResNet-18
        # cache must partially serve it.
        from repro.models.specs import resnet34_spec

        cache = GridCache(tmp_path)
        build_candidate_grid(resnet18_spec(), cache=cache, **BUILD_KWARGS)
        grid34 = build_candidate_grid(resnet34_spec(), cache=cache,
                                      **BUILD_KWARGS)
        assert grid34.build_stats.cache_hits > 0
        assert_grids_identical(
            grid34,
            build_candidate_grid_serial(resnet34_spec(), **BUILD_KWARGS))


class TestInvalidation:
    def test_changed_hardware_config_misses(self, spec, tmp_path):
        cache = GridCache(tmp_path)
        build_candidate_grid(spec, cache=cache, **BUILD_KWARGS)
        other = DEFAULT_CONFIG.with_(xbar_rows=128)
        rebuilt = build_candidate_grid(spec, config=other, cache=cache,
                                       **BUILD_KWARGS)
        assert rebuilt.build_stats.cache_hits == 0
        assert rebuilt.build_stats.simulated == \
            rebuilt.build_stats.sim_tasks_unique
        assert_grids_identical(
            rebuilt, build_candidate_grid_serial(spec, config=other,
                                                 **BUILD_KWARGS))

    def test_changed_lut_misses(self, spec, tmp_path):
        cache = GridCache(tmp_path)
        first = build_candidate_grid(spec, cache=cache, **BUILD_KWARGS)
        scaled = DEFAULT_LUT.scaled(latency_scale=2.0)
        rebuilt = build_candidate_grid(spec, lut=scaled, cache=cache,
                                       **BUILD_KWARGS)
        assert rebuilt.build_stats.cache_hits == 0
        assert rebuilt.cache != first.cache, "scaled LUT must change values"

    def test_precision_and_wrapping_change_signatures(self, spec):
        base = grid_context_key(9, 9, True, DEFAULT_CONFIG, DEFAULT_LUT)
        layer = spec[0]
        sig = layer_signature(layer, base)
        for ctx in (grid_context_key(7, 9, True, DEFAULT_CONFIG, DEFAULT_LUT),
                    grid_context_key(9, 9, False, DEFAULT_CONFIG,
                                     DEFAULT_LUT),
                    grid_context_key(9, 9, True,
                                     DEFAULT_CONFIG.with_(cell_bits=1),
                                     DEFAULT_LUT)):
            assert layer_signature(layer, ctx) != sig

    def test_same_shape_layers_share_signature(self, spec):
        ctx = grid_context_key(9, 9, True, DEFAULT_CONFIG, DEFAULT_LUT)
        by_sig = {}
        for layer in spec:
            by_sig.setdefault(layer_signature(layer, ctx), []).append(layer)
        assert any(len(group) > 1 for group in by_sig.values())
        for group in by_sig.values():
            first = group[0]
            for layer in group[1:]:
                assert layer.in_channels == first.in_channels
                assert layer.kernel_size == first.kernel_size


class TestCacheStore:
    def test_corrupt_file_is_a_miss(self, spec, tmp_path):
        cache = GridCache(tmp_path)
        build_candidate_grid(spec, cache=cache, **BUILD_KWARGS)
        victim = next(iter(sorted(tmp_path.glob("*.json"))))
        victim.write_text("{not json")
        rebuilt = build_candidate_grid(spec, cache=cache, **BUILD_KWARGS)
        assert rebuilt.build_stats.cache_misses > 0
        assert_grids_identical(
            rebuilt, build_candidate_grid_serial(spec, **BUILD_KWARGS))

    def test_nesting_too_deep_is_a_miss(self, tmp_path):
        (tmp_path / "deadbeef.json").write_text("[" * 200_000)
        assert GridCache(tmp_path).load("deadbeef") == {}

    def test_foreign_format_is_a_miss(self, tmp_path):
        cache = GridCache(tmp_path)
        path = tmp_path / "deadbeef.json"
        path.write_text(json.dumps({"format": 999, "signature": "deadbeef",
                                    "entries": {"none": [1, 2.0, 3.0]}}))
        assert cache.load("deadbeef") == {}

    def test_malformed_cell_values_are_misses(self, tmp_path):
        # Parses as JSON and passes the format checks, but one cell holds
        # garbage: that cell is a miss, the good cell still loads.
        from repro.search.gridcache import GRID_CACHE_FILE_FORMAT

        cache = GridCache(tmp_path)
        (tmp_path / "cafe.json").write_text(json.dumps({
            "format": GRID_CACHE_FILE_FORMAT, "signature": "cafe",
            "entries": {"none": ["xx", 1.0, 2.0],
                        "s1x1x1x1": [2, None, 3.0],
                        "s2x2x2x2": [7, 8.0, 9.0],
                        "short": [1, 2.0]}}))
        assert cache.load("cafe") == {"s2x2x2x2": (7, 8.0, 9.0)}

    def test_store_merges_entries(self, tmp_path):
        cache = GridCache(tmp_path)
        cache.store("aa", {"none": (1, 2.0, 3.0)})
        cache.store("aa", {"s1x1x1x1": (4, 5.0, 6.0)})
        assert cache.load("aa") == {"none": (1, 2.0, 3.0),
                                    "s1x1x1x1": (4, 5.0, 6.0)}

    def test_float_round_trip_exact(self, tmp_path):
        cache = GridCache(tmp_path)
        cell = (7, 0.1 + 0.2, 1e-17 + 123456.789)
        cache.store("bb", {"none": cell})
        assert cache.load("bb")["none"] == cell

    @given(cells=st.dictionaries(
        st.text(min_size=1, max_size=8),
        st.tuples(st.integers(0, 2**40),
                  st.floats(allow_nan=False, allow_infinity=False),
                  st.sampled_from([1e-300, 5e300, -0.0, 0.1 + 0.2])),
        min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_file_bytes_match_streaming_encoder(self, tmp_path, cells):
        # The store encodes in one shot; its file must hold exactly the
        # bytes the streaming json.dump writes for the same payload.
        from repro.search.gridcache import GRID_CACHE_FILE_FORMAT

        cache = GridCache(tmp_path)
        cache.wipe()
        cache.store("cc", cells)
        streamed = io.StringIO()
        json.dump({"format": GRID_CACHE_FILE_FORMAT, "signature": "cc",
                   "entries": {key: list(cell)
                               for key, cell in cells.items()}},
                  streamed, sort_keys=True)
        assert (tmp_path / "cc.json").read_bytes() \
            == streamed.getvalue().encode("utf-8")

    def test_wipe(self, spec, tmp_path):
        cache = GridCache(tmp_path)
        build_candidate_grid(spec, cache=cache, **BUILD_KWARGS)
        (tmp_path / ".deadbeef.xyz.tmp").write_text("orphaned by a kill")
        assert cache.wipe() > 0
        assert list(tmp_path.glob("*.json")) == []
        assert list(tmp_path.glob(".*.tmp")) == []
        assert cache.wipe() == 0

    def test_unwritable_dir_warns_but_build_succeeds(self, spec, tmp_path):
        # A regular file where the cache dir should be makes every write
        # fail with OSError for any user (chmod tricks don't bind root,
        # which CI containers run as).
        victim = tmp_path / "not-a-dir"
        victim.write_text("in the way")
        cache = GridCache(victim)
        with pytest.warns(UserWarning, match="grid cache write failed"):
            grid = build_candidate_grid(spec, cache=cache, **BUILD_KWARGS)
        assert_grids_identical(
            grid, build_candidate_grid_serial(spec, **BUILD_KWARGS))
        assert cache.stats.files_written == 0

    def test_env_var_default_dir(self, tmp_path, monkeypatch):
        from repro.search.gridcache import ENV_CACHE_DIR, default_cache_dir

        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "envgrids"))
        assert default_cache_dir() == tmp_path / "envgrids"
        assert GridCache().dir == tmp_path / "envgrids"


class TestCandidateGridObject:
    def test_matrices_memoized(self, spec):
        grid = build_candidate_grid(spec, **BUILD_KWARGS)
        assert grid.matrices() is grid.matrices()

    def test_pickle_drops_matrices_and_preserves_equality(self, spec):
        grid = build_candidate_grid(spec, **BUILD_KWARGS)
        grid.matrices()
        clone = pickle.loads(pickle.dumps(grid))
        assert clone._matrices is None
        assert clone == grid
        assert clone.matrices().layer_names == grid.matrices().layer_names

    def test_pickle_without_matrices_is_smaller(self, spec):
        grid = build_candidate_grid(spec, **BUILD_KWARGS)
        lean = len(pickle.dumps(grid))
        grid.matrices()
        assert len(pickle.dumps(grid)) == lean

    def test_build_stats_excluded_from_equality(self, spec, serial):
        grid = build_candidate_grid(spec, **BUILD_KWARGS)
        assert grid.build_stats is not None and serial.build_stats is None
        assert grid == serial
