"""Tests for the texture caches and the angle-tag policy.

Probes go through :class:`~repro.core.paths.L1Replay`, the form a replay
session decides its L1 probes with, and the cache is read after
``flush()``.  A per-access check that the sessions make once per frame
is tested on the per-access oracle in ``tests/reference.py``.
"""

import math

import numpy as np
import pytest

from repro.core.paths import L1_ANGLE_MISS, L1_FILL, L1_HIT, L1Replay
from repro.texture.cache import CacheAccessResult, CacheConfig, TextureCache
from repro.texture.lod import quantize_angle
from tests import reference

RESULTS = {
    L1_HIT: CacheAccessResult.HIT,
    L1_FILL: CacheAccessResult.MISS,
    L1_ANGLE_MISS: CacheAccessResult.ANGLE_MISS,
}


def make_cache(size=1024, assoc=4, line=64):
    return TextureCache(CacheConfig(size_bytes=size, associativity=assoc,
                                    line_bytes=line))


def probe(cache, addresses, angles=None, threshold=0.0):
    """Probe ``addresses`` in order through the L1 replay form and flush
    it into ``cache``; return each probe's outcome.

    ``angles[k]`` is probe ``k``'s camera angle, or None for a probe
    that carries no angle tag; without ``angles`` none does.
    """
    tags = None
    if angles is not None:
        bits = cache.config.angle_bits
        tags = np.array([math.nan if angle is None
                         else quantize_angle(angle, bits)
                         for angle in angles], dtype=np.float64)
    form = L1Replay([cache], np.zeros(len(addresses), dtype=np.int64),
                    np.array(addresses, dtype=np.int64), tags, threshold)
    form.flush()
    return [RESULTS[code] for code in form.outcomes.tolist()]


class TestCacheConfig:
    def test_table1_l1_geometry(self):
        config = CacheConfig(size_bytes=16 * 1024, associativity=16)
        assert config.num_lines == 256
        assert config.num_sets == 16

    def test_angle_storage_matches_paper(self):
        # Section VII-E: 0.21 KB per 16KB L1, 1.75 KB per 128KB L2.
        l1 = CacheConfig(size_bytes=16 * 1024)
        l2 = CacheConfig(size_bytes=128 * 1024)
        assert l1.angle_storage_bytes / 1024 == pytest.approx(0.21, abs=0.02)
        assert l2.angle_storage_bytes / 1024 == pytest.approx(1.75, abs=0.01)

    def test_angle_storage_is_whole_bytes(self):
        # Storage is allocated in bytes: 256 lines x 7 bits = 1792 bits
        # divides evenly (224 B), but a geometry that does not must
        # round up rather than report a fractional byte count.
        exact = CacheConfig(size_bytes=16 * 1024)
        assert exact.angle_storage_bytes == 224
        assert isinstance(exact.angle_storage_bytes, int)
        ragged = CacheConfig(
            size_bytes=768, line_bytes=64, associativity=4
        )
        assert ragged.num_lines == 12  # 84 bits -> 10.5 B, ceil to 11
        assert ragged.angle_storage_bytes == 11
        assert isinstance(ragged.angle_storage_bytes, int)

    def test_validation(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=0)
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1000, line_bytes=64, associativity=16)


class TestBasicCaching:
    def test_first_access_misses_then_hits(self):
        assert probe(make_cache(), [0, 0]) == [
            CacheAccessResult.MISS, CacheAccessResult.HIT]

    def test_same_line_shares_entry(self):
        assert probe(make_cache(), [0, 63, 64])[1:] == [
            CacheAccessResult.HIT, CacheAccessResult.MISS]

    def test_lru_eviction(self):
        cache = make_cache(size=4 * 64, assoc=4)  # one set of 4 lines
        fill = [index * 64 for index in range(4)]
        # Refresh line 0, then evict line 1 (LRU) with a fifth line.
        *_, line_0, line_1 = probe(cache, fill + [0, 4 * 64, 0, 64])
        assert line_0 is CacheAccessResult.HIT
        assert line_1 is CacheAccessResult.MISS

    def test_sets_isolate_addresses(self):
        cache = make_cache(size=8 * 64, assoc=4)  # 2 sets
        # Fill set 0 beyond capacity; set 1 lines must survive.
        set_zero = [index * 2 * 64 for index in range(8)]
        assert probe(cache, [64] + set_zero + [64])[-1] is (
            CacheAccessResult.HIT)

    def test_hit_and_miss_rates(self):
        cache = make_cache()
        probe(cache, [0, 0, 64])
        assert cache.hit_rate() == pytest.approx(1.0 / 3.0)
        assert cache.miss_rate() == pytest.approx(2.0 / 3.0)

    def test_contains_is_side_effect_free(self):
        cache = make_cache()
        probe(cache, [0])
        hits_before = cache.hits
        assert reference.cache_contains(cache, 0)
        assert not reference.cache_contains(cache, 4096)
        assert cache.hits == hits_before

    def test_negative_address_rejected(self):
        """Sessions refuse a frame with a negative address once
        (``tests/core/test_replay_sessions.py``); the oracle checks each
        access."""
        with pytest.raises(ValueError):
            reference.cache_lookup(make_cache(), -1)

    def test_reset_clears_contents(self):
        cache = make_cache()
        probe(cache, [0])
        cache.reset()
        assert probe(cache, [0]) == [CacheAccessResult.MISS]

    def test_reset_counters_keeps_contents(self):
        cache = make_cache()
        probe(cache, [0])
        cache.reset_counters()
        assert cache.hits == 0
        assert probe(cache, [0]) == [CacheAccessResult.HIT]


class TestAngleTagging:
    def test_same_angle_reuses(self):
        threshold = 0.01 * math.pi
        assert probe(make_cache(), [0, 0], [0.3, 0.3], threshold)[-1] is (
            CacheAccessResult.HIT)

    def test_angle_within_threshold_reuses(self):
        threshold = 0.05 * math.pi
        assert probe(make_cache(), [0, 0], [0.30, 0.32], threshold)[-1] is (
            CacheAccessResult.HIT)

    def test_angle_beyond_threshold_recalculates(self):
        cache = make_cache()
        threshold = 0.01 * math.pi
        result = probe(cache, [0, 0], [0.1, 0.8], threshold)[-1]
        assert result is CacheAccessResult.ANGLE_MISS
        assert cache.angle_misses == 1

    def test_angle_miss_updates_stored_angle(self):
        threshold = 0.01 * math.pi
        # The recalculation stores 0.8: the next probe at 0.8 reuses.
        assert probe(make_cache(), [0, 0, 0], [0.1, 0.8, 0.8],
                     threshold)[-1] is CacheAccessResult.HIT

    def test_plain_lookup_after_angled_fill(self):
        assert probe(make_cache(), [0, 0], [0.1, None], 0.05)[-1] is (
            CacheAccessResult.HIT)

    def test_angled_lookup_after_plain_fill_recalculates(self):
        # A line cached without an angle cannot satisfy an angle-checked
        # parent-texel fetch.
        result = probe(make_cache(), [0, 0], [None, 0.3], 0.05)[-1]
        assert result is CacheAccessResult.ANGLE_MISS

    def test_looser_threshold_fewer_recalcs(self):
        angles = [0.05 * index for index in range(20)]
        strict = make_cache()
        loose = make_cache()
        probe(strict, [0] * len(angles), angles, 0.01)
        probe(loose, [0] * len(angles), angles, 1.0)
        assert loose.angle_misses < strict.angle_misses

    def test_quantisation_applied_to_stored_angle(self):
        # Two angles closer than half a quantisation step are identical
        # after quantisation, so they always reuse even at threshold 0.
        step = (math.pi / 2) / 127
        result = probe(make_cache(), [0, 0], [10 * step, 10 * step + step / 8],
                       0.0)[-1]
        assert result is CacheAccessResult.HIT
