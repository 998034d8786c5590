"""Property-based tests: the texture cache against a reference model.

A miniature reference implementation (plain dict + recency list) checks
the set-associative LRU cache over arbitrary access sequences generated
by hypothesis -- the classic model-based test for replacement policies.
"""

from collections import OrderedDict

from hypothesis import given, settings, strategies as st

from repro.texture.cache import CacheAccessResult, CacheConfig, TextureCache

LINE = 64
ASSOC = 2
SETS = 2
CONFIG = CacheConfig(
    size_bytes=LINE * ASSOC * SETS, line_bytes=LINE, associativity=ASSOC
)


class ReferenceCache:
    """Trivially correct set-associative LRU model."""

    def __init__(self) -> None:
        self.sets = {index: OrderedDict() for index in range(SETS)}

    def access(self, address: int) -> bool:
        line = address // LINE
        set_index = line % SETS
        tag = line // SETS
        cache_set = self.sets[set_index]
        if tag in cache_set:
            cache_set.move_to_end(tag)
            return True
        if len(cache_set) >= ASSOC:
            cache_set.popitem(last=False)
        cache_set[tag] = None
        return False


addresses = st.integers(min_value=0, max_value=LINE * 64 - 1)


class TestCacheAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(sequence=st.lists(addresses, min_size=1, max_size=200))
    def test_hit_miss_sequence_matches_reference(self, sequence):
        cache = TextureCache(CONFIG)
        reference = ReferenceCache()
        for address in sequence:
            expected_hit = reference.access(address)
            result = cache.lookup(address)
            assert result.is_hit == expected_hit, (
                f"divergence at address {address}"
            )

    @settings(max_examples=100, deadline=None)
    @given(sequence=st.lists(addresses, min_size=1, max_size=100))
    def test_counters_consistent(self, sequence):
        cache = TextureCache(CONFIG)
        for address in sequence:
            cache.lookup(address)
        assert cache.hits + cache.misses == len(sequence)
        assert 0.0 <= cache.hit_rate() <= 1.0
        assert cache.hit_rate() + cache.miss_rate() == 1.0

    @settings(max_examples=100, deadline=None)
    @given(sequence=st.lists(addresses, min_size=1, max_size=100))
    def test_contains_agrees_with_next_lookup(self, sequence):
        cache = TextureCache(CONFIG)
        for address in sequence:
            present = cache.contains(address)
            result = cache.lookup(address)
            assert result.is_hit == present

    @settings(max_examples=50, deadline=None)
    @given(
        sequence=st.lists(addresses, min_size=1, max_size=50),
        angle_a=st.floats(0.0, 1.5),
        angle_b=st.floats(0.0, 1.5),
        threshold=st.floats(0.0, 1.6),
    )
    def test_angle_policy_never_misclassifies_presence(
        self, sequence, angle_a, angle_b, threshold
    ):
        """An angle mismatch may force recalculation, but only on lines
        that are actually present (ANGLE_MISS never replaces MISS)."""
        cache = TextureCache(CONFIG)
        reference = ReferenceCache()
        for index, address in enumerate(sequence):
            angle = angle_a if index % 2 == 0 else angle_b
            expected_present = reference.access(address)
            result = cache.lookup(address, angle=angle, angle_threshold=threshold)
            if result is CacheAccessResult.MISS:
                assert not expected_present
            else:
                assert expected_present


def geometry(sets, ways):
    return CacheConfig(
        size_bytes=LINE * sets * ways, line_bytes=LINE, associativity=ways
    )


@st.composite
def warm_start_cases(draw):
    """A cache geometry and an access stream over it: line indices,
    with or without per-access camera angles and a threshold.

    The stream is either random over a pool of lines up to three times
    the capacity, or a cyclic scan over such a pool, so the warm-up
    both matters and does not."""
    sets = draw(st.integers(1, 8))
    ways = draw(st.integers(1, 8))
    pool = draw(st.integers(1, 3 * sets * ways))
    if draw(st.booleans()):
        lines = draw(st.lists(st.integers(0, pool - 1), min_size=1,
                              max_size=150))
    else:
        lines = list(range(pool)) * draw(st.integers(1, 3))
    angles, threshold = [None] * len(lines), None
    if draw(st.booleans()):
        angles = draw(st.lists(st.floats(0.0, 1.5), min_size=len(lines),
                               max_size=len(lines)))
        threshold = draw(st.floats(0.0, 0.5))
    return geometry(sets, ways), list(zip(lines, angles)), threshold


def run_pass(cache, stream, threshold):
    return [
        cache.lookup(line * LINE, angle=angle, angle_threshold=threshold)
        for line, angle in stream
    ]


def contents(cache):
    """Every set's lines, oldest first, with their angle tags."""
    return {
        index: [(tag, line.angle) for tag, line in cache_set.items()]
        for index, cache_set in cache._sets.items() if cache_set
    }


class TestWarmStartInert:
    """``warm_start_inert`` after a cold pass predicts, exactly, whether
    the same pass from the warm contents repeats every outcome."""

    @settings(max_examples=300, deadline=None)
    @given(case=warm_start_cases())
    def test_check_is_exact_on_the_live_cache(self, case):
        config, stream, threshold = case
        cache = TextureCache(config)
        cold = run_pass(cache, stream, threshold)
        inert = cache.warm_start_inert()
        cold_contents = contents(cache)
        cache.reset_counters()
        warm = run_pass(cache, stream, threshold)
        assert inert == (warm == cold)
        if inert:
            assert contents(cache) == cold_contents

    def test_a_set_with_a_free_way_is_not_inert(self):
        """Set 0 cycles through twice its ways (inert on its own); set 1
        sees two tags in four ways, so a warm start hits them."""
        cache = TextureCache(geometry(sets=2, ways=4))
        set_zero = [2 * tag for tag in range(8)]
        run_pass(cache, [(line, None) for line in set_zero], None)
        assert cache.warm_start_inert()
        run_pass(cache, [(1, None), (3, None)], None)
        assert not cache.warm_start_inert()

    def test_reset_clears_the_log(self):
        cache = TextureCache(geometry(sets=1, ways=2))
        run_pass(cache, [(0, None)], None)
        assert not cache.warm_start_inert()
        cache.reset()
        assert cache.warm_start_inert()
        run_pass(cache, [(0, None), (1, None), (2, None), (3, None)], None)
        assert cache.warm_start_inert()
