"""Unit tests for the set-associative cache model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig
from repro.mem.cache import CacheAccess, SetAssocCache
from repro.mem.replacement import make_policy


def small_cache(sets=4, ways=2):
    return SetAssocCache(CacheConfig("t", sets * ways * 64, ways, 1))


class TestGeometry:
    def test_sets_and_ways(self):
        cache = SetAssocCache(CacheConfig("L1", 32 * 1024, 8, 1))
        assert cache.num_sets == 64
        assert cache.ways == 8

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig("bad", 1000, 3, 1)

    def test_set_index_of(self):
        cache = small_cache(sets=4)
        assert cache.set_index_of(0) == 0
        assert cache.set_index_of(64) == 1
        assert cache.set_index_of(64 * 4) == 0
        assert cache.set_index_of(65) == 1  # same block as 64


class TestLookupInsert:
    def test_miss_then_hit(self):
        cache = small_cache()
        assert not cache.lookup(0x1000)
        cache.insert(0x1000)
        assert cache.lookup(0x1000)
        assert cache.counters.get("hits") == 1
        assert cache.counters.get("misses") == 1

    def test_insert_same_block_no_evict(self):
        cache = small_cache()
        cache.insert(0x1000)
        event = cache.insert(0x1000)
        assert event.hit
        assert event.evicted_addr is None

    def test_lru_eviction_order(self):
        cache = small_cache(sets=1, ways=2)
        cache.insert(0 * 64)
        cache.insert(1 * 64)
        event = cache.insert(2 * 64)
        assert event.evicted_addr == 0  # least recently used

    def test_lookup_refreshes_recency(self):
        cache = small_cache(sets=1, ways=2)
        cache.insert(0 * 64)
        cache.insert(1 * 64)
        cache.lookup(0)  # promote block 0
        event = cache.insert(2 * 64)
        assert event.evicted_addr == 64

    def test_peek_does_not_refresh(self):
        cache = small_cache(sets=1, ways=2)
        cache.insert(0 * 64)
        cache.insert(1 * 64)
        assert cache.contains(0)
        event = cache.insert(2 * 64)
        assert event.evicted_addr == 0

    def test_sub_block_addresses_alias(self):
        cache = small_cache()
        cache.insert(0x1000)
        assert cache.lookup(0x1001)
        assert cache.lookup(0x103F)


class TestDirty:
    def test_dirty_eviction_reported(self):
        cache = small_cache(sets=1, ways=1)
        cache.insert(0, dirty=True)
        event = cache.insert(64)
        assert event.evicted_addr == 0
        assert event.evicted_dirty

    def test_clean_eviction(self):
        cache = small_cache(sets=1, ways=1)
        cache.insert(0)
        event = cache.insert(64)
        assert not event.evicted_dirty

    def test_mark_dirty(self):
        cache = small_cache()
        cache.insert(0x40)
        assert not cache.is_dirty(0x40)
        cache.mark_dirty(0x40)
        assert cache.is_dirty(0x40)

    def test_mark_dirty_absent_is_noop(self):
        cache = small_cache()
        cache.mark_dirty(0x40)
        assert not cache.contains(0x40)

    def test_insert_or_dirty_merge(self):
        cache = small_cache()
        cache.insert(0x40, dirty=True)
        cache.insert(0x40, dirty=False)
        assert cache.is_dirty(0x40)


class TestInvalidate:
    def test_invalidate_present(self):
        cache = small_cache()
        cache.insert(0x40, dirty=True)
        present, dirty = cache.invalidate(0x40)
        assert present and dirty
        assert not cache.contains(0x40)

    def test_invalidate_absent(self):
        cache = small_cache()
        assert cache.invalidate(0x40) == (False, False)

    def test_clear(self):
        cache = small_cache()
        cache.insert(0)
        cache.insert(64)
        cache.clear()
        assert cache.occupancy() == 0


class TestOccupancyInvariants:
    @given(st.lists(st.integers(min_value=0, max_value=255), max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, block_numbers):
        cache = small_cache(sets=4, ways=2)
        for number in block_numbers:
            cache.insert(number * 64)
            assert cache.occupancy() <= 8
            for set_index in range(4):
                assert len(cache.blocks_in_set(set_index)) <= 2

    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_most_recent_insert_always_present(self, block_numbers):
        cache = small_cache(sets=2, ways=2)
        for number in block_numbers:
            cache.insert(number * 64)
            assert cache.contains(number * 64)

    @given(st.lists(st.integers(min_value=0, max_value=63), max_size=100))
    @settings(max_examples=30, deadline=None)
    def test_blocks_map_to_correct_set(self, block_numbers):
        cache = small_cache(sets=4, ways=2)
        for number in block_numbers:
            cache.insert(number * 64)
        for set_index in range(4):
            for addr in cache.blocks_in_set(set_index):
                assert cache.set_index_of(addr) == set_index

    def test_iteration_covers_all(self):
        cache = small_cache(sets=4, ways=2)
        addrs = {i * 64 for i in range(6)}
        for addr in addrs:
            cache.insert(addr)
        assert set(cache) == addrs


class _ReferenceCache:
    """The cache written the plain way: one set at a time, the lowest
    free way first, otherwise ``victim`` over the scanned occupancy."""

    def __init__(self, sets: int, ways: int, replacement: str) -> None:
        self.sets, self.ways, self.replacement = sets, ways, replacement
        self._tags: dict[int, list] = {}
        self._dirty: dict[int, list] = {}
        self._policy: dict[int, object] = {}

    def _set(self, block: int) -> int:
        index = (block // 64) % self.sets
        if index not in self._tags:
            self._tags[index] = [None] * self.ways
            self._dirty[index] = [False] * self.ways
            self._policy[index] = make_policy(self.replacement, self.ways, index)
        return index

    def _way(self, index: int, block: int):
        tags = self._tags[index]
        return tags.index(block) if block in tags else None

    def lookup(self, block: int, touch: bool) -> bool:
        index = self._set(block)
        way = self._way(index, block)
        if way is not None and touch:
            self._policy[index].on_access(way)
        return way is not None

    def insert(self, block: int, dirty: bool) -> CacheAccess:
        index = self._set(block)
        tags, dirt, policy = self._tags[index], self._dirty[index], self._policy[index]
        way = self._way(index, block)
        if way is not None:
            dirt[way] = dirt[way] or dirty
            policy.on_access(way)
            return CacheAccess(hit=True)
        evicted = CacheAccess(hit=False)
        free = [w for w, tag in enumerate(tags) if tag is None]
        if free:
            way = free[0]
        else:
            way = policy.victim([tag is not None for tag in tags])
            evicted = CacheAccess(False, tags[way], dirt[way])
        tags[way], dirt[way] = block, dirty
        policy.on_fill(way)
        return evicted

    def invalidate(self, block: int) -> tuple[bool, bool]:
        index = self._set(block)
        way = self._way(index, block)
        if way is None:
            return False, False
        was_dirty = self._dirty[index][way]
        self._tags[index][way], self._dirty[index][way] = None, False
        return True, was_dirty

    def mark_dirty(self, block: int) -> None:
        index = self._set(block)
        way = self._way(index, block)
        if way is not None:
            self._dirty[index][way] = True

    def state_snapshot(self) -> dict:
        snapshot = {}
        for index in sorted(self._tags):
            tags, dirt = self._tags[index], self._dirty[index]
            if self.replacement == "lru":
                order = self._policy[index]._stack
            else:
                order = range(self.ways)
            entries = tuple((tags[w], dirt[w]) for w in order if tags[w] is not None)
            if entries:
                snapshot[index] = entries
        return snapshot


_CACHE_OPS = st.lists(
    st.tuples(
        st.sampled_from(("insert", "lookup", "invalidate", "mark_dirty")),
        st.integers(min_value=0, max_value=23),  # block id
        st.booleans(),  # dirty (insert) / touch (lookup)
    ),
    max_size=150,
)


class TestReferenceModel:
    @given(
        st.sampled_from(("lru", "plru", "random")),
        st.sampled_from((1, 2, 4)),  # sets
        st.sampled_from((1, 2, 4)),  # ways (tree-PLRU needs a power of two)
        _CACHE_OPS,
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_cache(self, replacement, sets, ways, operations):
        cache = SetAssocCache(
            CacheConfig("t", sets * ways * 64, ways, 1), replacement=replacement
        )
        model = _ReferenceCache(sets, ways, replacement)
        for op, block_id, flag in operations:
            block = block_id * 64
            if op == "insert":
                assert cache.insert(block, dirty=flag) == model.insert(block, flag)
            elif op == "lookup":
                assert cache.lookup(block, touch=flag) == model.lookup(block, flag)
            elif op == "invalidate":
                assert cache.invalidate(block) == model.invalidate(block)
            else:
                cache.mark_dirty(block)
                model.mark_dirty(block)
        assert cache.state_snapshot() == model.state_snapshot()
