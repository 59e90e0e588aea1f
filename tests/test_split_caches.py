"""Tests for the split counter/tree metadata-cache organisation."""

import pytest

from repro.attacks import MetaLeakT, MetadataEvictor
from repro.config import (
    GIB,
    KIB,
    PAGE_SIZE,
    CacheConfig,
    SecureProcessorConfig,
)
from repro.os import PageAllocator
from repro.proc import SecureProcessor


def split_machine(protected_size=1 * GIB):
    config = SecureProcessorConfig.sct_default(
        protected_size=protected_size,
        functional_crypto=False,
        split_metadata_caches=True,
        tree_cache=CacheConfig("TreeCache", 128 * KIB, 8, 2),
    ).with_overrides(metadata_cache=CacheConfig("CtrCache", 128 * KIB, 8, 2))
    proc = SecureProcessor(config)
    allocator = PageAllocator(proc.layout.data_size // PAGE_SIZE, cores=4)
    return proc, allocator


class TestSplitStructure:
    def test_distinct_cache_objects(self):
        proc, _ = split_machine()
        assert proc.mee.tree_cache is not proc.mee.meta_cache

    def test_combined_default_shares_object(self):
        proc = SecureProcessor(
            SecureProcessorConfig.sct_default(protected_size=64 * 1024 * 1024)
        )
        assert proc.mee.tree_cache is proc.mee.meta_cache

    def test_blocks_land_in_their_cache(self):
        proc, _ = split_machine()
        proc.read(0x40000)
        counter_addr = proc.layout.counter_block_addr(0x40000)
        node_addr = proc.layout.node_addr_for_data(0x40000, 0)
        assert proc.mee.meta_cache.contains(counter_addr)
        assert not proc.mee.meta_cache.contains(node_addr)
        assert proc.mee.tree_cache.contains(node_addr)
        assert not proc.mee.tree_cache.contains(counter_addr)

    def test_roundtrip_still_correct(self):
        proc, _ = split_machine()
        proc.write_through(0x40000, b"split ok")
        proc.drain_writes()
        proc.mee.flush_metadata_cache(proc.cycle)
        proc.flush(0x40000)
        assert proc.read(0x40000).data[:8] == b"split ok"

    def test_invalidate_metadata_routes(self):
        proc, _ = split_machine()
        proc.read(0x40000)
        node_addr = proc.layout.node_addr_for_data(0x40000, 0)
        present, _ = proc.mee.invalidate_metadata(node_addr)
        assert present
        assert not proc.mee.metadata_cached(node_addr)


class TestSplitEviction:
    def test_leaf_alias_candidates_map_to_set(self):
        proc, allocator = split_machine()
        evictor = MetadataEvictor(proc, allocator, core=1)
        mapper = evictor.mapper
        tree_cache = proc.mee.tree_cache
        node_addr = proc.layout.node_addr_for_data(0x40000, 0)
        target_set = tree_cache.set_index_of(node_addr)
        count = 0
        for block in mapper.iter_data_blocks_with_leaf_in_set(target_set):
            leaf = proc.layout.node_addr_for_data(block, 0)
            assert tree_cache.set_index_of(leaf) == target_set
            count += 1
            if count == 10:
                break
        assert count == 10

    def test_tree_node_evictable(self):
        proc, allocator = split_machine()
        evictor = MetadataEvictor(proc, allocator, core=1)
        victim = 0x40000
        proc.read(victim)
        node_addr = proc.layout.node_addr_for_data(victim, 0)
        assert evictor.is_cached(node_addr)
        evictor.evict((node_addr,))
        assert not evictor.is_cached(node_addr)

    def test_monitor_detects_across_split(self):
        proc, allocator = split_machine()
        victim_frame = allocator.alloc_specific(100)
        attack = MetaLeakT(proc, allocator, core=1)
        monitor = attack.monitor_for_page(victim_frame, level=0)
        for trial in range(8):
            monitor.m_evict()
            accessed = trial % 2 == 0
            if accessed:
                proc.flush(victim_frame * PAGE_SIZE)
                proc.read(victim_frame * PAGE_SIZE, core=0)
            _, seen = monitor.m_reload()
            assert seen == accessed

    def test_small_region_raises_clear_error(self):
        # Leaf-alias candidates are a tree-cache period apart; a small
        # region cannot host enough of them.
        proc, allocator = split_machine(protected_size=64 * 1024 * 1024)
        evictor = MetadataEvictor(proc, allocator, core=1)
        node_addr = proc.layout.node_addr_for_data(0x40000, 0)
        with pytest.raises(ValueError, match="tree cache"):
            evictor.evict((node_addr,))
