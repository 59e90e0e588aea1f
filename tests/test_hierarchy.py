"""Tests for the data-cache hierarchy (inclusive L3, writebacks)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import KIB, CacheConfig, SecureProcessorConfig
from repro.mem.hierarchy import DataCacheSystem
from repro.proc import SecureProcessor


def tiny_machine(cores=2, sockets=1):
    return DataCacheSystem(
        SecureProcessorConfig.sct_default(cores=cores, sockets=sockets).with_overrides(
            l1=CacheConfig("L1", 2 * KIB, 2, 1),
            l2=CacheConfig("L2", 4 * KIB, 2, 10),
            l3=CacheConfig("L3", 8 * KIB, 2, 40),
        )
    )


class TestAccessPath:
    def test_miss_then_l1_hit(self):
        caches = tiny_machine()
        result = caches.access(0, 0x1000, is_write=False)
        assert result.hit_level is None
        caches.fill(0, 0x1000, dirty=False)
        assert caches.access(0, 0x1000, is_write=False).hit_level == 1

    def test_other_core_hits_l3(self):
        caches = tiny_machine()
        caches.fill(0, 0x1000, dirty=False)
        assert caches.access(1, 0x1000, is_write=False).hit_level == 3

    def test_promotion_after_l3_hit(self):
        caches = tiny_machine()
        caches.fill(0, 0x1000, dirty=False)
        caches.access(1, 0x1000, is_write=False)  # L3 hit, promotes
        assert caches.access(1, 0x1000, is_write=False).hit_level == 1

    def test_latency_accumulates_with_depth(self):
        caches = tiny_machine()
        caches.fill(0, 0x1000, dirty=False)
        l1 = caches.access(0, 0x1000, is_write=False).latency
        caches.core_caches[0].l1.invalidate(0x1000)
        caches.core_caches[0].l2.invalidate(0x1000)
        l3 = caches.access(0, 0x1000, is_write=False).latency
        assert l3 > l1


class TestInclusivity:
    def test_l3_eviction_back_invalidates(self):
        caches = tiny_machine()
        caches.fill(0, 0x0, dirty=False)
        # Fill the 2-way L3 set of 0x0 with conflicting blocks.
        l3 = caches.l3s[0]
        target_set = l3.set_index_of(0x0)
        conflicts = [
            addr
            for addr in range(64, 1 << 18, 64)
            if l3.set_index_of(addr) == target_set
        ][:2]
        for addr in conflicts:
            caches.fill(0, addr, dirty=False)
        assert not l3.contains(0x0)
        assert not caches.core_caches[0].l1.contains(0x0)

    def test_dirty_back_invalidation_writes_back(self):
        caches = tiny_machine()
        caches.fill(0, 0x0, dirty=True)
        l3 = caches.l3s[0]
        target_set = l3.set_index_of(0x0)
        conflicts = [
            addr
            for addr in range(64, 1 << 18, 64)
            if l3.set_index_of(addr) == target_set
        ][:2]
        writebacks = []
        for addr in conflicts:
            writebacks += caches.fill(0, addr, dirty=False)
        assert 0x0 in writebacks

    def test_flush_reports_dirty(self):
        caches = tiny_machine()
        caches.fill(0, 0x40, dirty=True)
        was_dirty, writebacks = caches.flush(0x40)
        assert was_dirty and writebacks == [0x40]
        assert not caches.contains(0x40)

    def test_flush_clean(self):
        caches = tiny_machine()
        caches.fill(0, 0x40, dirty=False)
        was_dirty, writebacks = caches.flush(0x40)
        assert not was_dirty and writebacks == []


class TestSockets:
    def test_socket_mapping(self):
        caches = tiny_machine(cores=4, sockets=2)
        assert caches.socket_of(0) == 0
        assert caches.socket_of(3) == 1

    def test_l3s_isolated_across_sockets(self):
        caches = tiny_machine(cores=4, sockets=2)
        caches.fill(0, 0x1000, dirty=False)
        assert caches.access(2, 0x1000, is_write=False).hit_level is None

    def test_uneven_split_rejected(self):
        with pytest.raises(ValueError):
            tiny_machine(cores=3, sockets=2)


class TestWritebackInvariants:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1),  # core
                st.integers(min_value=0, max_value=63),  # block id
                st.booleans(),  # dirty
            ),
            max_size=120,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_fills_never_lose_track(self, operations):
        """Whatever the fill/evict pattern, capacity bounds hold and every
        block reported written-back was previously filled dirty somewhere."""
        caches = tiny_machine()
        dirty_ever = set()
        for core, block_id, dirty in operations:
            addr = block_id * 64
            if dirty:
                dirty_ever.add(addr)
            writebacks = caches.fill(core, addr, dirty=dirty)
            for writeback in writebacks:
                assert writeback in dirty_ever
            for l3 in caches.l3s:
                assert l3.occupancy() <= l3.num_sets * l3.ways


def _two_socket_processor():
    """4 cores on 2 sockets with tiny caches.  The pool puts five blocks
    in each of three L3 sets; two of those sets share an L1 set but not
    an L2 set, so L1 evictions leave L2 hits behind."""
    config = SecureProcessorConfig.sct_default(
        cores=4, sockets=2, functional_crypto=False
    ).with_overrides(
        l1=CacheConfig("L1", 2 * KIB, 2, 1),
        l2=CacheConfig("L2", 4 * KIB, 2, 10),
        l3=CacheConfig("L3", 8 * KIB, 2, 40),
    )
    proc = SecureProcessor(config)
    sets = proc.caches.l3s[0].num_sets
    pool = [(tag * sets + index) * 64 for tag in range(5) for index in (0, 1, 16)]
    return proc, pool


def _sgx_processor():
    """The 8-core sgx preset.  The pool overfills one L3 set (24 blocks
    for 16 ways) and adds four blocks of another L3 set; all 28 share
    one L1 set."""
    proc = SecureProcessor(SecureProcessorConfig.sgx_default(functional_crypto=False))
    l1, l3 = proc.caches.core_caches[0].l1, proc.caches.l3s[0]
    stride = l3.num_sets * 64
    pool = [i * stride for i in range(l3.ways + 8)]
    pool += [i * stride + l1.num_sets * 64 for i in range(4)]
    return proc, pool


def _assert_inclusive_with_core_bits(caches: DataCacheSystem):
    for core, private in enumerate(caches.core_caches):
        l3 = caches.l3s[caches.socket_of(core)]
        for cache in (private.l1, private.l2):
            for block in cache:
                assert l3.contains(block), (core, cache.config.name, hex(block))
                assert caches._sharers.get(block, 0) >> core & 1, (core, hex(block))
    # Entries leave with the L3 line: a flagged socket still holds the block.
    for block, mask in caches._sharers.items():
        assert mask
        for core in range(len(caches.core_caches)):
            if mask >> core & 1:
                assert caches.l3s[caches.socket_of(core)].contains(block)


_PROC_OPS = st.lists(
    st.tuples(
        # Mostly fills, so sets overflow between the flushes.
        st.sampled_from(
            ("read", "read", "read", "write", "write", "write_through",
             "flush", "drain")
        ),
        st.integers(min_value=0, max_value=7),  # core (mod cores)
        st.integers(min_value=0, max_value=63),  # pool slot (mod pool size)
    ),
    max_size=100,
)


class TestCoreValidBits:
    """After every operation, each block in a core's L1/L2 is in its
    socket's L3 and carries that core's core-valid bit."""

    @pytest.mark.parametrize("machine", [_two_socket_processor, _sgx_processor])
    @given(operations=_PROC_OPS)
    @settings(max_examples=25, deadline=None)
    def test_inclusion_and_core_bits_hold(self, machine, operations):
        proc, pool = machine()
        cores = proc.config.cores
        for op, core, slot in operations:
            addr = pool[slot % len(pool)]
            core %= cores
            if op == "read":
                proc.read(addr, core=core)
            elif op == "write":
                proc.write(addr, b"x", core=core)
            elif op == "write_through":
                proc.write_through(addr, b"y", core=core)
            elif op == "flush":
                proc.flush(addr)
            else:
                proc.drain_writes()
            _assert_inclusive_with_core_bits(proc.caches)
