"""Set-associative write-back cache with pluggable replacement.

The model tracks block presence, dirtiness and recency; it does not store
data bytes (the simulator's backing store lives behind the memory
controller).  Both the data-cache hierarchy and the metadata cache at the
memory controller instantiate this class.  Replacement defaults to true
LRU (what the paper's mEvict analysis assumes); tree-PLRU and RANDOM are
available for the ablation sweeps (see ``repro.mem.replacement``).

Functional/timing split (docs/architecture.md): the cache is a purely
*functional* component — :meth:`decompose` is the pure address step
(block, set index), :meth:`lookup`/:meth:`insert`/:meth:`invalidate` are
the ``apply`` state transitions, and no latency lives here.  Hit/service
cycles are charged by the callers (the hierarchy and the MEE) from their
config tables.

Sets are materialised lazily: a machine-sized L3 has thousands of sets
and a replacement-policy object each, but a typical workload touches a
handful.  Creation uses the same per-set seed as the old eager
constructor, so replacement behaviour (including seeded RANDOM) is
unchanged — only the allocation time moves.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.config import CacheConfig
from repro.core import Component
from repro.mem.replacement import make_policy
from repro.trace.counters import CounterRegistry
from repro.utils.bitops import log2_exact


class CacheAccess(NamedTuple):
    """Outcome of one cache operation."""

    hit: bool
    evicted_addr: int | None = None
    evicted_dirty: bool = False


# Immutable, so the two allocation-free outcomes are shared singletons
# (inserts are the hottest call on the miss path).
_HIT = CacheAccess(hit=True)
_FILLED = CacheAccess(hit=False)


class _CacheSet:
    """One set: way-slot arrays plus a replacement-policy instance."""

    __slots__ = ("tags", "dirty", "index_of", "policy")

    def __init__(self, ways: int, policy_name: str, seed: int) -> None:
        self.tags: list[int | None] = [None] * ways
        self.dirty: list[bool] = [False] * ways
        self.index_of: dict[int, int] = {}
        self.policy = make_policy(policy_name, ways, seed)


class SetAssocCache(Component):
    """A classic set-associative cache."""

    def __init__(
        self, config: CacheConfig, *, replacement: str | None = None, seed: int = 0
    ) -> None:
        self.config = config
        self.num_sets = config.num_sets
        self.ways = config.ways
        self.replacement = replacement or getattr(config, "replacement", "lru")
        self._block_shift = log2_exact(config.block_size)
        self._block_mask = ~(config.block_size - 1)
        # Lazily materialised sets: index -> _CacheSet, created on first
        # fill (probes of untouched sets never allocate).
        self._sets: dict[int, _CacheSet] = {}
        self._seed = seed
        # ``victim`` is only asked when every way is occupied, so one
        # shared all-True occupancy list serves every full-set fill.
        self._all_occupied = [True] * self.ways
        self.counters = CounterRegistry()
        self._hits = self.counters.counter("hits")
        self._misses = self.counters.counter("misses")
        self._fills = self.counters.counter("fills")
        self._evictions = self.counters.counter("evictions")
        self.counters.gauge("occupancy", self.occupancy)
        # Instrument slots (tracer, fault_hook) are created detached by
        # the component graph; attach via ``repro.core.attach``.
        self.init_component(f"cache.{config.name}")

    # ------------------------------------------------------------------
    # Address mapping (the pure ``decompose`` step)
    # ------------------------------------------------------------------

    def decompose(self, addr: int) -> tuple[int, int]:
        """Pure address decomposition: (block address, set index)."""
        block = addr & self._block_mask
        return block, (block >> self._block_shift) % self.num_sets

    def set_index_of(self, addr: int) -> int:
        """Cache set that the block containing ``addr`` maps to."""
        return (addr >> self._block_shift) % self.num_sets

    def _set_at(self, set_index: int) -> _CacheSet:
        """The set object at ``set_index``, materialising it on demand."""
        cache_set = self._sets.get(set_index)
        if cache_set is None:
            cache_set = _CacheSet(
                self.ways, self.replacement, self._seed + set_index
            )
            self._sets[set_index] = cache_set
        return cache_set

    def _set_of(self, addr: int) -> tuple[_CacheSet, int]:
        block, set_index = self.decompose(addr)
        return self._set_at(set_index), block

    # ------------------------------------------------------------------
    # Operations (the ``apply`` state transitions)
    # ------------------------------------------------------------------

    def lookup(self, addr: int, *, touch: bool = True) -> bool:
        """Probe for the block at ``addr``; optionally refresh its recency."""
        block = addr & self._block_mask
        set_index = (block >> self._block_shift) % self.num_sets
        cache_set = self._sets.get(set_index)
        way = cache_set.index_of.get(block) if cache_set is not None else None
        if way is not None:
            if touch:
                cache_set.policy.on_access(way)
            self._hits.value += 1
            if self.tracer is not None:
                self.tracer.emit(
                    self.component_name,
                    "hit",
                    addr=block,
                    set_index=set_index,
                )
            return True
        self._misses.value += 1
        if self.tracer is not None:
            self.tracer.emit(
                self.component_name,
                "miss",
                addr=block,
                set_index=set_index,
            )
        return False

    def contains(self, addr: int) -> bool:
        """Presence check with no side effects (no LRU update, no stats)."""
        block, set_index = self.decompose(addr)
        cache_set = self._sets.get(set_index)
        return cache_set is not None and block in cache_set.index_of

    def insert(self, addr: int, *, dirty: bool = False) -> CacheAccess:
        """Fill the block at ``addr``, evicting a victim if needed.

        If the block is already present this refreshes recency (and ORs in
        the dirty bit) instead of double-filling.
        """
        block = addr & self._block_mask
        set_index = (block >> self._block_shift) % self.num_sets
        cache_set = self._sets.get(set_index) or self._set_at(set_index)
        way = cache_set.index_of.get(block)
        if way is not None:
            cache_set.dirty[way] = cache_set.dirty[way] or dirty
            cache_set.policy.on_access(way)
            return _HIT
        tags = cache_set.tags
        if len(cache_set.index_of) < self.ways:
            # Lowest free way, exactly what a scan over the tags finds.
            free_way = tags.index(None)
            evicted_addr = None
            evicted_dirty = False
        else:
            free_way = cache_set.policy.victim(self._all_occupied)
            evicted_addr = tags[free_way]
            evicted_dirty = cache_set.dirty[free_way]
            del cache_set.index_of[evicted_addr]
        tags[free_way] = block
        cache_set.dirty[free_way] = dirty
        cache_set.index_of[block] = free_way
        cache_set.policy.on_fill(free_way)
        self._fills.value += 1
        if evicted_addr is not None:
            self._evictions.value += 1
        if self.tracer is not None:
            self.tracer.emit(
                self.component_name,
                "fill",
                addr=block,
                set_index=set_index,
            )
            if evicted_addr is not None:
                self.tracer.emit(
                    self.component_name,
                    "evict",
                    addr=evicted_addr,
                    set_index=set_index,
                    value=float(evicted_dirty),
                )
        if self.fault_hook is not None:
            self.fault_hook.on_cache_fill(self.config.name, block)
        if evicted_addr is None:
            return _FILLED
        return CacheAccess(False, evicted_addr, evicted_dirty)

    def mark_dirty(self, addr: int) -> None:
        """Set the dirty bit of a resident block (no-op if absent)."""
        block, set_index = self.decompose(addr)
        cache_set = self._sets.get(set_index)
        if cache_set is None:
            return
        way = cache_set.index_of.get(block)
        if way is not None:
            cache_set.dirty[way] = True

    def is_dirty(self, addr: int) -> bool:
        block, set_index = self.decompose(addr)
        cache_set = self._sets.get(set_index)
        if cache_set is None:
            return False
        way = cache_set.index_of.get(block)
        return cache_set.dirty[way] if way is not None else False

    def invalidate(self, addr: int) -> tuple[bool, bool]:
        """Remove the block at ``addr``; returns (was_present, was_dirty)."""
        block = addr & self._block_mask
        cache_set = self._sets.get((block >> self._block_shift) % self.num_sets)
        way = cache_set.index_of.pop(block, None) if cache_set is not None else None
        if way is None:
            return False, False
        dirty = cache_set.dirty[way]
        cache_set.tags[way] = None
        cache_set.dirty[way] = False
        return True, dirty

    def blocks_in_set(self, set_index: int) -> list[int]:
        """Resident block addresses of one set (eviction-priority first
        under LRU; fill order otherwise)."""
        cache_set = self._sets.get(set_index)
        if cache_set is None:
            return []
        if self.replacement == "lru":
            stack = cache_set.policy._stack  # LRU first
            return [
                cache_set.tags[w] for w in stack if cache_set.tags[w] is not None
            ]
        return [tag for tag in cache_set.tags if tag is not None]

    def occupancy(self) -> int:
        """Total resident blocks across all sets."""
        return sum(len(s.index_of) for s in self._sets.values())

    def state_snapshot(self) -> dict[int, tuple[tuple[int, bool], ...]]:
        """Canonical functional state: set index -> ordered (block, dirty).

        Ordering within a set is the eviction-priority order of
        :meth:`blocks_in_set`, so two caches with identical snapshots
        behave identically under future fills — the batch-vs-scalar
        equivalence property compares exactly this.
        """
        snapshot: dict[int, tuple[tuple[int, bool], ...]] = {}
        for set_index in sorted(self._sets):
            cache_set = self._sets[set_index]
            if not cache_set.index_of:
                continue
            entries = tuple(
                (block, cache_set.dirty[cache_set.index_of[block]])
                for block in self.blocks_in_set(set_index)
            )
            snapshot[set_index] = entries
        return snapshot

    def __iter__(self):
        for cache_set in self._sets.values():
            yield from cache_set.index_of.keys()

    def clear(self) -> None:
        # Matches the old eager clear(), which rebuilt set ``i`` with
        # policy seed ``i`` (not ``seed + i``): drop every set and let
        # lazy re-creation run from a zero seed base.
        self._sets = {}
        self._seed = 0
