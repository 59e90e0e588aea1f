"""Three-level data-cache hierarchy shared by the simulated cores.

Private L1/L2 per core, one shared inclusive L3 per socket.  The hierarchy
reports where an access hit and what got written back, but defers actual
memory traffic to the memory controller (the caller).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import SecureProcessorConfig
from repro.core import Component
from repro.mem.block import block_address
from repro.mem.cache import SetAssocCache


@dataclass(slots=True)
class HierarchyResult:
    """Outcome of one data-cache access.

    ``hit_level`` is 1, 2 or 3, or ``None`` on a full miss; ``latency`` is
    the cycles spent in the hierarchy itself (lookup plus hit service);
    ``writebacks`` are dirty blocks pushed out to memory by this access.
    """

    hit_level: int | None
    latency: int
    writebacks: list[int] = field(default_factory=list)


class CoreCaches(Component):
    """The private L1/L2 pair of one core."""

    def __init__(self, config: SecureProcessorConfig, index: int = 0) -> None:
        self.l1 = SetAssocCache(config.l1)
        self.l2 = SetAssocCache(config.l2)
        self.init_component(f"core{index}.caches")

    def children(self):
        return (self.l1, self.l2)


class DataCacheSystem(Component):
    """All data caches of the machine (cores x sockets).

    The hierarchy is kept inclusive: a fill installs the block at every
    level, and an L3 eviction back-invalidates the private caches of its
    socket.  Inclusivity keeps the coherence story trivial while preserving
    the property the attacks rely on: a flushed or evicted block's next
    access reaches the memory controller.

    Like a real inclusive LLC, the L3 side keeps *core-valid bits*: per
    block, a bitmask of the cores whose L1/L2 may hold it.  Every private
    fill sets its core's bit, so flushes and back-invalidations probe only
    the flagged cores.  The mask is a superset: a silent private eviction
    leaves a stale bit (one no-op invalidate later), never a missed copy.
    Entries leave when the L3 evicts or flushes the block.
    """

    def __init__(self, config: SecureProcessorConfig) -> None:
        self.config = config
        if config.cores % config.sockets != 0:
            raise ValueError("cores must divide evenly across sockets")
        self.cores_per_socket = config.cores // config.sockets
        self.core_caches = [CoreCaches(config, i) for i in range(config.cores)]
        self.l3s = [SetAssocCache(config.l3) for _ in range(config.sockets)]
        self._core_l3 = [self.l3s[self.socket_of(c)] for c in range(config.cores)]
        per_socket = (1 << self.cores_per_socket) - 1
        self._socket_cores = [
            per_socket << (s * self.cores_per_socket) for s in range(config.sockets)
        ]
        # Core-valid bits: block -> mask of cores whose L1/L2 may hold it.
        self._sharers: dict[int, int] = {}
        # Timing table, precomputed once: cumulative lookup cost after
        # probing 1, 2 or 3 levels.  The functional probes above never
        # carry latency themselves (see the functional/timing split in
        # docs/architecture.md); all hierarchy cycles come from here.
        l1, l2, l3 = (
            config.l1.hit_latency,
            config.l2.hit_latency,
            config.l3.hit_latency,
        )
        self.hit_latency = (l1, l1 + l2, l1 + l2 + l3)
        self.miss_lookup_latency = l1 + l2 + l3
        self.init_component("caches")

    def children(self):
        return (*self.core_caches, *self.l3s)

    def socket_of(self, core: int) -> int:
        return core // self.cores_per_socket

    # ------------------------------------------------------------------
    # Access path
    # ------------------------------------------------------------------

    def access(self, core: int, addr: int, *, is_write: bool) -> HierarchyResult:
        """Look up ``addr`` for ``core``; no fill happens on a miss."""
        block = block_address(addr)
        caches = self.core_caches[core]
        hit_latency = self.hit_latency

        if caches.l1.lookup(block):
            if is_write:
                caches.l1.mark_dirty(block)
            return HierarchyResult(hit_level=1, latency=hit_latency[0])

        if caches.l2.lookup(block):
            writebacks: list[int] = []
            self._fill_l1(core, block, is_write, writebacks)
            return HierarchyResult(2, hit_latency[1], writebacks)

        if self._core_l3[core].lookup(block):
            writebacks = []
            self._fill_private(core, block, is_write, writebacks)
            return HierarchyResult(3, hit_latency[2], writebacks)

        return HierarchyResult(hit_level=None, latency=self.miss_lookup_latency)

    def fill(self, core: int, addr: int, *, dirty: bool) -> list[int]:
        """Install a block fetched from memory at all levels.

        Returns dirty blocks evicted to memory as a side effect.
        """
        block = block_address(addr)
        writebacks: list[int] = []
        l3_evt = self._core_l3[core].insert(block)
        if l3_evt.evicted_addr is not None:
            # Inclusive L3: back-invalidate private copies in this socket.
            dirty_private = self._back_invalidate(core, l3_evt.evicted_addr)
            if l3_evt.evicted_dirty or dirty_private:
                writebacks.append(l3_evt.evicted_addr)
        self._fill_private(core, block, dirty, writebacks)
        return writebacks

    def _fill_private(
        self, core: int, block: int, dirty: bool, writebacks: list[int]
    ) -> None:
        """Install ``block`` in ``core``'s L2 and L1."""
        l2_evt = self.core_caches[core].l2.insert(block)
        if l2_evt.evicted_addr is not None and l2_evt.evicted_dirty:
            self._spill_to_l3(core, l2_evt.evicted_addr, writebacks)
        self._fill_l1(core, block, dirty, writebacks)

    def _fill_l1(
        self, core: int, block: int, dirty: bool, writebacks: list[int]
    ) -> None:
        """Install ``block`` in ``core``'s L1 and set the core's bit.

        Every private fill ends here, so this is the one place a block
        enters a core's L1/L2 and its core-valid bit gets set.
        """
        self._sharers[block] = self._sharers.get(block, 0) | (1 << core)
        caches = self.core_caches[core]
        l1_evt = caches.l1.insert(block, dirty=dirty)
        if l1_evt.evicted_addr is not None and l1_evt.evicted_dirty:
            # A dirty L1 victim folds into L2, else into the inclusive L3,
            # else it goes to memory.
            victim = l1_evt.evicted_addr
            if caches.l2.contains(victim):
                caches.l2.mark_dirty(victim)
            else:
                self._spill_to_l3(core, victim, writebacks)

    def _spill_to_l3(self, core: int, victim: int, writebacks: list[int]) -> None:
        """Fold a dirty private victim into the L3 copy, or write it back."""
        l3 = self._core_l3[core]
        if l3.contains(victim):
            l3.mark_dirty(victim)
        else:
            writebacks.append(victim)

    def _back_invalidate(self, core: int, block: int) -> bool:
        """Remove ``block`` from all private caches in ``core``'s socket."""
        mask = self._sharers.pop(block, 0)
        socket_cores = self._socket_cores[self.socket_of(core)]
        others = mask & ~socket_cores
        if others:
            self._sharers[block] = others
        return self._invalidate_private(block, mask & socket_cores)

    def _invalidate_private(self, block: int, mask: int) -> bool:
        """Invalidate ``block`` in the L1/L2 of every core flagged in
        ``mask``; True if any dropped copy was dirty."""
        dirty_any = False
        core_caches = self.core_caches
        while mask:
            low = mask & -mask
            mask ^= low
            caches = core_caches[low.bit_length() - 1]
            _, l1_dirty = caches.l1.invalidate(block)
            _, l2_dirty = caches.l2.invalidate(block)
            dirty_any = dirty_any or l1_dirty or l2_dirty
        return dirty_any

    # ------------------------------------------------------------------
    # Maintenance operations
    # ------------------------------------------------------------------

    def flush(self, addr: int) -> tuple[bool, list[int]]:
        """clflush analogue: drop the block machine-wide.

        Returns (was_dirty_anywhere, writebacks) — dirty copies must be
        written back (the processor routes them to the memory controller).
        """
        block = block_address(addr)
        dirty_any = self._invalidate_private(block, self._sharers.pop(block, 0))
        for l3 in self.l3s:
            _, dirty = l3.invalidate(block)
            dirty_any = dirty_any or dirty
        return dirty_any, ([block] if dirty_any else [])

    def contains(self, addr: int) -> bool:
        """True if any cache in the machine holds the block (no side effects)."""
        block = block_address(addr)
        if any(l3.contains(block) for l3 in self.l3s):
            return True
        return any(
            caches.l1.contains(block) or caches.l2.contains(block)
            for caches in self.core_caches
        )
