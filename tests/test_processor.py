"""Direct tests of the SecureProcessor surface."""

from random import Random

import pytest

from repro.config import MIB, PAGE_SIZE, SecureProcessorConfig
from repro.core import FAULT_HOOK, PROFILER, SAMPLER, TRACER
from repro.faults import FaultHook
from repro.perf import CycleAttributor, MetricsSampler
from repro.proc import AccessPath, SecureProcessor
from repro.synth.runner import DEFENSES, synth_config
from repro.trace import Tracer

PRESETS = ("sct", "ht", "sgx")


@pytest.fixture()
def proc():
    return SecureProcessor(
        SecureProcessorConfig.sct_default(protected_size=64 * MIB)
    )


class TestClock:
    def test_every_access_advances_cycle(self, proc):
        start = proc.cycle
        proc.read(0x1000)
        assert proc.cycle > start

    def test_advance(self, proc):
        proc.advance(500)
        assert proc.cycle == 500
        with pytest.raises(ValueError):
            proc.advance(-1)

    def test_quiesce_waits_out_banks(self, proc):
        proc.read(0x1000)
        proc.memctrl.dram.occupy_all(proc.cycle, 5000)
        waited = proc.quiesce()
        assert waited >= 5000
        assert proc.quiesce() == 0  # idempotent once idle

    def test_result_carries_cycle(self, proc):
        result = proc.read(0x1000)
        assert result.cycle == proc.cycle


class TestWriteSemantics:
    def test_write_none_preserves_value(self, proc):
        proc.write(0x2000, b"keep me")
        proc.write(0x2000, None)  # touch without changing data
        assert proc.read(0x2000).data[:7] == b"keep me"

    def test_write_oversize_rejected(self, proc):
        with pytest.raises(ValueError):
            proc.write(0x2000, b"x" * 65)

    def test_write_pads_to_block(self, proc):
        proc.write(0x2000, b"ab")
        assert proc.read(0x2000).data == b"ab" + bytes(62)

    def test_write_through_posts_to_queue(self, proc):
        proc.write_through(0x2000, b"posted")
        assert proc.memctrl.pending_writes() >= 1
        proc.drain_writes()
        assert proc.memctrl.pending_writes() == 0

    def test_write_through_drops_cached_copy(self, proc):
        proc.read(0x2000)
        proc.write_through(0x2000, b"new")
        assert not proc.caches.contains(0x2000)

    def test_flush_clean_block_no_writeback(self, proc):
        proc.read(0x3000)
        pending_before = proc.memctrl.pending_writes()
        proc.flush(0x3000)
        assert proc.memctrl.pending_writes() == pending_before

    def test_dirty_l1_victim_of_l2_hit_promotion_reaches_memory(self):
        # A store that L2 evicted but L1 kept must survive L1 evicting it
        # during an L2-hit promotion: it folds into the inclusive L3, and
        # the flush writes it back (a counter increment MetaLeak-C reads).
        proc = SecureProcessor(
            SecureProcessorConfig.sct_default(functional_crypto=False)
        )
        x = 0x100000
        l2_span = proc.caches.core_caches[0].l2.num_sets * 64
        proc.write(x)
        for k in range(1, 5):  # conflict X out of L2, not out of L1
            proc.read(x + k * l2_span)
        assert proc.caches.core_caches[0].l1.contains(x)
        assert not proc.caches.core_caches[0].l2.contains(x)
        for j in range(1, 4):
            proc.read(x + j * PAGE_SIZE)
        assert proc.read(x).path is AccessPath.L1_HIT
        for j in range(10, 17):
            proc.read(x + j * PAGE_SIZE)
        # Promoting an L2 hit into L1 evicts the dirty X from L1.
        assert proc.read(x + PAGE_SIZE).path is AccessPath.L2_HIT
        assert not proc.caches.core_caches[0].l1.contains(x)
        counter_before = proc.mee.counters.current(x // 64)
        serviced_before = proc.mee.stats.writes_serviced
        proc.flush(x)
        proc.drain_writes()
        assert proc.mee.stats.writes_serviced - serviced_before == 1
        assert proc.mee.counters.current(x // 64) == counter_before + 1


class TestStats:
    def test_path_counting(self, proc):
        proc.read(0x4000)
        proc.read(0x4000)
        counts = proc.stats.path_counts
        assert counts.get(AccessPath.MEM_TREE_MISS, 0) >= 1
        assert counts.get(AccessPath.L1_HIT, 0) >= 1

    def test_write_hit_counts_its_path(self, proc):
        proc.read(0x4000)  # cold miss fills L1
        proc.read(0x4000)  # read hit
        proc.write(0x4000, b"x")  # write hit
        assert proc.stats.path_counts[AccessPath.L1_HIT] == 2
        assert sum(proc.stats.path_counts.values()) == (
            proc.stats.reads + proc.stats.writes
        )

    def test_read_write_flush_counters(self, proc):
        proc.read(0x4000)
        proc.write(0x4000, b"x")
        proc.flush(0x4000)
        assert proc.stats.reads == 1
        assert proc.stats.writes == 1
        assert proc.stats.flushes == 1


class TestJitter:
    def test_zero_jitter_deterministic(self):
        results = []
        for _ in range(2):
            proc = SecureProcessor(
                SecureProcessorConfig.sct_default(protected_size=64 * MIB)
            )
            results.append(proc.read(0x1000).latency)
        assert results[0] == results[1]

    def test_jitter_perturbs_reported_only(self):
        proc = SecureProcessor(
            SecureProcessorConfig.sct_default(
                protected_size=64 * MIB, timer_jitter_sigma=30
            )
        )
        latencies = set()
        for i in range(8):
            proc.flush(0x1000)
            proc.quiesce()
            latencies.add(proc.read(0x1000).latency)
        assert len(latencies) > 1  # reported latency varies...
        # ...but reported latency never goes non-positive.
        assert all(latency >= 1 for latency in latencies)

    def test_jitter_seed_deterministic(self):
        def run(seed):
            proc = SecureProcessor(
                SecureProcessorConfig.sct_default(
                    protected_size=64 * MIB, timer_jitter_sigma=20, seed=seed
                )
            )
            return [proc.read(0x1000 + i * 64).latency for i in range(5)]

        assert run(1) == run(1)
        assert run(1) != run(2)


class TestGuards:
    def test_metadata_region_not_directly_accessible(self, proc):
        with pytest.raises(ValueError):
            proc.read(proc.layout.counter_base)
        with pytest.raises(ValueError):
            proc.write(proc.layout.levels[0].base, b"x")


# ----------------------------------------------------------------------
# Instrument invariance: instruments observe the machine, never steer it
# ----------------------------------------------------------------------


def _machine(preset: str, defense: str = "none") -> SecureProcessor:
    # synth_config: functional crypto off, jitter-free timer — the same
    # reproducible machine the synthesis oracle runs on.
    return SecureProcessor(synth_config(preset, defense))


def _op_vector(proc: SecureProcessor, seed: int, ops: int = 160):
    """A seeded mixed op vector hitting every software-visible op kind."""
    rng = Random(seed)
    addrs = [
        page * PAGE_SIZE + 64 * rng.randrange(PAGE_SIZE // 64)
        for page in range(12)
        for _ in range(3)
    ]
    cores = proc.config.cores
    vector = []
    for i in range(ops):
        addr = rng.choice(addrs)
        roll = rng.random()
        core = rng.randrange(cores)
        if roll < 0.55:
            vector.append(("read", addr, None, core))
        elif roll < 0.75:
            vector.append(("write", addr, i.to_bytes(4, "little"), core))
        elif roll < 0.85:
            vector.append(("write_through", addr, b"p", core))
        elif roll < 0.95:
            vector.append(("flush", addr, None, 0))
        else:
            vector.append(("drain", None, None, 0))
    return vector


def _run(proc: SecureProcessor, vector):
    results = []
    for kind, addr, data, core in vector:
        if kind == "read":
            results.append(proc.read(addr, core=core))
        elif kind == "write":
            results.append(proc.write(addr, data, core=core))
        elif kind == "write_through":
            results.append(proc.write_through(addr, data, core=core))
        elif kind == "flush":
            results.append(proc.flush(addr))
        else:
            results.append(proc.drain_writes())
    return results


def _cache_states(proc: SecureProcessor):
    """Full functional cache state of the machine, eviction-order exact."""
    state = {}
    for i, core in enumerate(proc.caches.core_caches):
        state[f"core{i}.l1"] = core.l1.state_snapshot()
        state[f"core{i}.l2"] = core.l2.state_snapshot()
    for s, l3 in enumerate(proc.caches.l3s):
        state[f"l3.socket{s}"] = l3.state_snapshot()
    state["meta"] = proc.mee.meta_cache.state_snapshot()
    if proc.mee.tree_cache is not proc.mee.meta_cache:
        state["tree"] = proc.mee.tree_cache.state_snapshot()
    return state


class _RecordingHook(FaultHook):
    """A fault hook that injects nothing and records every callback."""

    def __init__(self):
        self.calls = []

    def on_dram_access(self, addr, now, *, is_write):
        self.calls.append(("dram", addr, now, is_write))

    def on_write_drain(self, entries):
        self.calls.append(("drain", len(entries)))
        return entries

    def on_cache_fill(self, cache_name, block_addr):
        self.calls.append(("fill", cache_name, block_addr))

    def on_counter_increment(self, block):
        self.calls.append(("ctr", block))

    def on_meta_fetch(self, kind, level, index):
        self.calls.append(("meta", kind, level, index))


def _instruments(proc: SecureProcessor) -> dict:
    """One instrument per slot, ready to attach to ``proc``."""
    return {
        TRACER: Tracer(),
        PROFILER: CycleAttributor(keep_records=True),
        SAMPLER: MetricsSampler(proc.registry, every=500),
        FAULT_HOOK: _RecordingHook(),
    }


def _observations(slot: str, instrument) -> list:
    if slot == TRACER:
        return instrument.events()
    if slot == PROFILER:
        return instrument.records
    if slot == SAMPLER:
        return instrument.samples
    return instrument.calls


class TestInstrumentInvariance:
    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("defense", DEFENSES)
    def test_instrumented_matches_bare(self, preset, defense):
        """Tracer, profiler, sampler and fault hook change no simulated
        state: cycles, counters, stats, caches and per-op results match
        a bare machine's field for field."""
        bare = _machine(preset, defense)
        instrumented = _machine(preset, defense)
        instruments = _instruments(instrumented)
        for instrument in instruments.values():
            instrumented.attach(instrument)
        seed = 100 * PRESETS.index(preset) + DEFENSES.index(defense)
        vector = _op_vector(bare, seed=seed)
        bare_results = _run(bare, vector)
        instrumented_results = _run(instrumented, vector)
        assert instrumented.cycle == bare.cycle
        assert instrumented.registry.snapshot() == bare.registry.snapshot()
        assert instrumented.stats == bare.stats
        assert _cache_states(instrumented) == _cache_states(bare)
        assert instrumented_results == bare_results
        for slot, instrument in instruments.items():
            assert _observations(slot, instrument), slot

    @pytest.mark.parametrize("slot", (TRACER, PROFILER, SAMPLER, FAULT_HOOK))
    def test_observations_independent_of_other_instruments(self, slot):
        """An instrument sees the same stream alone or alongside the
        other three."""
        alone, crowded = _machine("sct"), _machine("sct")
        solo = _instruments(alone)[slot]
        alone.attach(solo)
        everything = _instruments(crowded)
        for instrument in everything.values():
            crowded.attach(instrument)
        vector = _op_vector(alone, seed=11)
        _run(alone, vector)
        _run(crowded, vector)
        assert _observations(slot, solo)
        assert _observations(slot, everything[slot]) == _observations(
            slot, solo
        )
