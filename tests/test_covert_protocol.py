"""Edge-case tests for the covert-channel protocols."""

import pytest

from repro.attacks import CovertChannelC, CovertChannelT
from repro.config import MIB, PAGE_SIZE, SecureProcessorConfig
from repro.os import PageAllocator
from repro.proc import SecureProcessor


def make_env():
    proc = SecureProcessor(
        SecureProcessorConfig.sct_default(
            protected_size=256 * MIB, functional_crypto=False
        )
    )
    alloc = PageAllocator(proc.layout.data_size // PAGE_SIZE, cores=4)
    return proc, alloc


class TestChannelTEdgeCases:
    def test_all_ones(self):
        proc, alloc = make_env()
        report = CovertChannelT(proc, alloc).transmit([1] * 12)
        assert report.received == [1] * 12

    def test_all_zeros(self):
        proc, alloc = make_env()
        report = CovertChannelT(proc, alloc).transmit([0] * 12)
        assert report.received == [0] * 12

    def test_empty_transmission(self):
        proc, alloc = make_env()
        report = CovertChannelT(proc, alloc).transmit([])
        assert report.received == []
        with pytest.raises(ValueError):
            report.accuracy  # accuracy over an empty message is undefined

    def test_trojan_spy_share_no_pages(self):
        proc, alloc = make_env()
        channel = CovertChannelT(proc, alloc)
        trojan_pages = {channel._trojan_tx, channel._trojan_bd}
        spy_pages = {
            channel.tx_monitor.probe_block // PAGE_SIZE,
            channel.bd_monitor.probe_block // PAGE_SIZE,
        }
        assert not trojan_pages & spy_pages

    def test_distinct_metadata_sets_for_tx_and_bd(self):
        proc, alloc = make_env()
        channel = CovertChannelT(proc, alloc)
        tree_cache = proc.mee.tree_cache
        assert tree_cache.set_index_of(
            channel.tx_monitor.node_addr
        ) != tree_cache.set_index_of(channel.bd_monitor.node_addr)

    def test_latencies_recorded_per_bit(self):
        proc, alloc = make_env()
        report = CovertChannelT(proc, alloc).transmit([1, 0, 1])
        assert len(report.latencies) == 3


class TestChannelCEdgeCases:
    def test_zero_symbol(self):
        proc, alloc = make_env()
        report = CovertChannelC(proc, alloc).transmit([0, 0])
        assert report.received == [0, 0]

    def test_max_symbol(self):
        proc, alloc = make_env()
        channel = CovertChannelC(proc, alloc)
        report = channel.transmit([channel.max_symbol])
        assert report.received == [channel.max_symbol]

    def test_back_to_back_symbols_no_represet(self):
        """The overflow leaves the counter in its known post-reset state,
        so consecutive symbols need no mPreset (Section VI-B)."""
        proc, alloc = make_env()
        channel = CovertChannelC(proc, alloc)
        presets_before = channel.spy_handle.stats.presets
        channel.transmit([5, 9, 1])
        assert channel.spy_handle.stats.presets == presets_before

    def test_symbol_alphabet_is_7_bits(self):
        proc, alloc = make_env()
        channel = CovertChannelC(proc, alloc)
        assert channel.symbol_bits == 7
        assert channel.max_symbol == 126
