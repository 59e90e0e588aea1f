"""Golden attack timings: simulated cycles pinned to exact values.

The scalar access path (cache fills, flush, core-valid bits, MEE walk)
must keep simulated state bit-identical through any host-speed rework.
These tests pin what the two attacks observe, so a semantic slip fails
the tier-1 suite rather than only the benchmark comparison.
"""

from repro.analysis.rsa_attack import run_rsa_attack
from repro.attacks import CovertChannelC
from repro.config import MIB, PAGE_SIZE, preset_config
from repro.os import PageAllocator
from repro.proc import SecureProcessor

# Victim step order of the seed-99 16-bit key: S = square probe cheaper,
# M = multiply probe cheaper.
_STEP_ORDER = "SMSSSMSMSSMSSMSSSMSSSMSM"


def _expected_trace(square_step, multiply_step):
    return [square_step if op == "S" else multiply_step for op in _STEP_ORDER]


class TestRsaAttackTiming:
    def test_sgx_latency_trace(self):
        result = run_rsa_attack("sgx", exponent_bits=16)
        assert result.steps == 24
        assert result.latency_trace == _expected_trace((535, 599), (723, 411))
        assert result.recovered_bits == result.true_bits

    def test_sct_latency_trace(self):
        result = run_rsa_attack("sct", exponent_bits=16)
        assert result.steps == 24
        assert result.latency_trace == _expected_trace((271, 321), (321, 271))
        assert result.recovered_bits == result.true_bits


class TestCovertChannelCTiming:
    def test_transmit_cycles(self):
        proc = SecureProcessor(
            preset_config(
                "sct", functional_crypto=False, timer_jitter_sigma=0.0,
                protected_size=256 * MIB,
            )
        )
        alloc = PageAllocator(
            proc.layout.data_size // PAGE_SIZE, cores=proc.config.cores
        )
        channel = CovertChannelC(proc, alloc)
        assert channel.max_symbol == 126
        report = channel.transmit([37, 89])
        assert report.received == [37, 89]
        assert report.cycles == 3153094
