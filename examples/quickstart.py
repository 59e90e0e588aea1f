#!/usr/bin/env python3
"""Quickstart: drive the simulated secure processor directly.

Shows the three things everything else builds on:
  1. the Figure-5 access paths and their distinguishable latencies (VUL-2),
  2. encrypted write/read round-trips through the metadata machinery,
  3. functional integrity: off-chip tampering is detected.

Run:  python examples/quickstart.py
"""

from repro.config import MIB, SecureProcessorConfig
from repro.proc import SecureProcessor
from repro.secmem.engine import IntegrityViolation


def main() -> None:
    config = SecureProcessorConfig.sct_default(protected_size=128 * MIB)
    proc = SecureProcessor(config)
    print("Machine:", config.name, "| integrity tree:", config.tree.kind.value)
    print(proc.layout.describe())
    print()

    # --- 1. Access paths -------------------------------------------------
    addr = 0x40000
    print("Access paths for one data block (Figure 5):")
    result = proc.read(addr)
    print(f"  cold read : {result.path.value:<45} {result.latency:>5} cycles")
    result = proc.read(addr)
    print(f"  warm read : {result.path.value:<45} {result.latency:>5} cycles")
    proc.flush(addr)
    result = proc.read(addr)
    print(f"  flushed   : {result.path.value:<45} {result.latency:>5} cycles")
    proc.flush(addr)
    proc.mee.meta_cache.invalidate(proc.layout.counter_block_addr(addr))
    result = proc.read(addr)
    print(f"  ctr miss  : {result.path.value:<45} {result.latency:>5} cycles")
    print()

    # --- 2. Encrypted round-trip -----------------------------------------
    proc.write_through(0x80000, b"attack at dawn")
    proc.drain_writes()
    proc.mee.flush_metadata_cache(proc.cycle)
    proc.flush(0x80000)
    data = proc.read(0x80000).data
    print("Round-trip through encrypted memory:", data[:14])
    ciphertext = proc.mee.snapshot_block(0x80000)[0]
    print("Ciphertext actually stored off-chip :", ciphertext[:14].hex())
    print()

    # --- 3. Tamper detection ---------------------------------------------
    snapshot = proc.mee.snapshot_block(0x80000)
    proc.write_through(0x80000, b"attack at dusk")
    proc.drain_writes()
    proc.flush(0x80000)
    proc.mee.tamper_replay(0x80000, snapshot)  # replay the old ciphertext
    try:
        proc.read(0x80000)
        print("!! replay went undetected (this should not happen)")
    except IntegrityViolation as violation:
        print("Replay attack detected:", violation)


if __name__ == "__main__":
    main()
