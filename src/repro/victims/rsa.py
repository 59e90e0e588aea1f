"""libgcrypt-style RSA modular exponentiation (Listing 2, Section VIII-B1).

libgcrypt 1.5.2's ``_gcry_mpi_powm`` uses square-and-multiply: every
exponent bit squares the accumulator, and a set bit additionally
multiplies.  Compiled with ``--disable-asm`` the two helpers
(``_gcry_mpih_sqr_n_basecase`` / ``_gcry_mpih_mul_karatsuba_case``) live on
separate code pages; instruction fetches into them are the leak.  The
victim models a fetch as a read of the function's page.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.os.process import Process
from repro.utils.rng import derive_rng


@dataclass(frozen=True)
class ModexpStep:
    """One square or multiply operation (generator payload)."""

    operation: str  # "square" | "multiply"
    bit_index: int


class RsaModexpVictim:
    """Square-and-multiply with page-distinct square/multiply routines."""

    def __init__(self, process: Process) -> None:
        self.process = process
        self.square_page_vaddr = process.alloc(1)
        self.multiply_page_vaddr = process.alloc(1)

    @property
    def square_frame(self) -> int:
        return self.process.paddr(self.square_page_vaddr) // 4096

    @property
    def multiply_frame(self) -> int:
        return self.process.paddr(self.multiply_page_vaddr) // 4096

    def _fetch_square(self) -> None:
        self.process.read(self.square_page_vaddr)

    def _fetch_multiply(self) -> None:
        self.process.read(self.multiply_page_vaddr)

    def modexp(
        self, base: int, exponent: int, modulus: int
    ) -> Generator[ModexpStep, None, int]:
        """Compute ``base**exponent % modulus``, yielding per operation.

        MSB-first left-to-right square-and-multiply, the libgcrypt 1.5.2
        structure: each iteration squares; bit=1 iterations also multiply.
        """
        if modulus <= 0:
            raise ValueError("modulus must be positive")
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        result = 1
        bits = exponent.bit_length()
        for bit_index in range(bits - 1, -1, -1):
            self._fetch_square()
            result = (result * result) % modulus
            yield ModexpStep(operation="square", bit_index=bit_index)
            if (exponent >> bit_index) & 1:
                self._fetch_multiply()
                result = (result * base) % modulus
                yield ModexpStep(operation="multiply", bit_index=bit_index)
        return result


def recover_exponent_from_ops(operations: list[str]) -> int:
    """Rebuild the exponent from a square/multiply operation trace.

    A square followed by a multiply is a 1 bit; a square followed by
    another square (or end of trace) is a 0 bit.  The leading bit of any
    non-zero exponent is implicitly 1 (the loop starts at the MSB).
    """
    bits: list[int] = []
    index = 0
    while index < len(operations):
        operation = operations[index]
        if operation != "square":
            raise ValueError(f"malformed trace at {index}: {operation!r}")
        if index + 1 < len(operations) and operations[index + 1] == "multiply":
            bits.append(1)
            index += 2
        else:
            bits.append(0)
            index += 1
    value = 0
    for bit in bits:
        value = (value << 1) | bit
    return value


def generate_test_key(bits: int = 128, seed: int = 99) -> tuple[int, int, int]:
    """A (base, exponent, modulus) triple for experiments.

    Not cryptographically meaningful — the attack targets the *access
    pattern*, which depends only on the exponent's bits.
    """
    rng = derive_rng(seed, "rsa-key")
    exponent = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
    modulus = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
    base = rng.getrandbits(bits // 2) | 1
    return base, exponent, modulus
