"""The simulated secure processor: cores, caches, MEE and a global clock."""

from repro.proc.paths import AccessPath
from repro.proc.processor import AccessResult, SecureProcessor

__all__ = [
    "AccessPath",
    "AccessResult",
    "SecureProcessor",
]
