"""The per-access cycle-attribution accumulator threaded down the memory path.

A :class:`Txn` is created once per software-visible operation at the
``SecureProcessor.read``/``write`` boundary, while a cycle attributor is
attached, and handed down through the hierarchy, the memory encryption
engine and the memory controller.  It carries one thing — the
per-component split of the access's latency, and the critical/shadowed
overlap split — behind four calls:

* ``txn.charge(key, cycles)`` — attribute cycles to a dotted component
  key;
* ``txn.leg(prefix)`` — a fresh sub-accumulator for one side of an
  overlapped fetch; the engine later folds the winner into the critical
  attribution with :meth:`Txn.absorb` and the loser into the shadowed
  tally with :meth:`Txn.shadow`.

The processor reports the finished parts to its ``profiler``
(:class:`~repro.perf.CycleAttributor`), which is their one readout.

**Zero overhead when off.**  Without a profiler the processor hands down
the shared :data:`NULL_TXN` singleton — no allocation, and every method
is a pass — also while a tracer or fault hook is attached.  Instruments
are not carried here: every component, the processor included, reaches
its tracer and fault hook through its own component-graph slot.
"""

from __future__ import annotations


class Txn:
    """Cycle attribution for one in-flight memory access."""

    __slots__ = ("prefix", "parts", "shadowed")

    #: Real transactions attribute; the NULL_TXN singleton reports False.
    profiling = True

    def __init__(self, prefix: str = "") -> None:
        self.prefix = prefix
        self.parts: dict[str, int] = {}
        self.shadowed: dict[str, int] = {}

    def charge(self, key: str, cycles: int) -> None:
        """Attribute ``cycles`` to ``key`` (prefixed by this txn's scope)."""
        if not cycles:
            return
        key = self.prefix + key
        self.parts[key] = self.parts.get(key, 0) + cycles

    def leg(self, prefix: str) -> "Txn":
        """A fresh accumulator for one side of an overlapped fetch.

        The leg charges into its own ``parts``; the caller decides
        post-hoc whether those cycles were on the critical path
        (:meth:`absorb`) or hidden (:meth:`shadow`).
        """
        return Txn(self.prefix + prefix)

    def absorb(self, leg: "Txn") -> None:
        """Fold a leg's charges into the critical-path attribution."""
        for key, value in leg.parts.items():
            self.parts[key] = self.parts.get(key, 0) + value

    def shadow(self, leg: "Txn") -> None:
        """Fold a leg's charges into the shadowed (off-critical) tally."""
        for key, value in leg.parts.items():
            self.shadowed[key] = self.shadowed.get(key, 0) + value


class _NullTxn:
    """The shared do-nothing transaction used when nothing is profiling."""

    __slots__ = ()

    profiling = False
    parts = None
    shadowed = None

    def charge(self, key: str, cycles: int) -> None:
        pass

    def leg(self, prefix: str) -> "_NullTxn":
        return self

    def absorb(self, leg) -> None:
        pass

    def shadow(self, leg) -> None:
        pass


NULL_TXN = _NullTxn()
