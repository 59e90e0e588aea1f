"""The structured metadata event bus (``repro.trace``).

A :class:`Tracer` is a bounded ring buffer of :class:`TraceEvent` records.
Components hold a ``tracer`` attribute that is ``None`` by default — the
zero-overhead-when-off contract is a single ``is not None`` test on every
instrumented path — and :meth:`SecureProcessor.attach
<repro.proc.processor.SecureProcessor.attach>` threads one tracer
through every layer (caches, memory controller, DRAM, encryption engine,
integrity trees, crypto engine).

Events carry the fields the MetaLeak analyses care about: simulation
cycle, issuing core (when known), emitting component, event kind, block
address, cache set and tree level.  ``value`` is a kind-specific scalar
(latency in cycles, walk depth, burst size).
"""

from __future__ import annotations

from collections import Counter as _TallyCounter
from collections import deque
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Iterator


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One structured metadata event."""

    cycle: int
    component: str
    kind: str
    core: int = -1
    addr: int | None = None
    set_index: int | None = None
    level: int | None = None
    value: float | None = None

    def to_dict(self) -> dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "TraceEvent":
        return cls(**{key: payload.get(key) for key in _EVENT_FIELDS})


_EVENT_FIELDS = tuple(TraceEvent.__dataclass_fields__)


class Tracer:
    """Ring-buffered event sink shared by every instrumented component.

    The buffer holds the most recent ``capacity`` events; older events are
    dropped oldest-first and tallied in :attr:`dropped`.  ``emitted``
    counts every event ever offered, so ``emitted - dropped == len(self)``
    until :meth:`clear`.
    """

    #: Component-graph slot this instrument occupies (``repro.core``).
    instrument_slot = "tracer"

    def __init__(self, capacity: int = 1 << 16) -> None:
        if capacity <= 0:
            raise ValueError("tracer capacity must be positive")
        self.capacity = capacity
        self._buffer: deque[TraceEvent] = deque()
        self.emitted = 0
        self.dropped = 0
        self._clock: Callable[[], int] | None = None

    # -- wiring ------------------------------------------------------------

    def bind_clock(self, clock: Callable[[], int]) -> None:
        """Install the cycle source used when ``emit`` gets no cycle."""
        self._clock = clock

    # -- emission ----------------------------------------------------------

    def emit(
        self,
        component: str,
        kind: str,
        *,
        cycle: int | None = None,
        core: int = -1,
        addr: int | None = None,
        set_index: int | None = None,
        level: int | None = None,
        value: float | None = None,
    ) -> None:
        """Record one event (components call this behind a ``None`` guard)."""
        if cycle is None:
            cycle = self._clock() if self._clock is not None else 0
        if len(self._buffer) >= self.capacity:
            self._buffer.popleft()
            self.dropped += 1
        self.emitted += 1
        self._buffer.append(
            TraceEvent(
                cycle=cycle,
                component=component,
                kind=kind,
                core=core,
                addr=addr,
                set_index=set_index,
                level=level,
                value=value,
            )
        )

    # -- inspection --------------------------------------------------------

    def events(self) -> list[TraceEvent]:
        """Buffered events in nondecreasing cycle order.

        Emission order and cycle order can disagree locally — posted-write
        drains run "into the future" while the issuing core's clock stays
        put — so the buffer is stably sorted by cycle on the way out.
        """
        return sorted(self._buffer, key=lambda event: event.cycle)

    def raw_events(self) -> list[TraceEvent]:
        """Buffered events in emission order (for drop-order tests)."""
        return list(self._buffer)

    def counts(self) -> dict[tuple[str, str], int]:
        """Buffered event tally keyed by (component, kind)."""
        return dict(
            _TallyCounter((event.component, event.kind) for event in self._buffer)
        )

    def __len__(self) -> int:
        return len(self._buffer)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events())

    def clear(self) -> None:
        """Drop all buffered events and reset the tallies."""
        self._buffer.clear()
        self.emitted = 0
        self.dropped = 0


def group_by_kind(
    events: Iterable[TraceEvent],
) -> dict[tuple[str, str], list[TraceEvent]]:
    """Split an event stream into per-(component, kind) sub-streams."""
    grouped: dict[tuple[str, str], list[TraceEvent]] = {}
    for event in events:
        grouped.setdefault((event.component, event.kind), []).append(event)
    return grouped
