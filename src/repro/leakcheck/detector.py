"""Automated metadata-leakage detection over paired event streams.

The detector is a leakage-contract checker: run a victim twice under
paired secrets with identical public inputs, on identically configured
deterministic machines, and compare the two metadata event streams.
Each run records one stream per (component, kind), in emission order,
of ``(cycle, core, addr, set_index, level, value)`` tuples.  A kind is
flagged exactly when its two streams differ — in length, in order, or
in any field of any event — and the finding names the first divergent
index and the two events there.  Any such difference is attributable to
the secret, because nothing else differed between the runs.

This rediscovers both MetaLeak channels from the streams alone:

* MetaLeak-T signals show up in the ``mee``/``tree`` kinds (counter
  misses, tree-walk depths, node loads);
* MetaLeak-C signals show up in the ``memctrl``/``dram`` kinds
  (write-queue enqueues, drains, bank addresses of serviced writes).

Both verdicts are exact, not statistical.  The machines are
deterministic (timer jitter is drawn from an RNG seeded by
``config.seed``), so a secret run twice gives identical streams: a
constant-time victim comes back clean, and any secret-dependent event
is flagged.  Nothing is buffered in a ring, so nothing is dropped.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

from repro import obs
from repro.config import SecureProcessorConfig
from repro.leakcheck.victims import VictimSpec, get_victim
from repro.proc.processor import SecureProcessor

#: Field names of one stream event tuple, in tuple order.
EVENT_FIELDS = ("cycle", "core", "addr", "set_index", "level", "value")

StreamEvent = tuple[int, int, int | None, int | None, int | None, float | None]


class _StreamSink:
    """Per-(component, kind) event streams of one run, in emission order.

    Occupies a machine's tracer slot (attaching binds its clock).  Unlike
    :class:`repro.trace.Tracer` it never drops, never sorts and builds no
    event objects.
    """

    instrument_slot = "tracer"

    def __init__(self) -> None:
        self.streams: defaultdict[tuple[str, str], list[StreamEvent]] = (
            defaultdict(list)
        )

    def bind_clock(self, clock: Callable[[], int]) -> None:
        self._clock = clock

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
        if cycle is None:
            cycle = self._clock()
        self.streams[component, kind].append(
            (cycle, core, addr, set_index, level, value)
        )


@dataclass
class KindFinding:
    """Comparison of one (component, kind) stream across the pair.

    ``first_divergence`` is ``None`` for identical streams, else
    ``{"index": i, "a": event, "b": event}`` where each event is a list
    in :data:`EVENT_FIELDS` order, or ``None`` past the end of the
    shorter stream.
    """

    component: str
    kind: str
    count_a: int
    count_b: int
    flagged: bool = False
    first_divergence: dict[str, object] | None = None

    @property
    def reasons(self) -> list[str]:
        """Why the streams differ, derived from the stored evidence."""
        reasons = []
        if self.count_a != self.count_b:
            reasons.append(f"count {self.count_a} != {self.count_b}")
        if self.first_divergence is not None:
            index = self.first_divergence["index"]
            reasons.append(f"first divergence at event {index}")
        return reasons

    def to_dict(self) -> dict[str, object]:
        return {
            "component": self.component,
            "kind": self.kind,
            "count_a": self.count_a,
            "count_b": self.count_b,
            "flagged": self.flagged,
            "reasons": self.reasons,
            "first_divergence": self.first_divergence,
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "KindFinding":
        return cls(
            component=str(data["component"]),
            kind=str(data["kind"]),
            count_a=int(data["count_a"]),
            count_b=int(data["count_b"]),
            flagged=bool(data["flagged"]),
            first_divergence=data.get("first_divergence"),
        )


@dataclass
class LeakReport:
    """The detector's verdict for one victim/seed pair.

    ``dropped_a``/``dropped_b`` are always 0 (the oracle's stream sink
    never drops); they stay for readers of the report JSON.
    """

    victim: str
    seed: int
    events_a: int
    events_b: int
    dropped_a: int = 0
    dropped_b: int = 0
    findings: list[KindFinding] = field(default_factory=list)

    @property
    def leaky(self) -> bool:
        return any(finding.flagged for finding in self.findings)

    @property
    def flagged_findings(self) -> list[KindFinding]:
        return [finding for finding in self.findings if finding.flagged]

    def to_dict(self) -> dict[str, object]:
        return {
            "victim": self.victim,
            "seed": self.seed,
            "events_a": self.events_a,
            "events_b": self.events_b,
            "dropped_a": self.dropped_a,
            "dropped_b": self.dropped_b,
            "leaky": self.leaky,
            "findings": [finding.to_dict() for finding in self.findings],
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "LeakReport":
        return cls(
            victim=str(data["victim"]),
            seed=int(data["seed"]),
            events_a=int(data["events_a"]),
            events_b=int(data["events_b"]),
            dropped_a=int(data["dropped_a"]),
            dropped_b=int(data["dropped_b"]),
            findings=[
                KindFinding.from_dict(item) for item in data.get("findings", [])
            ],
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "LeakReport":
        return cls.from_dict(json.loads(text))

    def summary_lines(self) -> list[str]:
        verdict = "LEAKY" if self.leaky else "clean"
        lines = [
            f"leakcheck: victim={self.victim} seed={self.seed} -> {verdict}",
            f"  events: {self.events_a} vs {self.events_b}",
        ]
        for finding in self.flagged_findings:
            lines.append(
                f"  {finding.component}/{finding.kind}: "
                f"n={finding.count_a} vs {finding.count_b} "
                f"[{', '.join(finding.reasons)}]"
            )
        return lines


def _simulate(
    spec: VictimSpec, secret: object, config: SecureProcessorConfig
) -> dict[tuple[str, str], list[StreamEvent]]:
    """One side's streams; the machine is not kept alive with them."""
    proc = SecureProcessor(config)
    sink = _StreamSink()
    proc.attach(sink)
    spec.run(proc, secret)
    return sink.streams


def _event_at(stream: list[StreamEvent], index: int) -> list[object] | None:
    return list(stream[index]) if index < len(stream) else None


def _compare_kind(
    component: str,
    kind: str,
    stream_a: list[StreamEvent],
    stream_b: list[StreamEvent],
) -> KindFinding:
    finding = KindFinding(
        component=component,
        kind=kind,
        count_a=len(stream_a),
        count_b=len(stream_b),
    )
    if stream_a == stream_b:
        return finding
    index = next(
        (i for i, (a, b) in enumerate(zip(stream_a, stream_b)) if a != b),
        min(len(stream_a), len(stream_b)),
    )
    finding.flagged = True
    finding.first_divergence = {
        "index": index,
        "a": _event_at(stream_a, index),
        "b": _event_at(stream_b, index),
    }
    return finding


def run_leakcheck(
    victim: str | VictimSpec,
    *,
    seed: int = 0,
    config: SecureProcessorConfig | None = None,
) -> LeakReport:
    """Run the paired-secret experiment and compare the event streams.

    ``victim`` is a registry name (see ``repro.leakcheck.victims``) or a
    user-supplied :class:`VictimSpec`.  The machine defaults to the SCT
    preset with functional crypto off (timing/metadata behaviour is
    unchanged; the detector only reads event streams).
    """
    spec = victim if isinstance(victim, VictimSpec) else get_victim(victim)
    if config is None:
        config = SecureProcessorConfig.sct_default(functional_crypto=False)
    with obs.start_span(
        "oracle.leakcheck", kind="oracle.leakcheck",
        attrs={"victim": spec.name, "seed": seed},
    ) as span:
        secret_a, secret_b = spec.secrets(seed)
        with obs.start_span("oracle.simulate_a"):
            streams_a = _simulate(spec, secret_a, config)
        with obs.start_span("oracle.simulate_b"):
            streams_b = _simulate(spec, secret_b, config)
        with obs.start_span("oracle.diff"):
            report = LeakReport(
                victim=spec.name,
                seed=seed,
                events_a=sum(map(len, streams_a.values())),
                events_b=sum(map(len, streams_b.values())),
                findings=[
                    _compare_kind(
                        component,
                        kind,
                        streams_a.get((component, kind), []),
                        streams_b.get((component, kind), []),
                    )
                    for component, kind in sorted(
                        streams_a.keys() | streams_b.keys()
                    )
                ],
            )
        span.set_many({"leaky": report.leaky,
                       "events": report.events_a + report.events_b})
    return report
