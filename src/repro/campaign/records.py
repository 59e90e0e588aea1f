"""Task outcome records and the JSON checkpoint manifest.

Every campaign task ends as one :class:`TaskRecord`; a batch is a
:class:`BatchReport`.  The manifest is written atomically (temp file +
``os.replace``) after *every* landed task, so a crash at any point
leaves a loadable checkpoint and ``--resume`` reruns only what is not
already ``ok``.
"""

from __future__ import annotations

import inspect
import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable

MANIFEST_VERSION = 1

# Record statuses a task can end in.  ``ok`` counts as success whether it
# ran now or was restored from the manifest (``cached`` flag tells them
# apart); everything else is some flavour of not-done.
STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_TIMEOUT = "timeout"
STATUS_SKIPPED = "skipped"


@dataclass
class TaskRecord:
    """Structured outcome of one task (what the manifest persists)."""

    name: str
    status: str
    attempts: int = 0
    elapsed: float = 0.0
    error: str = ""
    detail: str = ""  # traceback tail for failures
    seed: int | None = None  # reseed used by the successful/last attempt
    cached: bool = False  # restored from a previous run's manifest
    # Wall-clock lifecycle (epoch seconds; 0.0 = not recorded).  queue-wait
    # is started_at - queued_at; the span layer reads these rather than
    # re-deriving them from its own clocks.
    queued_at: float = 0.0
    started_at: float = 0.0
    finished_at: float = 0.0
    result: Any = None  # in-memory only, never serialised

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def queue_wait(self) -> float:
        """Seconds spent queued before the first attempt started."""
        if self.queued_at and self.started_at:
            return max(0.0, self.started_at - self.queued_at)
        return 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "status": self.status,
            "attempts": self.attempts,
            "elapsed": round(self.elapsed, 3),
            "error": self.error,
            "detail": self.detail,
            "seed": self.seed,
            "queued_at": round(self.queued_at, 3),
            "started_at": round(self.started_at, 3),
            "finished_at": round(self.finished_at, 3),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TaskRecord":
        return cls(
            name=str(data.get("name", "")),
            status=str(data.get("status", STATUS_FAILED)),
            attempts=int(data.get("attempts", 0)),
            elapsed=float(data.get("elapsed", 0.0)),
            error=str(data.get("error", "")),
            detail=str(data.get("detail", "")),
            seed=data.get("seed"),
            queued_at=float(data.get("queued_at", 0.0)),
            started_at=float(data.get("started_at", 0.0)),
            finished_at=float(data.get("finished_at", 0.0)),
        )


@dataclass
class BatchReport:
    """Aggregate outcome of one batch."""

    records: list[TaskRecord] = field(default_factory=list)

    def record(self, name: str) -> TaskRecord:
        for record in self.records:
            if record.name == name:
                return record
        raise KeyError(f"no task named {name!r} in this batch")

    @property
    def ok(self) -> list[TaskRecord]:
        return [r for r in self.records if r.ok]

    @property
    def failed(self) -> list[TaskRecord]:
        return [r for r in self.records if r.status in (STATUS_FAILED, STATUS_TIMEOUT)]

    @property
    def skipped(self) -> list[TaskRecord]:
        return [r for r in self.records if r.status == STATUS_SKIPPED]

    @property
    def status(self) -> str:
        """``pass`` (everything ok), ``fail`` (nothing ok) or ``partial``."""
        if not self.records or all(r.ok for r in self.records):
            return "pass"
        if any(r.ok for r in self.records):
            return "partial"
        return "fail"

    def summary(self) -> str:
        lines = [
            f"batch {self.status}: {len(self.ok)}/{len(self.records)} ok, "
            f"{len(self.failed)} failed, {len(self.skipped)} skipped"
        ]
        for record in self.records:
            flags = " (cached)" if record.cached else ""
            tail = f" — {record.error}" if record.error else ""
            lines.append(
                f"  {record.name:<20} {record.status:<8} "
                f"attempts={record.attempts} {record.elapsed:.1f}s{flags}{tail}"
            )
        return "\n".join(lines)


def load_manifest(path: str | os.PathLike[str]) -> dict[str, TaskRecord]:
    """Load a checkpoint manifest; missing/corrupt files load as empty."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return {}
    if not isinstance(data, dict) or data.get("version") != MANIFEST_VERSION:
        return {}
    tasks = data.get("tasks", {})
    records: dict[str, TaskRecord] = {}
    if isinstance(tasks, dict):
        for name, entry in tasks.items():
            if isinstance(entry, dict):
                entry = dict(entry, name=name)
                records[name] = TaskRecord.from_dict(entry)
    return records


def write_manifest(
    path: str | os.PathLike[str], records: dict[str, TaskRecord]
) -> None:
    payload = {
        "version": MANIFEST_VERSION,
        "tasks": {name: record.to_dict() for name, record in records.items()},
    }
    tmp = f"{os.fspath(path)}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)


def _accepts_seed(fn: Callable[..., Any]) -> bool:
    """Can ``fn`` be handed a ``seed=`` keyword for a reseeded retry?"""
    try:
        params = inspect.signature(fn).parameters
    except (TypeError, ValueError):
        return False
    for param in params.values():
        if param.kind is inspect.Parameter.VAR_KEYWORD:
            return True
        if param.name == "seed" and param.kind in (
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.KEYWORD_ONLY,
        ):
            return True
    return False
