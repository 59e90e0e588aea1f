"""Delta-debugging witness minimizer.

Any leaking program the fuzzer finds is noise until it is small enough
to read; the minimizer shrinks it to a *witness* — a minimal program
that still trips the paired-secret oracle on the target channel family
— using classic ddmin over the op sequence followed by per-op field
shrinking (count -> 1, stride -> 1, guards cleared where possible,
page pool and cleanse mode reduced).

The invariant is absolute: **every candidate reduction re-runs the
oracle**, and a candidate replaces the current program only if it still
leaks the target.  The final witness is therefore leaking by
construction (it is the last accepted candidate), and minimizing a
program that does not leak the target raises
:class:`MinimizationError` instead of fabricating a witness.

Witnesses serialise to a small reproducible JSON document (program +
machine + flagged channels + provenance) that is checked into the repo
as a regression fixture and re-verified by ``repro synth verify``.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, replace
from typing import Callable

from repro.synth.ir import (
    SCHEMA_VERSION,
    Guard,
    Program,
    program_from_dict,
    program_to_dict,
    validate_program,
)
from repro.synth.runner import (
    SynthResult,
    evaluate_program,
    resolve_target,
)
from repro.utils.provenance import git_rev as _git_rev


class MinimizationError(ValueError):
    """The input program does not leak the requested target."""


@dataclass(frozen=True)
class MinimizeResult:
    """A minimization run's outcome: the witness plus its provenance."""

    witness: Program
    target: str
    preset: str
    defense: str
    channels: tuple[tuple[str, str], ...]  # flagged channels of the witness
    initial_ops: int
    final_ops: int
    oracle_calls: int
    budget_exhausted: bool


class _Oracle:
    """Counting wrapper around the leak oracle, scoped to one target."""

    def __init__(
        self,
        *,
        preset: str,
        defense: str,
        components: frozenset[str],
        max_calls: int,
    ) -> None:
        self.preset = preset
        self.defense = defense
        self.components = components
        self.max_calls = max_calls
        self.calls = 0
        self.last: SynthResult | None = None

    @property
    def exhausted(self) -> bool:
        return self.calls >= self.max_calls

    def leaks(self, program: Program) -> bool:
        """One oracle query; False (no reduction) once the budget is gone."""
        if self.exhausted:
            return False
        self.calls += 1
        result = evaluate_program(
            program=program, preset=self.preset, defense=self.defense
        )
        if result.hits(self.components):
            self.last = result
            return True
        return False


def _split(ops: tuple, n: int) -> list[tuple]:
    """``ops`` into ``n`` near-equal contiguous chunks (ddmin partition)."""
    size, rem = divmod(len(ops), n)
    chunks, start = [], 0
    for i in range(n):
        end = start + size + (1 if i < rem else 0)
        if end > start:
            chunks.append(ops[start:end])
        start = end
    return chunks


def _ddmin_ops(program: Program, oracle: _Oracle) -> Program:
    """Classic ddmin over the op sequence (complement reduction)."""
    current = program
    n = 2
    while len(current.ops) >= 2 and not oracle.exhausted:
        chunks = _split(current.ops, min(n, len(current.ops)))
        reduced = False
        for index in range(len(chunks)):
            complement = tuple(
                op for j, chunk in enumerate(chunks) if j != index
                for op in chunk
            )
            if not complement:
                continue
            candidate = replace(current, ops=complement)
            if oracle.leaks(candidate):
                current = candidate
                n = max(n - 1, 2)
                reduced = True
                break
        if not reduced:
            if n >= len(current.ops):
                break
            n = min(len(current.ops), n * 2)
    return current


def _shrink_fields(program: Program, oracle: _Oracle) -> Program:
    """Per-op and whole-program simplifications, cheapest-first."""
    current = program
    for index in range(len(current.ops)):
        op = current.ops[index]
        candidates = []
        if op.count > 1:
            candidates.append(replace(op, count=1))
        if op.stride > 1:
            candidates.append(replace(op, stride=1))
        if op.offset > 0:
            candidates.append(replace(op, offset=0))
        if op.guard is not Guard.ALWAYS:
            candidates.append(replace(op, guard=Guard.ALWAYS))
        for simplified in candidates:
            if oracle.exhausted:
                return current
            ops = list(current.ops)
            ops[index] = simplified
            candidate = replace(current, ops=tuple(ops))
            if oracle.leaks(candidate):
                current = candidate
                op = simplified
    # Shrink the page pool to what the ops actually reference.
    used = max((op.page for op in current.ops), default=0) + 1
    if used < current.pages and not oracle.exhausted:
        candidate = replace(current, pages=used)
        if oracle.leaks(candidate):
            current = candidate
    if current.cleanse and not oracle.exhausted:
        candidate = replace(current, cleanse=False)
        if oracle.leaks(candidate):
            current = candidate
    return current


def minimize_program(
    program: Program,
    *,
    target: str = "metadata",
    preset: str = "sct",
    defense: str = "none",
    max_oracle_calls: int = 400,
    progress: Callable[[str], None] | None = None,
) -> MinimizeResult:
    """Shrink ``program`` to a minimal witness that still leaks ``target``.

    Raises :class:`MinimizationError` when the input does not leak the
    target to begin with — a witness must be a reduction of an observed
    leak, never an invention.
    """
    validate_program(program)
    if max_oracle_calls < 2:
        raise ValueError(
            f"max_oracle_calls must be >= 2, got {max_oracle_calls}"
        )
    components = resolve_target(target)
    oracle = _Oracle(
        preset=preset, defense=defense,
        components=components, max_calls=max_oracle_calls,
    )
    if not oracle.leaks(program):
        raise MinimizationError(
            f"program does not leak target {target!r} on "
            f"preset={preset} defense={defense}; nothing to minimize"
        )
    if progress is not None:
        progress(f"input leaks {target}: {len(program.ops)} op(s)")
    current = _ddmin_ops(program, oracle)
    if progress is not None:
        progress(f"ddmin: {len(program.ops)} -> {len(current.ops)} op(s) "
                 f"({oracle.calls} oracle calls)")
    current = _shrink_fields(current, oracle)
    if progress is not None:
        progress(f"field shrink done: {len(current.ops)} op(s) "
                 f"({oracle.calls} oracle calls)")
    # Final re-check: the witness the caller gets is verified as-is.
    final = evaluate_program(
        program=current, preset=preset, defense=defense
    )
    oracle.calls += 1
    if not final.hits(components):  # pragma: no cover - invariant guard
        raise MinimizationError(
            "minimizer invariant violated: accepted witness stopped leaking"
        )
    return MinimizeResult(
        witness=current,
        target=target,
        preset=preset,
        defense=defense,
        channels=final.channels,
        initial_ops=len(program.ops),
        final_ops=len(current.ops),
        oracle_calls=oracle.calls,
        budget_exhausted=oracle.exhausted,
    )


# -- witness files ---------------------------------------------------------


def witness_to_dict(result: MinimizeResult) -> dict[str, object]:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "synth-witness",
        "target": result.target,
        "preset": result.preset,
        "defense": result.defense,
        "channels": [list(pair) for pair in result.channels],
        "program": program_to_dict(result.witness),
        "provenance": {
            "initial_ops": result.initial_ops,
            "final_ops": result.final_ops,
            "oracle_calls": result.oracle_calls,
            "budget_exhausted": result.budget_exhausted,
            "git_rev": _git_rev(),
        },
    }


def write_witness(
    result: MinimizeResult, path: str | pathlib.Path
) -> pathlib.Path:
    out = pathlib.Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        json.dumps(witness_to_dict(result), indent=2, sort_keys=True) + "\n"
    )
    return out


@dataclass(frozen=True)
class Witness:
    """A loaded witness file, ready for re-verification."""

    target: str
    preset: str
    defense: str
    program: Program
    channels: tuple[tuple[str, str], ...]

    def verify(self) -> SynthResult:
        """Re-run the oracle; raises MinimizationError if it went stale."""
        result = evaluate_program(
            program=self.program, preset=self.preset, defense=self.defense
        )
        if not result.hits(resolve_target(self.target)):
            raise MinimizationError(
                f"witness no longer leaks target {self.target!r} on "
                f"preset={self.preset} defense={self.defense}"
            )
        return result


def load_witness(path: str | pathlib.Path) -> Witness:
    data = json.loads(pathlib.Path(path).read_text())
    if data.get("kind") != "synth-witness":
        raise ValueError(f"{path}: not a synth witness file")
    if data.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported witness schema "
            f"{data.get('schema_version')!r} (want {SCHEMA_VERSION})"
        )
    resolve_target(str(data["target"]))
    return Witness(
        target=str(data["target"]),
        preset=str(data["preset"]),
        defense=str(data["defense"]),
        program=program_from_dict(data["program"]),
        channels=tuple(
            (str(c), str(k)) for c, k in data.get("channels", [])
        ),
    )
