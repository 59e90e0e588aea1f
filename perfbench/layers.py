"""Span wrappers around the layers' public calls, for the traced run.

The benchmark measures the program from outside: for a traced run it
replaces the public functions and methods of each layer with wrappers
that record a span per call, and restores them afterwards.  Patching
happens on classes and modules before any machine is built, so every
instance created while the spans are installed is wrapped.

A layer's *self time* is the time its spans cover minus the time their
child spans cover.  Code the benchmark does not wrap (``repro.os``,
victim programs, batch recording) counts as self time of the nearest
wrapped caller.  The wrappers cost host time themselves, so traced self
times compare only with other traced self times; ``obs.overhead_ratio``
reports what tracing costs.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import types
from collections import defaultdict
from typing import Any, Callable

#: Spans kept in memory for the JSONL dump; later spans still count
#: toward self time but are not stored.
SPAN_RECORD_LIMIT = 20000


def _layer_targets() -> tuple[list[tuple[str, type, tuple[str, ...]]],
                              list[tuple[str, Callable[..., Any]]]]:
    """(layer, class, extra methods) and (layer, function) to wrap."""
    from repro.analysis import rsa_attack
    from repro.analysis.classify import PairClassifier
    from repro.attacks.covert import CovertChannelC
    from repro.attacks.metaleak_c import MetaLeakC, SharedCounterHandle
    from repro.attacks.metaleak_t import MetaLeakT, TreeNodeMonitor
    from repro.leakcheck import detector
    from repro.mem.cache import SetAssocCache
    from repro.mem.dram import DramModel
    from repro.mem.hierarchy import DataCacheSystem
    from repro.mem.memctrl import MemoryController
    from repro.proc.processor import SecureProcessor
    from repro.secmem.counters import EncryptionCounterStore
    from repro.secmem.engine import MemoryEncryptionEngine
    from repro.secmem.tree import CounterTree, HashTree, IntegrityTree
    from repro.sgx.machine import SgxMachine
    from repro.sgx.sgx_step import SgxStep
    from repro.synth import runner
    from repro.trace.events import Tracer, group_by_kind
    from repro.utils.stats import ks_two_sample

    classes = [
        ("proc", SecureProcessor, ("__init__",)),
        ("mem.cache", SetAssocCache, ()),
        ("mem.cache", DataCacheSystem, ()),
        ("mem.memctrl", MemoryController, ()),
        ("mem.dram", DramModel, ()),
        ("secmem.engine", MemoryEncryptionEngine, ()),
        ("secmem.tree", IntegrityTree, ()),
        ("secmem.tree", CounterTree, ()),
        ("secmem.tree", HashTree, ()),
        ("secmem.counters", EncryptionCounterStore, ()),
        ("trace.emit", Tracer, ()),
        ("attacks", TreeNodeMonitor, ("__init__",)),
        ("attacks", MetaLeakT, ("__init__",)),
        ("attacks", MetaLeakC, ("__init__",)),
        ("attacks", SharedCounterHandle, ("__init__",)),
        ("attacks", CovertChannelC, ("__init__",)),
        ("attacks", PairClassifier, ("__init__",)),
        ("attacks", SgxMachine, ("__init__",)),
        ("attacks", SgxStep, ()),
    ]
    functions = [
        ("synth", runner.evaluate_program),
        ("synth", runner.compile_program),
        ("leakcheck", detector.run_leakcheck),
        ("trace.collect", group_by_kind),
        ("utils.stats.ks", ks_two_sample),
        ("attacks", rsa_attack.run_rsa_attack),
    ]
    return classes, functions


#: Methods whose layer differs from their class's layer.
_METHOD_LAYERS = {
    ("SecureProcessor", "__init__"): "proc.construct",
    ("Tracer", "events"): "trace.collect",
}


class LayerSpans:
    """Installs span wrappers and accumulates self time per layer.

    ``machines`` and ``tracers`` collect the processors and tracers built
    while installed, so the caller can read their counters after each
    unit of work (and drop them with :meth:`take_instances`).
    """

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.machines: list[Any] = []
        self.tracers: list[Any] = []
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._stack: list[list[float]] = []  # [span id, child time]
        self._next_id = 1
        self._undo: list[tuple[Any, str, Any]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span_id = self._next_id
            self._next_id = span_id + 1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[layer] += duration - frame[1]
                calls[layer] += 1
                parent = 0
                if stack:
                    stack[-1][1] += duration
                    parent = stack[-1][0]
                if len(spans) < SPAN_RECORD_LIMIT:
                    spans.append((span_id, parent, layer, start, end))

        return wrapper

    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap every target; call :meth:`uninstall` to restore them."""
        from repro.proc.processor import SecureProcessor
        from repro.trace.events import Tracer

        classes, functions = _layer_targets()
        for layer, cls, extra in classes:
            for name, member in list(vars(cls).items()):
                if not isinstance(member, types.FunctionType):
                    continue
                if name.startswith("_") and name not in extra:
                    continue
                if inspect.isgeneratorfunction(member):
                    continue  # a wrapper would time only generator creation
                method_layer = _METHOD_LAYERS.get((cls.__name__, name), layer)
                self._set(cls, name, self._wrap(method_layer, member))
        # Collect machines and tracers as they are built.
        for cls, sink in ((SecureProcessor, self.machines),
                          (Tracer, self.tracers)):
            self._set(cls, "__init__", self._collector(cls, sink))
        for layer, fn in functions:
            wrapped = self._wrap(layer, fn)
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "")
                if not name.startswith("repro"):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._set(module, attr, wrapped)

    @staticmethod
    def _collector(cls: type, sink: list[Any]) -> Callable[..., None]:
        init = cls.__init__

        @functools.wraps(init)
        def collect(instance: Any, *args: Any, **kwargs: Any) -> None:
            init(instance, *args, **kwargs)
            sink.append(instance)

        return collect

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def __enter__(self) -> "LayerSpans":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    # -- reading ------------------------------------------------------------

    def take_self_times(self) -> dict[str, float]:
        """Self seconds per layer since the last call, then reset."""
        out = dict(self.self_s)
        self.self_s.clear()
        return out

    def take_instances(self) -> tuple[list[Any], list[Any]]:
        machines, tracers = list(self.machines), list(self.tracers)
        self.machines.clear()
        self.tracers.clear()
        return machines, tracers

    def write_jsonl(self, path: str) -> int:
        """Dump the recorded spans (at most SPAN_RECORD_LIMIT) as JSONL."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, layer, start, end in self.spans:
                handle.write(json.dumps({
                    "span": span_id, "parent": parent or None,
                    "name": layer, "start": start, "end": end,
                }) + "\n")
        return len(self.spans)


def machine_counts(machines: list[Any]) -> dict[str, int]:
    """Deterministic simulated counters summed over ``machines``.

    Read from ``proc.stats``, ``proc.mee.stats``, ``proc.cycle`` and
    ``proc.registry.snapshot()`` — the counters the layers already keep.
    """
    totals: dict[str, int] = defaultdict(int)
    for proc in machines:
        stats = proc.stats
        totals["ops"] += stats.reads + stats.writes + stats.flushes
        totals["cycles"] += proc.cycle
        engine = proc.mee.stats
        for field in ("counter_hits", "counter_misses", "tree_node_loads",
                      "enc_counter_overflows", "tree_counter_overflows",
                      "reencrypted_blocks"):
            totals[f"engine.{field}"] += getattr(engine, field)
        for key, value in proc.registry.snapshot().items():
            parts = key.split(".")
            if len(parts) == 3 and parts[0].startswith("core") \
                    and parts[1] == "l1" and parts[2] in ("hits", "misses"):
                totals[f"l1.{parts[2]}"] += int(value)
            elif parts[0] in ("meta_cache", "dram", "memctrl") \
                    and len(parts) == 2:
                totals[key] += int(value)
    return dict(totals)
