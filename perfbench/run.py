"""The repository benchmark: four seeded workloads, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` runs the workload's fixed *pass* of inputs untraced and
then under the span wrappers of ``layers.py``, and reports the per-layer
metrics, including what tracing costs (``obs.overhead_ratio``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it repeat every metric with its unit, the sample counts, the host
fingerprint and every correctness failure.  ``fail_ratio`` is
``failed / attempted``.  The exit code is 0 when every check passed, 1
when one failed, and 2 when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from hostspeed import REFERENCE_S, HostSpeed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: End-to-end metrics (``--trace 0``), the same for every workload.  An
#: *item* is the workload's unit of work: one oracle evaluation, one key
#: attacked on sgx and on sct, one covert transmission, one service job.
E2E_METRICS = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_p90": "ms",
}

#: Per-layer metrics (``--trace 1``).  Times are self seconds per traced
#: pass; counts are per pass and repeat exactly for one seed.  A layer a
#: workload does not reach reports 0.
LAYER_METRICS = {
    "proc.construct_s": "s",
    "proc.self_s": "s",
    "mem.cache.self_s": "s",
    "l1.hit_ratio": "ratio",
    "secmem.engine.self_s": "s",
    "secmem.tree.self_s": "s",
    "meta_cache.hit_ratio": "ratio",
    "engine.tree_node_loads": "count",
    "engine.counter_miss_ratio": "ratio",
    "secmem.counters.self_s": "s",
    "engine.enc_counter_overflows": "count",
    "engine.tree_counter_overflows": "count",
    "engine.reencrypted_blocks": "count",
    "mem.memctrl.self_s": "s",
    "mem.dram.self_s": "s",
    "dram.reads": "count",
    "dram.writes": "count",
    "dram.row_hit_ratio": "ratio",
    "memctrl.drains": "count",
    "memctrl.writes_merged": "count",
    "trace.collect_s": "s",
    "trace.emit_s": "s",
    "trace.events_per_eval": "count",
    "trace.dropped": "count",
    "utils.stats.ks_s": "s",
    "leakcheck.ks_calls": "count",
    "leakcheck.self_s": "s",
    "synth.self_s": "s",
    "attacks.self_s": "s",
    "service.http_ms_p50": "ms",
    "service.requests_per_job": "count",
    "service.queue_wait_ms_p50": "ms",
    "campaign.run_ms_p50": "ms",
    "service.overhead_ms_p50": "ms",
    "service.dedup_hit_ratio": "ratio",
    "service.shed": "count",
    "sim_cycles_per_op": "cycles",
    "sim_ops_per_s": "1/s",
    "secret_bits_per_s": "bit/s",
    "obs.overhead_ratio": "ratio",
}

#: Self-time metric -> layer name used by ``layers.LayerSpans``.
SELF_TIME_LAYERS = {
    "proc.construct_s": "proc.construct",
    "proc.self_s": "proc",
    "mem.cache.self_s": "mem.cache",
    "secmem.engine.self_s": "secmem.engine",
    "secmem.tree.self_s": "secmem.tree",
    "secmem.counters.self_s": "secmem.counters",
    "mem.memctrl.self_s": "mem.memctrl",
    "mem.dram.self_s": "mem.dram",
    "trace.collect_s": "trace.collect",
    "trace.emit_s": "trace.emit",
    "utils.stats.ks_s": "utils.stats.ks",
    "leakcheck.self_s": "leakcheck",
    "synth.self_s": "synth",
    "attacks.self_s": "attacks",
}

WORKLOADS = ("oracle", "attack_rsa", "covert_c", "service")

#: Input sizes per workload.  ``TINY`` is what the self-test runs.
FULL = {
    "oracle": {"programs": 3000},
    "attack_rsa": {"keys": 400, "bits": 16},
    "covert_c": {"transmissions": 400, "pairs": 1},
    "service": {"jobs": 20000},
}
TINY = {
    "oracle": {"programs": 12},
    "attack_rsa": {"keys": 2, "bits": 8},
    "covert_c": {"transmissions": 3, "pairs": 1},
    "service": {"jobs": 24},
}

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 5
#: Items run untimed first, so lazy imports and tables are built.
WARMUP_S = 0.5
WARMUP_JOBS = 4
#: The calibration loop runs between items at most this often.
SAMPLE_EVERY_S = 0.1


@dataclass
class Outcome:
    """Everything one run measured, before it is printed."""

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    errors: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.errors.append(message)


def percentile(values: list[float], pct: int) -> float:
    """The ``pct``-th percentile (statistics.quantiles, exclusive)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[pct - 1]


def host_fingerprint() -> dict[str, Any]:
    from repro.utils.provenance import git_rev

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "git_rev": git_rev()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_setup(build: Callable[[], Any], host: HostSpeed
                ) -> tuple[Any, float, float]:
    """Build the inputs SETUP_REPEATS times and keep the last build.

    Returns it with the median set-up time, rescaled and raw.
    """
    scaled, raw = [], []
    built = None
    for _ in range(SETUP_REPEATS):
        built = None  # release the previous build before timing the next
        host.sample()
        started = time.perf_counter()
        built = build()
        raw.append(time.perf_counter() - started)
        host.sample()
        scaled.append(raw[-1] * host.factor_at(started))
    return built, statistics.median(scaled), statistics.median(raw)


def timing_metrics(scaled: list[float]) -> dict[str, float]:
    """Throughput and latency of one-at-a-time items, rescaled."""
    return {
        "items_per_s": len(scaled) / sum(scaled),
        "item_ms_p50": statistics.median(scaled) * 1e3,
        "item_ms_p90": percentile(scaled, 90) * 1e3,
    }


def raw_note(setup_raw: float, rate: float, raw: list[float],
             factor: float) -> str:
    """The end-to-end figures before rescaling, for the log."""
    return (f"raw host times: setup {setup_raw:.6g} s, {rate:.6g} items/s, "
            f"p50 {statistics.median(raw) * 1e3:.6g} ms, p90 "
            f"{percentile(raw, 90) * 1e3:.6g} ms; host speed factor "
            f"{factor:.4g} (reference loop {REFERENCE_S * 1e3:.2f} ms)")


# ----------------------------------------------------------------------
# in-process workloads
# ----------------------------------------------------------------------


def build_inputs(workload: str, seed: int, sizes: dict[str, Any]) -> Any:
    import inproc

    if workload == "oracle":
        return inproc.oracle_inputs(seed, sizes["programs"])
    if workload == "attack_rsa":
        return inproc.attack_inputs(seed, sizes["keys"], sizes["bits"])
    return inproc.covert_inputs(seed, sizes["transmissions"], sizes["pairs"])


Timing = list[tuple[float, float]]  # (start, seconds) of each call


def _run_item(item: Any, out: Outcome, host: HostSpeed
              ) -> tuple[tuple[Any, ...], Timing]:
    """Run and check one item, timing each call on its own.

    The calibration loop runs between calls at most every
    SAMPLE_EVERY_S, so every call has host-speed samples around it.
    """
    results = []
    timing: Timing = []
    for call in item.calls:
        if time.perf_counter() - host.last_sample_at() > SAMPLE_EVERY_S:
            host.sample()
        started = time.perf_counter()
        results.append(call())
        timing.append((started, time.perf_counter() - started))
    out.attempted += 1
    for error in item.check(tuple(results)):
        out.fail(error)
    return tuple(results), timing


def rescaled(timing: Timing, host: HostSpeed) -> float:
    return sum(elapsed * host.factor_at(started) for started, elapsed in timing)


def run_inproc(workload: str, seed: int, seconds: float, trace: bool,
               sizes: dict[str, Any]) -> Outcome:
    out = Outcome()
    host = HostSpeed()
    inputs, setup_s, setup_raw = timed_setup(
        lambda: build_inputs(workload, seed, sizes), host
    )
    warm_until = time.perf_counter() + WARMUP_S
    for item in inputs.items:
        _run_item(item, out, host)  # checked and counted, not timed
        if time.perf_counter() > warm_until:
            break
    inputs.fresh()
    if trace:
        traced_passes(workload, seed, seconds, inputs, host, out)
        return out

    items = inputs.items
    timings: list[Timing] = []
    seen: dict[int, str] = {}
    deadline = time.perf_counter() + seconds
    index = 0
    while time.perf_counter() < deadline or index == 0:
        position = index % len(items)
        item = items[position]
        results, timing = _run_item(item, out, host)
        timings.append(timing)
        digest = item.digest(results)
        # A stateless item must give the same simulated result every
        # time it comes round; covert_c keeps one machine, so it does not.
        if workload != "covert_c" and seen.setdefault(position, digest) != digest:
            out.fail(f"{item.label}: simulated result changed on rerun")
        index += 1
    host.sample()
    raw = [sum(elapsed for _, elapsed in timing) for timing in timings]
    scaled = [rescaled(timing, host) for timing in timings]
    out.metrics = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb(),
                   **timing_metrics(scaled)}
    out.notes.append(f"{len(raw)} items timed ({len(items)} generated), "
                     f"{sum(raw):.3f} s in the timed calls")
    out.notes.append(raw_note(setup_raw, len(raw) / sum(raw), raw,
                              host.factor()))
    return out


def _pass(inputs: Any, out: Outcome, host: HostSpeed, spans: Any = None
          ) -> tuple[float, list[str], dict[str, int], list[Any]]:
    """Run the pass once; returns (rescaled time, digests, counts, results).
    """
    from layers import machine_counts

    inputs.fresh()
    persistent: list[Any] = []
    before: dict[str, int] = {}
    if spans is not None:
        spans.take_self_times()  # machine building is not part of the pass
        persistent, _ = spans.take_instances()
        before = machine_counts(persistent)
    digests: list[str] = []
    results: list[Any] = []
    counts: dict[str, int] = {}
    host.sample()
    timing: Timing = []
    for item in inputs.items[: inputs.pass_size]:
        item_results, item_timing = _run_item(item, out, host)
        timing += item_timing
        digests.append(item.digest(item_results))
        results.extend(item_results)
        if spans is not None:
            machines, tracers = spans.take_instances()
            for key, value in machine_counts(machines).items():
                counts[key] = counts.get(key, 0) + value
            counts["trace.dropped"] = counts.get("trace.dropped", 0) + sum(
                tracer.dropped for tracer in tracers
            )
    for key, value in machine_counts(persistent).items():
        counts[key] = counts.get(key, 0) + value - before.get(key, 0)
    host.sample()
    return rescaled(timing, host), digests, counts, results


def traced_passes(workload: str, seed: int, seconds: float, inputs: Any,
                  host: HostSpeed, out: Outcome) -> None:
    from layers import LayerSpans

    items = inputs.items[: inputs.pass_size]
    plain_times: list[float] = []
    reference: list[str] | None = None
    phase_end = time.perf_counter() + seconds / 2
    while time.perf_counter() < phase_end or not plain_times:
        elapsed, digests, _, _ = _pass(inputs, out, host)
        plain_times.append(elapsed)
        out.attempted += 1
        if reference is None:
            reference = digests
        elif digests != reference:
            out.fail("untraced passes disagree on simulated results")

    traced_times: list[float] = []
    layer_times: list[dict[str, float]] = []
    first_counts: dict[str, int] | None = None
    first_calls: dict[str, int] = {}
    first_results: list[Any] = []
    spans = LayerSpans()
    with spans:
        phase_end = time.perf_counter() + seconds / 2
        while time.perf_counter() < phase_end or not traced_times:
            calls_before = dict(spans.calls)
            elapsed, digests, counts, results = _pass(inputs, out, host,
                                                      spans)
            traced_times.append(elapsed)
            layer_times.append(spans.take_self_times())
            out.attempted += 2
            if digests != reference:
                out.fail("tracing changed the simulated results")
            if first_counts is None:
                first_counts = counts
                first_results = results
                first_calls = {
                    layer: spans.calls[layer] - calls_before.get(layer, 0)
                    for layer in spans.calls
                }
            elif counts != first_counts:
                out.fail("traced passes disagree on simulated counters")
    os.makedirs(OUT_DIR, exist_ok=True)
    span_file = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl")
    stored = spans.write_jsonl(span_file)

    counts = first_counts or {}
    plain = statistics.median(plain_times)
    metrics = dict.fromkeys(LAYER_METRICS, 0.0)
    for metric, layer in SELF_TIME_LAYERS.items():
        metrics[metric] = statistics.median(
            times.get(layer, 0.0) for times in layer_times
        )

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def count(name: str) -> int:
        return counts.get(name, 0)

    def share(part: str, rest: str) -> float:
        return ratio(count(part), count(part) + count(rest))

    ops = count("ops")
    evals = len(items) if workload == "oracle" else 0
    events = sum(_events_of(result) for result in first_results)
    for name in ("engine.tree_node_loads", "engine.enc_counter_overflows",
                 "engine.tree_counter_overflows", "engine.reencrypted_blocks",
                 "dram.reads", "dram.writes", "memctrl.drains",
                 "memctrl.writes_merged", "trace.dropped"):
        metrics[name] = count(name)
    metrics.update({
        "l1.hit_ratio": share("l1.hits", "l1.misses"),
        "meta_cache.hit_ratio": share("meta_cache.hits", "meta_cache.misses"),
        "engine.counter_miss_ratio":
            share("engine.counter_misses", "engine.counter_hits"),
        "dram.row_hit_ratio": share("dram.row_hits", "dram.row_misses"),
        "trace.events_per_eval": ratio(events, evals),
        "leakcheck.ks_calls": first_calls.get("utils.stats.ks", 0),
        "sim_cycles_per_op": ratio(count("cycles"), ops),
        "sim_ops_per_s": ratio(ops, plain),
        "secret_bits_per_s": ratio(sum(i.secret_bits for i in items), plain),
        "obs.overhead_ratio": ratio(statistics.median(traced_times), plain),
    })
    if metrics["trace.dropped"]:
        out.fail(f"tracer dropped {metrics['trace.dropped']} events")
    out.metrics = metrics
    out.notes.append(
        f"pass of {len(items)} items: {len(plain_times)} untraced, "
        f"{len(traced_times)} traced; {ops} simulated ops, counters "
        f"{'identical' if len(traced_times) > 1 else 'from one pass'}; "
        f"{stored} spans written to {os.path.relpath(span_file, ROOT)}"
    )


def _events_of(result: Any) -> int:
    if hasattr(result, "events_a"):  # a LeakReport
        return result.events_a + result.events_b
    return getattr(result, "events", 0)  # a SynthResult, else untraced


# ----------------------------------------------------------------------
# service workload
# ----------------------------------------------------------------------


def rescaled_window(result: Any, speed: HostSpeed) -> float:
    return speed.rescale_span(result.started,
                              result.started + result.elapsed_s)


def run_service(seed: int, seconds: float, trace: bool,
                sizes: dict[str, Any]) -> Outcome:
    import service_load as sl

    out = Outcome()
    host = HostSpeed()
    os.makedirs(OUT_DIR, exist_ok=True)
    db_base = os.path.join(OUT_DIR, f"service-{os.getpid()}")
    specs = sl.job_specs(seed, sizes["jobs"])

    def start(spans: bool, tag: str) -> tuple[Any, float]:
        """A started server and its start-up time, rescaled."""
        host.sample()
        started = time.perf_counter()
        server = sl.Server(ROOT, f"{db_base}-{tag}.sqlite", spans=spans)
        host.sample()
        return server, server.start_s * host.factor_at(started)

    def warm_up(server: Any) -> int:
        """A few jobs outside the window; returns their request count."""
        warm = sl.drive(server, [
            {"victim": sl.VICTIM, "seed": (1 << 31) + index}
            for index in range(WARMUP_JOBS)
        ], 60.0)
        for error in warm.errors:
            out.fail(f"warm-up {error}")
        return warm.requests

    def measure(server: Any, window: float) -> tuple[Any, HostSpeed]:
        """The closed loop's result and the host speed through it."""
        speed = HostSpeed()
        result = sl.drive(server, specs, window, speed)
        speed.sample()
        out.attempted += result.jobs
        for error in result.errors:
            out.fail(error)
        if not result.jobs:
            out.fail("no job completed in the window")
        return result, speed

    if not trace:
        start_times, raw_starts = [], []
        server = None
        try:
            for attempt in range(SETUP_REPEATS):
                if server is not None:
                    server.stop()
                    server.remove_db()
                server, start_s = start(False, str(attempt))
                start_times.append(start_s)
                raw_starts.append(server.start_s)
            warm_up(server)
            result, speed = measure(server, seconds)
            rss = server.peak_rss_mb()
        finally:
            if server is not None:
                server.stop()
                server.remove_db()
        factor = speed.factor()
        scaled = [
            latency * speed.factor_at(submitted)
            for latency, submitted in zip(result.latency_s, result.submitted_at)
        ] or [0.0]
        out.metrics = {
            "setup_s": statistics.median(start_times),
            "peak_rss_mb": rss,
            "items_per_s": result.jobs / rescaled_window(result, speed),
            "item_ms_p50": statistics.median(scaled) * 1e3,
            "item_ms_p90": percentile(scaled, 90) * 1e3,
        }
        out.notes.append(
            f"{result.jobs} jobs from {sl.CLIENTS} closed-loop clients in "
            f"{result.elapsed_s:.3f} s; latency = server updated - submitted"
        )
        out.notes.append(raw_note(
            statistics.median(raw_starts), result.jobs / result.elapsed_s,
            result.latency_s or [0.0], factor,
        ))
        return out

    plain, _ = start(False, "plain")
    try:
        warm_up(plain)
        plain_result, plain_speed = measure(plain, seconds / 2)
    finally:
        plain.stop()
        plain.remove_db()
    traced, _ = start(True, "traced")
    try:
        warm_requests = warm_up(traced)
        result, speed = measure(traced, seconds / 2)
        counters = sl.scrape_metrics(traced)
        debug = sl.debug_spans(traced)
    finally:
        traced.stop()
    try:
        durations = sl.span_durations_ms(traced.db_path)
    finally:
        traced.remove_db()
    if debug.get("dropped"):
        out.fail(f"service span recorder dropped {debug['dropped']} spans")
    # The /metrics request counts itself; warm-up requests came before.
    requests = counters.get("requests", 0.0) - 1 - warm_requests
    admitted = counters.get("admitted", 0.0)
    metrics = dict.fromkeys(LAYER_METRICS, 0.0)
    rate_plain = plain_result.jobs / rescaled_window(plain_result, plain_speed)
    rate_traced = result.jobs / rescaled_window(result, speed)

    def p50_ms(values: list[float]) -> float:
        return statistics.median(values) if values else 0.0

    metrics.update({
        "service.http_ms_p50": p50_ms([s * 1e3 for s in result.http_s]),
        "service.requests_per_job": requests / max(1, result.jobs),
        "service.queue_wait_ms_p50": p50_ms(durations["job.queue"]),
        "campaign.run_ms_p50": p50_ms(durations["campaign.run"]),
        "service.overhead_ms_p50": p50_ms(durations["service.overhead"]),
        "service.dedup_hit_ratio":
            counters.get("dedup_hits", 0.0) / admitted if admitted else 0.0,
        "service.shed": counters.get("shed", 0.0),
        "obs.overhead_ratio": rate_plain / rate_traced,
    })
    out.metrics = metrics
    out.notes.append(
        f"{plain_result.jobs} jobs untraced, {result.jobs} traced "
        f"({debug.get('recorded', 0)} spans recorded by the server)"
    )
    return out


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None,
         sizes: dict[str, dict[str, Any]] | None = None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: no program source at {src}", file=sys.stderr)
        return 2
    if src not in sys.path:
        sys.path.insert(0, src)
    here = os.path.dirname(os.path.abspath(__file__))
    if here not in sys.path:
        sys.path.insert(0, here)
    try:
        host = host_fingerprint()
    except ImportError as error:
        print(f"error: cannot import the program: {error}", file=sys.stderr)
        return 2
    sizes = (sizes or FULL)[args.workload]
    if args.workload == "service":
        out = run_service(args.seed, args.seconds, bool(args.trace), sizes)
    else:
        out = run_inproc(args.workload, args.seed, args.seconds,
                         bool(args.trace), sizes)
    return report(args, host, out)


def report(args: argparse.Namespace, host: dict[str, Any],
           out: Outcome) -> int:
    units = LAYER_METRICS if args.trace else E2E_METRICS
    failed = len(out.errors)
    attempted = max(out.attempted, failed, 1)
    print(f"host: cpu={host['cpu']!r} nproc={host['nproc']} "
          f"python={host['python']} git_rev={host['git_rev']}")
    print(f"workload {args.workload} seed {args.seed} "
          f"{'traced' if args.trace else 'untraced'}: "
          f"attempted {attempted}, failed {failed}, "
          f"fail_ratio {failed / attempted:.6g} (failed/attempted)")
    for note in out.notes:
        print(f"  {note}")
    for name, unit in units.items():
        print(f"  {name:<30} {out.metrics[name]:>16.6g} {unit}")
    for error in out.errors:
        print(f"  FAILED: {error}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": out.metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, host=host,
                  errors=out.errors, notes=out.notes)
    record_path = os.path.join(
        OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
