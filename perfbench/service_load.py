"""The ``service`` workload: a ``repro serve`` process under a closed loop.

Two clients (one per core of the reference host) each submit a
``leakcheck`` job, wait for it to reach a terminal state, and only then
submit the next.  Job latency is taken from the server's own job
timestamps (``submitted`` to the terminal ``updated``), so the client's
poll interval (2 ms, far below the median job latency) does not enter
it.

A quarter of the submissions repeat an earlier victim/seed pair that has
already finished: those take the service's dedup/cache-read path, the
rest take the journal, campaign-engine and cache-write path.

Every job checks the ``rsa`` victim, each with its own seed.  With
mixed victims the latency of a job depended on which victim the other
client's job happened to run at the same time, and the 90th percentile
moved by up to 40% between runs; the ``oracle`` workload covers the
other victims.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any

from repro.campaign.db import CampaignDB
from repro.campaign.payload import PayloadError, decode_payload
from repro.service.client import http_request
from repro.utils.rng import derive_rng

from hostspeed import HostSpeed

CLIENTS = 2
POLL_S = 0.002
HOST_SAMPLE_EVERY_S = 0.1
#: Every REPEAT_EVERY-th submission repeats the pair submitted
#: REPEAT_EVERY - 1 places earlier (finished by then: each client has at
#: most one job in flight).
REPEAT_EVERY = 4
#: rsa pairs a dense with a sparse exponent, so it leaks at every seed.
VICTIM = "rsa"
_LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")
_START_TIMEOUT_S = 60.0
_STOP_TIMEOUT_S = 30.0


def job_specs(seed: int, count: int) -> list[dict[str, Any]]:
    """``count`` leakcheck specs: distinct seeds plus 1 in 4 repeats."""
    rng = derive_rng(seed, "perfbench-service")
    base = rng.getrandbits(30)
    specs: list[dict[str, Any]] = []
    distinct = 0
    for index in range(count):
        if index % REPEAT_EVERY == REPEAT_EVERY - 1:
            specs.append(dict(specs[index - (REPEAT_EVERY - 1)]))
            continue
        specs.append({"victim": VICTIM, "seed": base + distinct})
        distinct += 1
    return specs


def check_job(spec: dict[str, Any], job: dict[str, Any]) -> list[str]:
    """Every way a finished job is wrong (empty when correct)."""
    label = f"job {spec['victim']}/{spec['seed']}"
    if job.get("state") != "done":
        return [f"{label}: state {job.get('state')!r} "
                f"({job.get('error') or 'no error text'})"]
    result = job.get("result") or {}
    tasks = result.get("tasks") or []
    if result.get("ok") != 1 or len(tasks) != 1:
        return [f"{label}: result summary {result!r:.200}"]
    try:
        report = decode_payload(json.dumps(tasks[0].get("result")))
        leaky, dropped = report.leaky, report.dropped_a + report.dropped_b
    except (PayloadError, AttributeError, TypeError) as error:
        return [f"{label}: undecodable leak report ({error})"]
    if dropped:
        return [f"{label}: tracer dropped {dropped} events"]
    if not leaky:
        return [f"{label}: verdict clean, expected leaky"]
    return []


class Server:
    """One ``repro serve`` subprocess on a fresh journal database."""

    def __init__(self, root: str, db_path: str, *, spans: bool) -> None:
        self.db_path = db_path
        for stale in _db_files(db_path):
            os.remove(stale)
        command = [sys.executable, "-m", "repro", "serve", "--port", "0",
                   "--campaign-db", db_path]
        if not spans:
            command.append("--no-spans")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        env.pop("REPRO_CAMPAIGN_DB", None)
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        self.host, self.port = self._await_listening()
        self.start_s = time.perf_counter() - started

    def _await_listening(self) -> tuple[str, int]:
        deadline = time.monotonic() + _START_TIMEOUT_S
        assert self.proc.stdout is not None
        lines = []
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            lines.append(line)
            match = _LISTENING.search(line)
            if match:
                return match.group(1), int(match.group(2))
        self.stop()
        raise RuntimeError("service did not start: " + "".join(lines)[-2000:])

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``), in MiB."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """Graceful drain (SIGTERM), then kill if it overstays."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.communicate(timeout=_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
        elif self.proc.stdout is not None:
            self.proc.stdout.close()

    def remove_db(self) -> None:
        for path in _db_files(self.db_path):
            os.remove(path)


def _db_files(db_path: str) -> list[str]:
    return [p for p in (db_path, db_path + "-wal", db_path + "-shm",
                        db_path + "-journal") if os.path.exists(p)]


@dataclass
class LoadResult:
    """What one closed-loop window measured."""

    jobs: int = 0
    errors: list[str] = field(default_factory=list)
    latency_s: list[float] = field(default_factory=list)
    submitted_at: list[float] = field(default_factory=list)
    http_s: list[float] = field(default_factory=list)
    requests: int = 0
    started: float = 0.0
    elapsed_s: float = 0.0


async def _client(server: Server, specs: list[dict[str, Any]],
                  cursor: list[int], deadline: float,
                  out: LoadResult) -> None:
    host, port = server.host, server.port

    async def request(method: str, path: str,
                      body: dict[str, Any] | None = None) -> tuple[int, Any]:
        started = time.perf_counter()
        status, _, data = await http_request(host, port, method, path, body)
        out.http_s.append(time.perf_counter() - started)
        out.requests += 1
        return status, data

    while time.perf_counter() < deadline and cursor[0] < len(specs):
        spec = specs[cursor[0]]
        cursor[0] += 1
        submitted = time.perf_counter()
        status, job = await request(
            "POST", "/jobs", {"kind": "leakcheck", "spec": spec}
        )
        while status in (200, 202) and job.get("state") not in (
            "done", "failed", "timeout", "cancelled"
        ):
            await asyncio.sleep(POLL_S)
            status, job = await request("GET", f"/jobs/{job['id']}")
        out.jobs += 1
        if status not in (200, 202):
            out.errors.append(f"job {spec}: HTTP {status} {job!r:.200}")
            continue
        out.errors.extend(check_job(spec, job))
        out.latency_s.append(float(job["updated"]) - float(job["submitted"]))
        out.submitted_at.append(submitted)


async def _sample_host(host: HostSpeed, deadline: float) -> None:
    """Calibration samples through the window (each blocks ~3-4 ms)."""
    while time.perf_counter() < deadline:
        host.sample()
        await asyncio.sleep(HOST_SAMPLE_EVERY_S)


def drive(server: Server, specs: list[dict[str, Any]], seconds: float,
          host: HostSpeed | None = None) -> LoadResult:
    """Run the closed loop for ``seconds``; in-flight jobs finish.

    With ``host``, the calibration loop is sampled through the window.
    """

    async def main() -> LoadResult:
        out = LoadResult()
        cursor = [0]
        out.started = started = time.perf_counter()
        tasks = [_client(server, specs, cursor, started + seconds, out)
                 for _ in range(CLIENTS)]
        if host is not None:
            tasks.append(_sample_host(host, started + seconds))
        await asyncio.gather(*tasks)
        out.elapsed_s = time.perf_counter() - started
        return out

    return asyncio.run(main())


def scrape_metrics(server: Server) -> dict[str, float]:
    """``/metrics`` as {name without the repro_service_ prefix: value}."""

    async def fetch() -> str:
        _, _, text = await http_request(server.host, server.port,
                                        "GET", "/metrics")
        return str(text)

    values: dict[str, float] = {}
    for line in asyncio.run(fetch()).splitlines():
        if line.startswith("repro_service_"):
            name, _, value = line.partition(" ")
            name = name[len("repro_service_"):]
            if name.endswith("_total"):
                name = name[: -len("_total")]
            with contextlib.suppress(ValueError):
                values[name] = float(value)
    return values


def debug_spans(server: Server) -> dict[str, Any]:
    async def fetch() -> Any:
        _, _, data = await http_request(server.host, server.port,
                                        "GET", "/debug/spans")
        return data

    return asyncio.run(fetch())


def span_durations_ms(db_path: str) -> dict[str, list[float]]:
    """Per-job span timings from the journal's span table (ms).

    ``service.overhead`` is a job's ``service.job`` span minus the
    ``campaign.run`` span inside it; dedup-served jobs run no campaign
    and are left out of it.
    """
    with CampaignDB(db_path) as db:
        spans = db.spans()
    by_trace: dict[str, dict[str, float]] = {}
    out: dict[str, list[float]] = {
        "job.queue": [], "campaign.run": [], "service.overhead": [],
    }
    for span in spans:
        duration = (float(span["end"]) - float(span["start"])) * 1e3
        name = span["name"]
        by_trace.setdefault(span["trace"], {})[name] = duration
        if name in ("job.queue", "campaign.run"):
            out[name].append(duration)
    for names in by_trace.values():
        if "service.job" in names and "campaign.run" in names:
            out["service.overhead"].append(
                names["service.job"] - names["campaign.run"]
            )
    return out
