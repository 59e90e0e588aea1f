"""Self-test of the benchmark: ``python3 -m pytest perfbench -q``.

Tiny runs of every workload must print every metric with its unit, and
a corrupted output must be reported as a failure, never dropped.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import inproc  # noqa: E402
import run  # noqa: E402
import service_load  # noqa: E402


def _run(capsys, workload: str, trace: int, seed: int = 1) -> tuple[int, dict]:
    code = run.main(
        ["--workload", workload, "--seed", str(seed), "--seconds", "0.5",
         "--trace", str(trace)],
        sizes=run.TINY,
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


def test_benchmark_json_names_the_metrics_run_prints():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_METRICS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_METRICS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_prints_every_metric(capsys, workload, trace):
    code, result = _run(capsys, workload, trace)
    assert code == 0, result
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = run.LAYER_METRICS if trace else run.E2E_METRICS
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counts_repeat_for_one_seed(capsys):
    counts = [
        name for name, unit in run.LAYER_METRICS.items()
        if unit in ("count", "ratio", "cycles") and name.split(".")[0]
        not in ("service", "obs")
    ]
    first = _run(capsys, "attack_rsa", 1)[1]["metrics"]
    second = _run(capsys, "attack_rsa", 1)[1]["metrics"]
    assert first["dram.reads"]["value"] > 0
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


# -- corrupted outputs -------------------------------------------------------


def test_flipped_verdict_fails(capsys, monkeypatch):
    real = inproc.detector.run_leakcheck

    def flipped(spec, **kwargs):
        report = real(spec, **kwargs)
        if spec.name == "rsa":
            for finding in report.findings:
                finding.flagged = False
        return report

    monkeypatch.setattr(inproc.detector, "run_leakcheck", flipped)
    code, result = _run(capsys, "oracle", 0)
    assert code == 1 and result["correct"] is False and result["failed"] >= 1


def test_wrong_exponent_bit_fails(capsys, monkeypatch):
    real = inproc.rsa_attack.run_rsa_attack

    def wrong_bit(machine, **kwargs):
        result = real(machine, **kwargs)
        result.recovered_bits[-1] ^= 1
        return result

    monkeypatch.setattr(inproc.rsa_attack, "run_rsa_attack", wrong_bit)
    code, result = _run(capsys, "attack_rsa", 0)
    assert code == 1 and result["correct"] is False
    assert result["failed"] >= 1


def test_wrong_symbol_fails(capsys, monkeypatch):
    real = inproc.CovertChannelC.transmit

    def wrong_symbol(self, symbols, **kwargs):
        report = real(self, symbols, **kwargs)
        report.received[0] ^= 1
        return report

    monkeypatch.setattr(inproc.CovertChannelC, "transmit", wrong_symbol)
    code, result = _run(capsys, "covert_c", 0)
    assert code == 1 and result["correct"] is False
    assert result["failed"] >= 1


def _done_job(victim: str) -> dict:
    from repro.campaign.payload import encode_payload

    report = encode_payload(inproc.detector.run_leakcheck(victim, seed=0))
    return {"state": "done",
            "result": {"ok": 1, "tasks": [{"result": json.loads(report)}]}}


def test_failed_or_wrong_job_fails():
    spec = {"victim": "rsa", "seed": 0}
    assert not service_load.check_job(spec, _done_job("rsa"))
    assert service_load.check_job(spec, {"state": "failed", "error": "boom"})
    assert service_load.check_job(spec, _done_job("const"))  # flipped verdict
