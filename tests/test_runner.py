"""Serial campaigns: ``CampaignEngine(jobs=1)`` as the figure batch runner.

Timeouts, retries with reseeding, crash isolation and batch reporting,
exercised through the same engine every ``repro figures`` run uses.  Closures are fine here: without a
timeout a serial campaign runs its tasks in-process.
"""

import time

import pytest

from repro.campaign import (
    BatchReport,
    CampaignEngine,
    CampaignTask,
    TaskRecord,
    TaskTimeout,
)
from repro.campaign.records import _accepts_seed
from repro.campaign.worker import _call_with_timeout


def _run(tasks, **engine_kwargs):
    return CampaignEngine(jobs=1, **engine_kwargs).run(
        [CampaignTask(name=name, fn=fn) for name, fn in tasks]
    )


class TestTimeouts:
    def test_fast_task_completes(self):
        assert _call_with_timeout(lambda: 41 + 1, {}, timeout=5.0) == 42

    def test_slow_task_raises(self):
        with pytest.raises(TaskTimeout):
            _call_with_timeout(lambda: time.sleep(2), {}, timeout=0.05)

    def test_no_timeout_means_no_alarm(self):
        assert _call_with_timeout(lambda: "done", {}, timeout=None) == "done"

    def test_exceptions_pass_through(self):
        with pytest.raises(KeyError):
            _call_with_timeout(lambda: {}["missing"], {}, timeout=5.0)

    def test_sigalrm_timeout_leaks_nothing(self):
        # An unpicklable task on the main thread runs in-process under
        # SIGALRM: the alarm interrupts it and nothing is left running.
        report = _run([("slow", lambda: time.sleep(1.0))], timeout=0.05)
        record = report.records[0]
        assert record.status == "timeout"
        assert record.detail == ""


class TestRetries:
    def test_eventual_success_with_backoff(self):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise RuntimeError("transient")
            return "ok"

        engine = CampaignEngine(jobs=1, retries=3, backoff=0.01)
        record = engine.run([CampaignTask(name="flaky", fn=flaky)]).records[0]
        assert record.ok and record.attempts == 3
        assert int(engine.registry.counter("retries").value) == 2

    def test_retries_exhausted(self):
        report = _run(
            [("doomed", lambda: (_ for _ in ()).throw(ValueError("no")))],
            retries=2, backoff=0.0,
        )
        record = report.records[0]
        assert record.status == "failed"
        assert record.attempts == 3
        assert "ValueError" in record.error
        assert "ValueError" in record.detail

    def test_retry_reseeds_when_fn_accepts_seed(self):
        seen = []

        def experiment(seed=None):
            seen.append(seed)
            if len(seen) < 3:
                raise RuntimeError("unlucky roll")
            return seed

        report = _run([("exp", experiment)], retries=3, backoff=0.0,
                      reseed_base=500)
        # First attempt uses the experiment's own default; retries reseed.
        assert seen == [None, 501, 502]
        assert report.records[0].seed == 502

    def test_no_seed_injection_without_parameter(self):
        calls = []

        def experiment():
            calls.append(1)
            if len(calls) < 2:
                raise RuntimeError("flake")
            return "ok"

        report = _run([("exp", experiment)], retries=2, backoff=0.0,
                      reseed_base=500)
        assert report.records[0].ok

    def test_accepts_seed_detection(self):
        assert _accepts_seed(lambda seed=0: None)
        assert _accepts_seed(lambda **kwargs: None)
        assert not _accepts_seed(lambda bits=1: None)


class TestIsolationAndReporting:
    def test_crash_does_not_kill_batch(self):
        report = _run([("boom", lambda: 1 / 0), ("fine", lambda: "result")])
        assert report.status == "partial"
        assert report.record("boom").status == "failed"
        assert "ZeroDivisionError" in report.record("boom").error
        assert report.record("fine").result == "result"

    def test_fail_fast_skips_the_rest(self):
        ran = []
        report = _run(
            [("boom", lambda: 1 / 0), ("later", lambda: ran.append(1))],
            fail_fast=True,
        )
        assert report.record("later").status == "skipped"
        assert not ran

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            _run([("x", lambda: 1), ("x", lambda: 2)])

    def test_status_levels(self):
        assert BatchReport(records=[]).status == "pass"
        ok = TaskRecord(name="a", status="ok")
        bad = TaskRecord(name="b", status="failed")
        assert BatchReport(records=[ok]).status == "pass"
        assert BatchReport(records=[ok, bad]).status == "partial"
        assert BatchReport(records=[bad]).status == "fail"

    def test_summary_mentions_every_task(self):
        report = _run([("alpha", lambda: 1), ("beta", lambda: 1 / 0)])
        text = report.summary()
        assert "alpha" in text and "beta" in text
        assert "partial" in text

    def test_invalid_runner_arguments(self):
        with pytest.raises(ValueError):
            CampaignEngine(retries=-1)
        with pytest.raises(ValueError):
            CampaignEngine(backoff=-0.1)
