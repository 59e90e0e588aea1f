"""Crash-isolated sharded campaign engine with a persistent result cache.

Every expensive workload in the repro — figure regeneration, fault
campaigns, leakcheck seed-sweeps, the bench suite — is a batch of
independent seeded runs.  This package executes such batches through
one scheduler with deterministic results (serial and ``--jobs N`` runs
are byte-identical), bounded retries with full-jitter backoff and
reseeding, and per-task timeouts that kill the work they time out.  It
reaps crashed or hung workers and retries their tasks, and records
every task outcome in a sqlite campaign DB keyed by config hash + git
revision.  That DB is the only record of finished work: rerunning an
interrupted or partly failed campaign serves what already succeeded
from it and executes only the rest.  See ``docs/robustness.md``.
"""

from repro.campaign.db import CampaignDB, JobRow, RunRow, config_hash
from repro.campaign.engine import CampaignEngine, CampaignTask
from repro.campaign.payload import (
    PayloadError,
    decode_payload,
    encode_payload,
)
from repro.campaign.records import BatchReport, TaskRecord
from repro.campaign.worker import TEST_CRASH_ENV, TEST_CRASH_EXIT, TaskTimeout

__all__ = [
    "BatchReport",
    "CampaignDB",
    "CampaignEngine",
    "CampaignTask",
    "JobRow",
    "PayloadError",
    "RunRow",
    "TEST_CRASH_ENV",
    "TEST_CRASH_EXIT",
    "TaskRecord",
    "TaskTimeout",
    "config_hash",
    "decode_payload",
    "encode_payload",
]
