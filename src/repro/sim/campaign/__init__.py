"""Fault-tolerant campaign engine: many runs, supervised, resumable.

The simulator is the paper's *instrument*; this package is what points
it at a design space.  A campaign is a list of run requests (a sweep
grid or a JSONL queue) driven by a supervisor that dedups them against
the experiment ledger (so a killed campaign resumes where it died),
forks one worker per attempt and sleeps on their pipes, enforces
per-run budgets through the watchdog and a per-attempt deadline by
SIGKILL, requeues dead or killed attempts, and streams typed outcomes
into its telemetry stream.  Exposed on the command line as
``xmt-campaign``; ``xmt-top report`` reads the stream.

See MANUAL 4.9 for the operational guide and
:mod:`~repro.sim.campaign.engine` for the design notes.
"""

from repro.sim.campaign.engine import (
    EXIT_PARTIAL,
    OUTCOME_STATUSES,
    CampaignEngine,
    CampaignResult,
    RunOutcome,
    campaign_id_for,
)
from repro.sim.campaign.requests import (
    PreparedRun,
    RunBudgets,
    RunRequest,
    dump_queue,
    fingerprint_of_manifest,
    grid_requests,
    load_queue,
    request_fingerprint,
)
from repro.sim.campaign.worker import run_attempt

__all__ = [
    "CampaignEngine",
    "CampaignResult",
    "EXIT_PARTIAL",
    "OUTCOME_STATUSES",
    "PreparedRun",
    "RunBudgets",
    "RunOutcome",
    "RunRequest",
    "campaign_id_for",
    "dump_queue",
    "fingerprint_of_manifest",
    "grid_requests",
    "load_queue",
    "request_fingerprint",
    "run_attempt",
]
