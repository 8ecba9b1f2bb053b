"""Resilience layer: watchdog, fault injection, auto-recovery.

Three cooperating pieces that make long simulations fail loudly,
recover automatically, and let users probe architectural vulnerability
on purpose:

- :mod:`~repro.sim.resilience.watchdog` -- deadlock detection and
  wall-clock/event budgets, raising typed exceptions that carry a
  structured :class:`~repro.sim.resilience.diagnostics.DiagnosticDump`;
- :mod:`~repro.sim.resilience.faults` -- deterministic, seed-driven
  fault injection at named sites, plus campaign driving and reporting;
- :mod:`~repro.sim.resilience.recovery` -- ``run_resilient``, periodic
  checkpoints with rollback-and-retry and graceful degradation.
"""

from repro.sim.resilience.diagnostics import DiagnosticDump, collect
from repro.sim.resilience.errors import (
    ResilienceError,
    SimulationBudgetExceeded,
    SimulationStalled,
)
from repro.sim.resilience.faults import (
    CampaignReport,
    FaultInjector,
    FaultSpec,
    InjectionRecord,
    OUTCOMES,
    SITES,
    parse_fault_spec,
    run_campaign,
)
from repro.sim.resilience.recovery import (
    AttemptFailure,
    PartialResult,
    RecoveryReport,
    run_resilient,
)
from repro.sim.resilience.watchdog import Watchdog

__all__ = [
    "AttemptFailure",
    "CampaignReport",
    "DiagnosticDump",
    "FaultInjector",
    "FaultSpec",
    "InjectionRecord",
    "OUTCOMES",
    "PartialResult",
    "RecoveryReport",
    "ResilienceError",
    "SITES",
    "SimulationBudgetExceeded",
    "SimulationStalled",
    "Watchdog",
    "collect",
    "parse_fault_spec",
    "run_campaign",
    "run_resilient",
]
