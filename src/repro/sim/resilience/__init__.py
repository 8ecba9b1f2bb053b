"""Resilience layer: watchdog and budgets.

It makes long simulations fail loudly: the
:mod:`~repro.sim.resilience.watchdog` detects deadlocks and enforces
wall-clock/event budgets, raising typed exceptions that carry a
structured :class:`~repro.sim.resilience.diagnostics.DiagnosticDump`.

A failed run is not retried: a deterministic simulator fails the same
way again.  ``xmt-campaign`` reruns whole worker processes, which is a
different mechanism.
"""

from repro.sim.resilience.diagnostics import DiagnosticDump, collect
from repro.sim.resilience.errors import (
    ResilienceError,
    SimulationBudgetExceeded,
    SimulationStalled,
)
from repro.sim.resilience.watchdog import Watchdog

__all__ = [
    "DiagnosticDump",
    "ResilienceError",
    "SimulationBudgetExceeded",
    "SimulationStalled",
    "Watchdog",
    "collect",
]
