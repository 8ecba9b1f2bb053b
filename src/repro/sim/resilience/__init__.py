"""Resilience layer: watchdog, budgets, fault injection.

Two cooperating pieces that make long simulations fail loudly and let
users probe architectural vulnerability on purpose:

- :mod:`~repro.sim.resilience.watchdog` -- deadlock detection and
  wall-clock/event budgets, raising typed exceptions that carry a
  structured :class:`~repro.sim.resilience.diagnostics.DiagnosticDump`;
- :mod:`~repro.sim.resilience.faults` -- deterministic, seed-driven
  fault injection at named sites (``xmtsim --inject``).

A failed run is not retried: in a deterministic simulator a replay only
gets past the faults the tool injected itself.  ``xmt-campaign`` reruns
whole worker processes, which is a different mechanism.
"""

from repro.sim.resilience.diagnostics import DiagnosticDump, collect
from repro.sim.resilience.errors import (
    ResilienceError,
    SimulationBudgetExceeded,
    SimulationStalled,
)
from repro.sim.resilience.faults import (
    FaultInjector,
    FaultSpec,
    SITES,
    parse_fault_spec,
)
from repro.sim.resilience.watchdog import Watchdog

__all__ = [
    "DiagnosticDump",
    "FaultInjector",
    "FaultSpec",
    "ResilienceError",
    "SITES",
    "SimulationBudgetExceeded",
    "SimulationStalled",
    "Watchdog",
    "collect",
    "parse_fault_spec",
]
