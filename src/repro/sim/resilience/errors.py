"""Typed resilience exceptions.

Every exception carries a structured :class:`~repro.sim.resilience.
diagnostics.DiagnosticDump` so a tripped run fails *loudly* -- with the
per-TCU, event-list and queue state needed to understand why -- instead
of hanging or dying with a bare message.  All of them subclass
:class:`~repro.sim.functional.SimulationError`, so existing callers that
catch the generic simulator error keep working.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.functional import SimulationError


class ResilienceError(SimulationError):
    """Base of the watchdog/budget exception family."""

    def __init__(self, message: str, dump: Optional[object] = None):
        super().__init__(message)
        #: :class:`~repro.sim.resilience.diagnostics.DiagnosticDump`
        #: captured at trip time (None only in degenerate cases)
        self.dump = dump


class SimulationStalled(ResilienceError):
    """The machine made no forward progress: deadlock or event
    starvation (the event list drained while the machine never halted).
    """


class SimulationBudgetExceeded(ResilienceError):
    """A run budget tripped: simulated-cycle limit, wall-clock limit or
    event-count budget.  Distinguishes a *runaway* run (still making
    progress, but past its allowance) from a stalled one."""
