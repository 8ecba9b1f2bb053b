"""Scheduler-integrated progress watchdog and run budgets.

The watchdog owns two orthogonal guards:

- **Stall detection** -- a periodic scheduler event that compares the
  machine's progress marker against the previous window; if no TCU
  retired an instruction for a full window while simulated time kept
  advancing, the run is deadlocked (or livelocked below the instruction
  level) and a :class:`~repro.sim.resilience.errors.SimulationStalled`
  is raised with a full diagnostic dump.  Event-list starvation (the
  heap drains with the machine never halting) is detected by the
  machine's run path using the same exception.

- **Budgets** -- wall-clock and event-count limits enforced through the
  scheduler's ``check_hook`` (called every ``check_interval`` events, so
  the hot loop pays no per-event cost); a trip raises
  :class:`~repro.sim.resilience.errors.SimulationBudgetExceeded`.
  The simulated-cycle limit (``max_cycles``) is enforced by
  ``Machine.run`` itself and raises the same typed exception.

The watchdog is picklable and lives inside checkpoints: a restored
machine resumes with its watchdog armed.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.sim.engine import Actor, PRIO_PLUGIN, Scheduler
from repro.sim.resilience.diagnostics import collect
from repro.sim.resilience.errors import (
    SimulationBudgetExceeded,
    SimulationStalled,
)


class Watchdog(Actor):
    """Progress monitor + budget guard for one machine."""

    def __init__(self, machine, stall_cycles: Optional[int] = None):
        self.machine = machine
        #: cycles of global inactivity before declaring deadlock
        #: (0 disables stall detection)
        self.stall_cycles = (machine.config.watchdog_cycles
                             if stall_cycles is None else stall_cycles)
        self.prev_progress = -1
        self.wall_limit_s: Optional[float] = None
        self.max_events: Optional[int] = None
        self._wall_start: Optional[float] = None
        self._event_base = 0

    @property
    def interval_ps(self) -> int:
        return self.stall_cycles * self.machine.config.cluster_period

    # -- stall detection -----------------------------------------------------

    def arm(self, scheduler: Scheduler) -> None:
        """Schedule the first progress check."""
        if self.stall_cycles > 0:
            scheduler.schedule(self.interval_ps, self, PRIO_PLUGIN)

    def notify(self, scheduler, time_ps, arg):
        machine = self.machine
        if machine.halted:
            return
        machine.settle()  # instructions of runs in flight count as progress
        if machine.last_progress == self.prev_progress:
            raise SimulationStalled(
                f"deadlock: no instruction retired for {self.stall_cycles} "
                f"cycles ({self.interval_ps} ps) at time {time_ps}",
                collect(machine, "deadlock (no progress for a full "
                                 "watchdog window)"))
        self.prev_progress = machine.last_progress
        scheduler.schedule(self.interval_ps, self, PRIO_PLUGIN)

    # -- budgets -------------------------------------------------------------

    def begin_run(self, scheduler: Scheduler,
                  wall_limit_s: Optional[float] = None,
                  max_events: Optional[int] = None) -> None:
        """Start (or restart) the wall-clock and event budgets.

        An event budget below the scheduler's check interval shortens
        the interval to the budget, so the first check falls on it."""
        self.wall_limit_s = wall_limit_s
        self.max_events = max_events
        scheduler.check_interval = Scheduler.CHECK_INTERVAL
        if max_events is not None:
            scheduler.check_interval = max(1, min(max_events,
                                                  Scheduler.CHECK_INTERVAL))
        self._wall_start = time.monotonic()
        self._event_base = scheduler.events_processed

    def check_budgets(self, scheduler: Scheduler, processed: int) -> None:
        """Installed as ``scheduler.check_hook`` by the machine."""
        if self.max_events is not None:
            total = scheduler.events_processed - self._event_base + processed
            if total >= self.max_events:
                raise SimulationBudgetExceeded(
                    f"event budget exceeded: {total} events "
                    f"(budget {self.max_events})",
                    collect(self.machine, "event budget exceeded"))
        if self.wall_limit_s is not None and self._wall_start is not None:
            elapsed = time.monotonic() - self._wall_start
            if elapsed >= self.wall_limit_s:
                raise SimulationBudgetExceeded(
                    f"wall-clock limit exceeded: {elapsed:.2f} s "
                    f"(limit {self.wall_limit_s:.2f} s)",
                    collect(self.machine, "wall-clock limit exceeded"))
