"""Checkpoint-based auto-recovery: ``run_resilient``.

Layered on :mod:`repro.sim.checkpoint`'s pause-based periodic
checkpointing: the machine is snapshotted every ``checkpoint_every``
cycles; when the run crashes (a trap, an injected fault) or the
watchdog/budget guards trip, the machine is rolled back to a checkpoint
and resumed, up to ``max_retries`` times.  Because planned fault
injections are ``checkpoint_transient`` (never captured in a
checkpoint), a transient fault that crashed or hung the run simply does
not recur on replay -- the run completes with the correct output.

A failure is noticed after the fact -- a hang a whole watchdog window
after it began -- so the snapshots taken in between already hold it.
Three are kept, however long the run: the baseline (taken before the
first event, so before any fault), the newest periodic one, and the
newest periodic one known to predate the last retired instruction.  The
first retry of a budget resumes from the newest snapshot not newer than
the failed machine's last progress; every further retry, and the only
retry of a budget of one, replays from the baseline.

Deterministic failures (a program bug) recur on every replay; after the
retry budget is exhausted ``run_resilient`` degrades gracefully to a
partial-results report instead of losing the whole run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.sim.functional import SimulationError
from repro.sim.resilience.diagnostics import DiagnosticDump


@dataclass
class AttemptFailure:
    """One failed attempt (crash or guard trip) during a resilient run."""

    error_type: str
    message: str
    time_ps: int
    resumed_from_cycle: Optional[int] = None
    dump: Optional[DiagnosticDump] = None

    def format(self) -> str:
        line = f"{self.error_type} at {self.time_ps} ps: {self.message}"
        if self.resumed_from_cycle is not None:
            line += f" -> rolled back to cycle {self.resumed_from_cycle}"
        return line


@dataclass
class PartialResult:
    """What a resilient run salvaged after exhausting its retries.

    The graceful-degradation counterpart of ``CycleResult``: how far the
    run got, what it printed, and the full failure history -- enough for
    the CLI (exit code 5) and the campaign engine to report the final
    typed failure without re-deriving it from the report internals.
    """

    cycles: int
    instructions: int
    output: str
    retries_used: int
    last_checkpoint_cycle: int
    failures: List[AttemptFailure] = field(default_factory=list)

    @property
    def final_failure(self) -> Optional[AttemptFailure]:
        return self.failures[-1] if self.failures else None

    def format(self) -> str:
        line = (f"partial result: {self.cycles} cycles, "
                f"{self.instructions} instructions after "
                f"{self.retries_used} retries")
        last = self.final_failure
        if last is not None:
            line += f"; final failure: {last.error_type}: {last.message}"
        return line


@dataclass
class RecoveryReport:
    """Outcome of :func:`run_resilient` -- complete or partial."""

    completed: bool
    #: the ``CycleResult`` when the run completed, the salvaged
    #: :class:`PartialResult` when it did not
    result: Optional[object] = None
    machine: Optional[object] = None           # final machine object
    retries_used: int = 0
    checkpoints_taken: int = 0
    last_checkpoint_cycle: int = 0
    failures: List[AttemptFailure] = field(default_factory=list)

    @property
    def final_failure(self) -> Optional[AttemptFailure]:
        return self.failures[-1] if self.failures else None

    def format(self) -> str:
        lines = []
        if self.completed:
            lines.append(
                f"resilient run completed after {self.retries_used} "
                f"recover{'y' if self.retries_used == 1 else 'ies'} "
                f"({self.checkpoints_taken} checkpoints)")
        else:
            lines.append(
                f"resilient run FAILED after {self.retries_used} retries; "
                f"partial results: {self.result.cycles} cycles, "
                f"{self.result.instructions} instructions "
                f"(last checkpoint at cycle {self.last_checkpoint_cycle})")
        lines += ["  " + failure.format() for failure in self.failures]
        return "\n".join(lines)


def run_resilient(machine,
                  checkpoint_every: int = 0,
                  max_retries: int = 3,
                  max_cycles: Optional[int] = None,
                  wall_limit_s: Optional[float] = None,
                  max_events: Optional[int] = None,
                  reattach: Optional[Callable] = None) -> RecoveryReport:
    """Run ``machine`` to completion with periodic checkpoints and
    automatic rollback-and-retry on failure.

    ``checkpoint_every`` is in cluster cycles (0 = only the baseline
    checkpoint taken before the first event).  ``reattach(machine)`` is
    called after every rollback so callers can re-register plug-ins and
    traces (checkpoints strip them).  Returns a :class:`RecoveryReport`
    whose ``result`` is the normal ``CycleResult`` when ``completed``, a
    :class:`PartialResult` otherwise.
    """
    from repro.sim import checkpoint as CP

    period = machine.config.cluster_period
    deadline = None if max_cycles is None else max_cycles * period

    machine.start()
    if checkpoint_every > 0:
        CP.PeriodicCheckpointer(machine, checkpoint_every * period).arm(
            machine.scheduler)
    machine.pause_reason = None
    # ``(time_ps, payload)`` each; see the module docstring
    baseline = settled = newest = (machine.scheduler.now,
                                   CP.save_bytes(machine))

    report = RecoveryReport(completed=False, checkpoints_taken=1,
                            last_checkpoint_cycle=baseline[0] // period)
    machine._arm_guards(wall_limit_s, max_events)
    while True:
        try:
            machine.scheduler.run(until=deadline)
        except SimulationError as exc:
            failure = AttemptFailure(
                error_type=type(exc).__name__,
                message=str(exc).splitlines()[0],
                time_ps=machine.scheduler.now,
                dump=getattr(exc, "dump", None))
            report.failures.append(failure)
            if report.retries_used >= max_retries:
                return _salvage(report, machine)
            report.retries_used += 1
            resume = baseline
            if report.retries_used == 1 and max_retries > 1:
                resume = (newest if newest[0] <= machine.last_progress
                          else settled)
            machine = CP.load_bytes(resume[1])
            failure.resumed_from_cycle = resume[0] // period
            if reattach is not None:
                reattach(machine)
            machine._arm_guards(wall_limit_s, max_events)
            continue

        if machine.halted:
            report.completed = True
            report.machine = machine
            report.result = machine._finalize()
            return report

        if machine.pause_reason == "checkpoint":
            CP.clear_pause(machine)
            if newest[0] <= machine.last_progress:
                settled = newest
            newest = (machine.scheduler.now, CP.save_bytes(machine))
            report.checkpoints_taken += 1
            report.last_checkpoint_cycle = newest[0] // period
            continue

        # ran out of events or cycles without halting: report partial state
        if machine.scheduler.pending == 0:
            report.failures.append(AttemptFailure(
                error_type="SimulationStalled",
                message="event list drained without halting",
                time_ps=machine.scheduler.now))
        else:
            report.failures.append(AttemptFailure(
                error_type="CycleLimit",
                message=f"did not halt within {max_cycles} cycles",
                time_ps=machine.scheduler.now))
        return _salvage(report, machine)


def _salvage(report: RecoveryReport, machine) -> RecoveryReport:
    """End an incomplete run: ``report.result`` becomes what ``machine``
    got to, as a :class:`PartialResult`."""
    report.machine = machine
    report.result = PartialResult(
        cycles=machine.scheduler.now // machine.config.cluster_period,
        instructions=machine.stats.instruction_total(),
        output="".join(machine.output),
        retries_used=report.retries_used,
        last_checkpoint_cycle=report.last_checkpoint_cycle,
        failures=list(report.failures))
    return report
