"""Simulation checkpoints (Section III-E).

"XMTSim supports simulation checkpoints, i.e., the state of the
simulation can be saved at a point that is given by the user ahead of
time or determined by a command line interrupt during execution.
Simulation can be resumed at a later time."  Among other uses this
facilitates dynamically load balancing batches of long simulations
across machines; the resilience layer (``repro.sim.resilience``) builds
its rollback-and-retry recovery on the same primitives.

Checkpointing pickles the entire :class:`~repro.sim.machine.Machine`
(scheduler heap included -- events reference actors which are plain
picklable objects; port wake-up hooks are bound methods of objects in
the same pickle).  What a snapshot leaves behind is said by the two
objects that hold it: ``Machine.__getstate__`` (observation consumers,
plug-ins, the decode) and ``Scheduler.__getstate__`` (the budget hook
and every event whose actor declares ``checkpoint_transient = True``
-- plug-in samplers, injected faults).  Saving assigns nothing on the
live machine; the resuming driver re-registers and re-arms what it
wants on the restored one.

Checkpoints *pause* rather than unwind: the checkpoint actor stops the
scheduler in place (``machine.pause_reason == "checkpoint"``), the
driver snapshots the machine, clears the pause and keeps running.  This
is what lets one run carry many checkpoints (periodic checkpointing,
recovery) -- an exception-based unwind could fire only once.
"""

from __future__ import annotations

import pickle
from typing import Optional

from repro.sim.engine import Actor, PRIO_PLUGIN
from repro.sim.functional import SimulationError
from repro.sim.machine import Machine


class _CheckpointActor(Actor):
    """One-shot: pauses the scheduler at the requested instant."""

    def __init__(self, machine: Machine):
        self.machine = machine
        self.due = False

    def notify(self, scheduler, time, arg):
        if self.machine.halted:
            return
        self.due = True
        self.machine.pause_reason = "checkpoint"
        scheduler.stopped = True


class PeriodicCheckpointer(Actor):
    """Pauses the scheduler every ``interval_ps`` of simulated time.

    The actor reschedules itself *before* pausing, so the chain of
    future checkpoint events is part of every saved snapshot: a machine
    restored from any checkpoint keeps checkpointing at the same
    cadence.  Drivers (:func:`repro.sim.resilience.run_resilient`) see
    ``machine.pause_reason == "checkpoint"`` after ``scheduler.run``
    returns, snapshot the machine, then call :meth:`clear_pause` and
    run again.
    """

    def __init__(self, machine: Machine, interval_ps: int):
        if interval_ps <= 0:
            raise ValueError("checkpoint interval must be positive")
        self.machine = machine
        self.interval_ps = interval_ps

    def arm(self, scheduler) -> None:
        scheduler.schedule(self.interval_ps, self, PRIO_PLUGIN)

    def notify(self, scheduler, time, arg):
        if self.machine.halted:
            return
        scheduler.schedule(self.interval_ps, self, PRIO_PLUGIN)
        self.machine.pause_reason = "checkpoint"
        scheduler.stopped = True


def clear_pause(machine: Machine) -> None:
    """Acknowledge a checkpoint pause so the machine can run again."""
    machine.pause_reason = None
    machine.scheduler.stopped = False


def save_bytes(machine: Machine) -> bytes:
    """Serialize a machine's complete state to bytes."""
    # processors that are not being ticked are credited what they
    # skipped first (stall cycles; the instructions of a run so far), so
    # the snapshot's counters and registers are what an always-ticking
    # machine would hold at this cycle (the tick lists, wake heaps,
    # resume lists and every domain's booked edge ride the pickle)
    machine.settle()
    return pickle.dumps(machine, protocol=pickle.HIGHEST_PROTOCOL)


def load_bytes(payload: bytes) -> Machine:
    """Restore a machine checkpoint; plug-ins/traces must be re-added."""
    machine = pickle.loads(payload)
    if not isinstance(machine, Machine):
        raise SimulationError("checkpoint payload is not a Machine")
    # a snapshot taken at a pause must restore to a runnable machine
    machine.scheduler.stopped = False
    machine.pause_reason = None
    # derived state: re-decode the program (never part of the pickle)
    machine._bind_decode()
    # the subscribers stayed behind: whoever they kept out of runs may go
    machine.listeners_changed()
    return machine


def save(machine: Machine, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(save_bytes(machine))


def load(path: str) -> Machine:
    with open(path, "rb") as fh:
        return load_bytes(fh.read())


def run_with_checkpoint(machine: Machine, checkpoint_cycle: int,
                        max_cycles: Optional[int] = None) -> Optional[bytes]:
    """Run until ``checkpoint_cycle`` and return the checkpoint bytes.

    Returns ``None`` if the program halted before the checkpoint time
    (in which case the run simply completed).  The machine object passed
    in continues from the checkpoint instant and may be run further; the
    returned bytes restore an identical machine via :func:`load_bytes`.
    """
    machine.start()
    when = checkpoint_cycle * machine.config.cluster_period
    if when < machine.scheduler.now:
        raise ValueError("checkpoint time already passed")
    actor = _CheckpointActor(machine)
    machine.scheduler.schedule_at(when, actor, PRIO_PLUGIN)
    deadline = None if max_cycles is None else (
        max_cycles * machine.config.cluster_period)
    machine.scheduler.run(until=deadline)
    if actor.due and not machine.halted:
        clear_pause(machine)
        return save_bytes(machine)
    return None
