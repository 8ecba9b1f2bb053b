"""Simulation checkpoints (Section III-E).

"XMTSim supports simulation checkpoints, i.e., the state of the
simulation can be saved at a point that is given by the user ahead of
time or determined by a command line interrupt during execution.
Simulation can be resumed at a later time."  Among other uses this
facilitates dynamically load balancing batches of long simulations
across machines.  A checkpoint starts a run; it is not a retry point.

Checkpointing pickles the entire :class:`~repro.sim.machine.Machine`
(scheduler heap included -- events reference actors which are plain
picklable objects; port wake-up hooks are bound methods of objects in
the same pickle).  What a snapshot leaves behind is said by the two
objects that hold it: ``Machine.__getstate__`` (observation consumers,
plug-ins, the decode) and ``Scheduler.__getstate__`` (the budget hook
and every event whose actor declares ``checkpoint_transient = True``
-- plug-in samplers).  Saving assigns nothing on the
live machine; the resuming driver re-registers and re-arms what it
wants on the restored one.

The checkpoint actor *pauses* the scheduler in place rather than
unwinding it, so the machine that was checkpointed keeps running.

A checkpoint file (:func:`save`) is a one-line header -- the
``xmtsim-checkpoint/1`` magic and the saving revision -- followed by
the pickle.  Loading one runs code, like any pickle: trust a checkpoint
file as you would a script.  :func:`load` names the file and the
saving revision when it cannot restore it.
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
        scheduler.stopped = True


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
    # derived state: re-decode the program (never part of the pickle)
    machine._bind_decode()
    # the subscribers stayed behind: whoever they kept out of runs may go
    machine.listeners_changed()
    return machine


def save(machine: Machine, path: str) -> None:
    """Write a checkpoint file: the header line, then the pickle."""
    from repro.sim.observability.artifacts import CHECKPOINT_MAGIC
    from repro.sim.observability.ledger import git_revision

    header = f"{CHECKPOINT_MAGIC} {git_revision() or 'unknown'}\n"
    payload = save_bytes(machine)
    with open(path, "wb") as fh:
        fh.write(header.encode() + payload)


def load(path: str) -> Machine:
    """Restore a checkpoint file; :class:`~repro.sim.observability.
    artifacts.SchemaError` names ``path`` (and the saving revision) on
    a foreign file, a torn payload or a pickle this code cannot load."""
    from repro.sim.observability.artifacts import (
        CHECKPOINT_MAGIC, SchemaError)

    with open(path, "rb") as fh:
        head, _, payload = fh.read().partition(b"\n")
    magic, _, revision = head.decode("latin-1").partition(" ")
    if magic != CHECKPOINT_MAGIC:
        raise SchemaError(f"{path}: expected schema {CHECKPOINT_MAGIC!r}, "
                          f"found {head[:40]!r}")
    try:
        return load_bytes(payload)
    except Exception as exc:  # unpickling can raise almost anything
        raise SchemaError(
            f"{path}: cannot restore this checkpoint, saved at revision "
            f"{revision}: {type(exc).__name__}: {exc}") from exc


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
        machine.scheduler.stopped = False
        return save_bytes(machine)
    return None
