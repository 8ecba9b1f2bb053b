"""Cycle accounting without hearing ``issued``.

The accountant reads a processor's retirements off its
``instructions_issued`` counter, folded under its spawn region at
``spawn_ended`` and before an export, from a baseline taken when it is
attached.  So it keeps nobody out of runs: an accountant-only machine
(the flight recorder beside it) takes runs, while one with the profiler
subscribed does not.  Both must export the same cells as the accountant
as it was, which heard every retirement from ``issued``
(:class:`HeardAccountant`, runs off): from the start, subscribed in the
middle of a spawn, and handed to a machine restored from a checkpoint
taken inside one.  The last two fail without the baseline taken in
``CycleAccountant.attached``.
"""

from __future__ import annotations

import pytest

from repro.sim import checkpoint as CP
from repro.sim import tcu as tcu_module
from repro.sim.config import fpga64
from repro.sim.engine import PRIO_PLUGIN, Actor
from repro.sim.machine import Machine
from repro.sim.observability import (
    CycleAccountant,
    CycleProfiler,
    FlightRecorder,
    MetricsRegistry,
    Observability,
    artifact_json,
    export_accounting,
)
from repro.sim.observability.lifecycle import CAT_RETIRING
from repro.workloads import microbench as MB
from repro.workloads import programs as W
from repro.xmtc.compiler import compile_source

#: program -> (what builds it, a cycle inside one of its spawns, whether
#: a plain run of it takes runs: the memory-shaped compaction takes none)
PROGRAMS = {
    "parallel_compute": (lambda: MB.parallel_compute(256, 8), 330, True),
    "bfs": (lambda: W.bfs(32), 1500, True),
    "array_compaction": (lambda: W.array_compaction(256), 300, False),
}

ACCOUNTANT_ONLY, FULL, AS_IT_WAS = "accountant-only", "full", "as-it-was"


class HeardAccountant(CycleAccountant):
    """The accountant as it was: every retirement is a cell update
    heard from ``issued`` (so no processor takes a run), none folded."""

    def issued(self, proc, uop) -> None:
        region = proc.region
        key = (proc.tcu_id,
               -1 if region is None else region.spawn_index, CAT_RETIRING)
        self.cells[key] = self.cells.get(key, 0) + 1

    def _fold_procs(self, procs) -> None:
        pass


def program_of(name):
    source, inputs = PROGRAMS[name][0]()[:2]
    program = compile_source(source)
    for global_name, values in inputs.items():
        program.write_global(global_name, values)
    return program


def accountant_for(kind) -> CycleAccountant:
    return HeardAccountant() if kind == AS_IT_WAS else CycleAccountant()


def observers(program, kind) -> Observability:
    """The accountant's neighbours: the flight recorder alone, or every
    stock consumer (the profiler hears ``issued``: runs are off)."""
    if kind == ACCOUNTANT_ONLY:
        return Observability(lifecycle=FlightRecorder())
    return Observability(metrics=MetricsRegistry(),
                         profiler=CycleProfiler(program),
                         lifecycle=FlightRecorder())


def exported(machine, accountant, cycles) -> dict:
    export = export_accounting(machine, accountant, cycles=cycles)
    assert export["exact"]
    return {"cells": dict(accountant.cells), "export": artifact_json(export)}


@pytest.fixture
def runs_taken(monkeypatch):
    """``[n]``: how many runs the processors entered."""
    taken = [0]
    enter = tcu_module.ProcessorBase._enter_run

    def counted(self, block, cycle):
        entered = enter(self, block, cycle)
        taken[0] += entered
        return entered
    monkeypatch.setattr(tcu_module.ProcessorBase, "_enter_run", counted)
    return taken


class _SubscribeAt(Actor):
    """Subscribes ``consumer`` at ``cycle`` (inside a spawn)."""

    def __init__(self, machine: Machine, consumer, cycle: int):
        self.machine = machine
        self.consumer = consumer
        self.mid_spawn = None
        machine.start()
        machine.scheduler.schedule_at(cycle * machine.config.cluster_period,
                                      self, PRIO_PLUGIN)

    def notify(self, scheduler, time, arg):
        self.mid_spawn = self.machine.parallel_active
        self.machine.obs.subscribe(self.consumer)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
class TestAccountantOnlyTakesRuns:
    def test_from_the_start(self, name, runs_taken):
        program = program_of(name)
        prints = []
        for kind in (ACCOUNTANT_ONLY, FULL, AS_IT_WAS):
            runs_taken[0] = 0
            accountant = accountant_for(kind)
            obs = observers(program, kind)
            obs.subscribe(accountant)
            machine = Machine(program, fpga64(), observability=obs)
            result = machine.run(max_cycles=1_000_000)
            assert machine.runs_ok == (kind == ACCOUNTANT_ONLY)
            assert (runs_taken[0] > 0) == (
                kind == ACCOUNTANT_ONLY and PROGRAMS[name][2])
            prints.append(exported(machine, accountant, result.cycles))
        assert prints[0] == prints[1] == prints[2]

    def test_subscribed_mid_spawn(self, name, runs_taken):
        program = program_of(name)
        prints = []
        for kind in (ACCOUNTANT_ONLY, FULL, AS_IT_WAS):
            runs_taken[0] = 0
            accountant = accountant_for(kind)
            machine = Machine(program, fpga64(),
                              observability=observers(program, kind))
            late = _SubscribeAt(machine, accountant, PROGRAMS[name][1])
            result = machine.run(max_cycles=1_000_000)
            assert late.mid_spawn
            assert (runs_taken[0] > 0) == (
                kind == ACCOUNTANT_ONLY and PROGRAMS[name][2])
            prints.append(exported(machine, accountant, result.cycles))
        assert prints[0] == prints[1] == prints[2]

    def test_checkpoint_restore(self, name):
        """Checkpointed inside a spawn, the same consumers handed to the
        restored machine: its counters start where the snapshot's were,
        and nothing is counted twice."""
        program = program_of(name)
        prints = []
        for kind in (ACCOUNTANT_ONLY, FULL, AS_IT_WAS):
            accountant = accountant_for(kind)
            obs = observers(program, kind)
            obs.subscribe(accountant)
            machine = Machine(program, fpga64(), observability=obs)
            payload = CP.run_with_checkpoint(machine, PROGRAMS[name][1])
            assert payload is not None and machine.parallel_active
            restored = CP.load_bytes(payload)
            restored.obs = obs
            obs.attach(restored)
            result = restored.run(max_cycles=1_000_000)
            prints.append(exported(restored, accountant, result.cycles))
        assert prints[0] == prints[1] == prints[2]
