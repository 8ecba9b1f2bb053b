"""How much ticking a run takes, and building the machine: counts, not
timings.

Sleeping, skipping and chaining may not move a simulated count
(``tests/test_sleep_wake.py``); these guards hold them to the work they
save, on the Table I programs at their ``xmt_bench`` sizes on the whole
``chip1024()``.  Deterministic and host-independent: a call count or a
scheduler event count, with the run's exact cycle and instruction
counts beside it so a guard cannot pass by simulating something else;
for a build, the objects it leaves to the cyclic collector and the
bytes of its checkpoint.
"""

from __future__ import annotations

import gc

import pytest

from repro.sim import checkpoint
from repro.sim.cache import CacheModule
from repro.sim.config import chip1024
from repro.sim.machine import Simulator
from repro.sim.tcu import TCU
from repro.workloads import microbench as MB
from repro.xmtc.compiler import compile_source


@pytest.fixture
def calls(monkeypatch):
    """``calls[name]``: how often ``TCU.tick`` / ``CacheModule.tick``
    ran since the fixture was set up."""
    counted = {"tcu": 0, "cache": 0}
    for name, cls in (("tcu", TCU), ("cache", CacheModule)):
        def wrapper(self, cycle, name=name, tick=cls.tick):
            counted[name] += 1
            return tick(self, cycle)
        monkeypatch.setattr(cls, "tick", wrapper)
    return counted


def run_chip1024(source: str):
    sim = Simulator(compile_source(source), chip1024())
    return sim.run(), sim.machine.scheduler.events_processed


@pytest.mark.parametrize("source, bound", [
    (MB.serial_memory(1000, 4096)[0], 0.15),
    (MB.serial_compute(3800)[0], 0.01),
], ids=["serial_memory", "serial_compute"])
def test_an_idle_machine_costs_events_not_cycles(source, bound):
    """With only the Master working, a 1024-TCU machine skips idle time
    (next-event clock domains, DESIGN 1.2 invariant 6): scheduler
    events per simulated cycle are 4/3 when every edge is ticked, 0.157
    / 0.143 with one sleep per basic block, 0.120 / 0.0013 with one per
    chain."""
    result, events = run_chip1024(source)
    assert events / result.cycles <= bound


def test_a_compute_loop_is_one_sleep(calls):
    """A TCU in a register-only loop chains its blocks through the
    branches and sleeps once per thread, not once per basic block
    (DESIGN 1.2 invariant 5): Table I row 2 made 172 658 TCU ticks and
    741 scheduler events before chaining, 21 248 and 305 with it."""
    result, events = run_chip1024(MB.parallel_compute(2048, 36)[0])
    assert (result.cycles, result.instructions) == (1448, 1_064_972)
    assert calls["tcu"] <= 40_000 and events <= 400


def test_only_what_can_act_is_ticked(calls):
    """Table I row 4: a loser of the busy non-pipelined MDU sleeps until
    it frees, and a cache module waiting for its hit latency, DRAM or
    the ICN is skipped.  Both were ticked on every edge before: 210 944
    TCU ticks and 154 797 module ticks, now about 103 k and 42 k."""
    result, _ = run_chip1024(
        MB.parallel_memory(1024, 12, array_words=16384)[0])
    assert (result.cycles, result.instructions) == (1895, 236_629)
    assert calls["tcu"] <= 110_000
    assert calls["cache"] <= 50_000


@pytest.fixture(scope="module")
def parallel_memory():
    return compile_source(MB.parallel_memory(1024, 12, array_words=16384)[0])


def test_a_build_allocates_what_differs_per_instance(parallel_memory):
    """The machine graph is cyclic, so every container a build allocates
    is the cyclic collector's to traverse, again and again while the
    build goes on.  A TCU shares its class's issue table and a cache
    set is made on its first fill: 59 929 GC-tracked objects per
    ``chip1024`` build with a 28-entry bound-method table per TCU and an
    ``OrderedDict`` per set, about 12 k without."""
    Simulator(parallel_memory, chip1024())  # (one-time caches, imports)
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        sim = Simulator(parallel_memory, chip1024())
        grown = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert len(sim.machine.tcus) == 1024
    assert grown <= 16_000


def test_a_fresh_checkpoint_holds_what_differs_per_instance(
        parallel_memory):
    """A snapshot of a machine that has not run pickles no issue table,
    no empty cache set and no per-processor copy of a constant: 1 527 318
    bytes on ``chip1024`` before, about 680 k after."""
    sim = Simulator(parallel_memory, chip1024())
    assert len(checkpoint.save_bytes(sim.machine)) <= 1_000_000
