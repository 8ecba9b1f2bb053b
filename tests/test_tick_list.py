"""The machine's one tick list (``ClusterBank``) and the counters it
leaves behind.

After every edge of the clusters domain the bank's state must say
exactly who is ticked next and when every sleeper wakes:

- ``awake`` is strictly increasing in ``tcu_id`` and holds exactly the
  TCUs with ``asleep_on is None``;
- every TCU asleep on a run has its ``(run_end, tcu_id)`` resume entry;
- every TCU asleep on a stall with a non-empty inbox has a wake entry
  no later than its inbox head, and one inside a run no later than its
  first delivery that writes a register (a store ack or the end of a
  ``setg`` waits in the inbox for the run's resume tick:
  ``ProcessorBase.deliver`` books no wake-up for it).

The checks run as one more component of the clusters domain, after
everything else on the edge, and ask for no edge of their own.
"""

from __future__ import annotations

import pytest

from repro.sim.config import fpga64, tiny
from repro.sim.engine import NEVER
from repro.sim.machine import Simulator
from repro.sim.tcu import PARKED_KEY, REGISTER_FREE, RUN_KEY
from repro.workloads import microbench as MB
from repro.workloads import programs as W
from repro.xmtc.compiler import compile_source


class NoRuns:
    """Hearing ``issued`` keeps every processor out of runs."""

    def issued(self, proc, uop):
        pass


class TickListChecker:
    """A clusters-domain component that checks the bank on every edge;
    with ``end_runs``, it subscribes :class:`NoRuns` on the first edge
    that leaves a TCU inside a run."""

    def __init__(self, machine, end_runs: bool = False):
        self.machine = machine
        self.bank = machine.cluster_bank
        self.end_runs = end_runs
        self.edges = 0
        self.subscribed_at = None

    def next_work(self, now: int) -> int:
        return NEVER

    def tick(self, cycle: int) -> None:
        self.edges += 1
        bank = self.bank
        ids = [tcu.tcu_id for tcu in bank.awake]
        assert ids == sorted(set(ids)), "awake is not in tcu_id order"
        assert ids == [tcu.tcu_id for tcu in bank.tcus
                       if tcu.asleep_on is None]
        resumes = set(bank.resumes)
        wakes = {}
        for time, tcu_id in bank.wakes:
            wakes[tcu_id] = min(time, wakes.get(tcu_id, time))
        in_run = 0
        for tcu in bank.tcus:
            key = tcu.asleep_on
            if key is None or key == PARKED_KEY:
                continue
            if key == RUN_KEY:
                in_run += 1
                assert (tcu.run_end, tcu.tcu_id) in resumes
            ending = [time for time, _, item in tcu.inbox
                      if key != RUN_KEY
                      or getattr(item, "kind", None) not in REGISTER_FREE]
            if ending:
                assert wakes.get(tcu.tcu_id, NEVER) <= min(ending), \
                    f"TCU {tcu.tcu_id} asleep on {key!r} has no wake-up"
        if self.subscribed_at is not None:
            assert not in_run, "a run survived an issued listener"
        elif self.end_runs and in_run:
            self.subscribed_at = cycle
            self.machine.add_plugin(NoRuns())


def _program(source_and_inputs):
    source, inputs = source_and_inputs[:2]
    program = compile_source(source)
    for name, values in inputs.items():
        program.write_global(name, values)
    return program


CASES = {
    "parallel_memory-fpga64": (lambda: MB.parallel_memory(64, 4), fpga64),
    "bfs-tiny": (lambda: W.bfs(32), tiny),
}


def _checked_run(name, end_runs=False):
    make, config = CASES[name]
    sim = Simulator(_program(make()), config())
    checker = TickListChecker(sim.machine, end_runs)
    sim.machine.domains["clusters"].add(checker)
    return sim.run(max_cycles=1_000_000), checker


@pytest.mark.parametrize("name", sorted(CASES))
def test_tick_list_invariants_hold_on_every_edge(name):
    result, checker = _checked_run(name)
    make, config = CASES[name]
    plain = Simulator(_program(make()), config()).run(max_cycles=1_000_000)
    assert checker.edges > 0
    # the checker asks for no edge: it watches the same run
    assert (result.cycles, result.instructions) == \
        (plain.cycles, plain.instructions)
    assert result.stats.snapshot() == plain.stats.snapshot()


def test_an_issued_listener_ends_every_run_on_the_next_edge():
    result, checker = _checked_run("parallel_memory-fpga64", end_runs=True)
    assert checker.subscribed_at is not None, "no TCU ever entered a run"
    make, config = CASES["parallel_memory-fpga64"]
    plain = Simulator(_program(make()), config()).run(max_cycles=1_000_000)
    assert (result.cycles, result.instructions) == \
        (plain.cycles, plain.instructions)
    assert result.stats.snapshot() == plain.stats.snapshot()


#: every counter a serial-only run makes: no layer bumps a key by zero
#: (``Stats.counters`` is a defaultdict, ``Stats.report`` and the
#: metrics export print whatever key exists)
SERIAL_COUNTERS = [
    "cache.miss", "cycles", "dram.read", "icn.return", "icn.send",
    "instr_class.alu", "instr_class.branch", "instr_class.ctrl",
    "instr_class.mem", "instructions.add", "instructions.addi",
    "instructions.bne", "instructions.halt", "instructions.j",
    "instructions.jal", "instructions.jr", "instructions.li",
    "instructions.slli", "instructions.slt", "instructions.srai",
    "instructions.sw", "instructions.xor", "master.stall.halt_drain",
]


def test_a_serial_run_makes_no_zero_valued_counter():
    result = Simulator(_program(MB.serial_compute(10)), tiny()).run()
    assert sorted(result.stats.counters) == SERIAL_COUNTERS
    assert all(result.stats.counters.values())
