"""Resilience layer: watchdog, budgets, and the exit codes and dumps
``xmtsim`` gives a stalled or over-budget run."""

import json
import os

import pytest

from conftest import LoseReply
from repro.isa.assembler import assemble
from repro.sim import checkpoint as CP
from repro.sim.config import tiny
from repro.sim.fabric import registered
from repro.sim.functional import SimulationError
from repro.sim.machine import Machine, Simulator
from repro.sim.resilience import (
    DiagnosticDump,
    ResilienceError,
    SimulationBudgetExceeded,
    SimulationStalled,
)
from repro.toolchain.cli import xmtsim_main
from repro.toolchain.driver import load_program

# 16 virtual threads each increment one word of A, then the master halts;
# completes in ~170 cycles on the tiny configuration.
SPAWN_ASM = """
    .data
A:  .space 64
    .text
main:
    li   $t0, 0
    li   $t1, 15
    spawn $t0, $t1
vt:
    getvt $k0
    chkid $k0
    la   $t2, A
    slli $t3, $k0, 2
    add  $t2, $t2, $t3
    lw   $t4, 0($t2)
    addi $t4, $t4, 1
    sw   $t4, 0($t2)
    j    vt
    join
    halt
"""

# never halts, but keeps retiring instructions (livelock, not deadlock)
SPIN_ASM = """
    .text
main:
spin:
    j    spin
"""

# at cycle 38 of SPAWN_ASM on tiny(), several load responses are in
# flight on the ICN return network: losing one hangs a TCU forever
DROP_CYCLE = 38


def _spawn_machine(**cfg):
    return Machine(assemble(SPAWN_ASM), tiny(**cfg))


def _reference():
    return Simulator(assemble(SPAWN_ASM), tiny()).run(max_cycles=100_000)


class TestWatchdog:
    def test_true_deadlock_raises_typed_exception(self):
        machine = _spawn_machine(watchdog_cycles=100)
        machine.domains["clusters"].disable()  # nothing can ever progress
        with pytest.raises(SimulationStalled, match="deadlock") as info:
            machine.run()
        dump = info.value.dump
        assert isinstance(dump, DiagnosticDump)
        assert dump.time_ps > 0
        assert "diagnostic dump" in dump.format()

    def test_never_halting_program_trips_cycle_budget(self):
        sim = Simulator(assemble(SPIN_ASM), tiny())
        with pytest.raises(SimulationBudgetExceeded, match="exceeded") as info:
            sim.run(max_cycles=10_000)
        assert info.value.dump is not None
        assert info.value.dump.cycles >= 10_000

    def test_event_budget(self):
        sim = Simulator(assemble(SPIN_ASM), tiny())
        with pytest.raises(SimulationBudgetExceeded, match="event budget"):
            sim.run(max_events=4_000)

    def test_event_budget_below_the_check_interval(self):
        """vecadd on ``tiny`` is 1 408 events: a budget of 1 000 trips at
        exactly 1 000, not at the first 2 048-event check (never)."""
        path = os.path.join(os.path.dirname(__file__), "..", "benchmarks",
                            "baselines", "vecadd", "program.c")
        program, _ = load_program(path)
        with pytest.raises(SimulationBudgetExceeded,
                           match=r"1000 events \(budget 1000\)"):
            Simulator(program, tiny()).run(max_events=1000)
        assert Simulator(program, tiny()).run(max_events=2000).cycles == 1497

    def test_wall_clock_budget(self):
        sim = Simulator(assemble(SPIN_ASM), tiny())
        with pytest.raises(SimulationBudgetExceeded, match="wall-clock"):
            sim.run(wall_limit_s=1e-6)

    def test_typed_exceptions_are_simulation_errors(self):
        assert issubclass(SimulationStalled, ResilienceError)
        assert issubclass(SimulationBudgetExceeded, ResilienceError)
        assert issubclass(ResilienceError, SimulationError)

    def test_budgets_do_not_fire_on_healthy_runs(self):
        result = Simulator(assemble(SPAWN_ASM), tiny()).run(
            max_cycles=100_000, wall_limit_s=60.0, max_events=10_000_000)
        assert result.read_global("A") == [1] * 16

    def test_dump_structure(self):
        machine = _spawn_machine(watchdog_cycles=100)
        machine.domains["clusters"].disable()
        with pytest.raises(SimulationStalled) as info:
            machine.run()
        dump = info.value.dump
        # master + every TCU of the tiny config (2 clusters x 2 TCUs)
        assert len(dump.processors) == 5
        assert dump.processors[0]["kind"] == "master"
        # a gated domain is never booked, the others sleep until handed
        # work: the dump names the edges nobody is waiting for
        assert dump.domains["clusters"] == {"cycle": 0, "booked": None}
        assert "clusters cycle 0 next edge unbooked" in dump.format()
        assert dump.pending_events == 0 and not dump.event_histogram
        assert set(dump.icn) >= {"in_flight_send", "in_flight_return"}
        assert "processors running" in dump.summary()
        assert dump.events_processed == machine.scheduler.events_processed
        # a watchdog trip inside the event loop counts the events of the
        # run it cut short too (it used to report none of them)
        machine = _spawn_machine(watchdog_cycles=500)
        machine.add_plugin(LoseReply(DROP_CYCLE))
        with pytest.raises(SimulationStalled) as info:
            machine.run()
        dump = info.value.dump
        assert dump.events_processed == machine.scheduler.events_processed
        assert dump.events_processed > 0

    @pytest.mark.parametrize("icn", registered("icn"))
    @pytest.mark.parametrize("dram", registered("dram"))
    def test_budget_trip_dumps_on_every_backend(self, dram, icn):
        """A backend's ``occupancy()`` may report per-slot lists (the
        banked DRAM's ``banks``): the dump adds them slot by slot --
        summing everything as an int used to end a budget trip in a
        bare ``TypeError``."""
        machine = _spawn_machine(dram_backend=dram, icn_backend=icn)
        with pytest.raises(SimulationBudgetExceeded, match="50 cycles") as info:
            machine.run(max_cycles=50)
        dump = info.value.dump
        assert dump.dram["queued"] >= 0
        if dram == "banked":
            assert len(dump.dram["banks"]) == machine.config.dram_banks
            assert sum(dump.dram["banks"]) == dump.dram["queued"]
        assert "dram: " in dump.format()


class TestCheckpointing:
    def test_unpicklable_plugin_no_longer_blocks_checkpoints(self):
        from repro.sim.plugins import FrequencyController

        reference = _reference()
        machine = _spawn_machine()
        # a lambda policy is unpicklable; its sampler events must be
        # stripped (checkpoint_transient), not pickled
        machine.add_plugin(FrequencyController(lambda m, t, d: {},
                                               interval_cycles=10))
        payload = CP.run_with_checkpoint(machine, checkpoint_cycle=60)
        assert payload is not None
        restored = CP.load_bytes(payload)
        result = restored.run(max_cycles=100_000)
        assert result.cycles == reference.cycles
        assert result.read_global("A") == reference.read_global("A")

@pytest.fixture
def spawn_file(tmp_path):
    path = tmp_path / "spawn.s"
    path.write_text(SPAWN_ASM)
    return str(path)


@pytest.fixture
def spin_file(tmp_path):
    path = tmp_path / "spin.s"
    path.write_text(SPIN_ASM)
    return str(path)


class TestResilienceCLI:
    def test_stall_exits_3_with_dump(self, spawn_file, capsys):
        # a 5-cycle window is shorter than a load's round trip: the
        # watchdog trips while every TCU waits on memory
        rc = xmtsim_main([spawn_file, "--config", "tiny",
                          "--watchdog", "5", "--max-cycles", "100000"])
        err = capsys.readouterr().err
        assert rc == 3
        assert "stalled" in err and "deadlock" in err
        assert "diagnostic dump" in err

    def test_cycle_budget_exits_4(self, spin_file, capsys):
        rc = xmtsim_main([spin_file, "--config", "tiny",
                          "--max-cycles", "5000"])
        err = capsys.readouterr().err
        assert rc == 4
        assert "exceeded" in err

    def test_event_budget_exits_4(self, spin_file, capsys):
        rc = xmtsim_main([spin_file, "--config", "tiny",
                          "--event-budget", "5000"])
        err = capsys.readouterr().err
        assert rc == 4
        assert "event budget" in err

    @pytest.mark.parametrize("config, stopped", [
        (None, "time: 1445000 ps (~cycle 1445)  instructions: 1939"),
        ({"base": "tiny", "icn_backend": "ring", "dram_backend": "banked"},
         "time: 1505000 ps (~cycle 1505)  instructions: 1947"),
    ], ids=["tiny", "ring-banked"])
    def test_vecadd_drop_exits_3_with_dump(
            self, config, stopped, tmp_path, capsys):
        # a DRAM access outlasts the 5-cycle window: the watchdog
        # notices a full window after the last retired instruction
        program = os.path.join(os.path.dirname(__file__), "..", "benchmarks",
                               "baselines", "vecadd", "program.c")
        config_args = ["--config", "tiny"]
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            config_args = ["--config-file", str(path)]
        rc = xmtsim_main([program, *config_args, "--watchdog", "5"])
        err = capsys.readouterr().err
        assert rc == 3
        assert "deadlock: no instruction retired for 5 cycles" in err
        assert stopped in err
        assert "events processed: 0" not in err
