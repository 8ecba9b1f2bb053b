"""Resilience layer: watchdog, budgets, fault injection, and the exit
codes and dumps ``xmtsim`` gives a stalled, over-budget or injected run."""

import json
import os

import pytest

from repro.isa.assembler import assemble
from repro.sim import checkpoint as CP
from repro.sim.config import tiny
from repro.sim.fabric import registered
from repro.sim.functional import SimulationError
from repro.sim.machine import Machine, Simulator
from repro.sim.resilience import (
    DiagnosticDump,
    FaultInjector,
    FaultSpec,
    ResilienceError,
    SimulationBudgetExceeded,
    SimulationStalled,
    parse_fault_spec,
)
from repro.sim.resilience.faults import _InjectionActor
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
# flight on the ICN return network: dropping one hangs a TCU forever
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
        machine.add_plugin(
            FaultInjector([FaultSpec("icn.drop", DROP_CYCLE, seed=1)]))
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


class TestFaultSpecs:
    def test_parse_basic(self):
        spec = parse_fault_spec("icn.drop@500")
        assert (spec.site, spec.cycle, spec.seed) == ("icn.drop", 500, 0)
        # the canonical text an --inject run records in its manifest
        assert str(spec) == "icn.drop@500:0"

    def test_parse_with_seed(self):
        spec = parse_fault_spec("tcu.reg@0x40:7")
        assert (spec.site, spec.cycle, spec.seed) == ("tcu.reg", 64, 7)
        assert str(spec) == "tcu.reg@64:7"
        assert parse_fault_spec(str(spec)) == spec

    def test_bad_site_rejected(self):
        with pytest.raises(ValueError, match="unknown injection site"):
            parse_fault_spec("alu.flip@10")

    def test_bad_syntax_rejected(self):
        with pytest.raises(ValueError, match="site@cycle"):
            parse_fault_spec("icn.drop")

    def test_negative_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            FaultSpec("icn.drop", -1)


class TestFaultInjection:
    def test_dropped_response_hangs_and_is_detected(self):
        machine = _spawn_machine(watchdog_cycles=500)
        injector = FaultInjector([FaultSpec("icn.drop", DROP_CYCLE, seed=1)])
        machine.add_plugin(injector)
        with pytest.raises(SimulationStalled, match="deadlock"):
            machine.run(max_cycles=100_000)
        assert injector.log and injector.log[0][0] == "icn.drop"

    def test_dram_stall_is_masked(self):
        machine = _spawn_machine()
        machine.add_plugin(FaultInjector([FaultSpec("dram.stall", 40, seed=3)]))
        result = machine.run(max_cycles=100_000)
        # a timeout only delays traffic; the result is still correct
        assert result.read_global("A") == [1] * 16

    def test_register_flip_is_applied_and_logged(self):
        machine = _spawn_machine(watchdog_cycles=500)
        injector = FaultInjector([FaultSpec("tcu.reg", 50, seed=11)])
        machine.add_plugin(injector)
        try:
            machine.run(max_cycles=100_000)
        except SimulationError:
            pass  # any outcome class is legal; the flip must be logged
        assert len(injector.log) == 1
        assert "bit" in injector.log[0][2]


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

    def test_injected_faults_are_not_captured(self):
        machine = _spawn_machine()
        machine.add_plugin(FaultInjector([FaultSpec("icn.drop", 1000, seed=1)]))
        payload = CP.run_with_checkpoint(machine, checkpoint_cycle=60)
        restored = CP.load_bytes(payload)
        pending = [e.actor for e in restored.scheduler._heap
                   if not e.cancelled]
        assert not any(isinstance(a, _InjectionActor) for a in pending)
        # ...but the original machine keeps its planned fault
        live = [e.actor for e in machine.scheduler._heap if not e.cancelled]
        assert any(isinstance(a, _InjectionActor) for a in live)


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
        rc = xmtsim_main([spawn_file, "--config", "tiny",
                          "--watchdog", "500",
                          "--inject", f"icn.drop@{DROP_CYCLE}:1",
                          "--max-cycles", "100000"])
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

    @pytest.mark.parametrize("config, drop", [
        (None, 600),
        ({"base": "tiny", "icn_backend": "ring", "dram_backend": "banked"},
         700),
    ], ids=["tiny", "ring-banked"])
    def test_vecadd_drop_exits_3_with_dump(
            self, config, drop, tmp_path, capsys):
        # the dropped response parks every TCU; the watchdog notices a
        # full window after the last retired instruction
        program = os.path.join(os.path.dirname(__file__), "..", "benchmarks",
                               "baselines", "vecadd", "program.c")
        config_args = ["--config", "tiny"]
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            config_args = ["--config-file", str(path)]
        rc = xmtsim_main([program, *config_args, "--watchdog", "1500",
                          "--inject", f"icn.drop@{drop}"])
        err = capsys.readouterr().err
        assert rc == 3
        assert "deadlock: no instruction retired for 1500 cycles" in err
        assert "time: 3000000 ps (~cycle 3000)  instructions: 906" in err
        assert "events processed: 0" not in err

    def test_masked_injection_exits_0(self, spawn_file, capsys):
        rc = xmtsim_main([spawn_file, "--config", "tiny",
                          "--inject", "dram.stall@40:3",
                          "--max-cycles", "100000",
                          "--print-global", "A"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "A = [1, 1, 1" in captured.out

    def test_bad_inject_spec_exits_2(self, spawn_file, capsys):
        rc = xmtsim_main([spawn_file, "--config", "tiny",
                          "--inject", "bogus"])
        assert rc == 2
        assert "site@cycle" in capsys.readouterr().err
