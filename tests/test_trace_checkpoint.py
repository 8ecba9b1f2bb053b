"""Execution traces and simulation checkpoints (Section III-E)."""

import pytest

from conftest import fabric_ports, run_xmtc_cycle
from repro.isa.assembler import assemble
from repro.sim import checkpoint as CP
from repro.sim.config import tiny
from repro.sim.machine import Machine, Simulator
from repro.sim.trace import LEVEL_CYCLE, LEVEL_FUNCTIONAL, Trace

SRC = """
int A[16];
int main() {
    spawn(0, 15) { A[$] = $ * 2; }
    return 0;
}
"""


class TestTrace:
    def test_functional_level_records_issues(self):
        trace = Trace(level=LEVEL_FUNCTIONAL)
        _, res = run_xmtc_cycle(SRC, trace=trace)
        assert len(trace) > 0
        assert any("spawn" in r for r in trace.records)
        assert any("getvt" in r for r in trace.records)

    def test_cycle_level_records_packages(self):
        trace = Trace(level=LEVEL_CYCLE)
        _, res = run_xmtc_cycle(SRC, trace=trace)
        responses = [r for r in trace.records if "<-" in r]
        assert responses, "no package responses traced"
        assert any("module" in r for r in responses)

    def test_tcu_filter(self):
        trace = Trace(level=LEVEL_FUNCTIONAL, tcus={0})
        _, res = run_xmtc_cycle(SRC, trace=trace)
        assert all("tcu0000" in r for r in trace.records)

    def test_op_filter(self):
        trace = Trace(level=LEVEL_FUNCTIONAL, ops={"swnb", "sw"})
        _, res = run_xmtc_cycle(SRC, trace=trace)
        assert trace.records
        assert all(("sw" in r) for r in trace.records)

    def test_limit(self):
        trace = Trace(level=LEVEL_FUNCTIONAL, limit=5)
        _, res = run_xmtc_cycle(SRC, trace=trace)
        # 5 records plus one explicit truncation marker
        assert len(trace) == 6
        assert trace.truncated
        assert "truncated" in trace.records[-1]
        assert all("truncated" not in r for r in trace.records[:5])

    def test_no_marker_below_limit(self):
        trace = Trace(level=LEVEL_FUNCTIONAL, limit=100_000)
        _, res = run_xmtc_cycle(SRC, trace=trace)
        assert not trace.truncated
        assert all("truncated" not in r for r in trace.records)

    def test_master_id_rendered(self):
        trace = Trace(level=LEVEL_FUNCTIONAL, tcus={-1})
        _, res = run_xmtc_cycle(SRC, trace=trace)
        assert trace.records
        assert all("master" in r for r in trace.records)

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError):
            Trace(level="verbose")

    def test_sink_callback(self):
        seen = []
        trace = Trace(level=LEVEL_FUNCTIONAL, sink=seen.append, limit=3)
        _, res = run_xmtc_cycle(SRC, trace=trace)
        assert seen == trace.records


ASM = """
    .data
A:  .space 64
ctr: .word 0
    .text
main:
    li   $t5, 0
outer:
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
    addi $t5, $t5, 1
    slti $at, $t5, 6
    bnez $at, outer
    halt
"""


class TestCheckpoint:
    def _reference_run(self):
        prog = assemble(ASM)
        return Simulator(prog, tiny()).run(max_cycles=500_000)

    def test_checkpoint_resume_identical(self):
        reference = self._reference_run()
        prog = assemble(ASM)
        machine = Machine(prog, tiny())
        payload = CP.run_with_checkpoint(machine, checkpoint_cycle=300)
        assert payload is not None, "program finished before the checkpoint"
        restored = CP.load_bytes(payload)
        # the restored machine continues to the same final state
        result = restored.run(max_cycles=500_000)
        assert result.cycles == reference.cycles
        assert result.read_global("A") == reference.read_global("A")
        assert result.instructions == reference.instructions

    def test_original_machine_also_continues(self):
        reference = self._reference_run()
        prog = assemble(ASM)
        machine = Machine(prog, tiny())
        CP.run_with_checkpoint(machine, checkpoint_cycle=300)
        result = machine.run(max_cycles=500_000)
        assert result.cycles == reference.cycles
        assert result.read_global("A") == reference.read_global("A")

    def test_checkpoint_after_halt_returns_none(self):
        prog = assemble("    .text\nmain: halt\n")
        machine = Machine(prog, tiny())
        payload = CP.run_with_checkpoint(machine, checkpoint_cycle=10_000)
        assert payload is None
        assert machine.halted

    def test_file_roundtrip(self, tmp_path):
        prog = assemble(ASM)
        machine = Machine(prog, tiny())
        CP.run_with_checkpoint(machine, checkpoint_cycle=200)
        path = str(tmp_path / "ckpt.bin")
        CP.save(machine, path)
        restored = CP.load(path)
        a = restored.run(max_cycles=500_000)
        b = self._reference_run()
        assert a.cycles == b.cycles

    @pytest.mark.parametrize("damage, found", [
        # a headerless pickle, as files were written before the header
        (lambda header, payload: payload, "expected schema"),
        (lambda header, payload: header + payload[:len(payload) // 2],
         "UnpicklingError"),
        # a class this code no longer has (a file from an older tree)
        (lambda header, payload: header + b"crepro.sim.machine\nGone\n(tR.",
         "AttributeError"),
    ], ids=["wrong-magic", "torn-payload", "unpickling-failure"])
    def test_bad_file_fails_by_name(self, tmp_path, damage, found):
        from repro.sim.observability.artifacts import SchemaError

        path = str(tmp_path / "ckpt.bin")
        CP.save(Machine(assemble(ASM), tiny()), path)
        with open(path, "rb") as fh:
            header, _, payload = fh.read().partition(b"\n")
        assert header.startswith(b"xmtsim-checkpoint/1 ")
        revision = header.split(b" ", 1)[1].decode()
        with open(path, "wb") as fh:
            fh.write(damage(header + b"\n", payload))
        with pytest.raises(SchemaError, match=found) as info:
            CP.load(path)
        message = str(info.value)
        assert message.startswith(f"{path}: ")
        if found != "expected schema":
            assert f"saved at revision {revision}: " in message

    def test_plugins_detached_on_save(self):
        from repro.sim.plugins import ActivityRecorder

        prog = assemble(ASM)
        rec = ActivityRecorder(interval_cycles=100)
        machine = Machine(prog, tiny(), plugins=[rec])
        payload = CP.run_with_checkpoint(machine, checkpoint_cycle=300)
        restored = CP.load_bytes(payload)
        assert restored.activity_plugins == []
        # original keeps its plug-in
        assert machine.activity_plugins == [rec]


class TestObsWatchdogCheckpoint:
    """Checkpointing while observability is attached AND a watchdog is
    armed -- the three layers interact (obs is stripped on save, the
    watchdog's stall-detection events travel inside the checkpoint, and
    budget hooks are re-armed on the next run)."""

    def _obs(self):
        from repro.sim.observability import MetricsRegistry, Observability

        return Observability(metrics=MetricsRegistry())

    def test_checkpoint_under_obs_and_watchdog_resumes_identical(self):
        reference = Simulator(
            assemble(ASM), tiny(watchdog_cycles=2000)).run(max_cycles=500_000)

        obs = self._obs()
        machine = Machine(assemble(ASM), tiny(watchdog_cycles=2000),
                          observability=obs)
        payload = CP.run_with_checkpoint(machine, checkpoint_cycle=300)
        assert payload is not None

        # checkpoints strip the observability facade...
        restored = CP.load_bytes(payload)
        assert restored.obs is None
        # ...and re-attaching a fresh one works on the restored machine
        obs2 = self._obs()
        restored.obs = obs2
        obs2.attach(restored)
        result = restored.run(max_cycles=500_000)
        assert result.cycles == reference.cycles
        assert result.instructions == reference.instructions
        assert result.read_global("A") == reference.read_global("A")
        # the re-attached metrics actually collected on the resumed leg
        assert obs2.metrics.histograms or obs2.metrics.counters

        # the original machine (obs still attached) also continues
        result2 = machine.run(max_cycles=500_000)
        assert result2.cycles == reference.cycles
        assert machine.obs is obs

    def test_restored_watchdog_still_trips_with_obs_attached(self):
        from repro.sim.resilience import SimulationStalled

        obs = self._obs()
        machine = Machine(assemble(ASM), tiny(watchdog_cycles=150),
                          observability=obs)
        payload = CP.run_with_checkpoint(machine, checkpoint_cycle=300)
        assert payload is not None

        restored = CP.load_bytes(payload)
        obs2 = self._obs()
        restored.obs = obs2
        obs2.attach(restored)
        # freeze all instruction retirement: the watchdog armed inside
        # the checkpoint must still detect the deadlock after restore
        restored.domains["clusters"].disable()
        with pytest.raises(SimulationStalled) as excinfo:
            restored.run(max_cycles=500_000)
        assert excinfo.value.dump is not None


class _RefusesToPickle:
    def __reduce__(self):
        raise TypeError("a live handle: not for pickling")


def _held(machine) -> list:
    """Every object the machine, its scheduler and its ports hold
    directly (the heap's events in heap order) -- what ``save_bytes``
    must neither swap nor edit."""
    sched = machine.scheduler
    return [*machine.__dict__.values(), *sched.__dict__.values(),
            *sched._heap,
            *(port.on_push for port in fabric_ports(machine))]


def _same_objects(before: list, after: list) -> bool:
    return len(before) == len(after) and all(
        a is b for a, b in zip(before, after))


def _reference():
    return Simulator(assemble(ASM), tiny()).run(max_cycles=500_000)


class TestSavingLeavesTheMachineAlone:
    """``save_bytes`` is ``settle()`` + ``pickle.dumps``: what stays
    behind is decided by ``Machine.__getstate__`` and
    ``Scheduler.__getstate__``, so nothing is detached from the live
    machine and nothing has to be put back."""

    def _carrying_everything(self, tmp_path):
        """A paused mid-run machine holding one of everything a
        checkpoint leaves behind."""
        from repro.sim.observability import EventStream, Observability
        from repro.sim.observability.telemetry import (
            JsonlSink,
            TelemetrySampler,
        )
        from repro.sim.plugins import FrequencyController, HotMemoryFilter

        obs = Observability(events=EventStream(
            retain=False, stream_to=str(tmp_path / "events.jsonl")))
        machine = Machine(assemble(ASM), tiny(), observability=obs, plugins=[
            FrequencyController(lambda m, t, d: {}, interval_cycles=70),
            HotMemoryFilter()])
        sampler = TelemetrySampler(
            every_cycles=90, sinks=[JsonlSink(str(tmp_path / "frames.jsonl"))])
        sampler.attach(machine)
        sampler.arm()
        assert CP.run_with_checkpoint(machine, 300) is not None
        machine._arm_guards(None, None)  # a driver's budget hook
        return machine, sampler

    def test_save_assigns_nothing(self, tmp_path):
        machine, sampler = self._carrying_everything(tmp_path)
        for held in (machine.obs, machine.decoded,
                     machine.blocks, machine.scheduler.check_hook,
                     *(port.on_push for port in fabric_ports(machine))):
            assert held is not None
        # the filter plug-in is a consumer on machine.obs
        assert machine.activity_plugins
        assert machine.obs.has_listener("committed")
        before = _held(machine)
        CP.save_bytes(machine)
        assert _same_objects(before, _held(machine))
        # ...also when the pickle fails half-way: the error propagates,
        # and there is nothing to repair
        machine.stray_handle = _RefusesToPickle()  # (not a transient attribute)
        before = _held(machine)
        with pytest.raises(TypeError, match="live handle"):
            CP.save_bytes(machine)
        assert _same_objects(before, _held(machine))
        del machine.stray_handle
        sampler.close()
        machine.obs.events.close()
        reference = _reference()
        result = machine.run(max_cycles=500_000)
        assert (result.cycles, result.instructions) == \
            (reference.cycles, reference.instructions)

    def test_restored_machine_has_none_of_it(self, tmp_path):
        machine, sampler = self._carrying_everything(tmp_path)
        transient = [e for e in machine.scheduler._heap
                     if getattr(e.actor, "checkpoint_transient", False)]
        # the DVFS sampler and the telemetry sampler
        assert len(transient) == 2
        assert sampler in [e.actor for e in transient]
        # (a cancelled event that stays behind is not counted any more)
        machine.scheduler.cancel(transient[0])
        restored = CP.load_bytes(CP.save_bytes(machine))
        sampler.close()
        machine.obs.events.close()
        assert machine.obs.has_listener("committed")
        # the filter plug-in stays behind with the rest of machine.obs
        assert restored.obs is None
        assert restored.activity_plugins == []
        assert restored.scheduler.check_hook is None
        heap = restored.scheduler._heap
        assert not any(getattr(e.actor, "checkpoint_transient", False)
                       for e in heap)
        assert restored.scheduler.pending == \
            sum(not e.cancelled for e in heap) > 0
        reference = _reference()
        result = restored.run(max_cycles=500_000)
        assert (result.cycles, result.instructions) == \
            (reference.cycles, reference.instructions)
        assert result.read_global("A") == reference.read_global("A")

    def test_snapshot_from_inside_notify(self):
        """Nothing swaps the heap the run loop aliases, so an actor may
        snapshot the machine from its own ``notify``, mid-run."""
        from repro.sim.engine import Actor, PRIO_PLUGIN

        class Snapshotter(Actor):
            payload = None

            def notify(self, scheduler, time, arg):
                assert machine.parallel_active
                self.payload = CP.save_bytes(machine)

        reference = _reference()
        machine = Machine(assemble(ASM), tiny())
        machine.start()
        snapshotter = Snapshotter()
        machine.scheduler.schedule_at(300 * machine.config.cluster_period,
                                      snapshotter, PRIO_PLUGIN)
        result = machine.run(max_cycles=500_000)
        restored = CP.load_bytes(snapshotter.payload)
        assert restored.scheduler.now == 300 * machine.config.cluster_period
        again = restored.run(max_cycles=500_000)
        for got in (result, again):
            assert got.cycles == reference.cycles
            assert got.instructions == reference.instructions
            assert got.memory == reference.memory
            assert dict(got.stats.counters) == \
                dict(reference.stats.counters)
