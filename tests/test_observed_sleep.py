"""Ranged ``stalled`` calls against per-cycle ones, held to bytes.

An observed machine sleeps exactly where a plain one does: the cycles a
sleeper skipped reach ``stalled`` listeners as one ranged call when it
is settled (``ProcessorBase.settle``), and the accountant rebuilds which
layer the oldest request was in on each of them from the flight
recorder's time stamps.  None of that may move a byte of what the
consumers export.  The oracle is the machine as it was of
``test_sleep_wake.py`` -- every processor ticked on every edge, so every
stall reaches the listeners as a span of one, on the cycle itself --
with the same consumers subscribed: cycle accounting, profile, flight
recorder summary and ``Stats`` must come out byte-identical, and the
accounting exact (``xmt-explain report --assert-exact``).

Mutants this file must fail (checked by hand when it was written):
``layers_over`` taking a stamp made *at* the tick's time (``<=``);
``FlightRecorder.replied`` dropping the retired record at once;
``ActivityPlugin.notify`` not settling before ``sample()``;
``ProcessorBase.settle`` crediting ``Stats`` without firing the span.
"""

from __future__ import annotations

import json
import os
from types import SimpleNamespace

import pytest

from repro.isa.assembler import assemble
from repro.sim import checkpoint as CP
from repro.sim import packages
from repro.sim import tcu as tcu_module
from repro.sim.config import fpga64, tiny
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
    instrumented_run,
)
from repro.sim.plugins import ActivityPlugin
from repro.workloads import programs as W
from repro.xmtc.compiler import CompileOptions, compile_source

from test_sleep_wake import (
    BACKENDS,
    KERNEL_SIZES,
    MIXED_INPUTS,
    MIXED_SRC,
    PREFETCH_SRC,
    NoRuns,
    assert_same,
    build,
    fu_load_program,
    kernel,
    never_asleep,
    run_both,
    tick_every_edge,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SLEEPING, AS_IT_WAS = "sleeping", "as-it-was"


def consumers(program) -> Observability:
    return Observability(metrics=MetricsRegistry(),
                         profiler=CycleProfiler(program),
                         accounting=CycleAccountant(),
                         lifecycle=FlightRecorder())


def observed(program, config, kind, plugins=()) -> Machine:
    """A machine with every stock consumer on: as shipped, or as it
    was (the profiler and the accountant hear ``issued``: no runs)."""
    packages._SEQ = 0  # sequence numbers appear in lifecycle samples
    machine = Machine(program, config, plugins=plugins,
                      observability=consumers(program))
    if kind == AS_IT_WAS:
        tick_every_edge(never_asleep(machine))
    return machine


def heard(machine: Machine, cycles: int, halted: bool = True) -> dict:
    """Every byte the consumers would export, and ``Stats``."""
    obs = machine.obs
    accounting = export_accounting(machine, obs.accounting, cycles=cycles)
    if halted:  # what ``xmt-explain report --assert-exact`` demands
        assert accounting["exact"]
        assert accounting["attributed_cycles"] == \
            cycles * accounting["n_processors"]
    return {"cycles": cycles,
            "accounting": artifact_json(accounting),
            "profile": artifact_json(obs.profiler.to_data()),
            "lifecycle": artifact_json(obs.lifecycle.to_data()),
            "counters": dict(machine.stats.counters)}


def run_observed(program, config_factory, plugins_factory=lambda: (),
                 **run_kw) -> dict:
    """Run sleeping and as it was; the two must agree.  Returns what
    the sleeping machine's consumers heard."""
    prints = []
    for kind in (SLEEPING, AS_IT_WAS):
        machine = observed(program, config_factory(), kind,
                           plugins=plugins_factory())
        result = machine.run(**{"max_cycles": 5_000_000, **run_kw})
        prints.append(heard(machine, result.cycles, machine.halted))
    assert_same(*prints)
    return prints[0]


# --------------------------------------------------------------------------- programs

#: per thread: three loads, a ``swnb`` and a shared-MDU product in
#: flight together, used in an order other than the one they return in
#: -- with ``tcu_blocking_loads`` off the oldest request changes while
#: the TCU sleeps on a younger one
OVERLAP_ASM = """
    .data
A:  .space 1280
    .text
main:
    li   $t0, 0
    li   $t1, 47
    spawn $t0, $t1
vt:
    getvt $k0
    chkid $k0
    la   $t2, A
    slli $t3, $k0, 2
    add  $t2, $t2, $t3
    lw   $t4, 0($t2)
    lw   $t5, 256($t2)
    swnb $k0, 512($t2)
    lw   $t6, 768($t2)
    mul  $t7, $k0, $k0
    add  $t6, $t6, $t7
    add  $t4, $t4, $t5
    add  $t4, $t4, $t6
    sw   $t4, 1024($t2)
    j    vt
    join
    halt
"""

#: two ``swnb`` acks, then a load and a third ack, awaited at fences
FENCE_ASM = """
    .data
A:  .space 768
    .text
main:
    li   $t0, 0
    li   $t1, 31
    spawn $t0, $t1
vt:
    getvt $k0
    chkid $k0
    la   $t2, A
    slli $t3, $k0, 2
    add  $t2, $t2, $t3
    swnb $k0, 0($t2)
    swnb $k0, 256($t2)
    fence
    lw   $t4, 0($t2)
    addi $t4, $t4, 1
    swnb $t4, 512($t2)
    fence
    j    vt
    join
    halt
"""

#: the Master waits at a fence, at a spawn and at the halt for its
#: write buffer to drain
MASTER_DRAINS_ASM = """
    .data
X:  .space 1024
    .text
main:
    la   $s7, X
    li   $t0, 5
    sw   $t0, 0($s7)
    sw   $t0, 256($s7)
    fence
    lw   $t3, 0($s7)
    addi $t3, $t3, 1
    sw   $t3, 512($s7)
    li   $t1, 0
    li   $t2, 3
    spawn $t1, $t2
vt:
    getvt $k0
    chkid $k0
    slli $t4, $k0, 2
    add  $t4, $t4, $s7
    sw   $k0, 64($t4)
    j    vt
    join
    sw   $t0, 768($s7)
    halt
"""


def _fenced_ps():
    with open(os.path.join(ROOT, "examples", "litmus", "fenced_ps.c")) as fh:
        return build(fh.read())


#: programs that execute fences (the compiler puts one before every
#: prefix-sum; the litmus pair orders its stores with them)
FENCE_PROGRAMS = {
    "fence-asm": lambda: assemble(FENCE_ASM),
    "prefetch-staleness": lambda: assemble(W.litmus_prefetch_staleness(True)),
    "psm-ordered": lambda: build(W.litmus_psm_ordered(3, 1)[0]),
    "fenced-ps": _fenced_ps,
}


# --------------------------------------------------------------------------- the law

def test_current_layer_is_a_function_of_time():
    """A stamp counts for a tick iff it was made strictly before it,
    whenever the question is asked; a retired record answers for the
    ticks up to its reply until its processor sends again."""
    recorder = FlightRecorder()
    module = SimpleNamespace(module_id=0, in_queue=())
    first, second, third = (packages.Package(packages.LOAD, 7, 1)
                            for _ in range(3))
    recorder.send_enqueued(first, 1000, 0)
    recorder.send_enqueued(second, 2000, 1)
    recorder.icn_injected(first, 2000, 5000, 0)
    recorder.icn_injected(second, 3000, 6000, 0)
    recorder.cache_enqueued(first, 5000, 0)
    recorder.cache_dequeued(module, first, 6000, "hit")
    recorder.response_enqueued(first, 7000, 0)
    recorder.replied(first, 9000)

    def layers(times):
        return [recorder.current_layer(7, time) for time in times]

    want = ["unknown", "cluster", "icn", "icn", "icn", "cache", "cache",
            "return", "return", "icn", "icn"]
    assert layers(range(1000, 12000, 1000)) == want
    # the oldest request was replied to at 9000: the tick at 9000 (the
    # clusters' turn comes first) still waited for it, the next one for
    # the second request -- and one TCU's records are not another's
    assert layers([9000, 9001]) == ["return", "icn"]
    assert recorder.current_layer(8, 5000) == "unknown"
    # ticks at 1500, 2500, ... 10500
    assert recorder.layers_over(7, 1500, 1000, 10) == [
        ("cluster", 1), ("icn", 3), ("cache", 1), ("cache", 1),
        ("return", 2), ("icn", 2)]
    # the processor sends again: the retired record is pruned, and no
    # tick at or before a send asks any more
    recorder.send_enqueued(third, 12000, 0)
    assert layers([12001]) == ["icn"]
    assert len(recorder._outstanding[7]) == 2


# --------------------------------------------------------------------------- differential

class TestKernels:
    @pytest.mark.parametrize("config", [tiny, fpga64],
                             ids=["tiny", "fpga64"])
    @pytest.mark.parametrize("name", sorted(KERNEL_SIZES))
    def test_shipped_kernel(self, name, config):
        run_observed(kernel(name), config)


class TestBackends:
    @pytest.mark.parametrize("overrides", BACKENDS)
    @pytest.mark.parametrize("workload", ["mixed", "compaction"])
    def test_backends(self, workload, overrides):
        program = (build(MIXED_SRC, MIXED_INPUTS) if workload == "mixed"
                   else kernel("array_compaction"))
        run_observed(program, lambda: tiny(**overrides))


class TestDomains:
    """A tick's time and a stamp's time are compared in picoseconds:
    every domain on its own grid, the clusters the fastest or the
    slowest of them."""

    @pytest.mark.parametrize("periods", [
        {},
        dict(icn_period=700, cache_period=1300, dram_period=2900),
        dict(icn_period=1700, cache_period=600, dram_period=1100),
        dict(cluster_period=1900, icn_period=1000, cache_period=800,
             dram_period=1500),
    ], ids=["unmerged", "fast-icn", "fast-cache", "slow-clusters"])
    @pytest.mark.parametrize("name", ["mixed", "bfs", "spmv"])
    def test_own_domains(self, name, periods):
        program = (build(MIXED_SRC, MIXED_INPUTS) if name == "mixed"
                   else kernel(name))
        run_observed(program, lambda: tiny(merge_clock_domains=False,
                                           **periods))


class TestStallShapes:
    @pytest.mark.parametrize("blocking", [True, False],
                             ids=["blocking-loads", "scoreboard"])
    def test_several_requests_in_flight(self, blocking):
        program = assemble(OVERLAP_ASM)
        program.write_global("A", list(range(3, 323)))
        got = run_observed(program,
                           lambda: tiny(tcu_blocking_loads=blocking))
        assert got["counters"]["tcu.stall.memory"] > 0

    def test_prefetches_in_flight(self):
        program = build(PREFETCH_SRC, {n: list(range(192)) for n in "ABC"},
                        CompileOptions(prefetch=True, prefetch_degree=8))
        got = run_observed(program, lambda: tiny(tcu_blocking_loads=False))
        assert sum(got["counters"].get(f"tcu.prefetch.{kind}", 0)
                   for kind in ("hit", "pending_hit", "late_hit")) > 0

    @pytest.mark.parametrize("name", sorted(FENCE_PROGRAMS))
    def test_fences(self, name):
        program = FENCE_PROGRAMS[name]()
        assert_same(*run_both(program, tiny))
        got = run_observed(program, tiny)
        assert got["counters"]["instructions.fence"] > 0
        if name in ("fence-asm", "fenced-ps"):  # (acks still in flight)
            assert got["counters"]["tcu.stall.fence"] > 0

    @pytest.mark.parametrize("blocking", [True, False],
                             ids=["blocking-loads", "scoreboard"])
    def test_fu_sleepers(self, blocking):
        """A loser of the busy MDU sleeps until it frees and is heard as
        one span: the accountant's ``fu_busy`` cells add up to
        ``tcu.stall.fu``."""
        got = run_observed(fu_load_program(), lambda: tiny(
            tcus_per_cluster=4, mdu_latency=10, tcu_blocking_loads=blocking))
        accounting = json.loads(got["accounting"])
        assert got["counters"]["tcu.stall.fu"] > 0
        assert accounting["machine"]["flat"]["fu_busy"] == \
            got["counters"]["tcu.stall.fu"]

    @pytest.mark.parametrize("overrides", [{}, {"alu_latency": 5}], ids=str)
    def test_master_sleeps(self, overrides):
        """``fence``, ``spawn_drain`` and ``halt_drain`` end with a
        delivery, ``latency`` with ``stall_until``: all four are slept
        through and heard as spans."""
        program = assemble(MASTER_DRAINS_ASM)
        assert_same(*run_both(program, lambda: tiny(**overrides)))
        got = run_observed(program, lambda: tiny(**overrides))
        slept_on = ["fence", "spawn_drain", "halt_drain"]
        if overrides:
            slept_on.append("latency")
        for cause in slept_on:
            assert got["counters"][f"master.stall.{cause}"] > 1, cause


class TestFenceSleeps:
    def test_a_tcu_at_a_fence_is_not_ticked(self):
        """Only the first cycle of a wait at a fence is a tick."""
        machine = Machine(assemble(FENCE_ASM), tiny())
        fence_ticks = [0]
        counters = machine.stats.counters
        for tcu in machine.tcus:
            def counted(cycle, original=tcu.tick):
                before = counters["tcu.stall.fence"]
                key = original(cycle)
                fence_ticks[0] += counters["tcu.stall.fence"] - before
                return key
            tcu.tick = counted
        result = machine.run(max_cycles=100_000)
        assert 0 < fence_ticks[0] * 3 < result.stats.get("tcu.stall.fence")


# --------------------------------------------------------------------------- what lands mid-sleep

def stall_cycles(machine: Machine) -> int:
    return sum(value for key, value in machine.stats.counters.items()
               if ".stall." in key)


def asleep_on_memory(machine: Machine) -> bool:
    return any((tcu.asleep_on or "").endswith(".memory")
               for tcu in machine.tcus)


class _GateMidSleep(ActivityPlugin):
    """Retimes, gates and un-gates the clusters domain by sample number
    (the same simulated instants in every machine), and notes which of
    those found somebody asleep on memory (on the machine as it was
    nobody ever is)."""

    SCRIPT = {9: ("scale", 0.5), 12: ("gate", None), 14: ("ungate", None),
              19: ("scale", 1.0), 30: ("scale", 1.7), 36: ("gate", None),
              38: ("ungate", None), 45: ("scale", 1.0)}

    def __init__(self):
        super().__init__(interval_cycles=15)
        self.mid_sleep = set()
        self.counters = []

    def sample(self, machine, time):
        self.counters.append(dict(machine.stats.counters))
        action, scale = self.SCRIPT.get(len(self.counters), (None, None))
        if action and asleep_on_memory(machine):
            self.mid_sleep.add(action)
        if action == "scale":
            machine.set_domain_scale("clusters", scale)
        elif action == "gate":
            machine.domains["clusters"].disable()
        elif action == "ungate":
            machine.domains["clusters"].enable()


class _EveryCycle(ActivityPlugin):
    """``Machine.settle()`` on every cycle (``ActivityPlugin.notify``
    calls it before each sample): it lands between every ``replied``
    and the wake-up that booked, so the retired record must answer
    still."""

    def __init__(self):
        super().__init__(interval_cycles=1)
        self.stalls = []

    def sample(self, machine, time):
        self.stalls.append(stall_cycles(machine))


class _SubscribeAt(Actor):
    """Subscribes a ``stalled`` listener in the middle of a spawn."""

    def __init__(self, machine: Machine, cycle: int):
        self.machine = machine
        self.heard = 0
        self.before = None
        self.mid_sleep = False
        machine.start()
        machine.scheduler.schedule_at(cycle * machine.config.cluster_period,
                                      self, PRIO_PLUGIN)

    def stalled(self, proc, cause, first, last):
        self.heard += last - first + 1

    def notify(self, scheduler, time, arg):
        self.mid_sleep = asleep_on_memory(self.machine)
        self.machine.obs.subscribe(self)  # settles, unheard by us, first
        self.before = stall_cycles(self.machine)


class TestMidSleep:
    @pytest.mark.parametrize("merge", [False, True],
                             ids=["own-domains", "merged-domains"])
    def test_retime_gate_and_ungate(self, merge):
        plugins = []

        def make_plugins():
            plugins.append(_GateMidSleep())
            return [plugins[-1]]

        run_observed(build(MIXED_SRC, MIXED_INPUTS),
                     lambda: tiny(merge_clock_domains=merge), make_plugins)
        sleeping, as_it_was = plugins
        assert sleeping.mid_sleep == {"scale", "gate", "ungate"}
        assert not as_it_was.mid_sleep
        assert len(sleeping.counters) > 45
        assert sleeping.counters == as_it_was.counters

    def test_settle_between_reply_and_wake(self):
        plugins = []

        def make_plugins():
            plugins.append(_EveryCycle())
            return [plugins[-1]]

        run_observed(build(MIXED_SRC, MIXED_INPUTS), tiny, make_plugins)
        assert len(plugins[0].stalls) > 500
        assert plugins[0].stalls == plugins[1].stalls

    def test_telemetry_frames(self):
        """A telemetry sampler settles the machine for every frame."""
        from repro.sim.observability import TelemetrySampler

        program = build(MIXED_SRC, MIXED_INPUTS)
        prints = []
        for kind in (SLEEPING, AS_IT_WAS):
            machine = observed(program, tiny(), kind)
            sampler = TelemetrySampler(every_cycles=7)
            sampler.attach(machine)
            sampler.arm()
            result = machine.run(max_cycles=1_000_000)
            sampler.finish()
            prints.append(heard(machine, result.cycles))
        assert_same(*prints)

    @pytest.mark.parametrize("cycle", [640, 700, 1010])
    def test_checkpoint_restore_resubscribe(self, cycle):
        """The snapshot is settled with the consumers still on, the
        restored machine is handed the same consumers: nothing is heard
        twice, nothing is lost -- and the machine that was checkpointed
        finishes the same."""
        program = build(MIXED_SRC, MIXED_INPUTS)
        prints, continued = [], []
        for kind in (SLEEPING, AS_IT_WAS):
            machine = observed(program, tiny(), kind)
            obs = machine.obs
            payload = CP.run_with_checkpoint(machine, cycle)
            assert payload is not None and machine.parallel_active
            if kind == SLEEPING:
                assert asleep_on_memory(machine)
            at_checkpoint = artifact_json(obs.profiler.to_data())
            seq = packages._SEQ
            result = machine.run(max_cycles=1_000_000)
            continued.append(heard(machine, result.cycles))
            # back to the checkpoint: same package numbers, fresh
            # consumers (what they hear from here on must agree; what
            # was heard up to here is ``at_checkpoint``)
            packages._SEQ = seq
            restored = CP.load_bytes(payload)
            fresh = consumers(program)
            restored.obs = fresh
            fresh.attach(restored)
            result = restored.run(max_cycles=1_000_000)
            prints.append(dict(heard(restored, result.cycles, halted=False),
                               at_checkpoint=at_checkpoint))
        assert_same(*prints)
        assert_same(*continued)

    @pytest.mark.parametrize("cycle", [640, 700, 1010])
    def test_stalled_listener_subscribing_mid_sleep(self, cycle):
        """It hears exactly the cycles ``Stats`` gains from there on --
        not what the sleepers had skipped before it turned up."""
        program = build(MIXED_SRC, MIXED_INPUTS)
        listeners = []
        for kind in (SLEEPING, AS_IT_WAS):
            machine = observed(program, tiny(), kind)
            listener = _SubscribeAt(machine, cycle)
            result = machine.run(max_cycles=1_000_000)
            heard(machine, result.cycles)
            assert listener.heard == stall_cycles(machine) - listener.before
            listeners.append(listener)
        sleeping, as_it_was = listeners
        assert sleeping.mid_sleep and not as_it_was.mid_sleep
        assert (sleeping.heard, sleeping.before) == \
            (as_it_was.heard, as_it_was.before) and sleeping.heard > 0

    @pytest.mark.parametrize("cycle", [90, 700])
    def test_timeout_with_sleepers(self, cycle):
        run_observed(build(MIXED_SRC, MIXED_INPUTS), tiny,
                     max_cycles=cycle, allow_timeout=True)


# --------------------------------------------------------------------------- not vacuous

class TestObservedMachineSleeps:
    @pytest.mark.parametrize("name", ["vecadd", "compact"])
    def test_same_ticks_as_with_a_deaf_listener(self, name, monkeypatch):
        """Who listens to ``stalled`` does not change who is ticked:
        the fully observed run makes the TCU ticks and scheduler events
        of one whose only consumer hears ``issued`` and does nothing."""
        ticks = [0]
        original = tcu_module.TCU.tick

        def counted(self, cycle):
            ticks[0] += 1
            return original(self, cycle)
        monkeypatch.setattr(tcu_module.TCU, "tick", counted)
        with open(os.path.join(ROOT, "benchmarks", "baselines", name,
                               "program.c")) as fh:
            program = compile_source(fh.read())

        artifacts = instrumented_run(program, tiny(), accounting=True)
        observed_ticks, ticks[0] = ticks[0], 0
        obs = Observability()
        obs.subscribe(NoRuns())
        machine = Machine(program, tiny(), observability=obs)
        result = machine.run()
        assert result.cycles == artifacts.result.cycles
        assert observed_ticks == ticks[0] < result.cycles * tiny().n_tcus / 4
        assert artifacts.metrics["scheduler"]["events_processed"] == \
            machine.scheduler.events_processed
