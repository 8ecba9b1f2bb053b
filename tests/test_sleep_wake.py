"""Sleep/wake ticking against an always-awake oracle.

A TCU that can only repeat the same stall until a delivery arrives is
dropped from its cluster's tick list and credited the skipped cycles
when it wakes; a cluster with nobody awake is skipped, and the ICN
visits only ports that hold a package.  None of that may move a single
counter.  The oracle needs no switch: a TCU never sleeps while the
``stalled`` probe has a listener, so subscribing a consumer that hears
``stalled`` and does nothing keeps every TCU ticking every cycle -- the
machine as it was before sleep/wake.  Every test below runs a program
plain (sleeping) and listened-to (always awake) and requires the two
to agree on everything a run can be asked about.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.isa.assembler import assemble
from repro.sim import checkpoint as CP
from repro.sim.config import fpga64, tiny
from repro.sim.fabric import registered
from repro.sim.machine import Machine
from repro.sim.observability import Observability
from repro.sim.plugins import ActivityPlugin
from repro.sim.resilience import FaultInjector, FaultSpec, SimulationStalled
from repro.workloads import programs as W
from repro.xmtc.compiler import CompileOptions, compile_source


class AlwaysAwake:
    """The oracle: hearing ``stalled`` keeps every TCU on the tick list."""

    def stalled(self, proc, cause):
        pass


class SpawnWindows:
    """Records ``(begin, end)`` picoseconds of every spawn."""

    def __init__(self):
        self.windows = []

    def spawn_began(self, region, now, n_threads):
        self.windows.append([now, None])

    def spawn_ended(self, region, now):
        self.windows[-1][1] = now


def machine_for(program, config, awake: bool, plugins=()) -> Machine:
    obs = None
    if awake:
        obs = Observability()
        obs.subscribe(AlwaysAwake())
    return Machine(program, config, plugins=plugins, observability=obs)


def fingerprint(machine: Machine, result) -> dict:
    """Everything a finished run can be asked about."""
    return {
        "cycles": result.cycles,
        "time_ps": result.time_ps,
        "instructions": result.instructions,
        "output": result.output,
        "memory": dict(result.memory),
        "global_regs": result.global_regs,
        "counters": dict(machine.stats.counters),
        "events": machine.scheduler.events_processed,
        "sent": machine.icn.packages_sent,
        "returned": machine.icn.packages_returned,
        # who won each arbitration decides which TCU runs which thread
        "per_tcu": [(tcu.instructions_issued, list(tcu.core.regs))
                    for tcu in machine.tcus],
    }


def run_both(program, config_factory, plugins_factory=lambda: ()):
    """Fingerprints of the sleeping run and of the always-awake run."""
    prints = []
    for awake in (False, True):
        machine = machine_for(program, config_factory(), awake,
                              plugins=plugins_factory())
        result = machine.run(max_cycles=5_000_000)
        prints.append(fingerprint(machine, result))
    return prints


def assert_same(plain: dict, oracle: dict) -> None:
    for key in plain:
        if key == "counters":
            drift = {name: (plain[key].get(name), oracle[key].get(name))
                     for name in set(plain[key]) | set(oracle[key])
                     if plain[key].get(name) != oracle[key].get(name)}
            assert not drift, f"counter drift (sleeping, awake): {drift}"
        else:
            assert plain[key] == oracle[key], f"{key} differs"


def build(source, inputs=None, options=None):
    program = compile_source(source, options)
    for name, values in (inputs or {}).items():
        program.write_global(name, values)
    return program


# --------------------------------------------------------------------------- programs

KERNEL_SIZES = {
    "array_compaction": (96,), "reduction": (96,), "prefix_sum": (64,),
    "bfs": (32,), "connectivity": (24,), "matmul": (6,), "fft": (16,),
    "spmv": (32,), "list_ranking": (32,), "merge_sort": (32, 4),
}


def kernel(name: str):
    source, inputs, _expected = getattr(W, name)(*KERNEL_SIZES[name])
    options = (CompileOptions(parallel_calls=True)
               if name == "merge_sort" else None)
    return build(source, inputs, options)


#: streams three arrays per thread: with the prefetch pass on, loads hit
#: the buffer, match in-flight prefetches (pending/late hits) or miss
PREFETCH_SRC = """
int A[192]; int B[192]; int C[192]; int D[192];
int main() {
    spawn(0, 191) {
        D[$] = A[$] + B[$] * 2 + C[$];
    }
    return 0;
}
"""

#: every thread hammers one psm word and the ps base register
PS_SRC = """
int total = 0;
int SLOT[128];
psBaseReg int base = 0;
int main() {
    spawn(0, 127) {
        int inc = 1;
        ps(inc, base);
        int v = $ + 1;
        psm(v, total);
        SLOT[inc] = v;
    }
    printf("%d %d\\n", total, base);
    return 0;
}
"""

#: every thread multiplies: the TCUs of a cluster contend for its one
#: non-pipelined MDU every cycle, and the loser of one cycle's
#: arbitration must be the same TCU in both runs
MDU_SRC = """
int A[64]; int OUT[64];
int main() {
    spawn(0, 63) {
        int x = A[$] + 3;
        int y = x * x;
        int z = y * ($ + 1);
        OUT[$] = z / 3 + y % 7;
    }
    return 0;
}
"""

#: loads, non-blocking stores and an integer multiply per thread
MIXED_SRC = """
int A[128]; int B[128]; int SUM[128];
int main() {
    spawn(0, 127) {
        SUM[$] = A[$] * 3 + B[127 - $];
    }
    spawn(0, 127) {
        B[$] = SUM[$] + A[$];
    }
    return 0;
}
"""

MIXED_INPUTS = {"A": list(range(128)), "B": list(range(128, 256))}


class TestKernels:
    @pytest.mark.parametrize("config", [tiny, fpga64],
                             ids=["tiny", "fpga64"])
    @pytest.mark.parametrize("name", sorted(KERNEL_SIZES))
    def test_shipped_kernel(self, name, config):
        assert_same(*run_both(kernel(name), config))

    def test_plain_run_really_sleeps(self):
        """The comparison is not vacuous: the plain run skips ticks the
        listened-to run makes."""
        program = build(MIXED_SRC, MIXED_INPUTS)
        ticks = []
        for awake in (False, True):
            machine = machine_for(program, tiny(), awake)
            count = [0]
            for tcu in machine.tcus:
                original = tcu.tick

                def counted(cycle, original=original):
                    count[0] += 1
                    return original(cycle)
                tcu.tick = counted
            machine.run(max_cycles=1_000_000)
            ticks.append(count[0])
        assert ticks[0] * 4 < ticks[1] * 3


class TestStallShapes:
    @pytest.mark.parametrize("blocking", [True, False],
                             ids=["blocking-loads", "scoreboard"])
    @pytest.mark.parametrize("source, inputs", [
        (PREFETCH_SRC, {n: list(range(192)) for n in "ABC"}),
        (PS_SRC, {}),
        (MIXED_SRC, MIXED_INPUTS),
    ], ids=["prefetch", "ps-psm", "mixed"])
    def test_blocking_and_scoreboard_loads(self, source, inputs, blocking):
        options = CompileOptions(prefetch=True, prefetch_degree=8)
        program = build(source, inputs, options)
        plain, oracle = run_both(
            program, lambda: tiny(tcu_blocking_loads=blocking))
        assert_same(plain, oracle)
        if source is PREFETCH_SRC:
            hits = sum(plain["counters"].get(f"tcu.prefetch.{kind}", 0)
                       for kind in ("hit", "pending_hit", "late_hit"))
            assert hits > 0, "the prefetch program must exercise the buffer"

    @pytest.mark.parametrize("pipelined", [False, True],
                             ids=["mdu-serial", "mdu-pipelined"])
    def test_mdu_contention_same_winner(self, pipelined):
        program = build(MDU_SRC, {"A": list(range(64))})
        plain, oracle = run_both(
            program, lambda: tiny(mdu_pipelined=pipelined))
        assert plain["counters"]["tcu.stall.fu"] > 0
        assert_same(plain, oracle)


#: every registered backend combination (runtime-registered ones too)
BACKENDS = [
    pytest.param({"icn_backend": icn, "dram_backend": dram,
                  "cache_layout": layout}, id=f"{icn}-{dram}-{layout}")
    for icn, dram, layout in itertools.product(
        registered("icn"), registered("dram"), registered("cache_layout"))
]


class TestBackends:
    @pytest.mark.parametrize("overrides", BACKENDS)
    @pytest.mark.parametrize("workload", ["mixed", "compaction"])
    def test_backends(self, workload, overrides):
        if workload == "mixed":
            program = build(MIXED_SRC, MIXED_INPUTS)
        else:
            program = kernel("array_compaction")
        assert_same(*run_both(program, lambda: tiny(**overrides)))


class _ThrottleAndGate(ActivityPlugin):
    """Halves the clusters clock, gates it, un-gates it and restores
    it, all inside the first spawn."""

    def __init__(self):
        super().__init__(interval_cycles=15)
        self.samples = 0
        self.saw_parallel = False

    def sample(self, machine, time):
        self.samples += 1
        self.saw_parallel |= machine.parallel_active
        domain = machine.domains["clusters"]
        if self.samples == 2:
            machine.set_domain_scale("clusters", 0.5)
        elif self.samples == 4:
            domain.disable()
        elif self.samples == 6:
            domain.enable()
        elif self.samples == 8:
            machine.set_domain_scale("clusters", 1.0)


class TestDomainCycles:
    @pytest.mark.parametrize("merge", [False, True],
                             ids=["own-domains", "merged-domains"])
    def test_retimed_and_gated_clusters_domain(self, merge):
        """Skipped cycles are credited in domain cycles: a sleeper that
        spans a retiming and a gating is credited exactly the edges the
        always-awake TCU is ticked on."""
        program = build(MIXED_SRC, MIXED_INPUTS)
        plugins = []

        def make_plugins():
            plugins.append(_ThrottleAndGate())
            return [plugins[-1]]

        plain, oracle = run_both(
            program, lambda: tiny(merge_clock_domains=merge), make_plugins)
        assert all(p.samples >= 8 and p.saw_parallel for p in plugins)
        assert_same(plain, oracle)


class TestCheckpoints:
    def _spawn_cycles(self, program, config, seed: int, n: int):
        windows = SpawnWindows()
        obs = Observability()
        obs.subscribe(windows)
        Machine(program, config, observability=obs).run(max_cycles=1_000_000)
        period = config.cluster_period
        rng = random.Random(seed)
        cycles = []
        for _ in range(n):
            begin, end = rng.choice(windows.windows)
            cycles.append(rng.randrange(begin // period + 2, end // period))
        return cycles

    @pytest.mark.parametrize("seed", range(4))
    def test_mid_spawn_checkpoint_round_trips(self, seed):
        program = build(MIXED_SRC, MIXED_INPUTS)
        reference = machine_for(program, tiny(), awake=True)
        expected = fingerprint(reference, reference.run(max_cycles=1_000_000))
        for cycle in self._spawn_cycles(program, tiny(), seed, 3):
            plain = machine_for(program, tiny(), awake=False)
            payload = CP.run_with_checkpoint(plain, cycle)
            oracle = machine_for(program, tiny(), awake=True)
            assert CP.run_with_checkpoint(oracle, cycle) is not None
            assert payload is not None and plain.parallel_active
            # the snapshot's counters are the always-awake machine's at
            # that cycle, although some TCUs are asleep in it
            restored = CP.load_bytes(payload)
            assert dict(restored.stats.counters) == \
                dict(oracle.stats.counters), f"cycle {cycle}"
            # both the restored machine and the one that was
            # checkpointed finish exactly like the uninterrupted run
            for machine in (restored, plain):
                got = fingerprint(machine, machine.run(max_cycles=1_000_000))
                got["events"] = expected["events"]  # split across runs
                assert_same(got, expected)

    def test_late_listener_sees_every_stall_from_its_edge_on(self):
        """restore, then subscribe a ``stalled`` listener: the sleepers
        are settled and woken, so from that edge on the listener counts
        exactly the stall cycles ``Stats`` gains."""

        class CountStalls:
            def __init__(self):
                self.n = 0

            def stalled(self, proc, cause):
                if proc.kind == "tcu":
                    self.n += 1

        program = build(MIXED_SRC, MIXED_INPUTS)
        reference = machine_for(program, tiny(), awake=True)
        expected = fingerprint(reference, reference.run(max_cycles=1_000_000))
        cycle = self._spawn_cycles(program, tiny(), 7, 1)[0]
        plain = machine_for(program, tiny(), awake=False)
        restored = CP.load_bytes(CP.run_with_checkpoint(plain, cycle))
        assert any(tcu.asleep_on is not None for tcu in restored.tcus)

        def tcu_stalls(machine):
            return sum(value for key, value in machine.stats.counters.items()
                       if key.startswith("tcu.stall."))

        before = tcu_stalls(restored)
        listener = CountStalls()
        obs = Observability()
        obs.subscribe(listener)
        restored.obs = obs
        obs.attach(restored)
        got = fingerprint(restored, restored.run(max_cycles=1_000_000))
        assert listener.n == tcu_stalls(restored) - before
        got["events"] = expected["events"]
        assert_same(got, expected)


# at cycle 38 of this program on tiny(), several load responses are in
# flight on the return network: dropping one hangs a TCU forever
DROP_ASM = """
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


class TestDiagnostics:
    def _hang(self, awake: bool):
        machine = machine_for(
            assemble(DROP_ASM), tiny(watchdog_cycles=500), awake,
            plugins=[FaultInjector([FaultSpec("icn.drop", 38, seed=1)])])
        with pytest.raises(SimulationStalled, match="deadlock") as info:
            machine.run(max_cycles=100_000)
        return machine, info.value

    def test_dropped_reply_trips_the_watchdog_identically(self):
        (plain, plain_exc), (oracle, oracle_exc) = \
            self._hang(False), self._hang(True)
        assert str(plain_exc).splitlines()[0] == \
            str(oracle_exc).splitlines()[0]
        dump, oracle_dump = plain_exc.dump, oracle_exc.dump
        assert dump.stalls == oracle_dump.stalls
        assert dump.stalls["tcu.stall.memory"] > 400
        assert dict(plain.stats.counters) == dict(oracle.stats.counters)
        assert (dump.cycles, dump.instructions, dump.icn, dump.caches) == \
            (oracle_dump.cycles, oracle_dump.instructions,
             oracle_dump.icn, oracle_dump.caches)

    def test_dump_names_what_sleepers_wait_on(self):
        _machine, exc = self._hang(False)
        hung = [proc for proc in exc.dump.processors
                if proc.get("asleep_on") == "memory"]
        assert len(hung) == 1 and hung[0]["wait_load"]
        text = exc.dump.format()
        assert "0 awake, 1 asleep on memory" in text
        assert "asleep_on=memory" in text
        assert "stall cycles:" in text and "tcu.stall.memory=" in text

    def test_timed_out_run_is_settled(self):
        """``allow_timeout`` ends a run with TCUs still asleep; the
        result's counters must include the cycles they slept through."""
        program = build(MIXED_SRC, MIXED_INPUTS)
        prints = []
        for awake in (False, True):
            machine = machine_for(program, tiny(), awake)
            result = machine.run(max_cycles=90, allow_timeout=True)
            assert machine.parallel_active and not machine.halted
            prints.append(fingerprint(machine, result))
        assert_same(*prints)
