"""Skipping idle components and idle time against always-ticking oracles.

A processor (TCU or Master) that can only repeat the same stall until a
delivery arrives is not ticked and is credited the skipped cycles when
it wakes; a cluster with nobody awake is skipped, the ICN visits only
ports that hold a package, and a clock domain whose components all wait
books its next edge at the earliest time one of them can do anything
(``next_work``), accounting for the skipped edges when somebody looks.
None of that may move a single counter.  The oracles need no switch
under ``src/`` -- nothing there asks who is listening before it sleeps
-- so the machine that never does is built here:

- :func:`never_asleep` -- every processor becomes a subclass whose
  ``asleep_on`` cannot be set, so whatever its tick says it stays on
  the tick list (a parked TCU included), and :class:`NoRuns`, a
  consumer that hears ``issued`` and does nothing, keeps it on the
  one-instruction path (DESIGN 1.2 invariant 4);
- :class:`EveryEdge` -- a component with nothing to do whose
  ``next_work`` always answers "the next edge", added to every domain,
  makes every domain tick on every edge.

Both together are the machine as it was before any skipping.  Every
test below runs a program plain, with every edge ticked, and as it was,
and requires them to agree on everything a run can be asked about.
(``tests/test_observed_sleep.py`` does the same with every consumer
subscribed: what listeners hear must not depend on who slept.)

The three runs of a shipped kernel agree with each other; that they
also agree with the last engine is ``tests/golden/cycles.json``, the
plain run's cycle count, instruction count and output hash for every
kernel of ``KERNEL_SIZES`` on ``tiny`` and ``fpga64``, and for the four
Table I microbenchmarks at their ``xmt_bench`` sizes on the whole
``chip1024`` (``TABLE1_AT_SCALE``) -- plus, per program, a
``functional`` row (:func:`functional_row`: instructions, per-mnemonic
counts, output and memory hashes of a ``FunctionalSimulator`` run), the
cross-commit pin of the translated functional engine.  Regenerate (only
when the timing model is meant to change)::

    PYTHONPATH=src python tests/test_sleep_wake.py
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random

import pytest

from conftest import LoseReply
from repro.isa.assembler import assemble
from repro.sim import checkpoint as CP
from repro.sim.config import chip1024, fpga64, tiny
from repro.sim.functional import FunctionalSimulator
from repro.sim.fabric import registered
from repro.sim.machine import Machine
from repro.sim.mtcu import MasterTCU
from repro.sim.observability import Observability
from repro.sim.plugins import ActivityPlugin
from repro.sim.resilience import SimulationStalled
from repro.sim.tcu import RUN_KEY, TCU
from repro.workloads import microbench as MB
from repro.workloads import programs as W
from repro.xmtc.compiler import CompileOptions, compile_source


class NoRuns:
    """Hearing ``issued`` keeps every processor out of runs."""

    def issued(self, proc, uop):
        pass


class _NeverAsleep:
    asleep_on = property(lambda self: None, lambda self, key: None)


class AwakeTCU(_NeverAsleep, TCU):
    pass


class AwakeMaster(_NeverAsleep, MasterTCU):
    pass


def never_asleep(machine: Machine) -> Machine:
    """Every processor of ``machine`` is ticked on every edge its
    cluster is (``machine.obs`` must keep it out of runs)."""
    assert not machine.runs_ok
    machine.master.__class__ = AwakeMaster
    for tcu in machine.tcus:
        tcu.__class__ = AwakeTCU
    return machine


class EveryEdge:
    """In a domain, makes it tick on every edge."""

    def tick(self, cycle):
        pass

    def next_work(self, now):
        return now


def tick_every_edge(machine: Machine) -> Machine:
    for domain in set(machine.domains.values()):
        domain.add(EveryEdge())
    return machine


#: how a machine is built: plain; every domain ticking on every edge;
#: that, with every processor awake as well -- the machine as it was
PLAIN, EVERY_EDGE, AS_IT_WAS = "plain", "every-edge", "as-it-was"


class SpawnWindows:
    """Records ``(begin, end)`` picoseconds of every spawn."""

    def __init__(self):
        self.windows = []

    def spawn_began(self, region, now, n_threads):
        self.windows.append([now, None])

    def spawn_ended(self, region, now):
        self.windows[-1][1] = now


def machine_for(program, config, awake, plugins=()) -> Machine:
    """``awake``: one of the three kinds above (True: as it was)."""
    kind = {False: PLAIN, True: AS_IT_WAS}.get(awake, awake)
    obs = None
    if kind == AS_IT_WAS:
        obs = Observability()
        obs.subscribe(NoRuns())
    machine = Machine(program, config, plugins=plugins, observability=obs)
    if kind == AS_IT_WAS:
        never_asleep(machine)
    return machine if kind == PLAIN else tick_every_edge(machine)


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
        # skipped edges are accounted for: every domain reads the edge
        # count of one that ticked on all of them
        "domain_cycles": {name: domain.cycle
                          for name, domain in machine.domains.items()},
        "sent": machine.icn.packages_sent,
        "returned": machine.icn.packages_returned,
        # who won each arbitration decides which TCU runs which thread
        "per_tcu": [(tcu.instructions_issued, list(tcu.core.regs))
                    for tcu in machine.tcus],
    }


def run_both(program, config_factory, plugins_factory=lambda: ()):
    """Fingerprints of the plain run and of the two oracle runs."""
    prints = []
    for kind in (PLAIN, EVERY_EDGE, AS_IT_WAS):
        machine = machine_for(program, config_factory(), kind,
                              plugins=plugins_factory())
        result = machine.run(max_cycles=5_000_000)
        prints.append(fingerprint(machine, result))
    return prints


def assert_same(plain: dict, *oracles: dict) -> None:
    for oracle in oracles:
        for key in plain:
            if key == "counters":
                drift = {name: (plain[key].get(name), oracle[key].get(name))
                         for name in set(plain[key]) | set(oracle[key])
                         if plain[key].get(name) != oracle[key].get(name)}
                assert not drift, f"counter drift (plain, oracle): {drift}"
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


GOLDEN_CYCLES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "golden", "cycles.json")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def golden_row(print_: dict) -> dict:
    """What ``cycles.json`` keeps of a run's fingerprint."""
    return {"cycles": print_["cycles"],
            "instructions": print_["instructions"],
            "output_sha256": _sha256(print_["output"])}


def functional_row(program) -> dict:
    """What ``cycles.json`` keeps of a functional-mode run."""
    result = FunctionalSimulator(program).run()
    return {"instructions": result.instructions,
            "instruction_counts": result.instruction_counts,
            "output_sha256": _sha256(result.output),
            "memory_sha256": _sha256(json.dumps(sorted(
                result.memory.items())))}


class TestKernels:
    @pytest.mark.parametrize("name", sorted(KERNEL_SIZES))
    def test_functional_run_lands_on_the_golden(self, name):
        with open(GOLDEN_CYCLES) as fh:
            golden = json.load(fh)
        assert functional_row(kernel(name)) == golden[name]["functional"]

    @pytest.mark.parametrize("config", [tiny, fpga64],
                             ids=["tiny", "fpga64"])
    @pytest.mark.parametrize("name", sorted(KERNEL_SIZES))
    def test_shipped_kernel(self, name, config):
        plain, *oracles = run_both(kernel(name), config)
        assert_same(plain, *oracles)
        with open(GOLDEN_CYCLES) as fh:
            golden = json.load(fh)
        assert golden_row(plain) == golden[name][config.__name__]

    def test_plain_run_really_sleeps(self):
        """The comparison is not vacuous: the plain run skips ticks the
        machine as it was makes."""
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


#: the paper's Table I grid, on a chip1024 cut down to 8 x 4 TCUs
MICROBENCHMARKS = {
    "serial_memory": lambda: MB.serial_memory(60, array_words=512),
    "serial_compute": lambda: MB.serial_compute(150),
    "parallel_memory": lambda: MB.parallel_memory(64, 3, array_words=1024),
    "parallel_compute": lambda: MB.parallel_compute(64, 6),
}


def small_chip1024(**overrides):
    return chip1024(n_clusters=8, tcus_per_cluster=4, n_cache_modules=16,
                    n_dram_ports=2, **overrides)


def _bench_data(words: int):
    """``benchmarks/xmt_bench``'s seed-0 ``DATA`` array."""
    rng = random.Random(1000)
    return [rng.randrange(0, 1000) for _ in range(words)]


#: Table I at the scale of the speed claims: the sizes and seed-0 inputs
#: ``benchmarks/xmt_bench`` runs on the whole ``chip1024()``
TABLE1_AT_SCALE = {
    "parallel_memory": lambda: (
        MB.parallel_memory(1024, 12, array_words=16384)[0],
        {"DATA": _bench_data(16384)}),
    "parallel_compute": lambda: MB.parallel_compute(2048, 36),
    "serial_memory": lambda: (MB.serial_memory(1000, 4096)[0],
                              {"DATA": _bench_data(4096)}),
    "serial_compute": lambda: MB.serial_compute(3800),
}


def table1_at_scale(name: str) -> dict:
    """The golden row of one plain ``chip1024`` run."""
    machine = machine_for(build(*TABLE1_AT_SCALE[name]()), chip1024(), PLAIN)
    return golden_row(fingerprint(machine, machine.run(max_cycles=5_000_000)))


class TestMicrobenchmarks:
    @pytest.mark.parametrize("name", sorted(TABLE1_AT_SCALE))
    def test_table1_at_scale_lands_on_the_golden(self, name):
        """Exactness where the host-time claims are made: the plain
        machine on all 1024 TCUs (no oracle run: minutes, as it was)."""
        with open(GOLDEN_CYCLES) as fh:
            golden = json.load(fh)
        assert table1_at_scale(name) == golden[name]["chip1024"]

    @pytest.mark.parametrize("name", sorted(TABLE1_AT_SCALE))
    def test_table1_functional_run_lands_on_the_golden(self, name):
        with open(GOLDEN_CYCLES) as fh:
            golden = json.load(fh)
        assert functional_row(build(*TABLE1_AT_SCALE[name]())) == \
            golden[name]["functional"]

    @pytest.mark.parametrize("name", sorted(MICROBENCHMARKS))
    def test_table1_on_cut_down_chip1024(self, name):
        source, inputs = MICROBENCHMARKS[name]()
        inputs = dict(inputs, **({"DATA": list(range(7, 7 + 1024))[:512]}
                                 if name == "serial_memory" else {}))
        assert_same(*run_both(build(source, inputs), small_chip1024))

    @pytest.mark.parametrize("name, bound", [("serial_memory", 0.35),
                                             ("serial_compute", 0.2)])
    def test_serial_sections_really_skip_time(self, name, bound):
        """The comparison is not vacuous: with only the Master working,
        the plain run takes a fraction of an event per simulated cycle
        (its runs and sleeps, and the domains that sleep with it) where
        ticking every edge takes 4/3 -- one per clusters edge, one per
        DRAM edge at a third of the rate."""
        program = build(*MICROBENCHMARKS[name]())
        per_cycle = {}
        for kind in (PLAIN, EVERY_EDGE):
            machine = machine_for(program, small_chip1024(), kind)
            cycles = machine.run(max_cycles=1_000_000).cycles
            per_cycle[kind] = machine.scheduler.events_processed / cycles
        assert per_cycle[PLAIN] <= bound
        assert per_cycle[EVERY_EDGE] > 1.3


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
        plain, *oracles = run_both(
            program, lambda: tiny(tcu_blocking_loads=blocking))
        assert_same(plain, *oracles)
        if source is PREFETCH_SRC:
            hits = sum(plain["counters"].get(f"tcu.prefetch.{kind}", 0)
                       for kind in ("hit", "pending_hit", "late_hit"))
            assert hits > 0, "the prefetch program must exercise the buffer"

    @pytest.mark.parametrize("pipelined", [False, True],
                             ids=["mdu-serial", "mdu-pipelined"])
    def test_mdu_contention_same_winner(self, pipelined):
        program = build(MDU_SRC, {"A": list(range(64))})
        plain, *oracles = run_both(
            program, lambda: tiny(mdu_pipelined=pipelined))
        assert plain["counters"]["tcu.stall.fu"] > 0
        assert_same(plain, *oracles)


# --------------------------------------------------------------------------- shared FUs

#: one shared-unit op per thread, on operands every TCU has at the same
#: cycle: the k TCUs of the one cluster reach the unit together
FU_ONCE = {
    "mdu": "int B[%d]; int main() { spawn(0, %d) { B[$] = $ * 7; } "
           "return 0; }",
    "fpu": "float F[%d]; float X = 1.5; int main() { float x = X; "
           "spawn(0, %d) { F[$] = x * x; } return 0; }",
}

FU_SLEEP = "tcu.stall.fu"


def fu_loss_ticks(machine: Machine) -> list:
    """``[n]``: how many TCU ticks of ``machine`` lost an arbitration
    (bumped ``tcu.stall.fu`` themselves, not by settling a sleep)."""
    counters = machine.stats.counters
    lost = [0]
    for tcu in machine.tcus:
        def counted(cycle, original=tcu.tick):
            before = counters[FU_SLEEP]
            key = original(cycle)
            lost[0] += counters[FU_SLEEP] - before
            return key
        tcu.tick = counted
    return lost


def asleep_on_fu(machine: Machine) -> bool:
    return any(tcu.asleep_on == FU_SLEEP for tcu in machine.tcus)


class TestSharedFuClosedForm:
    """k TCUs reach one shared unit on the same cycle; they are served
    in ``local_id`` order, the j-th after j waits of L cycles (the
    unit's latency) on a non-pipelined unit, of one on a pipelined one.
    So ``tcu.stall.fu`` is L k(k-1)/2, or k(k-1)/2.  A loser of a busy
    non-pipelined unit sleeps in the unit's queue, and only its head is
    woken at a release, where it wins: k-1 ticks lose, all on the first
    cycle.  On a pipelined unit every loser stays awake and k(k-1)/2
    ticks lose."""

    @pytest.mark.parametrize("pipelined", [False, True],
                             ids=["serial", "pipelined"])
    @pytest.mark.parametrize("latency", [3, 8])
    @pytest.mark.parametrize("k", [2, 4])
    @pytest.mark.parametrize("unit", sorted(FU_ONCE))
    def test_k_tcus_one_unit(self, unit, k, latency, pipelined):
        program = build(FU_ONCE[unit] % (k, k - 1))

        def config():
            return tiny(n_clusters=1, tcus_per_cluster=k,
                        **{f"{unit}_latency": latency,
                           f"{unit}_pipelined": pipelined})
        plain, *oracles = run_both(program, config)
        assert_same(plain, *oracles)
        pairs = k * (k - 1) // 2
        counters = plain["counters"]
        assert counters[FU_SLEEP] == (pairs if pipelined else latency * pairs)
        assert counters[f"cluster.{unit}_ops"] == k
        machine = machine_for(program, config(), PLAIN)
        lost = fu_loss_ticks(machine)
        machine.run(max_cycles=100_000)
        assert lost[0] == (pairs if pipelined else k - 1)


#: per thread a load in flight (scoreboard loads) while the TCU queues
#: for the MDU behind three others: replies land on FU sleepers
FU_LOAD_ASM = """
    .data
A:  .space 256
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
    lw   $t4, 0($t2)
    mul  $t5, $k0, $k0
    mul  $t6, $t5, $k0
    add  $t4, $t4, $t6
    sw   $t4, 0($t2)
    j    vt
    join
    halt
"""


def fu_load_program():
    program = assemble(FU_LOAD_ASM)
    program.write_global("A", list(range(11, 75)))
    return program


def slow_mdu(**overrides):
    return tiny(tcus_per_cluster=4, mdu_latency=10, tcu_blocking_loads=False,
                **overrides)


class TestFuSleep:
    """What can land while a loser of the MDU sleeps until it frees."""

    def test_load_reply_delivered_mid_sleep(self):
        prints, landed = [], [0]
        for kind in (PLAIN, EVERY_EDGE, AS_IT_WAS):
            machine = machine_for(fu_load_program(), slow_mdu(), kind)
            if kind == PLAIN:
                for tcu in machine.tcus:
                    def deliver(time, item, tcu=tcu, original=tcu.deliver):
                        landed[0] += (not isinstance(item, tuple)
                                      and tcu.asleep_on == FU_SLEEP)
                        original(time, item)
                    tcu.deliver = deliver
            prints.append(fingerprint(machine,
                                      machine.run(max_cycles=100_000)))
        assert landed[0] > 0
        assert_same(*prints)

    def test_checkpoint_round_trips(self):
        program = fu_load_program()
        reference = machine_for(program, slow_mdu(), AS_IT_WAS)
        expected = fingerprint(reference, reference.run(max_cycles=100_000))
        for cycle in cycles_where(program, slow_mdu, asleep_on_fu):
            plain, payload = paused_at(program, slow_mdu(), PLAIN, cycle)
            oracle, _ = paused_at(program, slow_mdu(), AS_IT_WAS, cycle)
            restored = CP.load_bytes(payload)
            assert asleep_on_fu(restored)
            assert [t.asleep_on for t in restored.tcus] == \
                [t.asleep_on for t in plain.tcus]
            assert dict(restored.stats.counters) == \
                dict(oracle.stats.counters), f"cycle {cycle}"
            for machine in (restored, plain):
                assert_same(fingerprint(machine,
                                        machine.run(max_cycles=100_000)),
                            expected)


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


class TestUnequalPeriods:
    """Every domain on its own grid: a hand-off between two domains
    lands on the first edge of the consumer that an always-ticking
    consumer would have seen it on -- same time, same turn within the
    timestamp -- whichever of the two is faster."""

    PERIODS = dict(cluster_period=1000, icn_period=1000, cache_period=1300,
                   dram_period=2900)

    @pytest.mark.parametrize("merge", [False, True],
                             ids=["own-domains", "merged-domains"])
    @pytest.mark.parametrize("dram", registered("dram"))
    @pytest.mark.parametrize("icn", registered("icn"))
    def test_backends(self, icn, dram, merge):
        program = build(MIXED_SRC, MIXED_INPUTS)
        assert_same(*run_both(program, lambda: tiny(
            icn_backend=icn, dram_backend=dram, merge_clock_domains=merge,
            **self.PERIODS)))

    @pytest.mark.parametrize("periods", [
        dict(icn_period=700, cache_period=1300, dram_period=2900),
        dict(icn_period=1700, cache_period=600, dram_period=1100),
    ], ids=["fast-icn", "fast-cache"])
    @pytest.mark.parametrize("name", ["merge_sort", "spmv", "bfs"])
    def test_kernels(self, name, periods):
        assert_same(*run_both(kernel(name), lambda: tiny(
            merge_clock_domains=False, **periods)))


class _ThrottleAndGate(ActivityPlugin):
    """Halves the clusters clock, gates it, un-gates it and restores
    it, all inside the first spawn, and notes the samples that found a
    TCU asleep on a busy shared FU."""

    def __init__(self):
        super().__init__(interval_cycles=15)
        self.samples = 0
        self.saw_parallel = False
        self.mid_fu_sleep = set()

    def sample(self, machine, time):
        self.samples += 1
        self.saw_parallel |= machine.parallel_active
        if asleep_on_fu(machine):
            self.mid_fu_sleep.add(self.samples)
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

        plain, *oracles = run_both(
            program, lambda: tiny(merge_clock_domains=merge), make_plugins)
        assert all(p.samples >= 8 and p.saw_parallel for p in plugins)
        assert_same(plain, *oracles)

    @pytest.mark.parametrize("merge", [False, True],
                             ids=["own-domains", "merged-domains"])
    def test_fu_sleepers_retimed_and_gated(self, merge):
        """The same for a loser of a busy MDU, asleep until a release
        time booked in picoseconds: every retiming, gating and
        un-gating lands on one."""
        plugins = []

        def make_plugins():
            plugins.append(_ThrottleAndGate())
            return [plugins[-1]]

        assert_same(*run_both(fu_load_program(),
                              lambda: slow_mdu(merge_clock_domains=merge),
                              make_plugins))
        assert {2, 4, 6, 8} <= plugins[0].mid_fu_sleep


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
                assert_same(got, expected)

    def test_late_listener_sees_every_stall_from_its_edge_on(self):
        """restore, then subscribe a ``stalled`` listener: the snapshot
        is settled and the sleepers in it sleep on, so from there the
        listener's spans add up to exactly the stall cycles ``Stats``
        gains."""

        class CountStalls:
            def __init__(self):
                self.n = 0

            def stalled(self, proc, cause, first, last):
                if proc.kind == "tcu":
                    self.n += last - first + 1

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
        assert_same(got, expected)


# --------------------------------------------------------------------------- skipped time

#: serial and memory-bound: the Master sleeps through every miss and
#: takes the ALU work in between as runs; every domain sleeps with it
SERIAL_SRC = """
int DATA[512]; int OUT[2];
int main() {
    int idx = 3; int acc = 1;
    for (int k = 0; k < 20; k++) {
        int v = DATA[idx];
        acc = (acc << 1) + v;
        acc = acc ^ (acc >> 3);
        acc = acc + k - 7;
        acc = acc | (v << 2);
        DATA[idx] = acc;
        idx = idx + 97;
        if (idx >= 512) idx = idx - 512;
    }
    OUT[0] = acc;
    return 0;
}
"""


def serial_program():
    return build(SERIAL_SRC, {"DATA": list(range(5, 517))})


def slow_dram(**overrides):
    """80 clusters cycles from a DRAM accept to its data."""
    return tiny(dram_latency=40, **overrides)


def skipping(machine: Machine, name: str = "clusters") -> bool:
    """Is domain ``name`` inside a skipped stretch right now?"""
    domain = machine.domains[name]
    return (domain.booked is None
            or domain.booked > machine.scheduler.now + 2 * domain.period)


def paused_at(program, config, kind, cycle: int):
    """A machine run up to ``cycle`` and paused there, with the
    checkpoint taken at the pause."""
    machine = machine_for(program, config, kind)
    payload = CP.run_with_checkpoint(machine, cycle)
    assert payload is not None, f"halted before cycle {cycle}"
    return machine, payload


def cycles_where(program, config_factory, predicate, n: int = 2):
    """The first ``n`` cycles (a few apart) at which the plain machine,
    paused, satisfies ``predicate``."""
    found = []
    for cycle in range(10, 2000, 3):
        machine, _ = paused_at(program, config_factory(), PLAIN, cycle)
        if predicate(machine):
            found.append(cycle)
            if len(found) == n:
                return found
    raise AssertionError("the program never gets there")


def master_sleeps_on_memory(machine: Machine) -> bool:
    return (machine.master.asleep_on == "master.stall.memory"
            and skipping(machine))


def master_inside_a_run(machine: Machine) -> bool:
    """Strictly inside: some ops of the chain executed, some left."""
    master = machine.master
    return (master.asleep_on == RUN_KEY
            and 0 < master.run_left < master.run_end - master.slept_at)


class _RetimeAndGateEverything(ActivityPlugin):
    """Walks the clusters and the DRAM domain through a retiming, a
    gating and back, by sample number (the same simulated instants in
    every machine), and notes which landed in a skipped stretch."""

    SCRIPT = {5: ("clusters", "scale", 0.5), 8: ("clusters", "gate", None),
              11: ("clusters", "ungate", None), 15: ("clusters", "scale", 1.0),
              18: ("dram", "scale", 0.4), 22: ("dram", "gate", None),
              26: ("dram", "ungate", None), 30: ("dram", "scale", 1.0),
              33: ("clusters", "scale", 1.7), 40: ("clusters", "scale", 1.0)}

    def __init__(self):
        super().__init__(interval_cycles=9)
        self.samples = 0
        self.in_a_skip = set()

    def sample(self, machine, time):
        self.samples += 1
        name, action, scale = self.SCRIPT.get(self.samples, (None,) * 3)
        if name is None:
            return
        if skipping(machine, name):
            self.in_a_skip.add(action)
        if action == "scale":
            machine.set_domain_scale(name, scale)
        elif action == "gate":
            machine.domains[name].disable()
        else:
            machine.domains[name].enable()


class TestSkippedTime:
    """Next-event advance: what happens *inside* a stretch of edges the
    domain never ticks must come out as if it had ticked them all."""

    @pytest.mark.parametrize("merge", [False, True],
                             ids=["own-domains", "merged-domains"])
    def test_retime_and_gate_land_inside_a_skipped_stretch(self, merge):
        plugins = []

        def make_plugins():
            plugins.append(_RetimeAndGateEverything())
            return [plugins[-1]]

        assert_same(*run_both(
            serial_program(),
            lambda: slow_dram(merge_clock_domains=merge), make_plugins))
        assert all(p.samples >= 40 for p in plugins)
        # plain run: the script hit skipped stretches, not busy ones
        # (a gated domain is unbooked in every machine)
        assert plugins[0].in_a_skip == {"scale", "gate", "ungate"}
        assert plugins[1].in_a_skip == plugins[2].in_a_skip == {"ungate"}

    @pytest.mark.parametrize("where", [master_sleeps_on_memory,
                                       master_inside_a_run],
                             ids=["master-sleep", "master-run"])
    def test_checkpoint_round_trips(self, where):
        program = serial_program()
        reference = machine_for(program, slow_dram(), AS_IT_WAS)
        expected = fingerprint(reference, reference.run(max_cycles=100_000))
        for cycle in cycles_where(program, slow_dram, where):
            plain, payload = paused_at(program, slow_dram(), PLAIN, cycle)
            oracle, _ = paused_at(program, slow_dram(), AS_IT_WAS, cycle)
            restored = CP.load_bytes(payload)
            # the sleep rides the checkpoint
            assert restored.master.asleep_on == plain.master.asleep_on
            # the snapshot is settled: counters, registers and edge
            # counts are the always-ticking machine's at that cycle
            assert dict(restored.stats.counters) == \
                dict(oracle.stats.counters), f"cycle {cycle}"
            assert restored.master.core.regs == oracle.master.core.regs
            assert {n: d.cycle for n, d in restored.domains.items()} == \
                {n: d.cycle for n, d in oracle.domains.items()}
            for machine in (restored, plain):
                assert_same(fingerprint(machine,
                                        machine.run(max_cycles=100_000)),
                            expected)

    def test_lost_reply_stalls_at_the_same_time(self):
        """A reply lost while everything sleeps: nothing is booked any
        more, and the watchdog -- not a domain -- finds the hang, at the
        window the always-ticking machine finds it at."""
        program = serial_program()
        cycle = cycles_where(
            program, lambda: slow_dram(watchdog_cycles=700),
            lambda m: (m.master.asleep_on is not None
                       and bool(m.icn._to_cluster)), n=1)[0]
        dumps = []
        for kind in (PLAIN, EVERY_EDGE, AS_IT_WAS):
            machine = machine_for(
                program, slow_dram(watchdog_cycles=700), kind,
                plugins=[LoseReply(cycle)])
            with pytest.raises(SimulationStalled, match="deadlock") as info:
                machine.run(max_cycles=100_000)
            dumps.append((str(info.value).splitlines()[0], info.value.dump))
        (message, dump), *others = dumps
        for other_message, other in others:
            assert other_message == message
            assert (other.time_ps, other.stalls, other.instructions) == \
                (dump.time_ps, dump.stalls, dump.instructions)
            assert {n: d["cycle"] for n, d in other.domains.items()} == \
                {n: d["cycle"] for n, d in dump.domains.items()}
        # the skipping machine's dump says who waits for what
        assert all(d["booked"] is None for d in dump.domains.values())
        assert dump.processors[0]["asleep_on"] == "memory"
        text = dump.format()
        assert [line for line in text.splitlines()
                if line.startswith("master:") and "asleep_on=memory" in line]
        assert "clusters cycle 1401 next edge unbooked" in text

    @pytest.mark.parametrize("probe", ["stalled", "issued"])
    def test_listener_subscribing_mid_sleep(self, probe):
        """A listener that turns up while the Master (and every domain)
        sleeps, or runs, hears everything from there on: the rest of
        the sleep as one span, the rest of the block one by one."""

        class Count:
            n = 0

        def stalled(self, proc, cause, first, last):
            Count.n += (proc.kind == "master") * (last - first + 1)

        def issued(self, proc, uop):
            Count.n += proc.kind == "master"
        listener = type("Listener", (), {
            probe: {"stalled": stalled, "issued": issued}[probe]})()

        program = serial_program()
        reference = machine_for(program, slow_dram(), AS_IT_WAS)
        expected = fingerprint(reference, reference.run(max_cycles=100_000))
        where = (master_sleeps_on_memory if probe == "stalled"
                 else master_inside_a_run)
        cycle = cycles_where(program, slow_dram, where, n=1)[0]
        machine, _ = paused_at(program, slow_dram(), PLAIN, cycle)

        def heard_by_stats():
            if probe == "issued":
                return machine.master.instructions_issued
            return sum(v for k, v in machine.stats.counters.items()
                       if k.startswith("master.stall."))

        machine.settle()
        before = heard_by_stats()
        obs = Observability()
        obs.subscribe(listener)
        machine.obs = obs
        obs.attach(machine)
        got = fingerprint(machine, machine.run(max_cycles=100_000))
        assert Count.n == heard_by_stats() - before > 0
        assert_same(got, expected)


# --------------------------------------------------------------------------- arithmetic

#: one load that misses everywhere, its use, and nothing else
ONE_MISS_ASM = """
    .data
X:  .word 41
    .text
main:
    la   $s7, X
    lw   $t0, 0($s7)
    addi $t1, $t0, 1
    halt
"""


class Hops:
    """When the one package passed each port boundary (no ``issued``:
    the machine under it takes runs as a plain one does)."""

    def __init__(self):
        self.at = {}

    def send_enqueued(self, pkg, now, depth):
        self.at["send"] = now

    def icn_injected(self, pkg, now, arrival, depth):
        self.at["inject"] = now
        self.module = pkg.module

    def cache_dequeued(self, module, pkg, now, outcome):
        self.at["cache"] = now
        self.outcome = outcome

    def dram_accepted(self, port, module, line, now, ready, writeback):
        self.at["accept"] = now

    def dram_filled(self, module, line, now, waiters):
        self.at["fill"] = now

    def response_enqueued(self, pkg, now, depth):
        self.at["response"] = now

    def icn_returned(self, pkg, now, arrival, depth):
        self.at["return"] = now

    def replied(self, pkg, now):
        self.at["reply"] = now


def edge_at(time: int, period: int) -> int:
    """The first edge of a ``period`` clock at or after ``time``."""
    return -(-time // period) * period


def edge_after(time: int, period: int) -> int:
    return edge_at(time + 1, period)


class TestClosedForm:
    """One uncontended Master load miss, hop by hop, against arithmetic
    on the configuration -- backend timing held to the model's stated
    laws, not to another run of the same code."""

    @staticmethod
    def traversals(cfg, module: int):
        """(send, return) traversal times of a Master package."""
        if cfg.icn_backend == "mot":       # log depth out, log depth in
            depth = ((cfg.n_clusters - 1).bit_length()
                     + (cfg.n_cache_modules - 1).bit_length())
            return depth * cfg.icn_period, depth * cfg.icn_period
        if cfg.icn_backend == "crossbar":  # one stage
            return cfg.icn_period, cfg.icn_period
        # ring: master, clusters, modules, one hop per stop, one way round
        stops = 1 + cfg.n_clusters + cfg.n_cache_modules
        out = 1 + cfg.n_clusters + module
        return out * cfg.icn_period, (stops - out) * cfg.icn_period

    @pytest.mark.parametrize("periods", [
        {}, dict(icn_period=700, cache_period=1300, dram_period=2900,
                 merge_clock_domains=False)], ids=["tiny", "unequal"])
    @pytest.mark.parametrize("dram", ["simple", "banked"])
    @pytest.mark.parametrize("icn", ["mot", "crossbar", "ring"])
    def test_one_master_load_miss(self, icn, dram, periods):
        cfg = tiny(icn_backend=icn, dram_backend=dram, **periods)
        hops = Hops()
        obs = Observability()
        obs.subscribe(hops)
        machine = Machine(assemble(ONE_MISS_ASM), cfg, observability=obs)
        result = machine.run(max_cycles=10_000)
        assert hops.outcome == "miss" and machine.master.core.regs[9] == 42
        out, back = self.traversals(cfg, hops.module)
        at = {"send": hops.at["send"]}  # where the arithmetic starts
        # a port hands over on the consumer's first edge *after* the
        # push; a traversal ends on the first ICN edge at or after it
        at["inject"] = edge_after(at["send"], cfg.icn_period)
        arrival = edge_at(at["inject"] + out, cfg.icn_period)
        at["cache"] = edge_after(arrival, cfg.cache_period)
        # DRAM's turn in a timestamp is after the cache's: same instant
        at["accept"] = edge_at(at["cache"], cfg.dram_period)
        at["fill"] = at["accept"] + cfg.dram_latency * cfg.dram_period
        at["response"] = edge_at(
            at["fill"] + cfg.cache_hit_latency * cfg.cache_period,
            cfg.cache_period)
        at["return"] = edge_after(at["response"], cfg.icn_period)
        at["reply"] = edge_at(at["return"] + back, cfg.icn_period)
        assert hops.at == at
        # the Master's turn is before the ICN's: it reads the reply and
        # issues the use on its next edge, and halts on the one after
        use = edge_after(at["reply"], cfg.cluster_period)
        assert result.time_ps == use + cfg.cluster_period
        # ... having slept from the scoreboard stall to the reply
        first_stall = at["send"] // cfg.cluster_period + 1
        assert result.stats.get("master.stall.memory") == \
            use // cfg.cluster_period - first_stall


# at cycle 38 of this program on tiny(), several load responses are in
# flight on the return network: losing one hangs a TCU forever
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
            plugins=[LoseReply(38)])
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


if __name__ == "__main__":
    rows = {}
    for kernel_name in sorted(KERNEL_SIZES):
        rows[kernel_name] = {"functional": functional_row(kernel(kernel_name))}
        for config in (tiny, fpga64):
            machine = machine_for(kernel(kernel_name), config(), PLAIN)
            result = machine.run(max_cycles=5_000_000)
            rows[kernel_name][config.__name__] = golden_row(
                fingerprint(machine, result))
    for name in sorted(TABLE1_AT_SCALE):
        rows[name] = {"chip1024": table1_at_scale(name), "functional":
                      functional_row(build(*TABLE1_AT_SCALE[name]()))}
    with open(GOLDEN_CYCLES, "w") as fh:
        fh.write(json.dumps(rows, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_CYCLES}")
