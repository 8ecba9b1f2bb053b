"""Basic-block superops against the one-instruction machine.

A straight-line run of private-ALU micro-ops is compiled into one
generated function; in cycle mode a TCU *inside a run* leaves its
cluster's tick list for as many domain cycles as the block has ops and
is *settled* -- the ops it has issued by then executed and credited --
whenever anything looks at it.  None of that may move a register, a
counter or a cycle.

Three oracles, none needing a switch: (a) stepping the same micro-ops
through ``u.fn`` + ``CoreState.write`` (the functional handlers);
(b) the machine as it was of ``test_sleep_wake.py`` -- a no-op
``issued`` listener keeps every TCU on the one-instruction path (and,
built on the test side, no processor ever leaves the tick list);
(c) a functional run with an ``on_instruction`` callback, which takes
no blocks either.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa import semantics as S
from repro.isa.assembler import assemble, register_instruction
from repro.isa.decode import (
    OP_BRANCH,
    _compile_block,
    decode_program,
)
from repro.sim import checkpoint as CP
from repro.sim.config import fpga64, tiny
from repro.sim.functional import (
    HANDLERS,
    CoreState,
    FunctionalSimulator,
    SimulationError,
)
from repro.sim.machine import Machine
from repro.sim.observability import Observability
from repro.sim.plugins import ActivityPlugin
from repro.sim.resilience import (
    FaultInjector,
    FaultSpec,
    SimulationBudgetExceeded,
)
from repro.workloads import microbench as MB

from test_sleep_wake import (
    BACKENDS,
    SpawnWindows,
    _ThrottleAndGate,
    assert_same,
    build,
    fingerprint,
    kernel,
    machine_for,
    run_both,
)

EDGES = [0, 1, 2, 31, 32, 33, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF]
words = st.one_of(st.sampled_from(EDGES), st.integers(0, 0xFFFFFFFF))
#: immediates are Python ints as the assembler parsed them: negative,
#: and shift amounts past 31, included
immediates = st.one_of(st.sampled_from([0, 1, -1, 31, 32, 33, 63, -32768,
                                        0x7FFFFFFF, -0x80000000]),
                       st.integers(-(1 << 31), (1 << 32) - 1))

#: the ops a block may hold (``mul``/``div``/``rem`` have spec strings
#: too but issue to the shared MDU, and the float unaries to the FPU)
PRIVATE_BINOPS = sorted(set(S.INT_BINOP_SPECS) - {"mul", "div", "rem"})
PRIVATE_UNOPS = ["neg", "not"]
REGS = ["$zero", "$t0", "$t1", "$t2", "$t3"]


def stepped(uops, regs, pc, n):
    """The oracle: ``n`` micro-ops through ``u.fn`` + ``CoreState.write``."""
    core = CoreState(pc)
    core.regs[:] = regs
    for _ in range(n):
        u = uops[core.pc]
        HANDLERS[u.code](None, core, u)
    return core.regs, core.pc


def check_block(asm: str, values, pc: int = 0):
    """Form the block at ``pc`` of ``asm`` and run it both ways."""
    decoded = decode_program(assemble(".text\nmain:\n" + asm))
    block = decoded.blocks()[pc]
    assert block, asm
    regs = [0] * 32
    for reg, value in values.items():
        regs[reg] = value
    want_regs, want_pc = stepped(decoded.uops, regs, pc, block.n)
    got_regs = list(regs)
    got_pc = block.compile()(got_regs)
    assert (got_regs, got_pc) == (want_regs, want_pc), asm
    assert got_regs[0] == 0
    return block


T0, T1 = 8, 9  # $t0, $t1


# --------------------------------------------------------------------------- (a) specs

class TestSpecs:
    @pytest.mark.parametrize("table, specs, arity", [
        (S.INT_BINOPS, S.INT_BINOP_SPECS, 2),
        (S.UNOPS, S.UNOP_SPECS, 1),
        (S.BRANCH_CONDS, S.BRANCH_SPECS, 2),
    ], ids=["binops", "unops", "branches"])
    def test_callables_are_the_strings(self, table, specs, arity):
        """Every op with a spec has no other definition: its callable
        computes the spec's text with the operands substituted, which
        is also all the block generator does."""
        assert set(specs) <= set(table)
        assert {"add", "sra", "slt", "mul", "div"} <= set(S.INT_BINOP_SPECS)
        for op, spec in specs.items():
            for a in EDGES:
                for b in (EDGES if arity == 2 else [0]):
                    text = spec.format(a=f"({a})", b=f"({b})")
                    if table is not S.BRANCH_CONDS:
                        text = S.value_expr(spec, f"({a})", f"({b})")
                    args = (a, b)[:arity]
                    try:
                        want = eval(text, vars(S))
                    except S.TrapError:
                        with pytest.raises(S.TrapError):
                            table[op](*args)
                    else:
                        assert table[op](*args) == want, (op, a, b)

    @pytest.mark.parametrize("op", PRIVATE_BINOPS)
    @settings(max_examples=60, deadline=None)
    @given(a=words, b=words)
    def test_binop_block_equals_stepping(self, op, a, b):
        check_block(f"{op} $t2, $t0, $t1\n nop", {T0: a, T1: b})
        check_block(f"{op} $zero, $t0, $t1\n {op} $t1, $t1, $t1",
                    {T0: a, T1: b})

    @pytest.mark.parametrize("op", sorted(S.IMM_ALIASES))
    @settings(max_examples=60, deadline=None)
    @given(a=words, imm=immediates)
    def test_immediate_block_equals_stepping(self, op, a, imm):
        check_block(f"{op} $t2, $t0, {imm}\n li $t3, {imm}\n"
                    f" {op} $zero, $t2, {imm}", {T0: a})

    @pytest.mark.parametrize("op", PRIVATE_UNOPS)
    @settings(max_examples=40, deadline=None)
    @given(a=words)
    def test_unop_block_equals_stepping(self, op, a):
        check_block(f"{op} $t2, $t0\n {op} $zero, $t2", {T0: a})

    @pytest.mark.parametrize("op", sorted(S.BRANCH_SPECS))
    @settings(max_examples=40, deadline=None)
    @given(a=words, b=words)
    def test_closing_branch_equals_stepping(self, op, a, b):
        operands = "$t0, $t1, out" if op in ("beq", "bne") else "$t0, out"
        block = check_block(f"nop\n {op} {operands}\n nop\nout:\n halt",
                            {T0: a, T1: b})
        assert block.n == 2 and block.uops[-1].code == OP_BRANCH

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_random_straight_line_blocks(self, data):
        reg = st.sampled_from(REGS)
        lines = []
        for _ in range(data.draw(st.integers(2, 12))):
            kind = data.draw(st.sampled_from(["bin", "imm", "un", "li", "nop"]))
            rd, rs, rt = data.draw(reg), data.draw(reg), data.draw(reg)
            if kind == "bin":
                op = data.draw(st.sampled_from(PRIVATE_BINOPS))
                lines.append(f"{op} {rd}, {rs}, {rt}")
            elif kind == "imm":
                op = data.draw(st.sampled_from(sorted(S.IMM_ALIASES)))
                lines.append(f"{op} {rd}, {rs}, {data.draw(immediates)}")
            elif kind == "un":
                op = data.draw(st.sampled_from(PRIVATE_UNOPS))
                lines.append(f"{op} {rd}, {rs}")
            elif kind == "li":
                lines.append(f"li {rd}, {data.draw(immediates)}")
            else:
                lines.append("nop")
        close = data.draw(st.sampled_from(
            ["", "j out", "bne $t0, $t1, out", "bgez $t2, out"]))
        if close:
            lines.append(close)
        asm = "\n ".join(lines) + "\n halt\n nop\nout:\n halt"
        values = {8 + i: data.draw(words) for i in range(4)}
        block = check_block(asm, values)
        assert block.n == len(lines)

    def test_callable_definition_ends_a_block_and_still_runs(self):
        """The extension recipe without a spec string: the op runs one
        instruction at a time, between two blocks.  With one, it fuses."""
        if "so_callable" not in S.INT_BINOPS:
            S.register_binop("so_callable",
                             lambda a, b: (a + 2 * b) & 0xFFFFFFFF)
            register_instruction("so_callable", "binary")
            S.register_binop("so_spec", "{a} + 2 * {b}")
            register_instruction("so_spec", "binary")
        asm = """
            .data
        F:  .fmt "%d %d\\n"
            .text
        main:
            li   $t0, 5
            addi $t1, $t0, 2
            so_callable $t2, $t0, $t1
            addi $t2, $t2, 1
            so_spec $t3, $t0, $t1
            addi $t3, $t3, 1
            print F, $t2, $t3
            halt
        """
        program = assemble(asm)
        table = decode_program(program).blocks()
        assert [bool(table[pc]) for pc in (0, 2, 3)] == [True, False, True]
        assert (table[0].n, table[3].n) == (2, 3)
        assert FunctionalSimulator(program).run().output == "20 20\n"
        assert Machine(program, tiny()).run(max_cycles=10_000).output == \
            "20 20\n"
        check_block("li $t0, 5\n addi $t1, $t0, 2\n so_spec $t3, $t0, $t1\n"
                    " so_spec $zero, $t3, $t3", {})

    def test_trapping_spec_in_a_block_names_the_op(self):
        """A spec may trap.  The generated function stores registers
        only at its end, so the one-instruction path can redo the block
        and raise at the op, with the earlier ops executed and counted."""
        if "so_trap" not in S.INT_BINOPS:
            S.register_binop("so_trap", "_div_trunc({a}, {b})")
            register_instruction("so_trap", "binary")
        program = assemble("""
            .text
        main:
            li   $t0, 0
            li   $t1, 3
            spawn $t0, $t1
        vt:
            getvt $k0
            chkid $k0
            li   $t2, 7
            addi $t3, $t2, 1
            so_trap $t4, $t3, $k0
            addi $t4, $t4, 1
            j    vt
            join
            halt
        """)
        assert decode_program(program).blocks()[5].n == 5
        errors = []
        for sim in (FunctionalSimulator(program),
                    FunctionalSimulator(program,
                                        on_instruction=lambda i, c: None)):
            with pytest.raises(SimulationError, match="so_trap") as info:
                sim.run()
            errors.append((str(info.value), sim.instructions_executed,
                           sim.instruction_counts))
        assert errors[0] == errors[1]
        errors = []
        for awake in (False, True):
            machine = machine_for(program, tiny(), awake)
            with pytest.raises(SimulationError, match="so_trap") as info:
                machine.run(max_cycles=10_000)
            # (the other TCUs are mid-run when the plain machine raises,
            # so only the trapping TCU's own trail is comparable)
            errors.append((str(info.value),
                           machine.stats.get("instructions.so_trap")))
        assert errors[0] == errors[1] and errors[0][1] == 1


# --------------------------------------------------------------------------- programs

def compute(threads: int = 24, iterations: int = 6):
    """The Table I compute microbenchmark: runs of 3 and 11 ops."""
    return build(MB.parallel_compute(threads, iterations)[0])


#: a long run per thread with a non-blocking load, a ``swnb`` and a
#: shared-MDU ``mul`` in flight over it: the reply, the ack and the
#: product are all deliveries for registers the run does not touch
INTERRUPTED_ASM = """
    .data
A:  .space 256
B:  .space 256
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
    mul  $t7, $k0, $k0
    swnb $k0, 256($t2)
    li   $t5, 1
    addi $t5, $t5, 3
    slli $t6, $t5, 2
    xor  $t5, $t5, $t6
    addi $t5, $t5, 7
    srai $t6, $t5, 1
    add  $t5, $t5, $t6
    addi $t5, $t5, -2
    slli $t6, $t5, 1
    sub  $t5, $t6, $t5
    addi $t5, $t5, 11
    xor  $t6, $t5, $t3
    add  $t5, $t5, $t6
    addi $t5, $t5, 1
    add  $t5, $t5, $t4
    add  $t5, $t5, $t7
    sw   $t5, 0($t2)
    j    vt
    join
    halt
"""


def interrupted():
    program = assemble(INTERRUPTED_ASM)
    program.write_global("A", list(range(100, 164)))
    return program


def spy_on_runs(machine: Machine) -> dict:
    """Count whole and cut-short settles and the longest run entered."""
    seen = {"whole": 0, "cut": 0, "longest": 0}
    for tcu in machine.tcus:
        original = tcu.settle_run

        def spied(cycle, tcu=tcu, original=original):
            before = tcu.run_left
            original(cycle)
            if before and not tcu.run_left:
                seen["whole" if before == tcu.run_end - tcu.slept_at
                     else "cut"] += 1
            elif tcu.run_left < before:
                seen["cut"] += 1
            seen["longest"] = max(seen["longest"],
                                  tcu.run_end - tcu.slept_at)
        tcu.settle_run = spied
    return seen


def at_cycle(machine: Machine) -> dict:
    """What a machine stopped mid-flight can be asked about (settled)."""
    machine.settle()
    return {
        "counters": dict(machine.stats.counters),
        "per_tcu": [(tcu.instructions_issued, list(tcu.core.regs),
                     tcu.core.pc) for tcu in machine.tcus],
    }


def spawn_window(program, config):
    windows = SpawnWindows()
    obs = Observability()
    obs.subscribe(windows)
    Machine(program, config, observability=obs).run(max_cycles=1_000_000)
    begin, end = windows.windows[0]
    return begin // config.cluster_period + 2, end // config.cluster_period


# --------------------------------------------------------------------------- (b) oracle

class TestOracle:
    @pytest.mark.parametrize("config", [tiny, fpga64], ids=["tiny", "fpga64"])
    def test_compute_heavy_spawn(self, config):
        program = compute(96, 8)
        machine = machine_for(program, config(), awake=False)
        seen = spy_on_runs(machine)
        plain = fingerprint(machine, machine.run(max_cycles=1_000_000))
        oracle = machine_for(program, config(), awake=True)
        assert_same(plain, fingerprint(oracle,
                                       oracle.run(max_cycles=1_000_000)))
        assert seen["longest"] >= 8 and seen["whole"] > 96 * 8

    @pytest.mark.parametrize("blocking", [True, False],
                             ids=["blocking-loads", "scoreboard"])
    def test_run_interrupted_by_deliveries(self, blocking):
        """A load reply, a ``swnb`` ack and a shared-MDU result land
        inside a run: it is settled up to that edge, the TCU is ticked,
        and the rest of the block is another run."""
        def config():
            return tiny(tcu_blocking_loads=blocking, mdu_latency=9)

        machine = machine_for(interrupted(), config(), awake=False)
        seen = spy_on_runs(machine)
        plain = fingerprint(machine, machine.run(max_cycles=1_000_000))
        oracle = machine_for(interrupted(), config(), awake=True)
        assert_same(plain, fingerprint(oracle,
                                       oracle.run(max_cycles=1_000_000)))
        assert seen["cut"] > 0 and seen["whole"] > 0
        assert plain["counters"]["cluster.mdu_ops"] == 48

    @pytest.mark.parametrize("overrides", [
        {"alu_latency": 2}, {"branch_latency": 2},
        {"alu_latency": 3, "branch_latency": 2}], ids=str)
    def test_multi_cycle_ops_are_not_fused(self, overrides):
        program = compute()
        machine = machine_for(program, tiny(**overrides), awake=False)
        plain = fingerprint(machine, machine.run(max_cycles=1_000_000))
        oracle = machine_for(program, tiny(**overrides), awake=True)
        assert_same(plain, fingerprint(oracle,
                                       oracle.run(max_cycles=1_000_000)))
        if overrides.get("alu_latency", 1) > 1:
            assert machine.blocks is None
        else:  # ALU runs stop before the two-cycle branch
            formed = [block for block in machine.blocks.values() if block]
            assert formed and all(block.uops[-1].code != OP_BRANCH
                                  for block in formed)

    def test_parallel_calls_merge_sort(self):
        assert_same(*run_both(kernel("merge_sort"), fpga64))


class TestBackends:
    @pytest.mark.parametrize("overrides", BACKENDS)
    def test_backends(self, overrides):
        assert_same(*run_both(compute(), lambda: tiny(**overrides)))
        assert_same(*run_both(interrupted(), lambda: tiny(
            tcu_blocking_loads=False, **overrides)))


# --------------------------------------------------------------------------- (c) every offset

class _EveryCycle(ActivityPlugin):
    """``Machine.settle()`` (the plug-in actor calls it before every
    sample) on every cycle of the run."""

    def __init__(self):
        super().__init__(interval_cycles=1)
        self.samples = []

    def sample(self, machine, time):
        self.samples.append((time, at_cycle(machine)))


#: every way to stop inside the two runs of the compute loop: (ops in
#: the block, ops not executed yet)
OFFSETS = {(3, left) for left in range(3)} | \
    {(11, left) for left in range(11)}


def runs_in_flight(machine: Machine) -> set:
    return {(machine.blocks[tcu.run_pc].n, tcu.run_left)
            for tcu in machine.tcus if tcu.asleep_on == "run"}


class TestEveryOffset:
    """A 3-op and an 11-op run alternate in the compute loop; 45
    consecutive cycles stop a TCU at every offset of both (asserted)."""

    def _cycles(self, program):
        first, last = spawn_window(program, tiny())
        start = (first + last) // 2
        return range(start, start + 45)

    def test_checkpoint_at_every_offset(self):
        program = compute()
        reference = machine_for(program, tiny(), awake=True)
        expected = fingerprint(reference, reference.run(max_cycles=1_000_000))
        seen = set()
        for cycle in self._cycles(program):
            plain = machine_for(program, tiny(), awake=False)
            payload = CP.run_with_checkpoint(plain, cycle)
            oracle = machine_for(program, tiny(), awake=True)
            assert CP.run_with_checkpoint(oracle, cycle) is not None
            restored = CP.load_bytes(payload)
            seen |= runs_in_flight(restored)
            # some TCUs are inside a run in the snapshot, yet it reads
            # as the always-awake machine at that cycle
            assert at_cycle(restored) == at_cycle(oracle), f"cycle {cycle}"
            for machine in (restored, plain):
                got = fingerprint(machine, machine.run(max_cycles=1_000_000))
                assert_same(got, expected)
        assert seen >= OFFSETS

    def test_timeout_at_every_offset(self):
        program = compute()
        seen = set()
        for cycle in self._cycles(program):
            prints = []
            for awake in (False, True):
                machine = machine_for(program, tiny(), awake)
                result = machine.run(max_cycles=cycle, allow_timeout=True)
                assert machine.parallel_active and not machine.halted
                prints.append(dict(fingerprint(machine, result),
                                   pcs=[t.core.pc for t in machine.tcus]))
                seen |= runs_in_flight(machine)
            assert_same(*prints)
        assert seen >= OFFSETS

    def test_settle_on_every_cycle(self):
        program = compute()
        plugins = []

        def make_plugins():
            plugins.append(_EveryCycle())
            return [plugins[-1]]

        assert_same(*run_both(program, tiny, make_plugins))
        plain, *oracles = plugins
        assert len(plain.samples) > 200
        assert all(plain.samples == oracle.samples for oracle in oracles)

    @pytest.mark.parametrize("seed", range(6))
    def test_register_flip_lands_between_the_same_instructions(self, seed):
        """``inject_register_flip`` settles the TCU first, so the bit
        flips after the same instruction as on the oracle."""
        program = compute()
        first, last = spawn_window(program, tiny())
        cycle = random.Random(seed).randrange(first, last)
        prints = []
        for awake in (False, True):
            machine = machine_for(
                program, tiny(), awake,
                plugins=[FaultInjector([FaultSpec("tcu.reg", cycle,
                                                  seed=seed)])])
            try:
                prints.append(fingerprint(
                    machine, machine.run(max_cycles=50_000)))
            except SimulationError as exc:  # the flip derailed the run
                prints.append({"error": str(exc).splitlines()[0]})
        assert_same(*prints)


# --------------------------------------------------------------------------- (d) domain cycles

class TestDomainCycles:
    @pytest.mark.parametrize("merge", [False, True],
                             ids=["own-domains", "merged-domains"])
    def test_retimed_and_gated_clusters_domain(self, merge):
        """A run is counted in domain cycles: one that spans a retiming
        and a gating resumes on exactly the edge the always-awake TCU
        issues its next instruction on."""
        plugins = []

        def make_plugins():
            plugins.append(_ThrottleAndGate())
            return [plugins[-1]]

        plain, *oracles = run_both(
            compute(32, 12), lambda: tiny(merge_clock_domains=merge),
            make_plugins)
        assert all(p.samples >= 8 and p.saw_parallel for p in plugins)
        assert_same(plain, *oracles)


# --------------------------------------------------------------------------- (e) late listener

class TestLateListener:
    def test_issued_listener_after_mid_run_restore(self):
        """Restore mid-run, then subscribe an ``issued`` listener: runs
        end at the next edge, and from there the listener hears exactly
        the instructions ``Stats`` gains."""

        class CountIssued:
            def __init__(self):
                self.n = 0

            def issued(self, proc, uop):
                self.n += 1

        program = compute()
        reference = machine_for(program, tiny(), awake=True)
        expected = fingerprint(reference, reference.run(max_cycles=1_000_000))
        first, last = spawn_window(program, tiny())
        for cycle in range((first + last) // 2, last):
            plain = machine_for(program, tiny(), awake=False)
            restored = CP.load_bytes(CP.run_with_checkpoint(plain, cycle))
            if any(left for _n, left in runs_in_flight(restored)):
                break
        before = restored.stats.instruction_total()
        listener = CountIssued()
        obs = Observability()
        obs.subscribe(listener)
        restored.obs = obs
        obs.attach(restored)
        got = fingerprint(restored, restored.run(max_cycles=1_000_000))
        assert all(tcu.asleep_on != "run" for tcu in restored.tcus)
        assert listener.n == restored.stats.instruction_total() - before
        assert_same(got, expected)


# --------------------------------------------------------------------------- (f) not vacuous

class TestReallyFused:
    def test_decode_builds_no_block(self):
        program = compute()
        compiled = _compile_block.cache_info().misses
        decoded = decode_program(program)
        assert decoded._blocks == {}
        machine = Machine(program, tiny())
        assert machine.blocks == {}
        assert _compile_block.cache_info().misses == compiled

    def test_plain_run_enters_blocks(self):
        """The plain run ticks a TCU a few times per loop iteration, the
        machine as it was once per instruction."""
        program = compute()
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
            result = machine.run(max_cycles=1_000_000)
            ticks.append(count[0])
        assert ticks[0] * 3 < result.instructions < ticks[1]
        assert any(block and block.fn is not None
                   for block in machine.blocks.values())


# --------------------------------------------------------------------------- functional engine

class TestFunctional:
    KERNELS = ["array_compaction", "reduction", "fft", "matmul",
               "merge_sort"]

    @staticmethod
    def _stepwise(program, **kw):
        """The oracle: a per-instruction callback takes no blocks."""
        return FunctionalSimulator(program,
                                   on_instruction=lambda ins, core: None, **kw)

    @pytest.mark.parametrize("name", ["compute", "interrupted",
                                      *KERNELS])
    def test_same_result_as_one_instruction_at_a_time(self, name):
        program = {"compute": compute, "interrupted": interrupted}.get(
            name, lambda: kernel(name))()
        fused = FunctionalSimulator(program).run()
        stepped_ = self._stepwise(program).run()
        assert fused == stepped_
        assert fused.instructions == sum(fused.instruction_counts.values())

    def test_budget_trips_on_the_same_instruction(self):
        program = compute(4, 3)
        total = FunctionalSimulator(program).run().instructions
        for budget in range(total - 40, total + 1):
            sims = [FunctionalSimulator(program, max_instructions=budget),
                    self._stepwise(program, max_instructions=budget)]
            outcomes = []
            for sim in sims:
                try:
                    sim.run()
                    outcomes.append("halted")
                except SimulationError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]
            assert (sims[0].instructions_executed, sims[0].instruction_counts,
                    sims[0].memory.words) == \
                   (sims[1].instructions_executed, sims[1].instruction_counts,
                    sims[1].memory.words), budget
        assert outcomes == ["halted", "halted"]


# --------------------------------------------------------------------------- legible sleepers

class TestDiagnostics:
    def test_dump_counts_tcus_inside_a_run(self):
        first, last = spawn_window(compute(), tiny())
        for cycle in range((first + last) // 2, last):
            machine = machine_for(compute(), tiny(), awake=False)
            with pytest.raises(SimulationBudgetExceeded) as info:
                machine.run(max_cycles=cycle)
            dump = info.value.dump
            running = [proc for proc in dump.processors
                       if proc.get("asleep_on") == "run"]
            if running:
                break
        for proc in running:  # settled: the PC is where the oracle's is
            assert proc["pc"] - proc["run_pc"] + proc["run_left"] == \
                machine.blocks[proc["run_pc"]].n
        text = dump.format()
        assert f"{len(running)} asleep on run" in text
        assert "asleep_on=run run_pc=" in text and "run_left=" in text
        assert not any(key.startswith("tcu.stall.run")
                       for key in machine.stats.counters)
