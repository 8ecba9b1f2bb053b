"""Basic-block superops against the one-instruction machine.

A straight-line run of private-ALU micro-ops is compiled into one
generated function; in cycle mode a processor *inside a run* chains
such blocks -- through taken and untaken branches and ``j``, executed
ahead on a copy of its register file -- leaves the tick list for as many
domain cycles as the chain has ops and is *settled* -- the ops it has
issued by then executed and credited -- whenever anything looks at it.
None of that may move a register, a counter or a cycle.

Three oracles, none needing a switch: (a) stepping the same micro-ops
through ``u.fn`` + ``CoreState.write``;
(b) the machine as it was of ``test_sleep_wake.py`` -- a no-op
``issued`` listener keeps every TCU on the one-instruction path (and,
built on the test side, no processor ever leaves the tick list);
(c) a functional run with an ``on_instruction`` callback, which takes
no blocks either.

Mutants of ``ProcessorBase._enter_run`` / ``settle_run`` that must each
fail this file (checked by hand when the mechanism changes): no
scoreboard test on the second block of a chain; tallies credited at
entry instead of at settle; the final settle re-executing the blocks
instead of installing the registers computed at entry; no op bound; a
one-block loop's trapping pass counted; the rest of a block begun one
instruction at a time always owed as the block formed at its PC.
"""

from __future__ import annotations

import contextlib
import signal
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa import decode as D
from repro.isa import semantics as S
from repro.isa.assembler import assemble
from repro.isa.decode import Block, _compile_block, decode_program
from repro.isa.instructions import (
    FU_FPU,
    OP_ALU,
    OP_ALU_IMM,
    OP_ALU_SHARED,
    OP_BRANCH,
    OP_JUMP,
    OP_LI,
    OP_NOP,
    OP_UNARY,
    OP_UNARY_SHARED,
    TABLE,
    register_instruction,
)
from repro.sim import checkpoint as CP
from repro.sim.config import fpga64, tiny
from repro.sim.functional import (
    CoreState,
    FunctionalSimulator,
    SimulationError,
)
from repro.sim.machine import Machine
from repro.sim.observability import Observability
from repro.sim.plugins import ActivityPlugin
from repro.sim.resilience import SimulationBudgetExceeded
from repro.sim.tcu import CHAIN_CAP, RUN_KEY, RUN_MIN
from repro.workloads import microbench as MB

from test_sleep_wake import (
    BACKENDS,
    KERNEL_SIZES,
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


def rows(*codes, fpu=None):
    """The built-in mnemonics of these opcodes (only, or all but, the
    FPU's when ``fpu`` is given)."""
    return sorted(op for op, row in TABLE.items() if row.code in codes
                  and (fpu is None or (row.fu == FU_FPU) == fpu))


#: the ops a block may hold (``mul``/``div``/``rem`` have spec strings
#: too but issue to the shared MDU, and the float unaries to the FPU)
PRIVATE_BINOPS = rows(OP_ALU)
PRIVATE_UNOPS = ["neg", "not"]
IMM_OPS = rows(OP_ALU_IMM)
BRANCHES = rows(OP_BRANCH)
REGS = ["$zero", "$t0", "$t1", "$t2", "$t3"]


def stepped(uops, regs, pc, n):
    """The oracle: ``n`` micro-ops of the cycle machine's blocks (value
    ops, ``li``, ``nop``, a branch or ``j``) through ``u.fn`` +
    ``CoreState.write``, one at a time."""
    core = CoreState(pc)
    core.regs[:] = regs
    for _ in range(n):
        u = uops[core.pc]
        r, code = core.regs, u.code
        core.pc += 1
        if code == OP_BRANCH:
            if u.fn(r[u.rs], r[u.rt] if u.rt >= 0 else 0):
                core.pc = u.target
        elif code == OP_JUMP:
            core.pc = u.target
        elif code == OP_LI:
            core.write(u.rd, u.imm)
        elif code == OP_ALU_IMM:
            core.write(u.rd, u.fn(r[u.rs], u.imm))
        elif code == OP_ALU:
            core.write(u.rd, u.fn(r[u.rs], r[u.rt]))
        elif code == OP_UNARY:
            core.write(u.rd, u.fn(r[u.rs]))
        else:
            assert code == OP_NOP, u
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


def register_so_trap():
    """``so_trap $d, $a, $b``: a private-ALU op whose spec traps on
    ``$b == 0``."""
    if "so_trap" not in TABLE:
        register_instruction("so_trap", "binary", "_div_trunc({a}, {b})")


# --------------------------------------------------------------------------- (a) specs

class TestSpecs:
    @pytest.mark.parametrize("codes, arity", [
        ((OP_ALU, OP_ALU_SHARED, OP_ALU_IMM), 2),
        ((OP_UNARY, OP_UNARY_SHARED), 1),
        ((OP_BRANCH,), 2),
    ], ids=["binops", "unops", "branches"])
    def test_callables_are_the_strings(self, codes, arity):
        """Every row with a spec has no other definition: its callable
        computes the spec's text with the operands substituted, which
        is also all the block generator does."""
        with_spec = {op: row for op, row in TABLE.items() if row.spec}
        assert {"add", "sra", "slt", "mul", "div"} <= set(with_spec)
        assert set(BRANCHES) | set(IMM_OPS) | set(PRIVATE_UNOPS) <= set(with_spec)
        assert {row.code for row in with_spec.values()} <= {
            OP_ALU, OP_ALU_SHARED, OP_ALU_IMM, OP_UNARY, OP_UNARY_SHARED,
            OP_BRANCH}
        specs = {op: row for op, row in with_spec.items() if row.code in codes}
        assert specs
        for op, row in specs.items():
            for a in EDGES:
                for b in (EDGES if arity == 2 else [0]):
                    text = row.spec.format(a=f"({a})", b=f"({b})")
                    if row.code != OP_BRANCH:
                        text = S.value_expr(row.spec, f"({a})", f"({b})")
                    args = (a, b)[:arity]
                    try:
                        want = eval(text, vars(S))
                    except S.TrapError:
                        with pytest.raises(S.TrapError):
                            row.fn(*args)
                    else:
                        assert row.fn(*args) == want, (op, a, b)

    @pytest.mark.parametrize("op", PRIVATE_BINOPS)
    @settings(max_examples=60, deadline=None)
    @given(a=words, b=words)
    def test_binop_block_equals_stepping(self, op, a, b):
        check_block(f"{op} $t2, $t0, $t1\n nop", {T0: a, T1: b})
        check_block(f"{op} $zero, $t0, $t1\n {op} $t1, $t1, $t1",
                    {T0: a, T1: b})

    @pytest.mark.parametrize("op", IMM_OPS)
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

    @pytest.mark.parametrize("op", BRANCHES)
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
                op = data.draw(st.sampled_from(IMM_OPS))
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
        if "so_callable" not in TABLE:
            register_instruction("so_callable", "binary",
                                 lambda a, b: (a + 2 * b) & 0xFFFFFFFF)
            register_instruction("so_spec", "binary", "{a} + 2 * {b}")
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
        register_so_trap()
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
    """The Table I compute microbenchmark: a thread's register work is
    one chain -- a 7-op prelude, one 14-op block per loop iteration (the
    body, its ``j`` and the loop's test up to the ``bnez`` back to the
    body), a 4-op exit -- up to the ``swnb`` of its result."""
    return build(MB.parallel_compute(threads, iterations)[0])


#: ops per loop iteration of :func:`compute`
ITERATION = 14


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


#: a ``swnb`` whose ack comes back while its thread goes round a counted
#: loop of register ops (one block, iterated in place), then a second
#: ``swnb`` of the loop's result
ACK_ASM = """
    .data
OUT: .space 384
    .text
main:
    li   $t0, 0
    li   $t1, 47
    spawn $t0, $t1
vt:
    getvt $k0
    chkid $k0
    la   $t2, OUT
    slli $t3, $k0, 2
    add  $t2, $t2, $t3
    swnb $k0, 0($t2)
    li   $s0, 6
    li   $t5, 1
loop:
    slli $t6, $t5, 1
    xor  $t5, $t5, $t6
    addi $t5, $t5, 7
    addi $s0, $s0, -1
    bne  $s0, $zero, loop
    swnb $t5, 192($t2)
    j    vt
    join
    halt
"""


def interrupted():
    program = assemble(INTERRUPTED_ASM)
    program.write_global("A", list(range(100, 164)))
    return program


#: the same deliveries over a *chain*: a counted loop of 1..8 iterations
#: (by thread) between the three issues and the first use of what they
#: deliver.  Short loops reach the uses -- blocks of their own, behind
#: the loop's exit branch -- before the reply and the product: the chain
#: must end there although its first blocks found the scoreboard clear
CHAINED_INTERRUPTED_ASM = INTERRUPTED_ASM.replace("""    li   $t5, 1
""", """    li   $t5, 1
    andi $s0, $k0, 7
    addi $s0, $s0, 1
loop:
""").replace("""    addi $t5, $t5, 1
    add  $t5, $t5, $t4
""", """    addi $t5, $t5, 1
    addi $s0, $s0, -1
    bne  $s0, $zero, loop
    add  $t5, $t5, $t4
""")


def chained_interrupted():
    program = assemble(CHAINED_INTERRUPTED_ASM)
    program.write_global("A", list(range(100, 164)))
    return program


def spy_on_runs(machine: Machine) -> dict:
    """Watch the runs of every processor of ``machine``: how many were
    settled whole (in one go, at their end) and how many cut short, the
    most ops and the most blocks chained into one, every
    ``(processor, entry cycle, ops)`` and, in the same order, every
    chain's ``{block pc: times}`` -- and, asserted on the spot, that
    no chain is longer than the bound (or than its one block) and that
    no settle steps a whole block's worth of ops through the
    one-instruction handlers."""
    seen = {"whole": 0, "cut": 0, "longest": 0, "blocks": 0, "entered": [],
            "chains": []}
    blocks = machine.blocks
    for proc in [machine.master, *machine.tcus]:
        enter, settle = proc._enter_run, proc.settle_run
        stepped = []  # PCs stepped one by one; None outside a settle

        def handler(issue, stepped=stepped):
            def counted(proc, now, u):
                if stepped and stepped[0] is None:
                    stepped.append(u.index)
                return issue(proc, now, u)
            return counted
        proc._handlers = [handler(issue) for issue in proc._handlers]

        def spied_enter(block, cycle, proc=proc, enter=enter):
            taken = enter(block, cycle)
            if taken:
                ops = proc.run_left
                assert RUN_MIN <= ops <= max(CHAIN_CAP, block.n)
                seen["longest"] = max(seen["longest"], ops)
                seen["blocks"] = max(seen["blocks"],
                                     sum(proc._run_ahead[2].values()))
                seen["entered"].append((proc, cycle, ops))
                seen["chains"].append(dict(proc._run_ahead[2]))
            return taken

        def spied_settle(cycle, proc=proc, settle=settle, stepped=stepped):
            before = proc.run_left
            stepped[:] = [None]
            settle(cycle)
            if len(stepped) > 1:
                assert len(stepped) - 1 < blocks[stepped[1]].n
            stepped.clear()
            if proc.run_left < before:
                whole = (not proc.run_left
                         and before == proc.run_end - proc.slept_at)
                seen["whole" if whole else "cut"] += 1
        proc._enter_run, proc.settle_run = spied_enter, spied_settle
    return seen


def spy_on_deliveries(machine: Machine) -> Counter:
    """Count, by kind (a package's, or ``"reg"`` for a shared-FU
    result), the deliveries that reach a TCU of ``machine`` while it is
    inside a run."""
    landed = Counter()
    for tcu in machine.tcus:
        def deliver(time, item, tcu=tcu, deliver=tcu.deliver):
            if tcu.asleep_on == RUN_KEY:
                landed[getattr(item, "kind", None) or item[0]] += 1
            return deliver(time, item)
        tcu.deliver = deliver
    return landed


@contextlib.contextmanager
def deadline(seconds: int):
    """Fail, rather than hang, should a chain never end."""
    def expired(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")
    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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
        # a thread's eight iterations are one chain of three blocks: the
        # loop's one block is credited once per iteration (it goes round
        # in place), and every TCU settles at least its first thread's
        # whole
        chain = seen["chains"][next(
            i for i, (proc, _cycle, _ops) in enumerate(seen["entered"])
            if proc is machine.tcus[0])]
        assert sorted((machine.blocks[pc].n, times)
                      for pc, times in chain.items()) == [
            (4, 1), (7, 1), (ITERATION, 8)]
        assert seen["longest"] == 7 + 8 * ITERATION + 4
        assert seen["whole"] >= len(machine.tcus)

    @pytest.mark.parametrize("blocking", [True, False],
                             ids=["blocking-loads", "scoreboard"])
    def test_run_interrupted_by_deliveries(self, blocking):
        """The run after the load and the ``mul`` reads what they
        deliver, so it begins once both have landed; the ``swnb`` ack
        lands inside it and, writing no register, leaves it whole."""
        self._interrupted(interrupted, blocking)

    @pytest.mark.parametrize("blocking", [True, False],
                             ids=["blocking-loads", "scoreboard"])
    def test_chain_interrupted_by_deliveries(self, blocking):
        self._interrupted(chained_interrupted, blocking)

    def test_store_ack_inside_a_run_leaves_it_whole(self):
        """Each thread's ``swnb`` is acked while the TCU goes round a
        counted loop of register ops: the ack writes no register, waits
        in the inbox and is drained by the run's own resume tick, so the
        run is settled whole, on the cycle the oracle issues past it."""
        program = assemble(ACK_ASM)
        machine = machine_for(program, tiny(), awake=False)
        seen = spy_on_runs(machine)
        landed = spy_on_deliveries(machine)
        plain = fingerprint(machine, machine.run(max_cycles=1_000_000))
        oracle = machine_for(program, tiny(), awake=True)
        assert_same(plain, fingerprint(oracle,
                                       oracle.run(max_cycles=1_000_000)))
        assert set(landed) == {"store_nb"} and landed["store_nb"] >= 24
        assert seen["cut"] == 0 and seen["whole"] == 48

    @staticmethod
    def _interrupted(program, blocking):
        def config():
            return tiny(tcu_blocking_loads=blocking, mdu_latency=9)

        machine = machine_for(program(), config(), awake=False)
        seen = spy_on_runs(machine)
        landed = spy_on_deliveries(machine)
        plain = fingerprint(machine, machine.run(max_cycles=1_000_000))
        oracle = machine_for(program(), config(), awake=True)
        assert_same(plain, fingerprint(oracle,
                                       oracle.run(max_cycles=1_000_000)))
        assert seen["whole"] > 0
        assert plain["counters"]["cluster.mdu_ops"] == 48
        if program is chained_interrupted:
            # the reply and the product land inside the loop's chain
            assert seen["cut"] > 0
            assert seen["blocks"] >= 8  # (the loop, most of the way round)
        else:
            assert seen["cut"] == 0 and landed["store_nb"] > 0

    @pytest.mark.parametrize("overrides", [
        {"alu_latency": 2}, {"branch_latency": 2},
        {"alu_latency": 3, "branch_latency": 2}], ids=str)
    def test_multi_cycle_ops_are_not_fused(self, overrides):
        program = compute()
        machine = machine_for(program, tiny(**overrides), awake=False)
        seen = spy_on_runs(machine) if machine.blocks is not None else None
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
            # ... and go on through ``j`` only: the loop body, its ``j``
            # and the two ops up to the branch are one block, never an
            # iteration, and nothing chains to it
            assert any(u.code == OP_JUMP for block in formed
                       for u in block.uops[:-1])
            assert seen["blocks"] == 1 and seen["longest"] == ITERATION - 1

    def test_parallel_calls_merge_sort(self):
        assert_same(*run_both(kernel("merge_sort"), fpga64))


class TestBackends:
    @pytest.mark.parametrize("overrides", BACKENDS)
    def test_backends(self, overrides):
        assert_same(*run_both(compute(), lambda: tiny(**overrides)))
        assert_same(*run_both(interrupted(), lambda: tiny(
            tcu_blocking_loads=False, **overrides)))

    @pytest.mark.parametrize("blocking", [True, False],
                             ids=["blocking-loads", "scoreboard"])
    @pytest.mark.parametrize("overrides", BACKENDS)
    def test_chain_cut_by_deliveries(self, overrides, blocking):
        assert_same(*run_both(chained_interrupted(), lambda: tiny(
            tcu_blocking_loads=blocking, mdu_latency=9, **overrides)))


# --------------------------------------------------------------------------- (c) every offset

class _EveryCycle(ActivityPlugin):
    """``Machine.settle()`` (the plug-in actor calls it before every
    sample) on every cycle of the run."""

    def __init__(self):
        super().__init__(interval_cycles=1)
        self.samples = []
        self.seen = None

    def sample(self, machine, time):
        if self.seen is None:
            self.seen = spy_on_runs(machine)
        self.samples.append((time, at_cycle(machine)))


def runs_in_flight(machine: Machine) -> set:
    """``(ops in the chain, ops not executed yet)`` of every TCU inside
    a run."""
    return {(tcu.run_end - tcu.slept_at, tcu.run_left)
            for tcu in machine.tcus if tcu.asleep_on == "run"}


class TestEveryOffset:
    """A thread of the compute loop is one chain.  A TCU's first is
    never cut short (nothing of an earlier thread is in flight), so the
    cycles from its entry to its resume stop that TCU at every offset
    of a chain spanning three loop iterations (asserted)."""

    ITERATIONS = 3

    def _chain(self, program):
        """The cycles to stop at, and every ``runs_in_flight`` entry
        they must come across."""
        machine = machine_for(program, tiny(), awake=False)
        seen = spy_on_runs(machine)
        machine.run(max_cycles=1_000_000)
        entry, ops = next((cycle, ops) for proc, cycle, ops in seen["entered"]
                          if proc is machine.tcus[0])
        assert ops > self.ITERATIONS * ITERATION
        return (range(entry, entry + ops),
                {(ops, left) for left in range(ops)})

    def test_checkpoint_at_every_offset(self):
        program = compute(iterations=self.ITERATIONS)
        reference = machine_for(program, tiny(), awake=True)
        expected = fingerprint(reference, reference.run(max_cycles=1_000_000))
        cycles, offsets = self._chain(program)
        seen = set()
        for cycle in cycles:
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
        assert seen >= offsets

    def test_timeout_at_every_offset(self):
        program = compute(iterations=self.ITERATIONS)
        cycles, offsets = self._chain(program)
        seen = set()
        for cycle in cycles:
            prints = []
            for awake in (False, True):
                machine = machine_for(program, tiny(), awake)
                result = machine.run(max_cycles=cycle, allow_timeout=True)
                assert machine.parallel_active and not machine.halted
                prints.append(dict(fingerprint(machine, result),
                                   pcs=[t.core.pc for t in machine.tcus]))
                seen |= runs_in_flight(machine)
            assert_same(*prints)
        assert seen >= offsets

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
        # every chain is settled a cycle at a time (block by block: the
        # spy), and the machine as it was takes none
        assert plain.seen["cut"] > 200 > 0 == plain.seen["whole"]
        assert not oracles[-1].seen["entered"]


# --------------------------------------------------------------------------- (d) domain cycles

class _ThrottleAndGateMidChain(_ThrottleAndGate):
    """... begun 90 cycles later, when the first chains are under way,
    and noting the samples that find a TCU a loop iteration or more
    from either end of one."""

    def __init__(self):
        super().__init__()
        self.early = 6
        self.mid_chain = set()

    def sample(self, machine, time):
        if self.early:
            self.early -= 1
            return
        if any(ITERATION <= left <= ops - ITERATION
               for ops, left in runs_in_flight(machine)):
            self.mid_chain.add(self.samples + 1)
        super().sample(machine, time)


class TestDomainCycles:
    @pytest.mark.parametrize("merge", [False, True],
                             ids=["own-domains", "merged-domains"])
    def test_retimed_and_gated_clusters_domain(self, merge):
        """A run is counted in domain cycles: a chain that spans a
        retiming and a gating resumes on exactly the edge the
        always-awake TCU issues its next instruction on."""
        plugins = []

        def make_plugins():
            plugins.append(_ThrottleAndGateMidChain())
            return [plugins[-1]]

        plain, *oracles = run_both(
            compute(32, 12), lambda: tiny(merge_clock_domains=merge),
            make_plugins)
        assert all(p.samples >= 8 and p.saw_parallel for p in plugins)
        # the retiming, the gating, the un-gating and the restoring all
        # land mid-chain on the plain machine
        assert plugins[0].mid_chain >= {2, 4, 6, 8}
        assert_same(plain, *oracles)


# --------------------------------------------------------------------------- (e) late listener

class TestLateListener:
    def test_issued_listener_after_mid_run_restore(self):
        """Restore mid-chain, then subscribe an ``issued`` listener:
        runs end at the next edge, and from there the listener hears
        exactly the instructions ``Stats`` gains."""

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
            if any(ITERATION <= left <= ops - ITERATION
                   for ops, left in runs_in_flight(restored)):
                break  # (mid-chain: an iteration or more from its ends)
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


# --------------------------------------------------------------------------- (f) what ends a chain

#: thread 0 traps in the third block of what is one chain for the others
TRAP_IN_THIRD_BLOCK_ASM = """
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
    j    second
third:
    addi $t3, $t3, 1
    so_trap $t4, $t3, $k0
    addi $t4, $t4, 1
    j    vt
second:
    slli $t5, $t3, 2
    bne  $t5, $zero, third
    j    vt
    join
    halt
"""

#: the Master's loop is one block that leads back to itself; its fourth
#: pass divides by zero
TRAP_ON_A_PASS_ASM = """
    .text
main:
    li   $t0, 5
    li   $t2, 7
loop:
    addi $t0, $t0, -1
    xor  $t3, $t3, $t2
    so_trap $t4, $t2, $t0
    j    loop
"""

#: a block ends in a ``j`` out of the spawn region, to code that jumps
#: back in: legal under the parallel-calls convention only
LEAVING_ASM = """
    .data
OUT: .space 32
    .text
main:
    li   $t0, 0
    li   $t1, 7
    spawn $t0, $t1
vt:
    getvt $k0
    chkid $k0
    addi $t2, $k0, 5
    slli $t3, $t2, 1
    xor  $t4, $t3, $k0
    j    helper
back:
    add  $t4, $t4, $t2
    xor  $t4, $t4, $k0
    la   $t5, OUT
    slli $t6, $k0, 2
    add  $t5, $t5, $t6
    swnb $t4, 0($t5)
    j    vt
    join
    halt
helper:
    add  $t4, $t3, $t2
    srai $t4, $t4, 1
    j    back
"""

#: the Master's whole program is one chain of 2 + 200 * 4 ops, 200 blocks
ONE_CHAIN_ASM = """
    .text
main:
    li   $t0, 200
    li   $t1, 1
loop:
    add  $t1, $t1, $t0
    xori $t1, $t1, 5
    addi $t0, $t0, -1
    bne  $t0, $zero, loop
    halt
"""

ALU_REGS = ["$t2", "$t3", "$t4", "$t5"]


@st.composite
def loop_nests(draw):
    """A spawn whose threads run two nested counted loops of random
    private-ALU ops, with data-dependent ways out of either."""
    threads = draw(st.integers(3, 9))
    target = st.sampled_from(ALU_REGS)
    source = st.sampled_from(ALU_REGS + ["$k0", "$s0", "$s1", "$zero"])

    def ops(least, most):
        lines = []
        for _ in range(draw(st.integers(least, most))):
            kind = draw(st.sampled_from(["bin", "imm", "un", "li"]))
            rd, rs, rt = draw(target), draw(source), draw(source)
            if kind == "bin":
                op = draw(st.sampled_from(PRIVATE_BINOPS))
                lines.append(f"{op} {rd}, {rs}, {rt}")
            elif kind == "imm":
                op = draw(st.sampled_from(IMM_OPS))
                lines.append(f"{op} {rd}, {rs}, {draw(immediates)}")
            elif kind == "un":
                op = draw(st.sampled_from(PRIVATE_UNOPS))
                lines.append(f"{op} {rd}, {rs}")
            else:
                lines.append(f"li {rd}, {draw(immediates)}")
        return lines

    def way_out(labels):
        op = draw(st.sampled_from([None, *BRANCHES]))
        if op is None:
            return []
        label = draw(st.sampled_from(labels))
        if op in ("beq", "bne"):
            return [f"{op} {draw(target)}, {draw(source)}, {label}"]
        return [f"{op} {draw(target)}, {label}"]

    lines = [".data", f"OUT: .space {4 * threads}", ".text", "main:",
             "li $t0, 0", f"li $t1, {threads - 1}", "spawn $t0, $t1",
             "vt:", "getvt $k0", "chkid $k0",
             "addi $t2, $k0, 1", "slli $t3, $k0, 3", "li $t4, 17",
             "sub $t5, $zero, $k0",
             f"li $s0, {draw(st.integers(1, 4))}",
             "outer:", *ops(0, 3),
             f"li $s1, {draw(st.integers(1, 5))}",
             "inner:", *ops(1, 5), *way_out(["after", "done"]),
             "addi $s1, $s1, -1", "bne $s1, $zero, inner",
             "after:", *ops(0, 3), *way_out(["done"]),
             "addi $s0, $s0, -1", "bne $s0, $zero, outer",
             "done:", "xor $t2, $t2, $t3", "xor $t2, $t2, $t4",
             "xor $t2, $t2, $t5", "la $t6, OUT", "slli $t7, $k0, 2",
             "add $t6, $t6, $t7", "swnb $t2, 0($t6)", "j vt", "join", "halt"]
    return "\n".join(lines)


class TestChainEnds:
    def test_trapping_spec_in_the_third_block_of_a_chain(self):
        """The chain ends *before* a block that would trap, and the
        one-instruction path raises at the op, on the op's own cycle."""
        register_so_trap()
        program = assemble(TRAP_IN_THIRD_BLOCK_ASM)
        errors, chains = [], []
        for awake in (False, True):
            machine = machine_for(program, tiny(), awake)
            seen = spy_on_runs(machine)
            with pytest.raises(SimulationError, match="so_trap") as info:
                machine.run(max_cycles=10_000)
            errors.append((str(info.value), machine.scheduler.now,
                           machine.stats.get("instructions.so_trap")))
            chains.append({(proc.tcu_id, ops)
                           for proc, _cycle, ops in seen["entered"]})
        assert errors[0] == errors[1] and errors[0][2] == 1
        assert "tcu 0" in errors[0][0]
        # thread 0's chain: two blocks, five ops; the others': all three
        # blocks (the Master's two ``li`` are too few to be worth a run)
        assert chains == [{(0, 5), (1, 9), (2, 9), (3, 9)}, set()]

    @pytest.mark.parametrize("parallel_calls", [False, True],
                             ids=["layout-bug", "parallel-calls"])
    def test_pc_leaving_the_region_ends_the_chain(self, parallel_calls):
        """``_check_escape`` fires on the tick it always did: the chain
        stops at the region's border (and one that starts outside may
        come back in)."""
        program = assemble(LEAVING_ASM)
        program.parallel_calls = parallel_calls
        outcomes = []
        for awake in (False, True):
            machine = machine_for(program, tiny(), awake)
            seen = spy_on_runs(machine)
            try:
                outcomes.append(fingerprint(
                    machine, machine.run(max_cycles=10_000)))
            except SimulationError as exc:
                outcomes.append({"error": str(exc),
                                 "time": machine.scheduler.now,
                                 "counters": dict(machine.stats.counters)})
            if not awake:
                lengths = {ops for _p, _c, ops in seen["entered"]
                           if _p is not machine.master}
                # [addi slli xor j] | [add srai j][add xor la slli add]
                assert lengths == ({4, 8} if parallel_calls else {4})
        if parallel_calls:
            assert_same(*outcomes)
            assert outcomes[0]["counters"]["instructions.swnb"] == 8
        else:  # (the other TCUs of the plain machine are mid-chain)
            assert "control left the spawn region" in outcomes[0]["error"]
            assert len({(o["error"], o["time"]) for o in outcomes}) == 1

    @pytest.mark.parametrize("program", [
        lambda: assemble(".text\nmain:\n li $t0, 1\nspin:\n j spin\n"),
        lambda: build("int main() { spawn(0, 7) "
                      "{ int a = $; while (1) a += 3; } return 0; }"),
    ], ids=["master-j-self", "spawn-while-1"])
    def test_op_bound(self, program):
        """A loop of register ops that never ends is a chain that never
        would: :data:`CHAIN_CAP` ends it, and the next tick enters the
        next.  The bound is not visible in any count."""
        program = program()
        for stop in (CHAIN_CAP // 2, 2 * CHAIN_CAP + 77, 3 * CHAIN_CAP + 5):
            prints = []
            with deadline(120):
                for awake in (False, True):
                    machine = machine_for(program, tiny(), awake)
                    seen = spy_on_runs(machine)  # (asserts the bound)
                    result = machine.run(max_cycles=stop, allow_timeout=True)
                    assert not machine.halted
                    prints.append(dict(
                        fingerprint(machine, result),
                        pcs=[p.core.pc for p in [machine.master,
                                                 *machine.tcus]]))
                    if not awake:
                        assert stop < CHAIN_CAP or \
                            CHAIN_CAP - 4 < seen["longest"] <= CHAIN_CAP
            assert_same(*prints)
            assert prints[0]["instructions"] > stop - 100

    def test_one_block_loop_at_the_op_bound(self):
        """``while (1)`` is one block that leads back to itself: a chain
        goes round it in place up to :data:`CHAIN_CAP`, and settling it
        on every cycle -- mid-block, where the block formed at the PC
        follows the ``j`` the loop's block does not -- reads as the
        machine as it was."""
        program = build("int main() { spawn(0, 7) "
                        "{ int a = $; while (1) a += 3; } return 0; }")
        stop = 2 * CHAIN_CAP + 77
        prints, plugins, machines = [], [], []
        with deadline(120):
            for awake in (False, True):
                plugins.append(_EveryCycle())
                machine = machine_for(program, tiny(), awake,
                                      plugins=[plugins[-1]])
                machines.append(machine)
                result = machine.run(max_cycles=stop, allow_timeout=True)
                prints.append(dict(fingerprint(machine, result),
                                   pcs=[t.core.pc for t in machine.tcus]))
        assert_same(*prints)
        assert plugins[0].samples == plugins[1].samples
        seen = plugins[0].seen
        loop = [pc for pc, block in machines[0].blocks.items()
                if block and block.n == 3 and block.uops[-1].target == pc]
        assert len(loop) == 1
        # the first chain of a TCU: the 4-op prelude, then the loop to
        # the bound; the next: the loop alone
        assert {(len(chain), chain.get(loop[0])) for chain in seen["chains"]
                if loop[0] in chain} == {(2, (CHAIN_CAP - 4) // 3),
                                         (1, CHAIN_CAP // 3)}

    def test_trap_on_the_kth_pass_of_a_one_block_loop(self):
        """A one-block loop whose fourth pass traps: the chain takes the
        three passes before it, and the one-instruction path raises at
        the op, on the op's own cycle."""
        register_so_trap()
        program = assemble(TRAP_ON_A_PASS_ASM)
        errors, chains = [], []
        for awake in (False, True):
            machine = machine_for(program, tiny(), awake)
            seen = spy_on_runs(machine)
            with pytest.raises(SimulationError, match="so_trap") as info:
                machine.run(max_cycles=10_000)
            errors.append((str(info.value), machine.scheduler.now,
                           machine.stats.get("instructions.so_trap")))
            chains.append(seen["chains"])
        assert errors[0] == errors[1] and errors[0][2] == 5
        assert "master" in errors[0][0]
        assert chains == [[{0: 1, 2: 3}], []]

    def test_every_block_of_a_chain_is_executed_once(self, monkeypatch):
        """... at entry, on the copy; the settle at the chain's end
        installs what that computed and calls nothing."""
        calls = []
        compile_ = Block.compile

        def counting_compile(block):
            fn = compile_(block)

            def counted(regs):
                calls.append(block.pc)
                return fn(regs)
            block.fn = counted
            return counted
        monkeypatch.setattr(Block, "compile", counting_compile)
        program = assemble(ONE_CHAIN_ASM)
        machine = machine_for(program, tiny(), awake=False)
        seen = spy_on_runs(machine)
        plain = fingerprint(machine, machine.run(max_cycles=10_000))
        assert (seen["whole"], seen["cut"], seen["longest"],
                seen["blocks"]) == (1, 0, 802, 200)
        assert len(calls) == 200
        oracle = machine_for(program, tiny(), awake=True)
        assert_same(plain, fingerprint(oracle, oracle.run(max_cycles=10_000)))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(asm=loop_nests())
    def test_generated_loop_nests(self, asm):
        program = assemble(asm)
        prints = []
        for awake in (False, True):
            machine = machine_for(program, tiny(), awake)
            seen = spy_on_runs(machine)
            prints.append(fingerprint(machine,
                                      machine.run(max_cycles=200_000)))
            assert (seen["blocks"] > 1) is not awake
        assert_same(*prints)


# --------------------------------------------------------------------------- (g) not vacuous

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


# --------------------------------------------------------------------------- translated blocks
#
# Without a callback or a sanitizer the functional engine runs *translated*
# blocks (``DecodedProgram.blocks(memory=True)``): loads, stores,
# prefix-sums and the thread loop inside one generated function, running on
# through a ``j`` within its span, under two rules -- one commit (every
# effect after the last line that can trap) and a cut per state space (a
# read of memory, globals or the thread counter after a deferred effect on
# the same one starts a new block).
# The comparison is with the same engine stepping -- every instruction
# its one-op block, which any ``on_instruction`` callback forces -- so it
# checks the two rules between multi-op and one-op blocks; what the ops
# themselves compute is checked against the cycle machine
# (``test_decode_dispatch.py``'s differential) and the ``functional``
# rows of ``tests/golden/cycles.json``.  Mutants of ``block_source`` /
# ``BlockTable._chain`` / ``FunctionalSimulator`` that must each fail
# this section (checked by hand when the mechanism changes): effects
# emitted where the op stands instead of after the last check; no cut on a
# read after a deferred effect; one cut for all spaces; a ``j`` followed
# out of its span or back into the block; the fall-through taken as
# ``pc + n``; a followed ``j`` returning; ``_credit_blocks`` not clearing
# what it has expanded (the tally credited twice).

STEPPED = {"on_instruction": lambda *_: None}


def outcome(program, **kw):
    """How a functional run ends and everything it leaves behind."""
    sim = FunctionalSimulator(program, **kw)
    try:
        sim.run()
        end = "halted"
    except SimulationError as exc:
        end = str(exc)
    return (end, sim.master.regs, sim.memory.words, sim.global_regs,
            "".join(sim.output), sim.instructions_executed,
            sim.instruction_counts)


ARENA_ASM = """
    .data
ARENA: .space 64
F:  .fmt "%d %d %d %d\\n"
    .text
main:
    la   $s0, ARENA
    {body}
    print F, $t0, $t1, $t2, $t3
    halt
"""

VALUE_BINOPS = rows(OP_ALU, OP_ALU_SHARED, fpu=False) + \
    rows(OP_ALU_SHARED, fpu=True)
VALUE_UNOPS = rows(OP_UNARY, OP_UNARY_SHARED)


@st.composite
def arena_op(draw):
    """One straight-line op over four registers, three global registers
    and a 16-word arena at ``$s0`` (now and then a bad address)."""
    reg = st.sampled_from(REGS)
    rd, rs, rt = draw(reg), draw(reg), draw(reg)
    offset = draw(st.one_of(st.sampled_from(range(0, 64, 4)),
                            st.sampled_from([2, 61, -4096])))
    where = draw(st.sampled_from([f"{offset}($s0)"] * 7 + ["0($zero)"]))
    greg = f"$g{draw(st.integers(1, 3))}"
    kind = draw(st.sampled_from(
        ["lw", "lwro", "sw", "swnb", "psm", "ps", "getg", "setg", "pref",
         "fence", "nop", "li", "bin", "un", "imm", "indexed"]))
    if kind in ("lw", "lwro", "sw", "swnb", "psm"):
        return f"{kind} {rd}, {where}"
    if kind in ("ps", "getg", "setg"):
        return f"{kind} {rd}, {greg}"
    if kind == "pref":
        return f"pref {where}"
    if kind == "li":
        return f"li {rd}, {draw(immediates)}"
    if kind == "bin":
        return f"{draw(st.sampled_from(VALUE_BINOPS))} {rd}, {rs}, {rt}"
    if kind == "un":
        return f"{draw(st.sampled_from(VALUE_UNOPS))} {rd}, {rs}"
    if kind == "imm":
        return f"{draw(st.sampled_from(IMM_OPS))} " \
               f"{rd}, {rs}, {draw(immediates)}"
    if kind == "indexed":  # a data-dependent word of the arena
        access = draw(st.sampled_from(["lw", "sw", "psm"]))
        return (f"andi $t4, {rs}, 60\n add $t4, $t4, $s0\n"
                f" {access} {rd}, 0($t4)")
    return kind


JUMPY_ASM = """
    .data
ARENA: .space 64
F:  .fmt "%d %d %d %d\\n"
    .text
main:
    la   $s0, ARENA
{serial}
    li   $a0, 0
    li   $a1, 3
    spawn $a0, $a1
vt:
    getvt $k0
    chkid $k0
{region}
    j    vt
    join
    print F, $t0, $t1, $t2, $t3
    halt
"""


@st.composite
def jumpy_program(draw):
    """Labeled segments of :func:`arena_op` lines in serial code and in a
    spawn region's body (there with ``getvt``/``gettcu`` too), each ended
    now and then by a branch and by a forward or backward ``j`` within its
    span -- and rarely by one that leaves it: serial code into the
    region's ``getvt``, the region to serial code (the Fig. 9 error)."""
    def segments(prefix, extra, escape, fewest):
        count = draw(st.integers(fewest, 4))
        labels = [f"{prefix}{k}" for k in range(count)]
        lines = []
        for label in labels:
            lines.append(f"{label}:")
            for _ in range(draw(st.integers(0, 5))):
                lines.append(draw(st.one_of(arena_op(),
                                            st.sampled_from(extra))))
            branch = draw(st.sampled_from([None, None, *BRANCHES]))
            if branch is not None:
                rs, rt = draw(st.sampled_from(REGS)), draw(st.sampled_from(REGS))
                operands = f"{rs}, {rt}" if branch in ("beq", "bne") else rs
                lines.append(f"{branch} {operands}, "
                             f"{draw(st.sampled_from(labels))}")
            jump = draw(st.sampled_from([None] * 4 + [escape] + labels))
            if jump is not None:
                lines.append(f"j {jump}")
        return "\n".join("    " + line for line in lines)

    thread_ops = ["getvt $t1", "gettcu $t2", "getvt $t3"]
    return JUMPY_ASM.format(serial=segments("S", ["nop"], "vt", 0),
                            region=segments("P", thread_ops, "main", 1))


class TestTranslated:
    @settings(max_examples=300, deadline=None)
    @given(ops=st.lists(arena_op(), min_size=1, max_size=24))
    def test_random_straight_line_programs(self, ops):
        program = assemble(ARENA_ASM.format(body="\n    ".join(ops)))
        assert outcome(program) == outcome(program, **STEPPED)

    @settings(max_examples=200, deadline=None)
    @given(addr=st.one_of(st.sampled_from(EDGES + [3, 4, 5, 0xFFFFFFFC]),
                          st.integers(0, 0xFFFFFFFF)))
    def test_address_rule_is_check_word_addr(self, addr):
        """The inline test of a generated block and ``check_word_addr``
        are one rule."""
        bad = bool(eval(S.BAD_WORD_ADDR_SPEC.format(a=f"({addr})")))
        try:
            assert S.check_word_addr(addr) == addr
            assert not bad
        except S.TrapError:
            assert bad

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(source=jumpy_program(),
           budget=st.one_of(st.just(3000), st.integers(0, 400)))
    def test_random_programs_with_jumps(self, source, budget):
        """Blocks that follow ``j`` and cut per state space: the same end
        -- a halt, a trap or a budget tripped on the same instruction --
        and the same state as stepping."""
        program = assemble(source)
        assert outcome(program, max_instructions=budget) == \
            outcome(program, max_instructions=budget, **STEPPED)

    TRAP_ASM = """
        .data
    A:  .word 5, 6, 7, 8
        .text
    main:
        la   $s0, A
        li   $t0, 41
        li   $t1, 3
        ps   $t1, $g2
        sw   $t0, 4($s0)
        sw   $t0, 9($s0)
        sw   $t0, 12($s0)
        halt
    """

    def test_trap_commits_nothing(self):
        """An unaligned ``sw`` is the third effect of a block, after a
        ``ps`` and a ``sw``.  The generated function raises with
        registers, memory and globals untouched; the run then steps the
        block, lands the first two effects exactly once and names the
        third op -- stepping's message and stepping's image."""
        program = assemble(self.TRAP_ASM)
        sim = FunctionalSimulator(program)
        block = sim.decoded.blocks(memory=True)[0]
        assert block.n == len(sim.decoded.uops) - 1  # all but the ``halt``
        before = (list(sim.master.regs), dict(sim.memory.words),
                  list(sim.global_regs))
        with pytest.raises(S.TrapError):
            block.compile()(sim.master.regs, sim.memory.words,
                            sim.global_regs, None)
        assert (sim.master.regs, sim.memory.words, sim.global_regs) == before
        translated = outcome(program)
        assert translated == outcome(program, **STEPPED)
        end, regs, memory, gregs, *_ = translated
        assert "unaligned word access" in end and "sw" in end
        base = program.data_labels["A"]
        assert (memory[base + 4], memory[base + 12], gregs[2]) == (41, 8, 3)

    def test_callable_value_is_truncated(self):
        """A definition registered as a bare callable may return any
        int; a register holds its 32-bit pattern in both modes."""
        if "so_wide" not in TABLE:
            register_instruction("so_wide", "binary", lambda a, b: a - b)
        program = assemble("""
            .data
        A:  .word 0
            .text
        main:
            la   $s0, A
            li   $t0, 5
            li   $t1, 7
            so_wide $t2, $t0, $t1
            sw   $t2, 0($s0)
            halt
        """)
        a = program.data_labels["A"]
        assert FunctionalSimulator(program).run().memory[a] == \
            Machine(program, tiny()).run(max_cycles=10_000).memory[a] == \
            (5 - 7) & 0xFFFFFFFF

    def test_div_by_zero_after_a_store_and_a_psm(self):
        program = assemble("""
            .data
        A:  .word 5, 6
            .text
        main:
            la   $s0, A
            li   $t0, 9
            sw   $t0, 0($s0)
            psm  $t0, 4($s0)
            div  $t1, $t0, $zero
            halt
        """)
        translated = outcome(program)
        assert translated == outcome(program, **STEPPED)
        assert "division by zero" in translated[0]
        base = program.data_labels["A"]
        assert (translated[2][base], translated[2][base + 4]) == (9, 15)

    def test_a_read_after_an_effect_starts_a_block(self):
        """The cut: ``sw x; lw x`` reads the stored word because the
        ``lw`` opens a new block -- nothing is forwarded."""
        program = assemble("""
            .data
        X:  .word 1
        F:  .fmt "%d %d %d\\n"
            .text
        main:
            la   $s0, X
            li   $t0, 7
            sw   $t0, 0($s0)
            lw   $t1, 0($s0)
            setg $t1, $g1
            getg $t2, $g1
            ps   $t2, $g1
            ps   $t3, $g1
            print F, $t1, $t2, $t3
            halt
        """)
        table = decode_program(program).blocks(memory=True)
        starts, pc = [], 0
        while table[pc]:
            starts.append(pc)
            pc += table[pc].n
        # la is two ops (lui/ori) or one; the cuts fall before lw, getg, ps
        sw = next(u.index for u in table.uops if u.op == "sw")
        assert starts[1:] == [sw + 1, sw + 3, sw + 5]
        assert FunctionalSimulator(program).run().output == "7 7 14\n"
        assert outcome(program) == outcome(program, **STEPPED)

    @staticmethod
    def ops_of(program, label):
        """The mnemonics of the translated block at ``label``."""
        table = decode_program(program).blocks(memory=True)
        return [u.op for u in table[program.labels[label]].uops]

    def test_a_read_after_a_jump_and_an_effect_still_cuts(self):
        """``sw X; j L; L: lw X``: the block follows the ``j`` and cuts
        before the ``lw``, which reads the stored word."""
        program = assemble("""
            .data
        X:  .word 1
        F:  .fmt "%d\\n"
            .text
        main:
            la   $s0, X
            li   $t0, 7
        top:
            sw   $t0, 0($s0)
            j    L
            nop
        L:
            lw   $t1, 0($s0)
            print F, $t1
            halt
        """)
        assert self.ops_of(program, "top") == ["sw", "j"]
        assert self.ops_of(program, "L") == ["lw"]
        assert FunctionalSimulator(program).run().output == "7\n"
        assert outcome(program) == outcome(program, **STEPPED)

    def test_an_effect_cuts_only_its_own_space(self):
        """``sw; j vt; vt: getvt; chkid`` is one block: the store defers
        a memory effect, ``getvt`` reads the thread counter."""
        program = assemble("""
            .data
        A:  .space 32
            .text
        main:
            li   $t0, 0
            li   $t1, 7
            spawn $t0, $t1
        vt:
            getvt $k0
            chkid $k0
        body:
            la   $t2, A
            slli $t3, $k0, 2
            add  $t2, $t2, $t3
            sw   $k0, 0($t2)
            j    vt
            join
            halt
        """)
        assert self.ops_of(program, "body")[-4:] == \
            ["sw", "j", "getvt", "chkid"]
        assert outcome(program) == outcome(program, **STEPPED)
        base = program.data_labels["A"]
        words = FunctionalSimulator(program).run().memory
        assert [words[base + 4 * k] for k in range(8)] == list(range(8))

    def test_a_jump_out_of_a_region_is_not_followed(self):
        """A ``j`` from a region body to serial code ends its block, so
        the main loop raises the Fig. 9 error at stepping's index."""
        program = assemble("""
            .text
        main:
            li   $t0, 0
            li   $t1, 3
            spawn $t0, $t1
        vt:
            getvt $k0
            chkid $k0
            addi $t2, $k0, 1
            j    out
            join
        out:
            addi $t3, $t3, 1
            halt
        """)
        assert self.ops_of(program, "vt") == ["getvt", "chkid"]
        out = program.labels["out"]
        translated = outcome(program)
        assert translated == outcome(program, **STEPPED)
        assert f"control left the spawn region to text index {out}" \
            in translated[0]

    def test_a_jump_to_its_own_block_start_is_merged_once(self):
        program = assemble("""
            .data
        A:  .word 0
            .text
        main:
            la   $s0, A
        L:
            addi $t0, $t0, 1
            sw   $t0, 0($s0)
            j    L
            halt
        """)
        assert self.ops_of(program, "L") == ["addi", "sw", "j"]
        for budget in (0, 7, 100, 101):
            assert outcome(program, max_instructions=budget) == \
                outcome(program, max_instructions=budget, **STEPPED)

    def test_a_chain_stops_at_the_cap(self):
        """Every ``j`` of a long chain is followed until the block holds
        ``_FOLLOW_CAP`` ops; the next block starts at the last target."""
        links = "\n".join(f"    addi $t0, $t0, 1\n    j L{k}\nL{k}:"
                           for k in range(D._FOLLOW_CAP))
        program = assemble(f"""
            .text
        main:
        {links}
            halt
        """)
        table = decode_program(program).blocks(memory=True)
        block = table[0]
        assert block.n == D._FOLLOW_CAP
        assert block.uops[-1].op == "j"
        after = block.uops[-1].target
        assert table[after].n == D._FOLLOW_CAP
        translated = outcome(program)
        assert translated == outcome(program, **STEPPED)
        assert translated[1][8] == D._FOLLOW_CAP  # $t0: every addi ran

    LOOP_ASM = """
        .data
    A:  .space 64
        .text
    main:
        li   $t0, 0
        li   $t1, 5
        spawn $t0, $t1
    vt:
        getvt $k0
        chkid $k0
        gettcu $t7
        la   $t2, A
        slli $t3, $k0, 2
        add  $t2, $t2, $t3
        add  $t5, $t7, $zero
    loop:
        lw   $t4, 0($t2)
        add  $t4, $t4, $k0
        sw   $t4, 0($t2)
        addi $t5, $t5, 1
        slti $t6, $t5, 3
        bne  $t6, $zero, loop
        psm  $t5, 60($t2)
        j    vt
        join
        halt
    """

    def test_budget_trips_on_the_same_instruction_for_every_k(self):
        """A thread is four block executions over three blocks (prelude
        and first iteration; the loop body, twice; the tail, which runs
        through ``j vt`` into the next thread's ``getvt; chkid``), after
        the dispatch block that starts the first: every budget from 0 to
        the whole run."""
        program = assemble(self.LOOP_ASM)
        total = FunctionalSimulator(program).run().instructions
        table = decode_program(program).blocks(memory=True)
        vt, loop = program.labels["vt"], program.labels["loop"]
        assert [table[pc].n for pc in (vt, vt + 2, loop, loop + 6)] == \
            [2, loop + 6 - (vt + 2), 6, 4]
        for budget in range(total + 2):
            assert outcome(program, max_instructions=budget) == \
                outcome(program, max_instructions=budget, **STEPPED), budget

    def test_callback_and_sanitizer_see_everything(self):
        """Selection is by what can observe the run: a callback hears
        every instruction, a sanitizer every memory op and thread id."""
        from repro.sim.plugins import RaceSanitizer

        class Recording(RaceSanitizer):
            def __init__(self):
                super().__init__()
                self.heard = []

            def set_thread(self, tsid):
                self.heard.append(("vt", tsid))
                super().set_thread(tsid)

            def _note(self, addr, kind, ins):
                self.heard.append((kind, addr, ins.index))
                super()._note(addr, kind, ins)

        program = assemble(self.LOOP_ASM)
        plain = FunctionalSimulator(program).run()
        seen = []
        callback = FunctionalSimulator(
            program, on_instruction=lambda ins, core: seen.append(ins.index))
        assert callback.run() == plain and len(seen) == plain.instructions
        sanitizers = [Recording(), Recording()]
        assert FunctionalSimulator(
            program, sanitizer=sanitizers[0]).run() == plain
        assert FunctionalSimulator(
            program, sanitizer=sanitizers[1], **STEPPED).run() == plain
        assert sanitizers[0].heard == sanitizers[1].heard
        kinds = [event[0] for event in sanitizers[0].heard]
        assert len(kinds) == 7 + 6 * (3 + 3 + 1)  # 7 getvt; per thread ...
        assert plain.instruction_counts["lw"] == 18

    @pytest.mark.parametrize("name", sorted(KERNEL_SIZES))
    def test_kernels_bypass_the_memory_handlers(self, name, monkeypatch):
        """Plain functional runs of the shipped kernels step (``_bump``,
        then a one-op block) nothing but ``spawn``/``print``/``halt``: no
        ``lw``/``sw``/``psm``/``ps`` is executed one at a time."""
        stepped_ops = set()
        bump = FunctionalSimulator._bump
        monkeypatch.setattr(
            FunctionalSimulator, "_bump",
            lambda self, u: (stepped_ops.add(u.op), bump(self, u))[1])
        program = kernel(name)
        sim = FunctionalSimulator(program)
        result = sim.run()
        assert stepped_ops <= {"spawn", "print", "halt"}
        assert not sim._steps  # (the loops' own: no one-op block built)
        monkeypatch.undo()
        assert result == FunctionalSimulator(program, **STEPPED).run()

    def test_serial_flow_into_a_region_still_traps_by_name(self):
        """A block with thread ops is a spawn context's; the Master
        falling into a region steps and is told so."""
        program = assemble("""
            .text
        main:
            li   $t0, 1
            j    vt
            spawn $t0, $t0
        vt:
            getvt $k0
            chkid $k0
            j    vt
            join
            halt
        """)
        assert decode_program(program).blocks(memory=True)[3].threaded
        translated = outcome(program)
        assert "getvt outside a spawn region" in translated[0]
        assert translated == outcome(program, **STEPPED)

    def test_translated_blocks_die_with_their_program(self):
        """What rides along stays bounded: 300 distinct programs leave
        at most the LRU's 4096 sources and no decoded program behind,
        and a program run again compiles nothing."""
        import gc
        import weakref

        from repro.xmtc.fuzz.generator import generate

        decoded_before = len(D._CACHE)
        gone = []
        for seed in range(300):
            generated = generate(seed)
            program = build(generated.source,
                            options=generated.compile_options())
            FunctionalSimulator(program, max_instructions=2_000_000).run()
            assert decode_program(program).blocks(memory=True)
            gone.append(weakref.ref(decode_program(program)))
        assert _compile_block.cache_info().currsize <= 4096
        misses = _compile_block.cache_info().misses
        FunctionalSimulator(program, max_instructions=2_000_000).run()
        assert _compile_block.cache_info().misses == misses
        del program
        gc.collect()
        assert not any(ref() for ref in gone)
        assert len(D._CACHE) <= decoded_before


# --------------------------------------------------------------------------- legible sleepers

class TestDiagnostics:
    def test_dump_counts_tcus_inside_a_run(self):
        first, last = spawn_window(compute(), tiny())
        for cycle in range((first + last) // 2, last):
            machine = machine_for(compute(), tiny(), awake=False)
            entered = {}  # processor -> registers when it entered its run
            for tcu in machine.tcus:
                def enter(block, cycle, tcu=tcu, enter=tcu._enter_run):
                    entered[tcu.tcu_id] = list(tcu.core.regs)
                    return enter(block, cycle)
                tcu._enter_run = enter
            with pytest.raises(SimulationBudgetExceeded) as info:
                machine.run(max_cycles=cycle)
            dump = info.value.dump
            running = [proc for proc in dump.processors
                       if proc.get("asleep_on") == "run"]
            if any(ITERATION <= proc["run_left"] for proc in running):
                break
        uops = machine.decoded.uops
        for proc in running:
            # settled: stepping the ops issued so far from where the
            # chain began lands on the PC, which is the oracle's
            done = proc["run_ops"] - proc["run_left"]
            assert 0 < done <= proc["run_ops"]
            regs, pc = stepped(uops, entered[proc["id"]], proc["run_pc"], done)
            assert pc == proc["pc"]
            assert regs == machine.tcus[proc["id"]].core.regs
        text = dump.format()
        assert f"{len(running)} asleep on run" in text
        assert "asleep_on=run run_pc=" in text and "run_left=" in text
        assert " run_ops=" in text
        assert not any(key.startswith("tcu.stall.run")
                       for key in machine.stats.counters)
