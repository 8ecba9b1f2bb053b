"""The functional model and the fast functional simulation mode.

Section III-A: "The functional model contains the operational definition
of the instructions, as well as the state of the registers and the
memory."  Both simulation modes share this state; the *functional mode*
"serializes the parallel sections of code ... it is orders of magnitude
faster than the cycle-accurate mode and can be used as a fast, limited
debugging tool for XMTC programs" -- but, as the paper notes, it cannot
reveal concurrency bugs, because each spawn block executes its virtual
threads one after the other on a single execution context.

Execution runs over the pre-decoded micro-op form of the program
(:mod:`repro.isa.decode`) and is *translated*, not interpreted: the
main loops take the program's blocks (``blocks(memory=True)``) -- loads,
stores, prefix-sums and the thread loop included -- as one generated
function each, built from the spec strings the cycle-accurate
processors' operations come from, so the two modes cannot diverge on
instruction semantics, only on timing.  What a block cannot hold
(``spawn``/``print``/``halt``), a block that traps or overruns the
instruction budget, and every run somebody watches instruction by
instruction are *stepped* through the flat :data:`HANDLERS` table.

The optional *race sanitizer* (:class:`repro.sim.plugins.RaceSanitizer`,
passed as ``sanitizer=``) closes part of that gap: it records, per spawn
region and per address, which virtual-thread ids loaded, stored and
``psm``-ed each word, and reports the conflicts whose outcome would
depend on thread interleaving on the real machine -- even though the
serialized run itself produces one deterministic answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.isa import instructions as I
from repro.isa.decode import (
    REGION_DONE,
    Block,
    MicroOp,
    N_OPCODES,
    OP_ALU,
    OP_ALU_IMM,
    OP_ALU_SHARED,
    OP_BRANCH,
    OP_CHKID,
    OP_FENCE,
    OP_GETG,
    OP_GETTCU,
    OP_GETVT,
    OP_HALT,
    OP_JAL,
    OP_JOIN,
    OP_JR,
    OP_JUMP,
    OP_LI,
    OP_LOAD,
    OP_LOAD_RO,
    OP_NOP,
    OP_PREFETCH,
    OP_PRINT,
    OP_PS,
    OP_PSM,
    OP_SETG,
    OP_SPAWN,
    OP_STORE,
    OP_STORE_NB,
    OP_UNARY,
    OP_UNARY_SHARED,
    decode_program,
)
from repro.isa.program import Program
from repro.isa.registers import NUM_GLOBAL_REGS, NUM_REGS, REG_RA, REG_SP, REG_ZERO
from repro.isa.semantics import (
    TrapError,
    check_word_addr,
    format_print,
    to_signed,
    to_unsigned,
)

#: Default top-of-stack for the Master TCU's serial stack.
DEFAULT_STACK_TOP = 0x00800000


class Memory:
    """Sparse word-addressed shared memory (raw 32-bit patterns)."""

    __slots__ = ("words",)

    def __init__(self, image: Optional[Dict[int, int]] = None):
        self.words: Dict[int, int] = dict(image) if image else {}

    def load(self, addr: int) -> int:
        return self.words.get(check_word_addr(addr), 0)

    def store(self, addr: int, value: int) -> None:
        self.words[check_word_addr(addr)] = value & 0xFFFFFFFF

    def psm(self, addr: int, amount: int) -> int:
        """Atomic prefix-sum-to-memory; returns the old value."""
        addr = check_word_addr(addr)
        old = self.words.get(addr, 0)
        self.words[addr] = (old + amount) & 0xFFFFFFFF
        return old


class CoreState:
    """Register file + program counter of one execution context.

    The register file is a fixed-size list indexed by the pre-resolved
    register numbers on each micro-op.  ``$zero`` is hard-wired: *all*
    architectural writes funnel through :meth:`write`, which discards
    stores to register 0, so ``regs[0]`` is invariantly 0 and reads need
    no special case.
    """

    __slots__ = ("regs", "pc")

    def __init__(self, pc: int = 0):
        self.regs: List[int] = [0] * NUM_REGS
        self.pc = pc

    def read(self, r: int) -> int:
        return self.regs[r]

    def write(self, r: int, value: int) -> None:
        if r != REG_ZERO:
            self.regs[r] = value & 0xFFFFFFFF

    def copy_from(self, other: "CoreState") -> None:
        self.regs[:] = other.regs


@dataclass
class FunctionalResult:
    """Outcome of a functional-mode run."""

    output: str
    instructions: int
    memory: Dict[int, int]
    global_regs: List[int]
    #: per-mnemonic instruction counts (the paper's instruction counters)
    instruction_counts: Dict[str, int] = field(default_factory=dict)

    def read_global(self, program: Program, name: str, **kw):
        return program.read_global(name, self.memory, **kw)


class SimulationError(Exception):
    """Raised when the simulated program traps or misbehaves."""


# -- the functional dispatch table ---------------------------------------------
#
# One handler per opcode, indexed by ``MicroOp.code``.  Handlers advance
# ``core.pc`` themselves (branches/jumps set it absolutely).  Control
# opcodes (spawn/join/getvt/chkid/gettcu/halt) are context-dependent and
# are intercepted by the main loops before dispatch; their table entries
# trap so that reaching one through the table is a loud bug, never a
# silent skip.

def _h_alu(sim, core, u: MicroOp) -> None:
    regs = core.regs
    core.write(u.rd, u.fn(regs[u.rs], regs[u.rt]))
    core.pc += 1


def _h_alu_imm(sim, core, u: MicroOp) -> None:
    core.write(u.rd, u.fn(core.regs[u.rs], u.imm))
    core.pc += 1


def _h_li(sim, core, u: MicroOp) -> None:
    core.write(u.rd, u.imm)
    core.pc += 1


def _h_unary(sim, core, u: MicroOp) -> None:
    core.write(u.rd, u.fn(core.regs[u.rs]))
    core.pc += 1


def _h_branch(sim, core, u: MicroOp) -> None:
    regs = core.regs
    if u.fn(regs[u.rs], regs[u.rt] if u.rt >= 0 else 0):
        core.pc = u.target
    else:
        core.pc += 1


def _h_jump(sim, core, u: MicroOp) -> None:
    core.pc = u.target


def _h_jal(sim, core, u: MicroOp) -> None:
    core.write(REG_RA, to_unsigned(core.pc + 1))
    core.pc = u.target


def _h_jr(sim, core, u: MicroOp) -> None:
    core.pc = to_unsigned(core.regs[u.rs])


def _h_load(sim, core, u: MicroOp) -> None:
    addr = to_unsigned(core.regs[u.rs] + u.imm)
    if sim.sanitizer is not None:
        sim.sanitizer.on_load(addr, u.ins)
    core.write(u.rd, sim.memory.load(addr))
    core.pc += 1


def _h_store(sim, core, u: MicroOp) -> None:
    regs = core.regs
    addr = to_unsigned(regs[u.rs] + u.imm)
    if sim.sanitizer is not None:
        sim.sanitizer.on_store(addr, u.ins)
    sim.memory.store(addr, regs[u.rt])
    core.pc += 1


def _h_psm(sim, core, u: MicroOp) -> None:
    regs = core.regs
    addr = to_unsigned(regs[u.rs] + u.imm)
    if sim.sanitizer is not None:
        sim.sanitizer.on_psm(addr, u.ins)
    core.write(u.rd, sim.memory.psm(addr, to_signed(regs[u.rd])))
    core.pc += 1


def _h_prefetch(sim, core, u: MicroOp) -> None:
    core.pc += 1  # timing hint only


def _h_ps(sim, core, u: MicroOp) -> None:
    amount = core.regs[u.rd]
    old = sim.global_regs[u.imm]
    sim.global_regs[u.imm] = (old + amount) & 0xFFFFFFFF
    core.write(u.rd, old)
    core.pc += 1


def _h_getg(sim, core, u: MicroOp) -> None:
    core.write(u.rd, sim.global_regs[u.imm])
    core.pc += 1


def _h_setg(sim, core, u: MicroOp) -> None:
    sim.global_regs[u.imm] = core.regs[u.rd]
    core.pc += 1


def _h_fence(sim, core, u: MicroOp) -> None:
    core.pc += 1  # ordering is trivially satisfied in functional mode


def _h_nop(sim, core, u: MicroOp) -> None:
    core.pc += 1


def _h_print(sim, core, u: MicroOp) -> None:
    fmt = sim.program.strings[u.imm]
    regs = core.regs
    sim.output.append(format_print(fmt, [regs[r] for r in u.reads]))
    core.pc += 1


def _make_control_trap(what: str):
    def handler(sim, core, u: MicroOp) -> None:
        raise TrapError(f"{what} dispatched through the functional table")
    return handler


HANDLERS: List[Callable] = [None] * N_OPCODES
HANDLERS[OP_ALU] = _h_alu
HANDLERS[OP_ALU_SHARED] = _h_alu    # shared-FU timing is a cycle-mode concern
HANDLERS[OP_ALU_IMM] = _h_alu_imm
HANDLERS[OP_LI] = _h_li
HANDLERS[OP_UNARY] = _h_unary
HANDLERS[OP_UNARY_SHARED] = _h_unary
HANDLERS[OP_BRANCH] = _h_branch
HANDLERS[OP_JUMP] = _h_jump
HANDLERS[OP_JAL] = _h_jal
HANDLERS[OP_JR] = _h_jr
HANDLERS[OP_LOAD] = _h_load
HANDLERS[OP_LOAD_RO] = _h_load      # lwro: same value, different cache path
HANDLERS[OP_STORE] = _h_store
HANDLERS[OP_STORE_NB] = _h_store
HANDLERS[OP_PSM] = _h_psm
HANDLERS[OP_PREFETCH] = _h_prefetch
HANDLERS[OP_PS] = _h_ps
HANDLERS[OP_GETG] = _h_getg
HANDLERS[OP_SETG] = _h_setg
HANDLERS[OP_FENCE] = _h_fence
HANDLERS[OP_NOP] = _h_nop
HANDLERS[OP_PRINT] = _h_print
HANDLERS[OP_GETVT] = _make_control_trap("getvt")
HANDLERS[OP_GETTCU] = _make_control_trap("gettcu")
HANDLERS[OP_CHKID] = _make_control_trap("chkid")
HANDLERS[OP_SPAWN] = _make_control_trap("spawn")
HANDLERS[OP_JOIN] = _make_control_trap("join")
HANDLERS[OP_HALT] = _make_control_trap("halt")

# every opcode must have a handler; a new opcode without one fails the
# import, not the first program that happens to use it
assert all(h is not None for h in HANDLERS), "functional HANDLERS incomplete"


class FunctionalSimulator:
    """Executes a :class:`Program` in fast functional mode."""

    def __init__(self, program: Program, stack_top: int = DEFAULT_STACK_TOP,
                 max_instructions: Optional[int] = None,
                 on_instruction: Optional[Callable[[I.Instruction, CoreState], None]] = None,
                 sanitizer=None):
        self.program = program
        self.decoded = decode_program(program)
        #: optional dynamic race sanitizer (duck-typed like
        #: :class:`repro.sim.plugins.RaceSanitizer`): notified of spawn
        #: region boundaries, granted thread ids and memory traffic
        self.sanitizer = sanitizer
        self.memory = Memory(program.data_image)
        self.global_regs: List[int] = [0] * NUM_GLOBAL_REGS
        for index, value in program.greg_init.items():
            self.global_regs[index] = value
        self.master = CoreState(pc=program.entry)
        self.master.write(REG_SP, stack_top)
        self.output: List[str] = []
        self.instructions_executed = 0
        self.instruction_counts: Dict[str, int] = {}
        self._block_runs: Dict[Block, int] = {}
        self.max_instructions = max_instructions
        self.on_instruction = on_instruction
        self._halted = False
        self._current_core = self.master

    @classmethod
    def attached(cls, program: Program, memory: Memory, global_regs: List[int],
                 output: List[str], max_instructions: Optional[int] = None
                 ) -> "FunctionalSimulator":
        """Build a functional executor sharing another machine's state.

        Used by phase sampling (Section III-F): the cycle-accurate
        machine hands its live memory / global registers / output list
        to a functional executor to fast-forward a parallel section.
        The decode cache is shared too -- both modes read the same
        micro-ops.
        """
        sim = cls(program, max_instructions=max_instructions)
        sim.memory = memory
        sim.global_regs = global_regs
        sim.output = output
        return sim

    def run_spawn_region(self, region, low: int, high: int,
                         master_regs: List[int]) -> int:
        """Execute one spawn region functionally (serialized); returns
        the number of instructions executed."""
        master = CoreState()
        master.regs[:] = master_regs
        self._run_spawn_serialized(master, region, low, high)
        self._credit_blocks()
        return self.instructions_executed

    # -- public API -----------------------------------------------------------

    def run(self) -> FunctionalResult:
        """Run to ``halt``; returns the collected result."""
        try:
            self._exec_serial(self.master)
        finally:
            self._credit_blocks()  # a trap report shows stepping's counts
        if not self._halted:
            raise SimulationError("program ended without executing halt")
        return FunctionalResult(
            output="".join(self.output),
            instructions=self.instructions_executed,
            memory=self.memory.words,
            global_regs=list(self.global_regs),
            instruction_counts=dict(self.instruction_counts),
        )

    # -- execution ---------------------------------------------------------------

    def _bump(self, u: MicroOp) -> None:
        self.instructions_executed += 1
        counts = self.instruction_counts
        counts[u.op] = counts.get(u.op, 0) + 1
        if (self.max_instructions is not None
                and self.instructions_executed > self.max_instructions):
            raise SimulationError(
                f"instruction budget exceeded ({self.max_instructions}); "
                "likely an infinite loop")
        if self.on_instruction is not None:
            self.on_instruction(u.ins, self._current_core)

    def _trap(self, u, message: str) -> "SimulationError":
        return SimulationError(
            f"trap at text index {u.index} (asm line {u.line}, {u.op}): {message}")

    def _blocks(self):
        """The block table to take, by who observes the run: none under
        a per-instruction callback, the register-only one under a
        sanitizer (its hooks fire in the handlers), else the translated."""
        if self.on_instruction is not None:
            return None
        return self.decoded.blocks(memory=self.sanitizer is None)

    def _run_block(self, core: CoreState, block: Block,
                   threads: Optional[List[int]] = None) -> bool:
        """Execute a whole block (:mod:`repro.isa.decode`) in one call.
        False -- the caller steps one instruction instead -- when the
        instruction budget has no room for all of it, so the budget
        trips on the same instruction either way, and when it traps."""
        executed = self.instructions_executed + block.n
        if (self.max_instructions is not None
                and executed > self.max_instructions):
            return False
        try:
            core.pc = (block.fn or block.compile())(
                core.regs, self.memory.words, self.global_regs, threads)
        except TrapError:
            return False  # nothing committed: stepping names the op
        self.instructions_executed = executed
        runs = self._block_runs
        runs[block] = runs.get(block, 0) + 1
        return True

    def _credit_blocks(self) -> None:
        """Expand the executed blocks into ``instruction_counts``."""
        counts = self.instruction_counts
        for block, times in self._block_runs.items():
            for op, count in block.op_tally:
                counts[op] = counts.get(op, 0) + count * times
        self._block_runs.clear()

    def _exec_serial(self, core: CoreState) -> None:
        """Serial execution on the Master until halt; spawns serialize."""
        program = self.program
        uops = self.decoded.uops
        n = len(uops)
        handlers = HANDLERS
        blocks = self._blocks()
        self._current_core = core
        while not self._halted:
            pc = core.pc
            if not 0 <= pc < n:
                raise SimulationError(f"PC out of range: {pc}")
            if blocks is not None:
                block = blocks[pc]
                if (block and not block.threaded
                        and self._run_block(core, block)):
                    continue
            u = uops[pc]
            self._bump(u)
            code = u.code
            if code < OP_GETVT:  # the common, mode-independent group
                try:
                    handlers[code](self, core, u)
                except TrapError as exc:
                    raise self._trap(u, str(exc)) from None
                continue
            if code == OP_SPAWN:
                regs = core.regs
                low = to_signed(regs[u.rs])
                high = to_signed(regs[u.rt])
                region = program.region_for_spawn(pc)
                self._run_spawn_serialized(core, region, low, high)
                core.pc = region.join_index + 1
                self._current_core = core
                continue
            if code == OP_HALT:
                self._halted = True
                return
            if code == OP_JOIN:
                raise self._trap(u, "join reached in serial flow "
                                    "(fell through into a spawn region?)")
            # getvt / chkid / gettcu
            raise self._trap(u, f"{u.op} outside a spawn region")

    def _run_spawn_serialized(self, master: CoreState, region, low: int, high: int) -> None:
        """Serialize a spawn block: one context runs all virtual threads.

        The context starts from a broadcast copy of the master register
        file (the paper's "broadcast all live Master TCU registers"),
        then executes the region's getvt/chkid dispatch loop with the
        thread counter granting IDs ``low..high`` in order.
        """
        tcu = CoreState(pc=region.start)
        tcu.copy_from(master)
        threads = [low, high]  # the next id to grant, the spawn's last
        uops = self.decoded.uops
        n = len(uops)
        handlers = HANDLERS
        parallel_calls = self.program.parallel_calls
        region_start = region.start
        region_join = region.join_index
        blocks = self._blocks()
        self._current_core = tcu
        sanitizer = self.sanitizer
        if sanitizer is not None:
            sanitizer.region_begin(region)
        while True:
            pc = tcu.pc
            if not region_start <= pc < region_join:
                if pc == REGION_DONE:
                    return  # a block's chkid found the ids used up
                if pc == region_join:
                    raise SimulationError(
                        "TCU flowed into join without a chkid park "
                        f"(text index {pc})")
                if not parallel_calls:
                    # The XMT hardware cannot execute instructions that
                    # were not broadcast -- exactly the Fig. 9 basic-block
                    # layout hazard the compiler post-pass must prevent.
                    raise SimulationError(
                        "control left the spawn region to text index "
                        f"{pc} (basic-block layout bug? see paper "
                        "Fig. 9)")
                if not 0 <= pc < n:
                    raise SimulationError(f"TCU PC out of range: {pc}")
            if blocks is not None:
                block = blocks[pc]
                if block and self._run_block(tcu, block, threads):
                    continue
            u = uops[pc]
            self._bump(u)
            code = u.code
            if code < OP_GETVT:
                try:
                    handlers[code](self, tcu, u)
                except TrapError as exc:
                    raise self._trap(u, str(exc)) from None
                continue
            if code == OP_GETVT:
                tcu.write(u.rd, to_unsigned(threads[0]))
                if sanitizer is not None:
                    sanitizer.set_thread(threads[0])
                threads[0] += 1
                tcu.pc = pc + 1
                continue
            if code == OP_CHKID:
                vt = to_signed(tcu.regs[u.rs])
                if vt > high:
                    if sanitizer is not None:
                        sanitizer.region_end()
                    return  # all virtual threads done; hardware joins
                tcu.pc = pc + 1
                continue
            if code == OP_GETTCU:
                tcu.write(u.rd, 0)  # one serialized context
                tcu.pc = pc + 1
                continue
            # spawn / halt / join
            raise self._trap(u, f"{u.op} inside a spawn region")
