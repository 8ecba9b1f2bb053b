"""The functional model and the fast functional simulation mode.

Section III-A: "The functional model contains the operational definition
of the instructions, as well as the state of the registers and the
memory."  Both simulation modes share this state; the *functional mode*
"serializes the parallel sections of code ... it is orders of magnitude
faster than the cycle-accurate mode and can be used as a fast, limited
debugging tool for XMTC programs" -- but, as the paper notes, it cannot
reveal concurrency bugs, because each spawn block executes its virtual
threads one after the other on a single execution context.

Execution runs over the program's assembled instructions and their
blocks (:mod:`repro.isa.decode`) and is *translated*, not interpreted: the
main loops take the program's blocks (``blocks(memory=True)``) -- loads,
stores, prefix-sums and the thread loop included -- as one generated
function each, built from the spec strings the cycle-accurate
processors' operations come from, so the two modes cannot diverge on
instruction semantics, only on timing.  The loops execute only
``print``/``spawn``/``join``/``halt`` themselves.  A block that traps or
overruns the instruction budget, and every run somebody watches
instruction by instruction, is *stepped*: each instruction runs as the
one-op block of its PC, the same generator's text for one op.

The optional *race sanitizer* (:class:`repro.sim.plugins.RaceSanitizer`,
passed as ``sanitizer=``) closes part of that gap: it records, per spawn
region and per address, which virtual-thread ids loaded, stored and
``psm``-ed each word, and reports the conflicts whose outcome would
depend on thread interleaving on the real machine -- even though the
serialized run itself produces one deterministic answer.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.isa.decode import REGION_DONE, Block, decode_program
from repro.isa.instructions import (
    OP_CHKID,
    OP_GETTCU,
    OP_GETVT,
    OP_HALT,
    OP_JOIN,
    OP_PREFETCH,
    OP_PRINT,
    OP_SPAWN,
    Instruction,
)
from repro.isa.program import Program
from repro.isa.registers import NUM_GLOBAL_REGS, NUM_REGS, REG_SP, REG_ZERO
from repro.isa.semantics import (
    TrapError,
    check_word_addr,
    format_print,
    to_signed,
)

#: Default top-of-stack for the Master TCU's serial stack.
DEFAULT_STACK_TOP = 0x00800000

#: what the main loops execute themselves; every other op is *stepped*
_LOOP_OPS = frozenset((OP_PRINT, OP_SPAWN, OP_JOIN, OP_HALT))
#: ... and, in serial flow, the thread ops too: they trap there
_SERIAL_LOOP_OPS = _LOOP_OPS | {OP_GETVT, OP_GETTCU, OP_CHKID}


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
    register numbers on each instruction.  ``$zero`` is hard-wired: *all*
    architectural writes funnel through :meth:`write`, which discards
    stores to register 0, so ``regs[0]`` is invariantly 0 and reads need
    no special case.
    """

    __slots__ = ("regs", "pc")

    def __init__(self, pc: int = 0):
        self.regs: List[int] = [0] * NUM_REGS
        self.pc = pc

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


class FunctionalSimulator:
    """Executes a :class:`Program` in fast functional mode."""

    def __init__(self, program: Program, stack_top: int = DEFAULT_STACK_TOP,
                 max_instructions: Optional[int] = None,
                 on_instruction: Optional[Callable[[Instruction, CoreState], None]] = None,
                 sanitizer=None):
        program.check_stack_room(stack_top)
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
        #: pc -> the generated function of its one-op block
        self._steps: Dict[int, Callable] = {}
        self.max_instructions = max_instructions
        self.on_instruction = on_instruction
        self._current_core = self.master

    # -- public API -----------------------------------------------------------

    def run(self) -> FunctionalResult:
        """Run to ``halt``; returns the collected result."""
        try:
            self._exec_serial(self.master)
        finally:
            self._credit_blocks()  # a trap report shows stepping's counts
        return FunctionalResult(
            output="".join(self.output),
            instructions=self.instructions_executed,
            memory=self.memory.words,
            global_regs=list(self.global_regs),
            instruction_counts=dict(self.instruction_counts),
        )

    # -- execution ---------------------------------------------------------------

    def _bump(self, u: Instruction) -> None:
        self.instructions_executed += 1
        counts = self.instruction_counts
        counts[u.op] = counts.get(u.op, 0) + 1
        if (self.max_instructions is not None
                and self.instructions_executed > self.max_instructions):
            raise SimulationError(
                f"instruction budget exceeded ({self.max_instructions}); "
                "likely an infinite loop")
        if self.on_instruction is not None:
            self.on_instruction(u, self._current_core)

    def _trap(self, u, message: str) -> "SimulationError":
        return SimulationError(
            f"trap at text index {u.index} (asm line {u.line}, {u.op}): {message}")

    def _blocks(self):
        """The block table to take, by who observes the run: none under
        a per-instruction callback, the cycle machine's register-only
        one under a sanitizer (its hooks fire as memory ops and ``getvt``
        are stepped), else the translated."""
        if self.on_instruction is not None:
            return None
        return self.decoded.blocks(memory=self.sanitizer is None)

    def _run_blocks(self, core: CoreState, blocks, start: int, stop: int,
                    threads: Optional[List[int]] = None) -> None:
        """Execute blocks (:mod:`repro.isa.decode`) back to back while the
        PC stays in ``[start, stop)``.  Returns -- the caller checks the PC
        and steps one instruction -- where no block starts, where a
        serial flow meets a block with thread ops, where the instruction
        budget has no room for all of the block (so the budget trips on
        the same instruction either way) and where the block traps
        (nothing committed: stepping names the op)."""
        regs = core.regs
        words = self.memory.words
        gregs = self.global_regs
        runs = self._block_runs
        serial = threads is None
        executed = self.instructions_executed
        limit = self.max_instructions
        if limit is None:
            limit = sys.maxsize
        pc = core.pc
        try:
            while start <= pc < stop:
                block = blocks[pc]
                if (not block or serial and block.threaded
                        or executed + block.n > limit):
                    break
                pc = (block.fn or block.compile())(regs, words, gregs,
                                                   threads)
                executed += block.n
                runs[block] = runs.get(block, 0) + 1
        except TrapError:
            pass
        core.pc = pc
        self.instructions_executed = executed

    def _credit_blocks(self) -> None:
        """Expand the executed blocks into ``instruction_counts``."""
        counts = self.instruction_counts
        for block, times in self._block_runs.items():
            for op, count in block.op_tally:
                counts[op] = counts.get(op, 0) + count * times
        self._block_runs.clear()

    def _step(self, core: CoreState, u: Instruction,
              threads: Optional[List[int]] = None) -> None:
        """Execute one instruction: counted, shown to the sanitizer, then
        run as the one-op block of its PC (:mod:`repro.isa.decode`)."""
        self._bump(u)
        sanitizer = self.sanitizer
        if sanitizer is not None:
            if u.code == OP_GETVT:
                sanitizer.set_thread(threads[0])
            elif u.is_mem and u.code != OP_PREFETCH:
                hook = (sanitizer.on_load if u.is_load else sanitizer.on_store
                        if u.is_store else sanitizer.on_psm)
                hook((core.regs[u.rs] + u.imm) & 0xFFFFFFFF, u)
        pc = core.pc
        fn = self._steps.get(pc)
        if fn is None:
            fn = self._steps[pc] = Block([u], pc).compile()
        try:
            core.pc = fn(core.regs, self.memory.words, self.global_regs,
                         threads)
        except TrapError as exc:
            raise self._trap(u, str(exc)) from None

    def _print(self, core: CoreState, u: Instruction) -> None:
        regs = core.regs
        try:
            self.output.append(format_print(self.program.strings[u.imm],
                                            [regs[r] for r in u.reads]))
        except TrapError as exc:
            raise self._trap(u, str(exc)) from None
        core.pc += 1

    def _exec_serial(self, core: CoreState) -> None:
        """Serial execution on the Master until halt; spawns serialize."""
        uops = self.decoded.uops
        n = len(uops)
        blocks = self._blocks()
        self._current_core = core
        while True:
            if blocks is not None:
                self._run_blocks(core, blocks, 0, n)
            pc = core.pc
            if not 0 <= pc < n:
                raise SimulationError(f"PC out of range: {pc}")
            u = uops[pc]
            code = u.code
            if code not in _SERIAL_LOOP_OPS:
                self._step(core, u)
                continue
            self._bump(u)
            if code == OP_PRINT:
                self._print(core, u)
            elif code == OP_SPAWN:
                regs = core.regs
                region = self.program.region_for_spawn(pc)
                self._run_spawn_serialized(core, region, to_signed(regs[u.rs]),
                                           to_signed(regs[u.rt]))
                core.pc = region.join_index + 1
                self._current_core = core
            elif code == OP_HALT:
                return
            elif code == OP_JOIN:
                raise self._trap(u, "join reached in serial flow "
                                    "(fell through into a spawn region?)")
            else:
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
        parallel_calls = self.program.parallel_calls
        region_start = region.start
        region_join = region.join_index
        blocks = self._blocks()
        self._current_core = tcu
        sanitizer = self.sanitizer
        if sanitizer is not None:
            sanitizer.region_begin(region)
        # with parallel calls, blocks run anywhere: the join and every
        # PC out of range stop them all the same
        start, stop = (0, n) if parallel_calls else (region_start,
                                                     region_join)
        while True:
            if blocks is not None:
                self._run_blocks(tcu, blocks, start, stop, threads)
            pc = tcu.pc
            if not region_start <= pc < region_join:
                if pc == REGION_DONE:  # a chkid found the ids used up
                    if sanitizer is not None:
                        sanitizer.region_end()
                    return  # all virtual threads done; hardware joins
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
            u = uops[pc]
            if u.code not in _LOOP_OPS:
                self._step(tcu, u, threads)
                continue
            self._bump(u)
            if u.code != OP_PRINT:
                raise self._trap(u, f"{u.op} inside a spawn region")
            self._print(tcu, u)
