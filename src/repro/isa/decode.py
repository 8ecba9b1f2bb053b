"""Blocks: straight-line runs of instructions executed as one call.

The paper's simulator is execution-driven: one functional model holds
"the operational definition of the instructions" consumed by the fast
functional mode and the cycle-accurate mode alike (Section III-A).  Both
pipelines execute the assembled :class:`~repro.isa.instructions.Instruction`
records themselves -- each already carries its opcode, registers,
read/write sets and operational definition, built by the assembler from
its row of :data:`~repro.isa.instructions.TABLE`.  What this module adds
is per *program*: a :class:`DecodedProgram` is shared read-only by every
TCU of a machine and carries the program's *blocks* (:class:`BlockTable`),
straight-line runs that a pipeline executes as one generated function,
formed when first executed.
"""

from __future__ import annotations

import functools
import weakref
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.isa import semantics as S
from repro.isa.instructions import (
    OP_ALU,
    OP_ALU_IMM,
    OP_ALU_SHARED,
    OP_BRANCH,
    OP_CHKID,
    OP_FENCE,
    OP_GETG,
    OP_GETTCU,
    OP_GETVT,
    OP_JAL,
    OP_JOIN,
    OP_JR,
    OP_JUMP,
    OP_LI,
    OP_LOAD,
    OP_LOAD_RO,
    OP_NOP,
    OP_PREFETCH,
    OP_PS,
    OP_PSM,
    OP_SETG,
    OP_SPAWN,
    OP_STORE,
    OP_STORE_NB,
    OP_UNARY,
    OP_UNARY_SHARED,
    TABLE,
    Instruction,
)
from repro.isa.registers import REG_RA, REG_ZERO


# -- basic blocks --------------------------------------------------------------
#
# A *block* is a run of instructions that one generated function
# ``_block(r, m, g, c) -> next_pc`` executes in place of one dispatch
# per instruction.  Blocks are formed on demand -- the first time a
# pipeline is about to execute a PC (:class:`BlockTable`) -- never by
# :func:`decode_program`, and the function is generated from the spec
# strings of :data:`~repro.isa.instructions.TABLE`, the same text each
# row's callable (``Instruction.fn``) is built from.  The cycle
# machine's table holds runs of what takes exactly one issue slot and
# touches nothing but the issuing core's registers (its functions are
# called ``fn(regs)``): private-ALU value ops, ``li`` and ``nop``,
# optionally closed by one branch or ``j``.  The functional
# engine's (``memory=True``) has no timing to respect and admits all but
# ``print``/``spawn``/``join``/``halt``: loads, stores and prefix-sums
# on ``m`` (``Memory.words``) and ``g`` (the global registers), the
# thread ops of a spawn region (``c``: ``[next id, last id]``), closed
# by any branch or jump or by ``chkid``.  Both tables follow an
# unconditional ``j`` into its target when both lie in the same span (one
# spawn-region body, or serial code), the target is not yet in the
# block and the block is shorter than ``_FOLLOW_CAP`` -- so a ``j`` that
# leaves a region still returns to the main loop and its checks, and a
# loop body, its ``j`` and the loop's test up to its branch are one
# cycle block that branches back to its own start.  Two rules hold.
# *One commit*: values, loaded words and checked addresses live in
# locals and every effect comes at the end, in program order, so a trap
# leaves nothing behind.  *A cut per state space*: a read of memory
# (``lw``/``lwro``/``psm``), of the global registers (``ps``/``getg``)
# or of the thread counter (``getvt``) after a deferred effect on the
# same space starts a new block, so nothing is forwarded.
# A functional *step* is the same function for a block of one op.

_UNARY = (OP_UNARY, OP_UNARY_SHARED)
_VALUE_OPS = (OP_ALU, OP_ALU_SHARED, OP_ALU_IMM) + _UNARY
#: what a read of state reads, and what a deferred effect changes: memory,
#: the global registers, the thread counter
_STATE_READS = {OP_LOAD: "m", OP_LOAD_RO: "m", OP_PSM: "m", OP_PS: "g",
                OP_GETG: "g", OP_GETVT: "c"}
_EFFECTS = {OP_STORE: "m", OP_STORE_NB: "m", OP_PSM: "m", OP_PS: "g",
            OP_SETG: "g", OP_GETVT: "c"}
#: what the functional engine's blocks hold, and what may close one
_TRANSLATED = frozenset(_STATE_READS) | frozenset(_EFFECTS) | frozenset(
    _VALUE_OPS + (OP_LI, OP_NOP, OP_PREFETCH, OP_FENCE, OP_GETTCU))
_CLOSERS = frozenset((OP_BRANCH, OP_JUMP, OP_JAL, OP_JR, OP_CHKID))
#: a block follows a ``j`` only while it has fewer ops
_FOLLOW_CAP = 64
#: what a block returns whose ``chkid`` finds the spawn's ids used up
REGION_DONE = -1


def _fusable(u: Instruction) -> bool:
    """May ``u`` sit inside a block of the cycle machine?"""
    return u.code in (OP_LI, OP_NOP) or (
        u.code in (OP_ALU, OP_ALU_IMM, OP_UNARY)
        and TABLE[u.op].spec is not None)


def _translatable() -> Callable[[Instruction], bool]:
    """What may sit inside one block of the functional engine: ``admits(u)``
    for the ops of one block in order (a read of a state space after a
    deferred effect on it is not admitted)."""
    dirty = set()  # the spaces with a deferred effect

    def admits(u: Instruction) -> bool:
        code = u.code
        if code not in _TRANSLATED or _STATE_READS.get(code) in dirty:
            return False
        if code in _EFFECTS:
            dirty.add(_EFFECTS[code])
        return True
    return admits


def _value_text(u: Instruction, a: str, b: str) -> str:
    """Expression text of a value op on operand atoms: its spec, or a
    call of its row's bare callable -- either truncated to 32 bits, as a
    register write is."""
    spec = TABLE[u.op].spec
    if spec is not None:
        return S.value_expr(spec, a, b)
    args = a if u.code in _UNARY else f"{a}, {b}"
    return f"TABLE[{u.op!r}].fn({args}) & 0xFFFFFFFF"


def block_source(uops: List[Instruction]) -> str:
    """Python source of ``_block(r, m, g, c) -> next_pc`` for a block's
    instructions (the fall-through PC is the one after the last op; a
    ``j`` before it was followed and emits nothing).  A register lives in
    a fresh local per write; effects on ``m``/``g``/``c`` are collected
    and emitted -- then one store per written register -- after the last
    line that can trap."""
    next_pc = uops[-1].index + 1
    lines = ["def _block(r, m=None, g=None, c=None):"]
    names: Dict[int, str] = {}  # register -> the local of its value
    effects: List[str] = []

    def atom(reg: int) -> str:
        if reg == REG_ZERO:
            return "0"
        if reg not in names:
            names[reg] = f"r{reg}"
            lines.append(f" r{reg} = r[{reg}]")
        return names[reg]

    def address(u: Instruction) -> str:
        name = f"a{len(lines)}"
        lines.append(f" {name} = ({atom(u.rs)} + ({u.imm})) & 0xFFFFFFFF")
        lines.append(f" if {S.BAD_WORD_ADDR_SPEC.format(a=name)}:"
                     f" check_word_addr({name})")
        return name

    def fetch_add(u: Instruction, cell: str, read: str) -> str:
        """``psm``/``ps``: ``rd`` gets the cell, the cell gets the sum."""
        old = f"p{len(lines)}"
        lines.append(f" {old} = {read}")
        effects.append(f" {cell} = ({old} + {atom(u.rd)}) & 0xFFFFFFFF")
        return old

    result = f" return {next_pc}"
    for u in uops:
        code = u.code
        rd = u.rd
        if code in (OP_NOP, OP_PREFETCH, OP_FENCE):
            continue
        if code == OP_JUMP:
            if u is uops[-1]:
                result = f" return {u.target}"
            continue
        if code == OP_JR:
            result = f" return {atom(u.rs)}"
            continue
        if code == OP_BRANCH:
            cond = TABLE[u.op].spec.format(
                a=atom(u.rs), b=atom(u.rt) if u.rt >= 0 else "0")
            result = f" return {u.target} if {cond} else {next_pc}"
            continue
        if code == OP_CHKID:
            cond = TABLE["sgt"].spec.format(a=atom(u.rs), b="c[1]")
            result = f" return {REGION_DONE} if {cond} else {next_pc}"
            continue
        if code in (OP_STORE, OP_STORE_NB):
            effects.append(f" m[{address(u)}] = {atom(u.rt)}")
            continue
        if code == OP_SETG:
            effects.append(f" g[{u.imm}] = {atom(rd)}")
            continue
        if code == OP_JAL:
            rd, expr, result = REG_RA, str(next_pc), f" return {u.target}"
        elif code == OP_LI:
            expr = str(u.imm & 0xFFFFFFFF)
        elif code == OP_ALU_IMM:
            expr = _value_text(u, atom(u.rs), f"({u.imm})")
        elif code in _VALUE_OPS:
            expr = _value_text(u, atom(u.rs), atom(u.rt) if u.rt >= 0 else "0")
        elif code in (OP_LOAD, OP_LOAD_RO):
            expr = f"m.get({address(u)}, 0)"
        elif code == OP_PSM:
            addr = address(u)
            expr = fetch_add(u, f"m[{addr}]", f"m.get({addr}, 0)")
        elif code == OP_PS:
            expr = fetch_add(u, f"g[{u.imm}]", f"g[{u.imm}]")
        elif code == OP_GETG:
            expr = f"g[{u.imm}]"
        elif code == OP_GETVT:
            expr = "c[0] & 0xFFFFFFFF"
            effects.append(" c[0] += 1")
        elif code == OP_GETTCU:  # one serialized context
            expr = "0"
        else:  # print/spawn/join/halt: the functional main loops' own
            raise ValueError(f"{u.op} has no translation")
        if rd == REG_ZERO:
            lines.append(f" {expr}")  # evaluated (it may trap); dropped
        else:
            names[rd] = f"r{rd}_{len(lines)}"
            lines.append(f" {names[rd]} = {expr}")
    lines += effects
    lines += [f" r[{reg}] = {name}" for reg, name in names.items()
              if name != f"r{reg}"]
    lines.append(result)
    return "\n".join(lines)


#: generated source -> function, process-wide: a program compiled again
#: (a fresh ``Program`` per run) produces the same text and reuses the
#: code object.  Bounded, so a long-lived process that simulates many
#: different programs does not keep every block it ever ran.
@functools.lru_cache(maxsize=4096)
def _compile_block(source: str) -> Callable[[List[int]], int]:
    return S.define_function(source, _BLOCK_NAMES)


#: what a generated block may call: the helpers of the operational
#: definitions, and a bare callable's row
_BLOCK_NAMES = dict(vars(S), TABLE=TABLE)


class Block:
    """One formed block: ``n`` instructions starting at ``pc``, in the
    order they execute (a block goes on at a followed ``j``'s target).

    ``regs`` is every register the block reads or writes (what a
    scoreboard must find clear before the block can run unattended);
    ``tally``/``op_tally`` are its per-counter-key and per-mnemonic
    instruction counts, credited in one go when the block executes;
    ``threaded`` says it holds an op only a spawn region's context may
    execute (``getvt``/``gettcu``/``chkid``: its function reads ``c``).
    """

    __slots__ = ("pc", "n", "uops", "regs", "tally", "op_tally", "threaded",
                 "fn")

    def __init__(self, uops: List[Instruction], pc: int):
        self.pc = pc
        self.n = len(uops)
        self.uops = uops
        regs = set()
        keys: Counter = Counter()
        for u in uops:
            regs.update(u.reads)
            regs.add(u.wr)
            keys[u.stat_key] += 1
            keys[u.class_key] += 1
        self.regs = frozenset(regs - {REG_ZERO, -1})
        self.tally = tuple(keys.items())
        self.op_tally = tuple(Counter(u.op for u in uops).items())
        self.threaded = any(u.code in (OP_GETVT, OP_GETTCU, OP_CHKID)
                            for u in uops)
        #: the generated function; compiled at the first whole execution
        self.fn: Optional[Callable[[List[int]], int]] = None

    def compile(self) -> Callable[[List[int]], int]:
        fn = self.fn = _compile_block(block_source(self.uops))
        return fn


class BlockTable(dict):
    """``pc -> Block`` (``False`` where no block starts), filled in on
    demand: looking up a PC for the first time forms its block."""

    __slots__ = ("uops", "memory", "closers", "spans", "_starts")

    def __init__(self, uops: List[Instruction], branches: bool, memory: bool):
        super().__init__()
        self.uops = uops
        #: the functional engine's table (see the section comment)
        self.memory = memory
        #: what may close a block; a branch that costs more than one
        #: issue slot (not ``branches``) ends a register-only block
        #: before it instead
        self.closers = (_CLOSERS if memory else (OP_JUMP, OP_BRANCH)
                        if branches else (OP_JUMP,))
        #: per PC, the ``spawn`` whose region body holds it (-1: serial)
        self.spans: List[int] = []
        self._starts: Optional[RunStarts] = None
        span = -1
        for i, u in enumerate(uops):
            if u.code == OP_JOIN:
                span = -1
            self.spans.append(span)
            if u.code == OP_SPAWN:
                span = i

    def __missing__(self, pc: int):
        uops = self._follow(pc, _translatable() if self.memory else _fusable)
        block = self[pc] = Block(uops, pc) if uops else False
        return block

    def run_starts(self, run_min: int) -> "RunStarts":
        """The (initially empty) table of the blocks a chain of
        ``run_min`` ops or more may start at, shared like this one."""
        starts = self._starts
        if starts is None or starts.run_min != run_min:
            starts = self._starts = RunStarts(self, run_min)
        return starts

    def _follow(self, pc: int, admits: Callable[[Instruction], bool]
                ) -> List[Instruction]:
        """The block at ``pc``: straight-line runs of what ``admits``,
        each closed by one of ``closers``, joined where a ``j`` is
        followed (see the section comment)."""
        uops = self.uops
        n = len(uops)
        spans = self.spans
        closers = self.closers
        ops: List[Instruction] = []
        end = pc
        while True:
            while end < n and admits(uops[end]):
                ops.append(uops[end])
                end += 1
            if end == n or uops[end].code not in closers:
                return ops
            u = uops[end]
            ops.append(u)
            target = u.target
            if (u.code != OP_JUMP or len(ops) >= _FOLLOW_CAP
                    or not 0 <= target < n or spans[target] != spans[end]
                    or any(op.index == target for op in ops)):
                return ops
            end = target


class RunStarts(dict):
    """``pc -> Block`` where a chain of ``run_min`` ops or more may start
    (``False`` elsewhere), filled in on demand.  A block of ``run_min``
    ops or more may; a shorter one only if it is closed by a branch or
    ``j`` whose target starts a block (the chain might go on there) --
    a fact of the block, so the cycle machine asks it once per PC, not
    on every tick there."""

    __slots__ = ("blocks", "run_min")

    def __init__(self, blocks: BlockTable, run_min: int):
        super().__init__()
        self.blocks = blocks
        self.run_min = run_min

    def __missing__(self, pc: int):
        blocks = self.blocks
        block = blocks[pc]
        if block and block.n < self.run_min:
            target = block.uops[-1].target
            if target < 0 or not blocks[target]:
                block = False
        self[pc] = block
        return block


class DecodedProgram:
    """The executed view of one :class:`~repro.isa.program.Program`:
    ``uops`` is its text segment as it stood when decoded.

    Read-only by convention: the machine, every TCU and the functional
    simulator index the same ``uops`` list.  Holds no strong reference
    to the owning ``Program`` (the module cache would otherwise keep
    every decoded program alive forever) -- consumers always have the
    program at hand anyway.
    """

    __slots__ = ("uops", "_source", "_owner", "_blocks", "__weakref__")

    def __init__(self, program) -> None:
        self.uops: List[Instruction] = list(program.instructions)
        self._source = program.instructions
        self._owner = weakref.ref(program)
        self._blocks: Dict[Tuple[bool, bool], BlockTable] = {}

    def blocks(self, branches: bool = True,
               memory: bool = False) -> BlockTable:
        """The (initially empty) block table of this program, shared
        like ``uops``; the arguments as in :class:`BlockTable`."""
        key = (branches, memory)
        table = self._blocks.get(key)
        if table is None:
            table = self._blocks[key] = BlockTable(self.uops, *key)
        return table

    def fresh_for(self, program) -> bool:
        """Is this decode still valid for ``program``'s current text?"""
        instrs = program.instructions
        return (self._owner() is program
                and self._source is instrs
                and len(self.uops) == len(instrs)
                and (not instrs or self.uops[-1] is instrs[-1]))


#: program id -> DecodedProgram; entries die with their program.
_CACHE: Dict[int, DecodedProgram] = {}


def decode_program(program) -> DecodedProgram:
    """Return the shared :class:`DecodedProgram` for ``program``.

    Decoding happens once per program object; every machine, TCU and
    functional simulator built on the same program shares the result.
    A program whose text changed since the cached decode (compiler
    post-pass edits, ``refresh_regions``) is transparently re-decoded.
    """
    key = id(program)
    cached = _CACHE.get(key)
    if cached is not None and cached.fresh_for(program):
        return cached
    decoded = DecodedProgram(program)
    if cached is None:
        weakref.finalize(program, _CACHE.pop, key, None)
    _CACHE[key] = decoded
    return decoded
