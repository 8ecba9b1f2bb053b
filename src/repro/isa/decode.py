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
    OP_STORE,
    OP_STORE_NB,
    OP_UNARY,
    OP_UNARY_SHARED,
    TABLE,
    Instruction,
)
from repro.isa.registers import REG_RA, REG_ZERO


class DecodeError(Exception):
    """A program's decode cannot be rebuilt (its ``Program`` is gone)."""


# -- basic blocks --------------------------------------------------------------
#
# A *block* is a maximal straight-line run of instructions that one
# generated function ``_block(r, m, g, c) -> next_pc`` executes in place
# of one dispatch per instruction.  Blocks are formed on demand -- the
# first time a pipeline is about to execute a PC (:class:`BlockTable`)
# -- never by :func:`decode_program`, and the function is generated from
# the spec strings of :data:`~repro.isa.instructions.TABLE`, the same
# text each row's callable (``Instruction.fn``) is built from.  The cycle
# machine's table holds what takes exactly one issue slot and touches
# nothing but the issuing core's registers (its functions are called
# ``fn(regs)``): private-ALU value ops, ``li`` and ``nop``, optionally
# closed by one branch or ``j``.  The functional engine's
# (``memory=True``) has no timing to respect and admits all but
# ``print``/``spawn``/``join``/``halt``: loads, stores and prefix-sums
# on ``m`` (``Memory.words``) and ``g`` (the global registers), the
# thread ops of a spawn region (``c``: ``[next id, last id]``), closed
# by any branch or jump or by ``chkid`` -- under two rules.  *One
# commit*: values, loaded words and checked addresses live in locals and
# every effect comes at the end, in program order, so a trap leaves
# nothing behind.  *One cut*: a read of memory, global or thread state
# after a deferred effect starts a new block, so nothing is forwarded.
# A functional *step* is the same function for a block of one op.

_UNARY = (OP_UNARY, OP_UNARY_SHARED)
_VALUE_OPS = (OP_ALU, OP_ALU_SHARED, OP_ALU_IMM) + _UNARY
#: reads of state a deferred effect may have changed, and what defers one
_STATE_READS = frozenset((OP_LOAD, OP_LOAD_RO, OP_PSM, OP_PS, OP_GETG,
                          OP_GETVT))
_EFFECTS = frozenset((OP_STORE, OP_STORE_NB, OP_PSM, OP_PS, OP_SETG,
                      OP_GETVT))
#: what the functional engine's blocks hold, and what may close one
_TRANSLATED = _STATE_READS | _EFFECTS | frozenset(
    _VALUE_OPS + (OP_LI, OP_NOP, OP_PREFETCH, OP_FENCE, OP_GETTCU))
_CLOSERS = frozenset((OP_BRANCH, OP_JUMP, OP_JAL, OP_JR, OP_CHKID))
#: what a block returns whose ``chkid`` finds the spawn's ids used up
REGION_DONE = -1


def _fusable(u: Instruction) -> bool:
    """May ``u`` sit inside a block of the cycle machine?"""
    return u.code in (OP_LI, OP_NOP) or (
        u.code in (OP_ALU, OP_ALU_IMM, OP_UNARY)
        and TABLE[u.op].spec is not None)


def _value_text(u: Instruction, a: str, b: str) -> str:
    """Expression text of a value op on operand atoms: its spec, or a
    call of its row's bare callable -- either truncated to 32 bits, as a
    register write is."""
    spec = TABLE[u.op].spec
    if spec is not None:
        return S.value_expr(spec, a, b)
    args = a if u.code in _UNARY else f"{a}, {b}"
    return f"TABLE[{u.op!r}].fn({args}) & 0xFFFFFFFF"


def block_source(uops: List[Instruction], next_pc: int) -> str:
    """Python source of ``_block(r, m, g, c) -> next_pc`` for a block's
    instructions (``next_pc`` is the fall-through PC).  A register lives in
    a fresh local per write; effects on ``m``/``g``/``c`` are collected
    and emitted -- then one store per written register -- after the last
    line that can trap."""
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
    """One formed block: ``n`` instructions starting at ``pc``.

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
        fn = self.fn = _compile_block(
            block_source(self.uops, self.pc + self.n))
        return fn


class BlockTable(dict):
    """``pc -> Block`` (``False`` where no block starts), filled in on
    demand: looking up a PC for the first time forms its block."""

    __slots__ = ("uops", "memory", "closers")

    def __init__(self, uops: List[Instruction], branches: bool, memory: bool):
        super().__init__()
        self.uops = uops
        #: the functional engine's table (see the section comment)
        self.memory = memory
        #: what may close a block; a branch that costs more than one
        #: issue slot (not ``branches``) ends the run before it instead
        self.closers = (_CLOSERS if memory else
                        (OP_JUMP, OP_BRANCH) if branches else (OP_JUMP,))

    def __missing__(self, pc: int):
        uops = self.uops
        n = len(uops)
        end = pc
        if self.memory:
            dirty = False  # an effect is deferred: the next read cuts
            while end < n and uops[end].code in _TRANSLATED and not (
                    dirty and uops[end].code in _STATE_READS):
                dirty = dirty or uops[end].code in _EFFECTS
                end += 1
        else:
            while end < n and _fusable(uops[end]):
                end += 1
        if end < n and uops[end].code in self.closers:
            end += 1
        block = self[pc] = Block(uops[pc:end], pc) if end > pc else False
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

    def __reduce__(self):
        # Derived state: snapshots that reach a DecodedProgram through a
        # stray strong reference (e.g. a sampler's attached functional
        # executor) re-decode on restore instead of pickling weakrefs
        # and generated blocks.
        owner = self._owner()
        if owner is None:
            raise DecodeError(
                "cannot pickle a DecodedProgram whose Program is gone")
        return (decode_program, (owner,))


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
