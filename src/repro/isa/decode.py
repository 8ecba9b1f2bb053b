"""Decode-once micro-op layer shared by both simulation pipelines.

The paper's simulator is execution-driven: one functional model holds
"the operational definition of the instructions" consumed by the fast
functional mode and the cycle-accurate mode alike (Section III-A).  This
module is the structural counterpart of that statement: at program-load
time every :class:`~repro.isa.instructions.Instruction` is decoded
*exactly once* into a slotted :class:`MicroOp` record carrying

- an integer opcode (``OP_*``) indexing the flat dispatch tables of the
  functional simulator and the cycle-accurate processors,
- pre-resolved source/destination register indices and read/write sets
  (so the TCU scoreboard never calls ``reads()``/``writes()`` on the hot
  path),
- the immediate/offset/target, the functional-unit class, and
  memory-kind flags (``is_load``/``is_store``/``is_mem``),
- the operational definition itself (``fn``), resolved from
  :mod:`repro.isa.semantics` once instead of per executed instruction.

A :class:`DecodedProgram` wraps the micro-op list and is shared
read-only by every TCU of a machine -- one decode per program, not per
core.  It also carries the program's *blocks* (:class:`BlockTable`):
straight-line runs of micro-ops that a pipeline executes as one
generated function, formed when first executed.  The original
:class:`Instruction` stays reachable as
``MicroOp.ins`` so traces and the disassembler render the exact text the
assembler accepted.

Decoders are keyed by the *concrete instruction class*, which is what
keeps the paper's two-step extension recipe working: a new mnemonic
registered through :func:`repro.isa.semantics.register_binop` /
:func:`repro.isa.assembler.register_instruction` reuses the existing
``ALUOp``/``UnaryOp`` operand shapes and therefore decodes with no extra
work.  A brand-new :class:`Instruction` subclass without a decoder entry
fails loudly at load time (:class:`DecodeError`), not silently at
dispatch.
"""

from __future__ import annotations

import functools
import weakref
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.isa import instructions as I
from repro.isa.registers import REG_RA, REG_ZERO
from repro.isa.semantics import (
    BAD_WORD_ADDR_SPEC,
    BRANCH_CONDS,
    BRANCH_SPECS,
    FLOAT_BINOPS,
    IMM_ALIASES,
    INT_BINOP_SPECS,
    INT_BINOPS,
    UNOP_SPECS,
    UNOPS,
    define_function,
    value_expr,
)

# -- the shared opcode space ---------------------------------------------------
#
# One integer per *handler*, not per mnemonic: every ``add``-shaped
# private-ALU binary op shares OP_ALU, all shared-FU binaries share
# OP_ALU_SHARED, and so on.  Both pipelines index their dispatch tables
# with these values; a table missing an entry fails the import-time
# completeness check in its module.

OP_ALU = 0            # binary op on the TCU-private ALU
OP_ALU_SHARED = 1     # binary op on the cluster-shared MDU/FPU
OP_ALU_IMM = 2        # register-immediate ALU op
OP_LI = 3             # load immediate
OP_UNARY = 4          # unary op on the private ALU
OP_UNARY_SHARED = 5   # unary op on the shared MDU/FPU
OP_BRANCH = 6
OP_JUMP = 7           # j
OP_JAL = 8            # jal (writes $ra)
OP_JR = 9
OP_LOAD = 10          # lw
OP_LOAD_RO = 11       # lwro (read-only cache path)
OP_STORE = 12         # sw (blocking)
OP_STORE_NB = 13      # swnb
OP_PSM = 14
OP_PREFETCH = 15
OP_PS = 16            # ps  $d, $gN
OP_GETG = 17          # getg
OP_SETG = 18          # setg
OP_FENCE = 19
OP_NOP = 20
OP_PRINT = 21
# -- control group: every opcode >= OP_GETVT needs mode-specific
#    handling (parallel-only, Master-only, or trap), which lets the
#    functional main loops split on a single integer compare.
OP_GETVT = 22
OP_GETTCU = 23
OP_CHKID = 24
OP_SPAWN = 25
OP_JOIN = 26
OP_HALT = 27

N_OPCODES = 28

#: opcode -> short name, for diagnostics and table-driven tests
OPCODE_NAMES = {
    OP_ALU: "alu", OP_ALU_SHARED: "alu_shared", OP_ALU_IMM: "alu_imm",
    OP_LI: "li", OP_UNARY: "unary", OP_UNARY_SHARED: "unary_shared",
    OP_BRANCH: "branch", OP_JUMP: "jump", OP_JAL: "jal", OP_JR: "jr",
    OP_LOAD: "load", OP_LOAD_RO: "load_ro", OP_STORE: "store",
    OP_STORE_NB: "store_nb", OP_PSM: "psm", OP_PREFETCH: "prefetch",
    OP_PS: "ps", OP_GETG: "getg", OP_SETG: "setg", OP_GETVT: "getvt",
    OP_GETTCU: "gettcu", OP_CHKID: "chkid", OP_SPAWN: "spawn",
    OP_JOIN: "join", OP_FENCE: "fence", OP_HALT: "halt", OP_NOP: "nop",
    OP_PRINT: "print",
}


class DecodeError(Exception):
    """An instruction reached the decoder without a registered entry."""


class MicroOp:
    """One pre-decoded instruction: everything the hot paths touch.

    Attributes mirror what the two pipelines used to re-derive per
    executed instruction: ``reads``/``wr`` feed the scoreboard, ``fn``
    is the operational definition, ``stat_key``/``class_key`` are the
    pre-built counter names, and ``ins`` is the original
    :class:`~repro.isa.instructions.Instruction` for rendering.
    """

    __slots__ = ("code", "op", "fu", "rd", "rs", "rt", "imm", "target",
                 "reads", "wr", "fn", "is_load", "is_store", "is_mem",
                 "index", "line", "src_line", "stat_key", "class_key",
                 "ins")

    def __init__(self, code: int, ins: I.Instruction,
                 rd: int = -1, rs: int = -1, rt: int = -1,
                 imm: int = 0, target: int = -1,
                 fn: Optional[Callable] = None):
        self.code = code
        self.op = ins.op
        self.fu = ins.fu
        self.rd = rd
        self.rs = rs
        self.rt = rt
        self.imm = imm
        self.target = target
        self.reads: Tuple[int, ...] = ins.reads()
        wr = ins.writes()
        self.wr = -1 if wr is None else wr
        self.fn = fn
        self.is_load = code in (OP_LOAD, OP_LOAD_RO)
        self.is_store = code in (OP_STORE, OP_STORE_NB)
        self.is_mem = code in (OP_LOAD, OP_LOAD_RO, OP_STORE, OP_STORE_NB,
                               OP_PSM, OP_PREFETCH)
        self.index = ins.index
        self.line = ins.line
        self.src_line = ins.src_line
        self.stat_key = "instructions." + ins.op
        self.class_key = "instr_class." + ins.fu
        self.ins = ins

    def __reduce__(self):
        # Micro-ops are never stored durably by design (checkpoints
        # rebuild the decode cache on restore), but transient references
        # -- a TCU's pending ``_retry`` slot, an in-flight inbox item --
        # may be caught inside a snapshot.  Re-decode from the original
        # instruction instead of pickling the resolved callables.
        return (decode_instruction, (self.ins,))

    def __repr__(self):  # pragma: no cover - debugging aid
        return (f"<uop {OPCODE_NAMES.get(self.code, self.code)} "
                f"{self.op} @{self.index}>")


def _resolve_binop(op: str) -> Callable[[int, int], int]:
    op = IMM_ALIASES.get(op, op)
    fn = INT_BINOPS.get(op)
    if fn is None:
        fn = FLOAT_BINOPS.get(op)
    if fn is None:
        raise DecodeError(f"no operational definition for binary op {op!r}")
    return fn


def _resolve_unop(op: str) -> Callable[[int], int]:
    fn = UNOPS.get(op)
    if fn is None:
        raise DecodeError(f"no operational definition for unary op {op!r}")
    return fn


# -- per-class decoders --------------------------------------------------------

def _d_aluop(ins: I.ALUOp) -> MicroOp:
    code = OP_ALU if ins._fu == I.FU_ALU else OP_ALU_SHARED
    return MicroOp(code, ins, rd=ins.rd, rs=ins.rs, rt=ins.rt,
                   fn=_resolve_binop(ins.op))


def _d_aluimm(ins: I.ALUImm) -> MicroOp:
    return MicroOp(OP_ALU_IMM, ins, rd=ins.rd, rs=ins.rs, imm=ins.imm,
                   fn=_resolve_binop(ins.op))


def _d_loadimm(ins: I.LoadImm) -> MicroOp:
    return MicroOp(OP_LI, ins, rd=ins.rd, imm=ins.imm)


def _d_unary(ins: I.UnaryOp) -> MicroOp:
    code = OP_UNARY if ins._fu == I.FU_ALU else OP_UNARY_SHARED
    return MicroOp(code, ins, rd=ins.rd, rs=ins.rs,
                   fn=_resolve_unop(ins.op))


def _d_branch(ins: I.Branch) -> MicroOp:
    return MicroOp(OP_BRANCH, ins, rs=ins.rs, rt=ins.rt, target=ins.target,
                   fn=BRANCH_CONDS[ins.op])


def _d_jump(ins: I.Jump) -> MicroOp:
    return MicroOp(OP_JAL if ins.op == "jal" else OP_JUMP, ins,
                   target=ins.target)


def _d_jumpreg(ins: I.JumpReg) -> MicroOp:
    return MicroOp(OP_JR, ins, rs=ins.rs)


def _d_load(ins: I.Load) -> MicroOp:
    return MicroOp(OP_LOAD_RO if ins.readonly else OP_LOAD, ins,
                   rd=ins.rd, rs=ins.base, imm=ins.offset)


def _d_store(ins: I.Store) -> MicroOp:
    return MicroOp(OP_STORE_NB if ins.nonblocking else OP_STORE, ins,
                   rt=ins.rt, rs=ins.base, imm=ins.offset)


def _d_prefetch(ins: I.Prefetch) -> MicroOp:
    return MicroOp(OP_PREFETCH, ins, rs=ins.base, imm=ins.offset)


def _d_psm(ins: I.Psm) -> MicroOp:
    return MicroOp(OP_PSM, ins, rd=ins.rd, rs=ins.base, imm=ins.offset)


_PS_CODES = {"ps": OP_PS, "get": OP_GETG, "set": OP_SETG}


def _d_ps(ins: I.Ps) -> MicroOp:
    return MicroOp(_PS_CODES[ins.mode], ins, rd=ins.rd, imm=ins.greg)


def _d_spawn(ins: I.Spawn) -> MicroOp:
    return MicroOp(OP_SPAWN, ins, rs=ins.rs, rt=ins.rt,
                   target=ins.join_index)


def _d_join(ins: I.Join) -> MicroOp:
    return MicroOp(OP_JOIN, ins)


def _d_getvt(ins: I.GetVT) -> MicroOp:
    return MicroOp(OP_GETVT, ins, rd=ins.rd)


def _d_gettcu(ins: I.GetTCU) -> MicroOp:
    return MicroOp(OP_GETTCU, ins, rd=ins.rd)


def _d_chkid(ins: I.ChkID) -> MicroOp:
    return MicroOp(OP_CHKID, ins, rs=ins.rs)


def _d_fence(ins: I.Fence) -> MicroOp:
    return MicroOp(OP_FENCE, ins)


def _d_halt(ins: I.Halt) -> MicroOp:
    return MicroOp(OP_HALT, ins)


def _d_nop(ins: I.Nop) -> MicroOp:
    return MicroOp(OP_NOP, ins)


def _d_print(ins: I.Print) -> MicroOp:
    # ``imm`` carries the format-string id; ``reads`` already holds the
    # argument registers (``Print.reads()`` returns them).
    return MicroOp(OP_PRINT, ins, imm=ins.fmt_id)


#: concrete instruction class -> decoder.  Keyed by exact type: operand
#: shapes are closed even though the mnemonic set is extensible.
DECODERS: Dict[type, Callable[[I.Instruction], MicroOp]] = {
    I.ALUOp: _d_aluop,
    I.ALUImm: _d_aluimm,
    I.LoadImm: _d_loadimm,
    I.UnaryOp: _d_unary,
    I.Branch: _d_branch,
    I.Jump: _d_jump,
    I.JumpReg: _d_jumpreg,
    I.Load: _d_load,
    I.Store: _d_store,
    I.Prefetch: _d_prefetch,
    I.Psm: _d_psm,
    I.Ps: _d_ps,
    I.Spawn: _d_spawn,
    I.Join: _d_join,
    I.GetVT: _d_getvt,
    I.GetTCU: _d_gettcu,
    I.ChkID: _d_chkid,
    I.Fence: _d_fence,
    I.Halt: _d_halt,
    I.Nop: _d_nop,
    I.Print: _d_print,
}


def decode_instruction(ins: I.Instruction) -> MicroOp:
    """Decode one instruction (used stand-alone and by unpickling)."""
    decoder = DECODERS.get(type(ins))
    if decoder is None:
        raise DecodeError(
            f"no decoder registered for instruction class "
            f"{type(ins).__name__!r} (op {ins.op!r}); add an entry to "
            f"repro.isa.decode.DECODERS")
    return decoder(ins)


# -- basic blocks --------------------------------------------------------------
#
# A *block* is a maximal straight-line run of micro-ops that one
# generated function ``_block(r, m, g, c) -> next_pc`` executes in place
# of one dispatch per instruction.  Blocks are formed on demand -- the
# first time a pipeline is about to execute a PC (:class:`BlockTable`)
# -- never by :func:`decode_program`, and the function is generated from
# the spec strings of :mod:`repro.isa.semantics`, the same text the
# one-instruction callables (``MicroOp.fn``) are built from.  The cycle
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


def _value_spec(u: MicroOp) -> Optional[str]:
    """The spec string a value op was built from; None for a definition
    registered as a bare callable (every float binary op)."""
    if u.code in _UNARY:
        return UNOP_SPECS.get(u.op)
    return INT_BINOP_SPECS.get(IMM_ALIASES.get(u.op, u.op))


def _fusable(u: MicroOp) -> bool:
    """May ``u`` sit inside a block of the cycle machine?"""
    return u.code in (OP_LI, OP_NOP) or (
        u.code in (OP_ALU, OP_ALU_IMM, OP_UNARY)
        and _value_spec(u) is not None)


def _value_text(u: MicroOp, a: str, b: str) -> str:
    """Expression text of a value op on operand atoms: its spec, or a
    call of its registered callable by name."""
    spec = _value_spec(u)
    if spec is not None:
        return value_expr(spec, a, b)
    if u.code in _UNARY:
        return f"UNOPS[{u.op!r}]({a})"
    op = IMM_ALIASES.get(u.op, u.op)
    kind = "INT" if op in INT_BINOPS else "FLOAT"
    return f"{kind}_BINOPS[{op!r}]({a}, {b})"


def block_source(uops: List[MicroOp], next_pc: int) -> str:
    """Python source of ``_block(r, m, g, c) -> next_pc`` for a block's
    micro-ops (``next_pc`` is the fall-through PC).  A register lives in
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

    def address(u: MicroOp) -> str:
        name = f"a{len(lines)}"
        lines.append(f" {name} = ({atom(u.rs)} + ({u.imm})) & 0xFFFFFFFF")
        lines.append(f" if {BAD_WORD_ADDR_SPEC.format(a=name)}:"
                     " raise TrapError")
        return name

    def fetch_add(u: MicroOp, cell: str, read: str) -> str:
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
            cond = BRANCH_SPECS[u.op].format(
                a=atom(u.rs), b=atom(u.rt) if u.rt >= 0 else "0")
            result = f" return {u.target} if {cond} else {next_pc}"
            continue
        if code == OP_CHKID:
            cond = INT_BINOP_SPECS["sgt"].format(a=atom(u.rs), b="c[1]")
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
        else:  # OP_GETTCU: one serialized context
            expr = "0"
        if rd == REG_ZERO:
            lines.append(f" {expr}")  # evaluated, like the handler; dropped
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
    return define_function(source)


class Block:
    """One formed block: ``n`` micro-ops starting at ``pc``.

    ``regs`` is every register the block reads or writes (what a
    scoreboard must find clear before the block can run unattended);
    ``tally``/``op_tally`` are its per-counter-key and per-mnemonic
    instruction counts, credited in one go when the block executes;
    ``threaded`` says it holds an op only a spawn region's context may
    execute (``getvt``/``gettcu``/``chkid``: its function reads ``c``).
    """

    __slots__ = ("pc", "n", "uops", "regs", "tally", "op_tally", "threaded",
                 "fn")

    def __init__(self, uops: List[MicroOp], pc: int):
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

    __slots__ = ("uops", "memory", "closers", "min_ops")

    def __init__(self, uops: List[MicroOp], branches: bool, lone: bool,
                 memory: bool = False):
        super().__init__()
        self.uops = uops
        #: the functional engine's table (see the section comment)
        self.memory = memory
        #: what may close a block; a branch that costs more than one
        #: issue slot (not ``branches``) ends the run before it instead
        self.closers = (_CLOSERS if memory else
                        (OP_JUMP, OP_BRANCH) if branches else (OP_JUMP,))
        #: a block of one op saves nothing alone, but the cycle machine
        #: chains blocks (``lone``): a ``j`` between two of them, or what
        #: is left of one stopped before its last op, is a block there
        self.min_ops = 1 if lone or memory else 2

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
        block = self[pc] = (Block(uops[pc:end], pc)
                            if end - pc >= self.min_ops else False)
        return block


class DecodedProgram:
    """The micro-op view of one :class:`~repro.isa.program.Program`.

    Read-only by convention: the machine, every TCU and the functional
    simulator index the same ``uops`` list.  Holds no strong reference
    to the owning ``Program`` (the module cache would otherwise keep
    every decoded program alive forever) -- consumers always have the
    program at hand anyway.
    """

    __slots__ = ("uops", "_source", "_owner", "_blocks", "__weakref__")

    def __init__(self, program) -> None:
        self.uops: List[MicroOp] = [
            decode_instruction(ins) for ins in program.instructions]
        self._source = program.instructions
        self._owner = weakref.ref(program)
        self._blocks: Dict[Tuple[bool, bool, bool], BlockTable] = {}

    def blocks(self, branches: bool = True, lone: bool = False,
               memory: bool = False) -> BlockTable:
        """The (initially empty) block table of this program, shared
        like ``uops``; the arguments as in :class:`BlockTable`."""
        key = (branches, lone, memory)
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
                and (not instrs or self.uops[-1].ins is instrs[-1]))

    def __reduce__(self):
        # Derived state: snapshots that reach a DecodedProgram through a
        # stray strong reference (e.g. a sampler's attached functional
        # executor) re-decode on restore instead of pickling weakrefs
        # and resolved callables.
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
