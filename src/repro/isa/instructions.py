"""The instruction table: every XMT mnemonic is one row.

Section III-A of the paper makes ``Instruction`` the simulator's core
class and adds an instruction in two steps: extend the assembly
definition, and add a class that follows the ``Instruction`` API.  Here
both steps are one row of :data:`TABLE`, added with one
:func:`register_instruction` call.  A row holds

- ``syntax``: one letter per operand (listed below), fixing the register
  field it fills and whether it is read or written -- what the assembler
  parses and the disassembler renders;
- ``code``: the ``OP_*`` opcode, which indexes the handler tables of the
  functional simulator and the cycle-accurate processors;
- ``fu``: the functional-unit class, which decides the cycle-accurate
  components a package visits and the shared unit that executes it;
- ``spec``: the operational definition of a value op or a branch, one
  Python expression over ``{a}``/``{b}``, and ``fn``, the callable built
  from it (or given bare, for an extension without a spec string).

The assembler builds each :class:`Instruction` -- one slotted record
with everything the hot paths touch -- straight from its row.  There is
no second, decoded form: both pipelines execute the records.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple, Union

from repro.isa.registers import REG_RA, reg_name
from repro.isa.semantics import define_function, to_signed, value_expr

# Functional-unit classes (determine which cycle-accurate components a
# package visits and which shared unit executes the operation).
FU_ALU = "alu"
FU_MDU = "mdu"      # cluster-shared multiply/divide unit
FU_FPU = "fpu"      # cluster-shared floating-point unit
FU_BRANCH = "branch"
FU_MEM = "mem"      # travels TCU -> ICN -> shared cache (-> DRAM)
FU_PS = "ps"        # global prefix-sum unit
FU_CTRL = "ctrl"    # spawn / join / getvt / chkid / fence / halt
FU_SYS = "sys"      # print and friends

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
#    handling (parallel-only, Master-only, or trap).
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

# Operand letters of a row's syntax: what each parses and where it goes.
# A register letter names its field and role; ``reads`` lists the read
# registers in operand order.
#
#   d  register -> rd, written       i  integer literal -> imm
#   D  register -> rd, read, written a  integer literal or label -> imm
#   r  register -> rd, read          m  off($base) -> imm = off, rs = base
#   s  register -> rs, read          g  global register $gN -> imm = N
#   t  register -> rt, read          L  text label -> label, target
#   p  format label, then any registers (read) -> label, imm = string id

_LOADS = (OP_LOAD, OP_LOAD_RO)
_STORES = (OP_STORE, OP_STORE_NB)

Spec = Union[str, Callable, None]


class Row:
    """One mnemonic: its syntax, opcode, unit and operational definition,
    plus what every record of it shares (the counter keys, memory-kind
    flags)."""

    __slots__ = ("syntax", "code", "fu", "spec", "fn", "is_load",
                 "is_store", "is_mem", "stat_key", "class_key")

    def __init__(self, op: str, syntax: str, code: int, fu: str,
                 spec: Spec = None):
        self.syntax = syntax
        self.code = code
        self.fu = fu
        #: the spec string; None for no definition or a bare callable
        self.spec = spec if isinstance(spec, str) else None
        self.fn: Optional[Callable] = spec if callable(spec) else (
            None if spec is None else _compile(code, spec))
        self.is_load = code in _LOADS
        self.is_store = code in _STORES
        self.is_mem = code in _LOADS + _STORES + (OP_PSM, OP_PREFETCH)
        self.stat_key = "instructions." + op
        self.class_key = "instr_class." + fu


def _compile(code: int, spec: str) -> Callable:
    """A row's callable: a branch's predicate, or a value op's value."""
    body = (spec.format(a="a", b="b") if code == OP_BRANCH
            else value_expr(spec, "a", "b"))
    return define_function(f"def _op(a, b=0):\n    return {body}")


def _signed(x: str) -> str:
    """Expression text: the 32-bit pattern ``x`` as a signed integer."""
    return f"((({x} & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000)"


_SA, _SB = _signed("{a}"), _signed("{b}")

#: mnemonic -> its row.  A value op's value is its spec truncated to 32
#: bits; a branch's spec is a truth value on raw patterns (one-operand
#: branches are handed ``b = 0``).
TABLE: Dict[str, Row] = {op: Row(op, *fields) for op, *fields in (
    ("add", "dst", OP_ALU, FU_ALU, "{a} + {b}"),
    ("sub", "dst", OP_ALU, FU_ALU, "{a} - {b}"),
    ("and", "dst", OP_ALU, FU_ALU, "{a} & {b}"),
    ("or", "dst", OP_ALU, FU_ALU, "{a} | {b}"),
    ("xor", "dst", OP_ALU, FU_ALU, "{a} ^ {b}"),
    ("nor", "dst", OP_ALU, FU_ALU, "~({a} | {b})"),
    ("sll", "dst", OP_ALU, FU_ALU, "{a} << ({b} & 31)"),
    ("srl", "dst", OP_ALU, FU_ALU, "({a} & 0xFFFFFFFF) >> ({b} & 31)"),
    ("sra", "dst", OP_ALU, FU_ALU, f"{_SA} >> ({{b}} & 31)"),
    ("slt", "dst", OP_ALU, FU_ALU, f"{_SA} < {_SB}"),
    ("sltu", "dst", OP_ALU, FU_ALU, "({a} & 0xFFFFFFFF) < ({b} & 0xFFFFFFFF)"),
    ("seq", "dst", OP_ALU, FU_ALU, "{a} == {b}"),
    ("sne", "dst", OP_ALU, FU_ALU, "{a} != {b}"),
    ("sle", "dst", OP_ALU, FU_ALU, f"{_SA} <= {_SB}"),
    ("sgt", "dst", OP_ALU, FU_ALU, f"{_SA} > {_SB}"),
    ("sge", "dst", OP_ALU, FU_ALU, f"{_SA} >= {_SB}"),
    ("mul", "dst", OP_ALU_SHARED, FU_MDU, f"{_SA} * {_SB}"),
    ("div", "dst", OP_ALU_SHARED, FU_MDU, f"_div_trunc({_SA}, {_SB})"),
    ("rem", "dst", OP_ALU_SHARED, FU_MDU, f"_rem_trunc({_SA}, {_SB})"),
    ("fadd", "dst", OP_ALU_SHARED, FU_FPU, "_fadd({a}, {b})"),
    ("fsub", "dst", OP_ALU_SHARED, FU_FPU, "_fsub({a}, {b})"),
    ("fmul", "dst", OP_ALU_SHARED, FU_FPU, "_fmul({a}, {b})"),
    ("fdiv", "dst", OP_ALU_SHARED, FU_FPU, "_fdiv({a}, {b})"),
    ("feq", "dst", OP_ALU_SHARED, FU_FPU, "bits_to_f32({a}) == bits_to_f32({b})"),
    ("flt", "dst", OP_ALU_SHARED, FU_FPU, "bits_to_f32({a}) < bits_to_f32({b})"),
    ("fle", "dst", OP_ALU_SHARED, FU_FPU, "bits_to_f32({a}) <= bits_to_f32({b})"),
    ("addi", "dsi", OP_ALU_IMM, FU_ALU, "{a} + {b}"),
    ("andi", "dsi", OP_ALU_IMM, FU_ALU, "{a} & {b}"),
    ("ori", "dsi", OP_ALU_IMM, FU_ALU, "{a} | {b}"),
    ("xori", "dsi", OP_ALU_IMM, FU_ALU, "{a} ^ {b}"),
    ("slli", "dsi", OP_ALU_IMM, FU_ALU, "{a} << ({b} & 31)"),
    ("srli", "dsi", OP_ALU_IMM, FU_ALU, "({a} & 0xFFFFFFFF) >> ({b} & 31)"),
    ("srai", "dsi", OP_ALU_IMM, FU_ALU, f"{_SA} >> ({{b}} & 31)"),
    ("slti", "dsi", OP_ALU_IMM, FU_ALU, f"{_SA} < {_SB}"),
    ("neg", "ds", OP_UNARY, FU_ALU, f"-{_SA}"),
    ("not", "ds", OP_UNARY, FU_ALU, "~{a}"),
    ("fneg", "ds", OP_UNARY_SHARED, FU_FPU, "f32_to_bits(-bits_to_f32({a}))"),
    ("itof", "ds", OP_UNARY_SHARED, FU_FPU, f"f32_to_bits(float({_SA}))"),
    ("ftoi", "ds", OP_UNARY_SHARED, FU_FPU, "_ftoi({a})"),
    ("li", "da", OP_LI, FU_ALU),
    ("beq", "stL", OP_BRANCH, FU_BRANCH, "{a} == {b}"),
    ("bne", "stL", OP_BRANCH, FU_BRANCH, "{a} != {b}"),
    ("blez", "sL", OP_BRANCH, FU_BRANCH, f"{_SA} <= 0"),
    ("bgtz", "sL", OP_BRANCH, FU_BRANCH, f"{_SA} > 0"),
    ("bltz", "sL", OP_BRANCH, FU_BRANCH, f"{_SA} < 0"),
    ("bgez", "sL", OP_BRANCH, FU_BRANCH, f"{_SA} >= 0"),
    ("j", "L", OP_JUMP, FU_BRANCH),
    ("jal", "L", OP_JAL, FU_BRANCH),
    ("jr", "s", OP_JR, FU_BRANCH),
    ("lw", "dm", OP_LOAD, FU_MEM),
    ("lwro", "dm", OP_LOAD_RO, FU_MEM),
    ("sw", "tm", OP_STORE, FU_MEM),
    ("swnb", "tm", OP_STORE_NB, FU_MEM),
    # old = M[addr]; M[addr] += R[d]; R[d] = old at the owning cache
    # module, any signed amount, any base (Section II-A)
    ("psm", "Dm", OP_PSM, FU_MEM),
    ("pref", "m", OP_PREFETCH, FU_MEM),
    # the same on a global register, combining same-cycle requests
    ("ps", "Dg", OP_PS, FU_PS),
    ("getg", "dg", OP_GETG, FU_PS),
    ("setg", "rg", OP_SETG, FU_PS),
    # the broadcast region is [index+1, target): target is the join's
    # index, resolved when the program is loaded
    ("spawn", "st", OP_SPAWN, FU_CTRL),
    ("join", "", OP_JOIN, FU_CTRL),
    ("getvt", "d", OP_GETVT, FU_CTRL),
    # the physical TCU index, for the parallel-calls extension's stacks
    ("gettcu", "d", OP_GETTCU, FU_CTRL),
    # a thread id past the spawn's upper bound parks the TCU
    ("chkid", "s", OP_CHKID, FU_CTRL),
    ("fence", "", OP_FENCE, FU_CTRL),
    ("halt", "", OP_HALT, FU_CTRL),
    ("nop", "", OP_NOP, FU_ALU),
    ("print", "p", OP_PRINT, FU_SYS),
)}

#: pseudo-instructions: mnemonic -> (the row's mnemonic, its operands as
#: indices into the pseudo's operands or literal text)
ALIASES: Dict[str, Tuple[str, Tuple[Union[int, str], ...]]] = {
    "la": ("li", (0, 1)),
    "move": ("add", (0, 1, "$zero")),
    "beqz": ("beq", (0, "$zero", 1)),
    "bnez": ("bne", (0, "$zero", 1)),
    "b": ("j", (0,)),
}

_SHAPES = {"binary": ("dst", OP_ALU, OP_ALU_SHARED),
           "unary": ("ds", OP_UNARY, OP_UNARY_SHARED)}


def register_instruction(mnemonic: str, shape: str, spec: Spec = None,
                         fu: str = FU_ALU) -> None:
    """Extension hook: add one mnemonic, assembled and executed by both
    simulation modes with its functional unit's timing.

    ``shape`` is ``"binary"`` (``op $d, $s, $t``) or ``"unary"``
    (``op $d, $s``).  ``spec`` is the operational definition: a string
    in the convention of :data:`TABLE` (an expression over ``{a}``/``{b}``
    on raw 32-bit patterns, its value truncated to 32 bits), or a bare
    callable.  Only a private-ALU op with a spec string can be fused into
    a block of the cycle machine; a callable ends the block it sits in
    there, and is called through its row inside a block of the
    functional engine.
    """
    if mnemonic in TABLE or mnemonic in ALIASES:
        raise ValueError(f"mnemonic {mnemonic!r} already defined")
    if shape not in _SHAPES:
        raise ValueError("shape must be 'binary' or 'unary'")
    if not (isinstance(spec, str) or callable(spec)):
        raise ValueError(f"mnemonic {mnemonic!r} needs an operational "
                         "definition (a spec string or a callable)")
    syntax, private, shared = _SHAPES[shape]
    TABLE[mnemonic] = Row(mnemonic, syntax,
                          private if fu == FU_ALU else shared, fu, spec)


#: the record's fields its row fixes: taken from the row when a record
#: is built or unpickled, never pickled
_ROW_FIELDS = ("code", "fu", "fn", "is_load", "is_store", "is_mem",
               "stat_key", "class_key")
_OWN_FIELDS = ("op", "rd", "rs", "rt", "imm", "target", "reads", "wr",
               "index", "line", "src_line", "label")


class Instruction:
    """One assembled instruction: everything either pipeline touches.

    ``rd``/``rs``/``rt`` are register indices (-1: none), ``imm`` the
    immediate, memory offset, global-register index or format-string
    id, ``target`` the resolved text index of a branch, jump or spawn's
    join, ``reads``/``wr`` the registers read and written (-1: none)
    that feed the scoreboard, ``fn`` the operational definition,
    ``stat_key``/``class_key`` the pre-built counter names, ``index``
    the position in the text segment, ``line`` the assembly line and
    ``src_line`` the originating XMTC line (0 = unknown; carried through
    the compiler so filter plug-ins can refer memory bottlenecks "back to
    the corresponding XMTC lines of code", Section III-B).  ``label`` is
    the text of a branch, jump or ``print`` label operand.
    """

    __slots__ = _ROW_FIELDS + _OWN_FIELDS

    def __init__(self, op: str, line: int = 0):
        self.op = op
        self.rd = self.rs = self.rt = self.target = self.index = -1
        self.imm = 0
        self.reads: Tuple[int, ...] = ()
        self.line = line
        self.src_line = 0
        self.label: Optional[str] = None
        self._take_row(TABLE[op])
        self.wr = REG_RA if self.code == OP_JAL else -1

    def _take_row(self, row: Row) -> None:
        self.code = row.code
        self.fu = row.fu
        self.fn = row.fn
        self.is_load = row.is_load
        self.is_store = row.is_store
        self.is_mem = row.is_mem
        self.stat_key = row.stat_key
        self.class_key = row.class_key

    def __getstate__(self):
        return tuple(getattr(self, name) for name in _OWN_FIELDS)

    def __setstate__(self, state) -> None:
        for name, value in zip(_OWN_FIELDS, state):
            setattr(self, name, value)
        self._take_row(TABLE[self.op])

    def operand_str(self) -> str:
        """The operands as the assembler accepts them."""
        parts = []
        for letter in TABLE[self.op].syntax:
            if letter in "dDr":
                parts.append(reg_name(self.rd))
            elif letter == "s":
                parts.append(reg_name(self.rs))
            elif letter == "t":
                parts.append(reg_name(self.rt))
            elif letter in "ia":
                parts.append(str(to_signed(self.imm)))
            elif letter == "m":
                parts.append(f"{self.imm}({reg_name(self.rs)})")
            elif letter == "g":
                parts.append(f"$g{self.imm}")
            elif letter == "L":
                parts.append(self.label)
            else:  # "p"
                parts += [self.label] + [reg_name(r) for r in self.reads]
        return ", ".join(parts)

    def __repr__(self):
        text = self.operand_str()
        return f"<{self.op} {text}>" if text else f"<{self.op}>"
