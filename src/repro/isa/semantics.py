"""Operational definitions of XMT instructions.

The paper's simulator is *execution-driven*: a functional model holds
"the operational definition of the instructions, as well as the state of
the registers and the memory" (Section III-A).  This module is that
single source of truth.  Both the fast functional mode and the
cycle-accurate mode call into these helpers, so the two modes cannot
diverge on instruction semantics -- only on timing.

Registers hold raw 32-bit patterns (Python ints in ``[0, 2**32)``).
Integer instructions interpret them as two's-complement 32-bit values;
floating-point instructions reinterpret them as IEEE-754 single
precision (via :mod:`struct` packing), so compiled float arithmetic is
bit-exact across modes -- property-tested against strict numpy float32
evaluation in ``tests/test_hypothesis_programs.py``.
"""

from __future__ import annotations

import math
import struct

MASK32 = 0xFFFFFFFF
SIGN_BIT = 0x80000000


class TrapError(Exception):
    """Raised on a hardware trap (division by zero, bad address...)."""


def to_signed(value: int) -> int:
    """Interpret a 32-bit pattern as a signed integer."""
    value &= MASK32
    return value - 0x100000000 if value & SIGN_BIT else value


def to_unsigned(value: int) -> int:
    """Truncate an integer to its 32-bit pattern."""
    return value & MASK32


def f32_to_bits(value: float) -> int:
    """Round a Python float to IEEE-754 single and return its bit pattern."""
    try:
        return struct.unpack("<I", struct.pack("<f", value))[0]
    except OverflowError:
        # Round-to-infinity on single-precision overflow.
        return struct.unpack("<I", struct.pack("<f", math.inf if value > 0 else -math.inf))[0]


def bits_to_f32(bits: int) -> float:
    """Reinterpret a 32-bit pattern as an IEEE-754 single value."""
    return struct.unpack("<f", struct.pack("<I", bits & MASK32))[0]


def _div_trunc(a: int, b: int) -> int:
    if b == 0:
        raise TrapError("integer division by zero")
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        q = -q
    return q


def _rem_trunc(a: int, b: int) -> int:
    if b == 0:
        raise TrapError("integer remainder by zero")
    return a - _div_trunc(a, b) * b


# -- the operational definitions, as text --------------------------------------
#
# Each definition is one Python expression over the operand placeholders
# ``{a}``/``{b}``.  The per-op callables below are built from these
# strings, and so is the straight-line code a basic block is fused into
# (:mod:`repro.isa.decode` substitutes register locals and immediates
# for the placeholders), so the one-instruction path and the fused path
# evaluate the same text and cannot diverge.  An operand is substituted
# as an atom (a name, a literal, or a parenthesised literal); helpers a
# spec calls must live in this module.

def _signed(x: str) -> str:
    """Expression text: the 32-bit pattern ``x`` as a signed integer."""
    return f"((({x} & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000)"


_SA, _SB = _signed("{a}"), _signed("{b}")

#: Binary integer ALU/MDU operations.  The value of an op is its spec
#: truncated to 32 bits (:func:`_define` and the block generator both
#: append the mask).
INT_BINOP_SPECS = {
    "add": "{a} + {b}",
    "sub": "{a} - {b}",
    "and": "{a} & {b}",
    "or": "{a} | {b}",
    "xor": "{a} ^ {b}",
    "nor": "~({a} | {b})",
    "sll": "{a} << ({b} & 31)",
    "srl": "({a} & 0xFFFFFFFF) >> ({b} & 31)",
    "sra": f"{_SA} >> ({{b}} & 31)",
    "slt": f"{_SA} < {_SB}",
    "sltu": "({a} & 0xFFFFFFFF) < ({b} & 0xFFFFFFFF)",
    "seq": "{a} == {b}",
    "sne": "{a} != {b}",
    "sle": f"{_SA} <= {_SB}",
    "sgt": f"{_SA} > {_SB}",
    "sge": f"{_SA} >= {_SB}",
    "mul": f"{_SA} * {_SB}",
    "div": f"_div_trunc({_SA}, {_SB})",
    "rem": f"_rem_trunc({_SA}, {_SB})",
}

#: Unary operations (integer and float), same convention.
UNOP_SPECS = {
    "neg": f"-{_SA}",
    "not": "~{a}",
    "fneg": "f32_to_bits(-bits_to_f32({a}))",
    "itof": f"f32_to_bits(float({_SA}))",
    "ftoi": "_ftoi({a})",
}

#: Branch-condition predicates on raw 32-bit patterns (one-operand
#: branches are handed ``b = 0``).  Truth values: no truncation.
BRANCH_SPECS = {
    "beq": "{a} == {b}",
    "bne": "{a} != {b}",
    "blez": f"{_SA} <= 0",
    "bgtz": f"{_SA} > 0",
    "bltz": f"{_SA} < 0",
    "bgez": f"{_SA} >= 0",
}


def value_expr(spec: str, a: str, b: str = "0") -> str:
    """Expression text of a value op applied to operand atoms."""
    return f"({spec.format(a=a, b=b)}) & 0xFFFFFFFF"


# Code built from spec strings is compiled under this module's file
# name: profilers and the benchmark's per-layer tracer then charge the
# evaluation of an operational definition -- one op or a fused block --
# to this module, where the definition lives.

def _define(params: str, body: str):
    return eval(compile(f"lambda {params}: {body}", __file__, "eval"),
                globals())


def define_function(source: str):
    """Compile one ``def`` generated from spec expressions; the helpers
    they call resolve in this module, as they do for the callables."""
    namespace: dict = {}
    exec(compile(source, __file__, "exec"), globals(), namespace)
    (function,) = namespace.values()
    return function


#: Binary integer ALU/MDU operations: raw-bits x raw-bits -> raw-bits.
INT_BINOPS = {op: _define("a, b", value_expr(spec, "a", "b"))
              for op, spec in INT_BINOP_SPECS.items()}

#: Immediate-form aliases map onto the same definitions.
IMM_ALIASES = {
    "addi": "add",
    "andi": "and",
    "ori": "or",
    "xori": "xor",
    "slli": "sll",
    "srli": "srl",
    "srai": "sra",
    "slti": "slt",
}


def _fbin(op):
    def run(a_bits: int, b_bits: int) -> int:
        a = bits_to_f32(a_bits)
        b = bits_to_f32(b_bits)
        try:
            return f32_to_bits(op(a, b))
        except ZeroDivisionError:
            if a != a or a == 0.0:  # NaN / 0/0
                return f32_to_bits(math.nan)
            return f32_to_bits(math.copysign(math.inf, a) * math.copysign(1.0, b))
    return run


#: Binary FPU operations: raw-bits x raw-bits -> raw-bits.
FLOAT_BINOPS = {
    "fadd": _fbin(lambda a, b: a + b),
    "fsub": _fbin(lambda a, b: a - b),
    "fmul": _fbin(lambda a, b: a * b),
    "fdiv": _fbin(lambda a, b: a / b),
    # Comparisons produce an integer 0/1 pattern.
    "feq": lambda a, b: int(bits_to_f32(a) == bits_to_f32(b)),
    "flt": lambda a, b: int(bits_to_f32(a) < bits_to_f32(b)),
    "fle": lambda a, b: int(bits_to_f32(a) <= bits_to_f32(b)),
}

def _ftoi(bits: int) -> int:
    value = bits_to_f32(bits)
    if value != value:  # NaN
        return 0
    value = math.trunc(value) if abs(value) != math.inf else (
        0x7FFFFFFF if value > 0 else -0x80000000
    )
    value = max(-0x80000000, min(0x7FFFFFFF, value))
    return to_unsigned(value)


#: Unary operations (integer and float): raw-bits -> raw-bits.
UNOPS = {op: _define("a", value_expr(spec, "a"))
         for op, spec in UNOP_SPECS.items()}

#: Branch-condition predicates on raw 32-bit patterns.
BRANCH_CONDS = {op: _define("a, b", spec.format(a="a", b="b"))
                for op, spec in BRANCH_SPECS.items()}


def eval_binop(op: str, a: int, b: int) -> int:
    """Evaluate any binary opcode (int, imm alias, or float)."""
    op = IMM_ALIASES.get(op, op)
    fn = INT_BINOPS.get(op)
    if fn is None:
        fn = FLOAT_BINOPS[op]
    return fn(a, b)


def register_binop(op: str, fn, float_unit: bool = False) -> None:
    """Extension hook: define a new binary instruction's semantics.

    The paper's two-step recipe for adding an instruction ("modify the
    assembly language definition file ... create a new class [that]
    follows the Instruction API") maps here to: (1) register the
    operational definition with this function (or :func:`register_unop`),
    (2) register the mnemonic with
    :func:`repro.isa.assembler.register_instruction`.  Both simulation
    modes pick the definition up automatically.

    ``fn`` is either a spec string in the convention of
    :data:`INT_BINOP_SPECS` (an expression over ``{a}``/``{b}``, its
    value truncated to 32 bits) or a bare callable on raw bit patterns.
    Only an integer op with a spec string can be fused into a block of
    the cycle machine; a callable -- and every float op -- ends the
    block it sits in there, and is called by name inside a block of the
    functional engine.
    """
    _check_undefined(op)
    if isinstance(fn, str):
        if not float_unit:
            INT_BINOP_SPECS[op] = fn
        fn = _define("a, b", value_expr(fn, "a", "b"))
    (FLOAT_BINOPS if float_unit else INT_BINOPS)[op] = fn


def register_unop(op: str, fn) -> None:
    """Extension hook: define a new unary instruction's semantics
    (a spec string over ``{a}`` or a callable; see
    :func:`register_binop`)."""
    _check_undefined(op)
    if isinstance(fn, str):
        UNOP_SPECS[op] = fn
        fn = _define("a", value_expr(fn, "a"))
    UNOPS[op] = fn


def _check_undefined(op: str) -> None:
    if op in INT_BINOPS or op in FLOAT_BINOPS or op in UNOPS:
        raise ValueError(f"opcode {op!r} already defined")


#: A 32-bit address pattern ``{a}`` is one :func:`check_word_addr` traps
#: on exactly when this holds; generated blocks test it inline and leave
#: naming the trap to the one-instruction path.
BAD_WORD_ADDR_SPEC = "{a} & 3 or {a} < 4"


def check_word_addr(addr: int) -> int:
    """Validate a data address (word aligned, in range) and return it."""
    if addr & 3:
        raise TrapError(f"unaligned word access at 0x{addr & MASK32:08x}")
    addr &= MASK32
    if addr < 4:
        raise TrapError("null-pointer dereference")
    return addr


def format_print(fmt: str, values) -> str:
    """Render a ``print`` instruction's format string.

    Supports ``%d``, ``%u``, ``%x``, ``%f``, ``%%`` -- the subset the
    XMTC builtin ``printf`` accepts.  ``values`` are raw 32-bit patterns.
    """
    out = []
    vi = 0
    i = 0
    n = len(fmt)
    while i < n:
        ch = fmt[i]
        if ch != "%":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= n:
            raise TrapError("dangling '%' in format string")
        spec = fmt[i + 1]
        i += 2
        if spec == "%":
            out.append("%")
            continue
        if vi >= len(values):
            raise TrapError("too few arguments for format string")
        raw = values[vi]
        vi += 1
        if spec == "d":
            out.append(str(to_signed(raw)))
        elif spec == "u":
            out.append(str(raw & MASK32))
        elif spec == "x":
            out.append(format(raw & MASK32, "x"))
        elif spec == "f":
            out.append(f"{bits_to_f32(raw):.6f}")
        else:
            raise TrapError(f"unsupported format specifier %{spec}")
    return "".join(out)
