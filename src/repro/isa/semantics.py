"""The helpers XMT operational definitions call, and their code generation.

The paper's simulator is *execution-driven*: a functional model holds
"the operational definition of the instructions, as well as the state of
the registers and the memory" (Section III-A).  Each definition is the
``spec`` of its row of :data:`repro.isa.instructions.TABLE`; this module
holds what those specs call and compiles the code both the fast
functional mode and the cycle-accurate mode run, so the two modes cannot
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
import operator
import struct
from typing import Optional

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


#: IEEE-754 single arithmetic on raw bit patterns
_fadd = _fbin(operator.add)
_fsub = _fbin(operator.sub)
_fmul = _fbin(operator.mul)
_fdiv = _fbin(operator.truediv)


def _ftoi(bits: int) -> int:
    value = bits_to_f32(bits)
    if value != value:  # NaN
        return 0
    value = math.trunc(value) if abs(value) != math.inf else (
        0x7FFFFFFF if value > 0 else -0x80000000
    )
    value = max(-0x80000000, min(0x7FFFFFFF, value))
    return to_unsigned(value)


# -- code generated from the operational definitions ---------------------------
#
# An operational definition (the ``spec`` of a row of
# :data:`repro.isa.instructions.TABLE`) is one Python expression over the
# operand placeholders ``{a}``/``{b}``.  A row's callable is built from
# that text, and so is the straight-line code a basic block is fused
# into (:mod:`repro.isa.decode` substitutes register locals and
# immediates for the placeholders), so the one-instruction path and the
# fused path evaluate the same text and cannot diverge.  An operand is
# substituted as an atom (a name, a literal, or a parenthesised literal);
# helpers a spec calls must live in this module.

def value_expr(spec: str, a: str, b: str = "0") -> str:
    """Expression text of a value op applied to operand atoms: its spec,
    truncated to 32 bits as a register write is."""
    return f"({spec.format(a=a, b=b)}) & 0xFFFFFFFF"


def define_function(source: str, names: Optional[dict] = None):
    """Compile one ``def`` generated from spec expressions.  The helpers
    a spec calls resolve in this module; ``names``, when given, is the
    whole scope instead -- this module's names plus what the generated
    code calls besides (``dict(vars(semantics), TABLE=...)``, built
    once by the caller).

    The code is compiled under this module's file name: profilers and
    the benchmark's per-layer tracer then charge the evaluation of an
    operational definition -- one op or a fused block -- to this module,
    where its helpers live."""
    namespace: dict = {}
    exec(compile(source, __file__, "exec"),
         globals() if names is None else names, namespace)
    (function,) = namespace.values()
    return function


#: A 32-bit address pattern ``{a}`` is one :func:`check_word_addr` traps
#: on exactly when this holds; generated blocks test it inline and call
#: :func:`check_word_addr` only then, for its message.
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
