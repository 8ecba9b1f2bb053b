"""Register-file conventions of the XMT ISA.

Every TCU (and the Master TCU) has 32 general-purpose 32-bit registers
following MIPS-like conventions.  There is additionally a small file of
*global* registers shared by all TCUs; these are the only legal bases of
the hardware ``ps`` (prefix-sum) instruction, mirroring the paper's
"limited number of global registers" restriction.

Register conventions used by the XMTC code generator:

=========  =====  =======================================================
name       index  role
=========  =====  =======================================================
``$zero``  0      hard-wired zero
``$at``    1      assembler temporary
``$v0-1``  2-3    function return values
``$a0-3``  4-7    first four function arguments
``$t0-7``  8-15   caller-saved temporaries
``$s0-7``  16-23  callee-saved
``$t8-9``  24-25  caller-saved temporaries
``$k0``    26     virtual-thread ID (written by ``getvt``); ``$`` in XMTC
``$k1``    27     spawn-unit scratch
``$gp``    28     global pointer (unused by the current code generator)
``$sp``    29     stack pointer (serial code only -- no parallel stack)
``$fp``    30     frame pointer
``$ra``    31     return address
=========  =====  =======================================================
"""

from __future__ import annotations

NUM_REGS = 32
NUM_GLOBAL_REGS = 8

REG_ZERO = 0
REG_AT = 1
REG_V0 = 2
REG_V1 = 3
REG_A0 = 4
REG_A1 = 5
REG_A2 = 6
REG_A3 = 7
REG_T0 = 8
REG_S0 = 16
REG_T8 = 24
REG_T9 = 25
REG_VT = 26  # $k0 -- current virtual thread id inside a spawn region
REG_K1 = 27
REG_GP = 28
REG_SP = 29
REG_FP = 30
REG_RA = 31

#: Registers the register allocator may hand out for temporaries
#: (caller-saved pool).  ``$v0/$v1`` are included because the allocator
#: tracks call clobbers explicitly.
CALLER_SAVED = (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 24, 25)

#: Callee-saved pool; values live across a call are placed here.
CALLEE_SAVED = (16, 17, 18, 19, 20, 21, 22, 23)

_NAMES = [
    "zero", "at", "v0", "v1",
    "a0", "a1", "a2", "a3",
    "t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7",
    "s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7",
    "t8", "t9", "k0", "k1",
    "gp", "sp", "fp", "ra",
]

_NAME_TO_INDEX = {name: i for i, name in enumerate(_NAMES)}


def reg_name(index: int) -> str:
    """Return the canonical ``$name`` spelling of a register index."""
    if not 0 <= index < NUM_REGS:
        raise ValueError(f"register index out of range: {index}")
    return "$" + _NAMES[index]


def parse_reg(text: str) -> int:
    """Parse a register operand (``$5``, ``$t3``, ``$sp`` ...) to an index.

    Raises :class:`ValueError` for malformed operands.
    """
    if not text.startswith("$"):
        raise ValueError(f"register operand must start with '$': {text!r}")
    body = text[1:]
    if body.isdigit():
        idx = int(body)
        if idx >= NUM_REGS:
            raise ValueError(f"register index out of range: {text!r}")
        return idx
    try:
        return _NAME_TO_INDEX[body]
    except KeyError:
        raise ValueError(f"unknown register name: {text!r}") from None


def parse_global_reg(text: str) -> int:
    """Parse a ``$gN`` global-register operand to its index."""
    if not (text.startswith("$g") and text[2:].isdigit()):
        raise ValueError(f"malformed global register: {text!r}")
    idx = int(text[2:])
    if idx >= NUM_GLOBAL_REGS:
        raise ValueError(f"global register index out of range: {text!r}")
    return idx
