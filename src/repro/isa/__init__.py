"""XMT instruction-set substrate.

This package defines the XMT assembly language used by both the XMTC
compiler back end and the XMTSim-style simulator:

- :mod:`repro.isa.registers` -- register-file conventions,
- :mod:`repro.isa.instructions` -- the instruction table (one row per
  mnemonic: syntax, opcode, functional unit, operational definition) and
  the ``Instruction`` record built from it (the paper's core simulator
  class of the same name),
- :mod:`repro.isa.semantics` -- the helpers the operational definitions
  call, and the code generation both simulation modes share,
- :mod:`repro.isa.decode` -- a program's blocks, executed as one
  generated function each,
- :mod:`repro.isa.assembler` -- text assembly -> :class:`Program`,
- :mod:`repro.isa.program` -- loaded-program container (text segment,
  initial memory map, spawn regions, string table),
- :mod:`repro.isa.disasm` -- textual round-trip for traces and debugging.
"""

from repro.isa.instructions import (
    Instruction,
    FU_ALU,
    FU_MDU,
    FU_FPU,
    FU_BRANCH,
    FU_MEM,
    FU_PS,
    FU_CTRL,
    FU_SYS,
)
from repro.isa.assembler import AssemblerError, assemble
from repro.isa.program import Program, SpawnRegion
from repro.isa.registers import (
    NUM_REGS,
    NUM_GLOBAL_REGS,
    REG_ZERO,
    REG_VT,
    REG_SP,
    REG_FP,
    REG_RA,
    REG_V0,
    REG_A0,
    reg_name,
    parse_reg,
)

__all__ = [
    "Instruction",
    "FU_ALU",
    "FU_MDU",
    "FU_FPU",
    "FU_BRANCH",
    "FU_MEM",
    "FU_PS",
    "FU_CTRL",
    "FU_SYS",
    "AssemblerError",
    "assemble",
    "Program",
    "SpawnRegion",
    "NUM_REGS",
    "NUM_GLOBAL_REGS",
    "REG_ZERO",
    "REG_VT",
    "REG_SP",
    "REG_FP",
    "REG_RA",
    "REG_V0",
    "REG_A0",
    "reg_name",
    "parse_reg",
]
