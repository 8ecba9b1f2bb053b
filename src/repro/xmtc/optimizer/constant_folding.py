"""Constant folding, algebraic simplification and strength reduction."""

from __future__ import annotations

from typing import List, Optional

from repro.isa.instructions import TABLE
from repro.isa.semantics import TrapError, to_signed
from repro.xmtc import ir as IR

_COMMUTATIVE = {"add", "and", "or", "xor", "mul", "fadd", "fmul",
                "seq", "sne", "feq"}

_JUMP_EVAL = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "lt": lambda a, b: to_signed(a) < to_signed(b),
    "le": lambda a, b: to_signed(a) <= to_signed(b),
    "gt": lambda a, b: to_signed(a) > to_signed(b),
    "ge": lambda a, b: to_signed(a) >= to_signed(b),
}


def _fold_bin(ins: IR.Bin) -> Optional[IR.IRInstr]:
    a, b, op = ins.a, ins.b, ins.op
    if isinstance(a, IR.Const) and isinstance(b, IR.Const):
        try:
            return IR.Mov(ins.dst, IR.Const(TABLE[op].fn(a.value, b.value)),
                          ins.line)
        except (TrapError, KeyError):
            return None  # e.g. division by constant zero: leave for runtime
    # canonicalize constants to the right for commutative ops
    if isinstance(a, IR.Const) and op in _COMMUTATIVE:
        a, b = b, a
        ins.a, ins.b = a, b
    if isinstance(b, IR.Const):
        v = b.value
        if op in ("add", "sub", "or", "xor", "sll", "srl", "sra") and v == 0:
            return IR.Mov(ins.dst, a, ins.line)
        if op == "and" and v == 0:
            return IR.Mov(ins.dst, IR.Const(0), ins.line)
        if op == "and" and v == 0xFFFFFFFF:
            return IR.Mov(ins.dst, a, ins.line)
        if op == "mul":
            if v == 0:
                return IR.Mov(ins.dst, IR.Const(0), ins.line)
            if v == 1:
                return IR.Mov(ins.dst, a, ins.line)
            sv = to_signed(v)
            if sv > 1 and (sv & (sv - 1)) == 0:
                # strength reduction: multiply by 2^k -> shift
                return IR.Bin(ins.dst, "sll", a, IR.Const(sv.bit_length() - 1),
                              ins.line)
        if op == "div" and v == 1:
            return IR.Mov(ins.dst, a, ins.line)
        if op == "rem" and v == 1:
            return IR.Mov(ins.dst, IR.Const(0), ins.line)
    if isinstance(a, IR.Const) and a.value == 0 and op == "sub":
        return IR.Un(ins.dst, "neg", b, ins.line)
    if (isinstance(a, IR.Temp) and isinstance(b, IR.Temp) and a.id == b.id):
        if op == "sub" or op == "xor":
            return IR.Mov(ins.dst, IR.Const(0), ins.line)
        if op in ("and", "or"):
            return IR.Mov(ins.dst, a, ins.line)
    return None


def _fold_un(ins: IR.Un) -> Optional[IR.IRInstr]:
    if isinstance(ins.a, IR.Const):
        try:
            return IR.Mov(ins.dst, IR.Const(TABLE[ins.op].fn(ins.a.value)), ins.line)
        except (TrapError, KeyError):
            return None
    return None


def fold_region(instrs: List[IR.IRInstr]) -> List[IR.IRInstr]:
    out: List[IR.IRInstr] = []
    for ins in instrs:
        if isinstance(ins, IR.SpawnIR):
            ins.body = fold_region(ins.body)
            out.append(ins)
            continue
        if isinstance(ins, IR.Bin):
            folded = _fold_bin(ins)
            out.append(folded if folded is not None else ins)
            continue
        if isinstance(ins, IR.Un):
            folded = _fold_un(ins)
            out.append(folded if folded is not None else ins)
            continue
        if isinstance(ins, IR.CondJump) and isinstance(ins.a, IR.Const) \
                and isinstance(ins.b, IR.Const):
            if _JUMP_EVAL[ins.cond](ins.a.value, ins.b.value):
                out.append(IR.Jump(ins.target, ins.line))
            # else: branch never taken -> drop it
            continue
        out.append(ins)
    return out


def run(func: IR.IRFunc) -> None:
    func.body = fold_region(func.body)
