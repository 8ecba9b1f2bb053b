"""Block-local common-subexpression elimination.

Pure expressions (arithmetic, address computations) are available until
an operand is redefined.  Loads participate too -- redundant-load
elimination -- but the available-load table is killed by stores, psm,
calls and fences, which both keeps us sound without alias analysis and
enforces the memory-model rule that memory operations never move across
prefix-sum operations.  Volatile accesses never participate.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.xmtc import ir as IR


def _key_op(op) -> Tuple:
    if isinstance(op, IR.Const):
        return ("c", op.value)
    return ("t", op.id)


_COMMUTATIVE = {"add", "and", "or", "xor", "mul", "fadd", "fmul", "seq",
                "sne", "feq"}


class _BlockState:
    def __init__(self):
        # expression key -> temp holding the value
        self.exprs: Dict[Tuple, IR.Temp] = {}
        # address temp id -> temp holding the loaded value
        self.loads: Dict[int, IR.Temp] = {}
        # temp id -> the (table, key, value) entries that name it; an
        # entry is killed only while its table still holds it unchanged
        self.mentions: Dict[int, List[Tuple]] = {}

    def remember(self, table: Dict, key, temp: IR.Temp) -> None:
        table[key] = temp
        # a load is keyed by its address temp, an expression by operands
        named = ([key] if table is self.loads
                 else [part[1] for part in key[2:] if part[0] == "t"])
        for tid in [temp.id] + named:
            self.mentions.setdefault(tid, []).append((table, key, temp))

    def kill_temp(self, temp: IR.Temp) -> None:
        for table, key, value in self.mentions.pop(temp.id, ()):
            if table.get(key) is value:
                del table[key]

    def kill_memory(self) -> None:
        self.loads.clear()

    def clear(self) -> None:
        self.exprs.clear()
        self.loads.clear()
        self.mentions.clear()


def cse_region(instrs: List[IR.IRInstr]) -> List[IR.IRInstr]:
    out: List[IR.IRInstr] = []
    state = _BlockState()
    for ins in instrs:
        if isinstance(ins, IR.Label):
            state.clear()
            out.append(ins)
            continue
        if isinstance(ins, IR.SpawnIR):
            ins.body = cse_region(ins.body)
            state.clear()
            out.append(ins)
            continue
        if isinstance(ins, (IR.Call, IR.FenceIR, IR.PsmIR, IR.PsIR)):
            # calls clobber everything; prefix-sums and fences are memory
            # barriers (no load may be remembered across them)
            if isinstance(ins, IR.Call):
                state.clear()
            else:
                state.kill_memory()
            for d in ins.defs():
                state.kill_temp(d)
            out.append(ins)
            continue
        if isinstance(ins, IR.Store):
            state.kill_memory()
            out.append(ins)
            continue
        if isinstance(ins, IR.Bin):
            a, b = _key_op(ins.a), _key_op(ins.b)
            if ins.op in _COMMUTATIVE and b < a:
                a, b = b, a
            key = ("bin", ins.op, a, b)
            hit = state.exprs.get(key)
            if hit is not None:
                out.append(IR.Mov(ins.dst, hit, ins.line))
                state.kill_temp(ins.dst)
                continue
            out.append(ins)
            state.kill_temp(ins.dst)
            state.remember(state.exprs, key, ins.dst)
            continue
        if isinstance(ins, IR.Un):
            key = ("un", ins.op, _key_op(ins.a))
            hit = state.exprs.get(key)
            if hit is not None:
                out.append(IR.Mov(ins.dst, hit, ins.line))
                state.kill_temp(ins.dst)
                continue
            out.append(ins)
            state.kill_temp(ins.dst)
            state.remember(state.exprs, key, ins.dst)
            continue
        if isinstance(ins, (IR.La, IR.FrameAddr)):
            key = (("la", ins.symbol) if isinstance(ins, IR.La)
                   else ("fa", ins.offset))
            hit = state.exprs.get(key)
            if hit is not None:
                out.append(IR.Mov(ins.dst, hit, ins.line))
                state.kill_temp(ins.dst)
                continue
            out.append(ins)
            state.kill_temp(ins.dst)
            state.remember(state.exprs, key, ins.dst)
            continue
        if isinstance(ins, IR.Load) and not ins.volatile:
            hit = state.loads.get(ins.addr.id)
            if hit is not None and hit.id != ins.dst.id:
                out.append(IR.Mov(ins.dst, hit, ins.line))
                state.kill_temp(ins.dst)
                continue
            out.append(ins)
            state.kill_temp(ins.dst)
            if ins.addr.id != ins.dst.id:
                state.remember(state.loads, ins.addr.id, ins.dst)
            continue
        if isinstance(ins, IR.Load):  # volatile
            out.append(ins)
            state.kill_temp(ins.dst)
            state.kill_memory()  # a volatile read is also an ordering point
            continue
        # default: conservatively kill defs
        for d in ins.defs():
            state.kill_temp(d)
        out.append(ins)
    return out


def run(func: IR.IRFunc) -> None:
    func.body = cse_region(func.body)
