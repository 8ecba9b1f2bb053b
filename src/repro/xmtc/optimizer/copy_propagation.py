"""Block-local copy and constant propagation.

Within one basic block, a ``Mov dst, src`` makes later uses of ``dst``
replaceable by ``src`` until either is redefined.  Only a ``Mov``'s
source (a temp or a constant) is propagated, never a load, so even a
``volatile`` load's result is a register value like any other here and
there is nothing volatile to skip (register allocation of parallel code
"is performed as if the code were serial", Section IV-A).
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.xmtc import ir as IR


def _replace(op, env: Dict[int, IR.Operand]):
    if isinstance(op, IR.Temp) and op.id in env:
        return env[op.id]
    return op


def _kill(env: Dict[int, IR.Operand], copies: Dict[int, Set[int]],
          temp: IR.Temp) -> None:
    """Forget ``temp``'s copy and every copy of ``temp``; ``copies``
    indexes the copies by source (entries may be stale, so each is
    re-checked)."""
    env.pop(temp.id, None)
    for key in copies.pop(temp.id, ()):
        value = env.get(key)
        if isinstance(value, IR.Temp) and value.id == temp.id:
            del env[key]


def propagate_region(instrs: List[IR.IRInstr]) -> None:
    env: Dict[int, IR.Operand] = {}
    copies: Dict[int, Set[int]] = {}
    for ins in instrs:
        if isinstance(ins, (IR.Label, IR.Jump, IR.CondJump, IR.Ret)):
            if isinstance(ins, IR.CondJump):
                ins.a = _replace(ins.a, env)
                ins.b = _replace(ins.b, env)
            elif isinstance(ins, IR.Ret) and ins.src is not None:
                ins.src = _replace(ins.src, env)
            if isinstance(ins, IR.Label):
                env.clear()  # block boundary: joins invalidate everything
                copies.clear()
            continue
        if isinstance(ins, IR.SpawnIR):
            ins.low = _replace(ins.low, env)
            ins.high = _replace(ins.high, env)
            propagate_region(ins.body)
            env.clear()  # barrier
            copies.clear()
            continue
        # rewrite uses
        if isinstance(ins, IR.Bin):
            ins.a = _replace(ins.a, env)
            ins.b = _replace(ins.b, env)
        elif isinstance(ins, IR.Un):
            ins.a = _replace(ins.a, env)
        elif isinstance(ins, IR.Mov):
            ins.src = _replace(ins.src, env)
        elif isinstance(ins, IR.Load):
            replaced = _replace(ins.addr, env)
            if isinstance(replaced, IR.Temp):
                ins.addr = replaced
        elif isinstance(ins, IR.Store):
            ins.src = _replace(ins.src, env)
            replaced = _replace(ins.addr, env)
            if isinstance(replaced, IR.Temp):
                ins.addr = replaced
        elif isinstance(ins, IR.Pref):
            replaced = _replace(ins.addr, env)
            if isinstance(replaced, IR.Temp):
                ins.addr = replaced
        elif isinstance(ins, IR.Call):
            ins.args = [_replace(a, env) for a in ins.args]
        elif isinstance(ins, IR.PrintIR):
            ins.args = [_replace(a, env) for a in ins.args]
        elif isinstance(ins, IR.PsmIR):
            replaced = _replace(ins.addr, env)
            if isinstance(replaced, IR.Temp):
                ins.addr = replaced
            # ins.temp is read AND written: do not substitute it away
        # update environment
        for d in ins.defs():
            _kill(env, copies, d)
        if isinstance(ins, IR.Mov) and isinstance(ins.dst, IR.Temp):
            # a pinned source ($) is hardware-written; propagating the
            # name is fine, it is still the same register
            src = ins.src
            if not isinstance(src, IR.Temp):
                env[ins.dst.id] = src
            elif src.id != ins.dst.id:
                env[ins.dst.id] = src
                copies.setdefault(src.id, set()).add(ins.dst.id)


def run(func: IR.IRFunc) -> None:
    propagate_region(func.body)
