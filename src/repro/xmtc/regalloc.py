"""Linear-scan register allocation.

Serial code gets the full treatment -- caller-saved pool for short
ranges, callee-saved for values live across calls, frame spill slots on
overflow.  Spawn bodies are special, per Section IV-D: virtual threads
"can only use registers or global memory for intermediate results", so
a body that does not fit in the register file raises
:class:`~repro.xmtc.errors.RegisterSpillError` instead of spilling.

The spawn-entry broadcast (the paper's fix (b) for the master-register
dataflow hazard) shows up here as *pinning*: temps computed by the
master and read inside the body keep their master-assigned registers,
which the body allocator must not touch.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.isa.registers import CALLEE_SAVED, REG_VT
from repro.xmtc import ir as IR
from repro.xmtc.errors import RegisterSpillError
from repro.xmtc.analysis.dataflow import (_liveness_blocks, instr_uses,
                                          spawn_live_ins)

#: registers reserved as codegen/spill scratch
SCRATCH = (24, 25)  # $t8, $t9
#: caller-saved pool for general allocation ($t0-$t7)
POOL_CALLER = tuple(r for r in range(8, 16))
#: callee-saved pool ($s0-$s7)
POOL_CALLEE = CALLEE_SAVED
#: extra registers usable inside spawn bodies (no calls there)
POOL_BODY_EXTRA = (2, 3, 4, 5, 6, 7)  # $v0,$v1,$a0-$a3

REG = "reg"
SPILL = "spill"


class Allocation:
    """Result for one region: temp id -> ('reg', n) or ('spill', offset)."""

    def __init__(self):
        self.map: Dict[int, Tuple[str, int]] = {}
        self.used_callee: Set[int] = set()

    def where(self, temp: IR.Temp) -> Tuple[str, int]:
        if temp.pinned is not None:
            return (REG, temp.pinned)
        return self.map[temp.id]


class _Interval:
    __slots__ = ("temp", "start", "end", "crosses_call")

    def __init__(self, temp: IR.Temp, start: int):
        self.temp = temp
        self.start = start
        self.end = start + 1
        self.crosses_call = False


def _build_intervals(instrs: List[IR.IRInstr], loop_back: bool,
                     uses: Optional[List[Set[IR.Temp]]] = None):
    """Live intervals of a region and its live-in set, from one liveness
    solve (``uses`` is each instruction's, a spawn's being its live-ins).
    An interval spans the positions where its temp is used,
    defined or live at a block edge: inside a block a live range only
    starts at a def and ends at a use.  Live sets are copied only at
    calls, for ``crosses_call``."""
    if uses is None:
        uses = [instr_uses(ins) for ins in instrs]
    blocks, live_in, live_out = _liveness_blocks(instrs, loop_back, None,
                                                 uses)
    intervals: Dict[int, _Interval] = {}

    def touch(temps, pos: int) -> None:
        for temp in temps:
            if temp.pinned is not None:
                continue
            iv = intervals.get(temp.id)
            if iv is None:
                intervals[temp.id] = _Interval(temp, pos)
            elif pos < iv.start:
                iv.start = pos
            elif pos >= iv.end:
                iv.end = pos + 1

    # a spawn whose body calls functions behaves like a call for its
    # live-ins (callees run on TCUs reading the broadcast registers, so
    # those values must sit in callee-saved registers that the callees
    # preserve)
    calls = []
    for block in blocks:
        live = set(live_out[block.index])
        touch(live, block.end - 1)
        for pos in range(block.end - 1, block.start - 1, -1):
            ins = instrs[pos]
            if isinstance(ins, IR.Call) or (isinstance(ins, IR.SpawnIR)
                                            and IR.region_has_calls(ins.body)):
                calls.append((pos, set(live), isinstance(ins, IR.SpawnIR)))
            defs = ins.defs()
            touch(defs, pos)
            touch(uses[pos], pos)
            live.difference_update(defs)
            live |= uses[pos]
        touch(live, block.start)
    for pos, live, spawn_calls in calls:
        for iv in intervals.values():
            if iv.start < pos and (iv.end > pos + 1 or iv.temp in live) or (
                    spawn_calls and iv.start <= pos and iv.temp in uses[pos]):
                iv.crosses_call = True
    return intervals, set(live_in[0]) if blocks else set()


def _linear_scan(intervals: List[_Interval], caller_pool: List[int],
                 callee_pool: List[int], alloc: Allocation,
                 allow_spill: bool, func: IR.IRFunc,
                 region_desc: str) -> None:
    # total order: the intervals were collected by iterating sets of
    # temps, whose order varies with PYTHONHASHSEED; ties on (start,
    # end) must not decide who gets which register
    intervals.sort(key=lambda iv: (iv.start, iv.end, iv.temp.id))
    active: List[_Interval] = []
    free_caller = list(caller_pool)
    free_callee = list(callee_pool)

    def release(reg: int) -> None:
        if reg in caller_pool:
            free_caller.append(reg)
            free_caller.sort(key=caller_pool.index)
        elif reg in callee_pool:
            free_callee.append(reg)
            free_callee.sort(key=callee_pool.index)

    for iv in intervals:
        # expire old intervals
        for old in list(active):
            if old.end <= iv.start:
                active.remove(old)
                kind, n = alloc.map[old.temp.id]
                if kind == REG:
                    release(n)
        reg: Optional[int] = None
        if iv.crosses_call:
            if free_callee:
                reg = free_callee.pop(0)
        else:
            if free_caller:
                reg = free_caller.pop(0)
            elif free_callee:
                reg = free_callee.pop(0)
        if reg is not None:
            alloc.map[iv.temp.id] = (REG, reg)
            if reg in POOL_CALLEE:
                alloc.used_callee.add(reg)
            active.append(iv)
            continue
        if not allow_spill:
            raise RegisterSpillError(
                f"register spill in parallel code ({region_desc}): virtual "
                "threads can only use registers for intermediate results "
                "(no parallel stack -- paper Section IV-D); simplify the "
                "spawn body or move data to global memory")
        # spill heuristic: spill the active interval with the furthest end
        victim = max(active, key=lambda a: a.end) if active else None
        if victim is not None and victim.end > iv.end and not victim.temp.is_float:
            vk, vr = alloc.map[victim.temp.id]
            offset = func.alloc_frame(4, f"spill_{victim.temp.id}")
            alloc.map[victim.temp.id] = (SPILL, offset)
            active.remove(victim)
            alloc.map[iv.temp.id] = (vk, vr)
            active.append(iv)
        else:
            offset = func.alloc_frame(4, f"spill_{iv.temp.id}")
            alloc.map[iv.temp.id] = (SPILL, offset)


class FuncAllocation:
    """Allocation for a function: the serial region plus one allocation
    per spawn body (keyed by the SpawnIR object's id)."""

    def __init__(self, func: IR.IRFunc):
        self.func = func
        self.serial = Allocation()
        self.bodies: Dict[int, Allocation] = {}


def allocate(func: IR.IRFunc) -> FuncAllocation:
    result = FuncAllocation(func)

    # one liveness solve per spawn body gives the body's intervals and,
    # at its entry, the spawn's live-ins
    bodies = {}
    for ins in func.body:
        if isinstance(ins, IR.SpawnIR):
            body_intervals, entry = _build_intervals(ins.body, True)
            bodies[id(ins)] = body_intervals, spawn_live_ins(ins, entry)

    # ---- serial region
    uses = [bodies[id(ins)][1] if isinstance(ins, IR.SpawnIR)
            else set(ins.uses()) for ins in func.body]
    intervals, _ = _build_intervals(func.body, False, uses)
    _linear_scan(list(intervals.values()), list(POOL_CALLER),
                 list(POOL_CALLEE), result.serial, allow_spill=True,
                 func=func, region_desc=func.name)

    # ---- each spawn body
    for ins, live_ins in zip(func.body, uses):
        if not isinstance(ins, IR.SpawnIR):
            continue
        pinned_regs: Set[int] = {REG_VT}
        for t in live_ins:
            kind, n = result.serial.where(t)
            if kind == REG:
                pinned_regs.add(n)
            # spilled live-ins are frame-resident: readable from the body
            # through the broadcast $sp
        body_alloc = Allocation()
        # live-ins keep their master registers inside the body
        for t in live_ins:
            body_alloc.map[t.id] = result.serial.where(t)
        body_intervals = bodies[id(ins)][0]
        for t in live_ins:
            body_intervals.pop(t.id, None)
        if IR.region_has_calls(ins.body):
            # parallel-calls extension: callees clobber caller-saved
            # registers and $a/$v stage arguments, so the body gets the
            # serial discipline (t-regs for short ranges, s-regs across
            # calls) -- still spill-free or error
            caller_pool = [r for r in POOL_CALLER if r not in pinned_regs]
            extra_pool = [r for r in POOL_CALLEE if r not in pinned_regs]
        else:
            caller_pool = [r for r in POOL_CALLER if r not in pinned_regs]
            extra_pool = [r for r in list(POOL_BODY_EXTRA) + list(POOL_CALLEE)
                          if r not in pinned_regs]
        _linear_scan(list(body_intervals.values()), caller_pool, extra_pool,
                     body_alloc, allow_spill=False, func=func,
                     region_desc=f"spawn block in {func.name}")
        # callee-saved used inside the body must be saved by the enclosing
        # serial prologue? No: TCU register files are distinct from the
        # master's; the body clobbers TCU registers only.  The serial
        # function's own callee-saved discipline is unaffected.
        body_alloc.used_callee.clear()
        result.bodies[id(ins)] = body_alloc
    return result
