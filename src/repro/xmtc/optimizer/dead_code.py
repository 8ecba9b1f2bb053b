"""Dead-code elimination + unreachable-code removal.

Pure instructions whose destination is dead are deleted; volatile loads
and everything with side effects (stores, calls, prefix-sums, prints,
prefetches) survive.  Spawn bodies get their own liveness problem with
the hardware dispatch loop modeled as a back edge from body end to body
start (registers persist across virtual threads on one TCU).
"""

from __future__ import annotations

from typing import List, Set

from repro.xmtc import ir as IR
from repro.xmtc.analysis.dataflow import _liveness_blocks, spawn_live_ins


def _remove_unreachable(instrs: List[IR.IRInstr]) -> List[IR.IRInstr]:
    """Drop instructions between an unconditional jump/ret and the next
    label (they can never execute)."""
    out: List[IR.IRInstr] = []
    skipping = False
    for ins in instrs:
        if isinstance(ins, IR.Label):
            skipping = False
        if skipping:
            continue
        out.append(ins)
        if isinstance(ins, (IR.Jump, IR.Ret)):
            skipping = True
    return out


def _drop_redundant_jumps(instrs: List[IR.IRInstr]) -> List[IR.IRInstr]:
    """Remove jumps whose target is the immediately following label."""
    out: List[IR.IRInstr] = []
    for i, ins in enumerate(instrs):
        if isinstance(ins, IR.Jump):
            j = i + 1
            skip = False
            while j < len(instrs) and isinstance(instrs[j], IR.Label):
                if instrs[j].name == ins.target:
                    skip = True
                    break
                j += 1
            if skip:
                continue
        out.append(ins)
    return out


def _drop_unused_labels(instrs: List[IR.IRInstr]) -> List[IR.IRInstr]:
    used: Set[str] = set()
    for ins in IR.walk_instrs(instrs, include_spawn_bodies=False):
        if isinstance(ins, IR.Jump):
            used.add(ins.target)
        elif isinstance(ins, IR.CondJump):
            used.add(ins.target)
    return [ins for ins in instrs
            if not (isinstance(ins, IR.Label) and ins.name not in used)]


_PURE = (IR.Bin, IR.Un, IR.Mov, IR.La, IR.FrameAddr)


def _dead(ins: IR.IRInstr, live: Set[IR.Temp]) -> bool:
    if isinstance(ins, _PURE) or (isinstance(ins, IR.Load)
                                  and not ins.volatile):
        return ins.dst not in live and ins.dst.pinned is None
    return False


def dce_region(instrs: List[IR.IRInstr], is_spawn_body: bool) -> List[IR.IRInstr]:
    # recurse first so body shrinkage is visible to the outer problem;
    # the bodies are final then, so each spawn's live-ins are solved once
    spawn_uses = {}
    for ins in instrs:
        if isinstance(ins, IR.SpawnIR):
            ins.body = dce_region(ins.body, True)
            spawn_uses[id(ins)] = spawn_live_ins(ins)

    changed = True
    while changed:
        changed = False
        instrs = _remove_unreachable(instrs)
        instrs = _drop_redundant_jumps(instrs)
        uses = [spawn_uses[id(ins)] if isinstance(ins, IR.SpawnIR)
                else set(ins.uses()) for ins in instrs]
        blocks, _, live_out = _liveness_blocks(instrs, is_spawn_body, None,
                                               uses)
        # one backward walk per block: a deleted instruction's uses are
        # not added, so a dead chain goes in one round
        keep = [True] * len(instrs)
        for block in blocks:
            live = set(live_out[block.index])
            for pos in range(block.end - 1, block.start - 1, -1):
                ins = instrs[pos]
                if _dead(ins, live):
                    keep[pos] = False
                    changed = True
                    continue
                live.difference_update(ins.defs())
                live |= uses[pos]
        instrs = [ins for ins, kept in zip(instrs, keep) if kept]
    return _drop_unused_labels(instrs)


def run(func: IR.IRFunc) -> None:
    func.body = dce_region(func.body, False)
