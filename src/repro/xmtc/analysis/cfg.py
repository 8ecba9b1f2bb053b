"""Basic-block construction over the flat IR instruction lists.

This is the canonical home of the control-flow graph the whole analysis
layer (and the optimizer) is built on.  ``SpawnIR`` is treated as an
ordinary (opaque) instruction: a spawn boundary is a subtree edge in the
IR, so no block ever spans it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.xmtc import ir as IR


class Block:
    """A basic block: [start, end) indices into the instruction list."""

    __slots__ = ("index", "start", "end", "succs")

    def __init__(self, index: int, start: int, end: int):
        self.index = index
        self.start = start
        self.end = end
        self.succs: List[int] = []


def split_blocks(instrs: List[IR.IRInstr]) -> Tuple[List[Block], Dict[str, int]]:
    """Partition a flat instruction list into basic blocks.

    Returns ``(blocks, label -> block index)``.
    """
    leaders = {0}
    label_at: Dict[str, int] = {}
    for i, ins in enumerate(instrs):
        if isinstance(ins, IR.Label):
            leaders.add(i)
            label_at[ins.name] = i
        elif isinstance(ins, (IR.Jump, IR.CondJump, IR.Ret)):
            leaders.add(i + 1)
    starts = sorted(s for s in leaders if s < len(instrs))
    blocks: List[Block] = []
    block_at: Dict[int, int] = {}
    for bi, start in enumerate(starts):
        end = starts[bi + 1] if bi + 1 < len(starts) else len(instrs)
        blocks.append(Block(bi, start, end))
        block_at[start] = bi
    # every label is a leader, so it starts its block
    label_block = {name: block_at[pos] for name, pos in label_at.items()}
    for block in blocks:
        if block.start == block.end:
            continue
        last = instrs[block.end - 1]
        if isinstance(last, IR.Jump):
            block.succs = [label_block[last.target]]
        elif isinstance(last, IR.CondJump):
            block.succs = [label_block[last.target]]
            if block.index + 1 < len(blocks):
                block.succs.append(block.index + 1)
        elif isinstance(last, IR.Ret):
            block.succs = []
        else:
            if block.index + 1 < len(blocks):
                block.succs = [block.index + 1]
    return blocks, label_block

