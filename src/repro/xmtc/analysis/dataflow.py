"""Worklist dataflow engine over the IR CFG, plus the standard problems.

The engine (:func:`solve`) is direction-agnostic: a problem supplies
per-block transfer functions and a join, and gets block-entry /
block-exit facts at fixpoint.  On top of it live the two workhorses of
the compiler and the linters:

- :func:`liveness` -- backward may-analysis; per-instruction live-out
  sets.  Spawn regions are handled *precisely*: a nested ``SpawnIR``
  contributes its real live-in set (computed by a recursive liveness
  run over the body with the hardware's dispatch loop modeled as a
  back edge), replacing the old conservative
  every-use-in-the-region approximation.
- :func:`reaching_definitions` -- forward may-analysis; for every
  instruction, which definition sites of each temp may reach it.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.xmtc import ir as IR
from repro.xmtc.analysis.cfg import Block, split_blocks


def solve(blocks: List[Block],
          transfer: Callable[[Block, object], object],
          join: Callable[[List[object]], object],
          boundary: object,
          bottom: Callable[[], object],
          forward: bool = True,
          extra_edges: Optional[List[Tuple[int, int]]] = None):
    """Run a worklist iteration to fixpoint.

    ``transfer(block, in_fact) -> out_fact`` must be monotone;
    ``join(facts) -> fact`` merges facts flowing into a node (an empty
    list means "boundary only"); ``boundary`` is the fact entering the
    graph (at the entry block if forward, at every exit block if
    backward); ``bottom()`` builds the initial optimistic fact.
    ``extra_edges`` adds CFG edges (pairs of block indices, in forward
    orientation) -- used to model the spawn dispatch loop.

    Returns ``(in_facts, out_facts)`` lists indexed by block.  For a
    backward problem, ``in_facts[b]`` is the fact at block *exit* and
    ``out_facts[b]`` the fact at block *entry* (i.e. facts are named
    from the analysis' point of view, not the program's).
    """
    n = len(blocks)
    succs: List[List[int]] = [list(b.succs) for b in blocks]
    for src, dst in (extra_edges or ()):
        if dst not in succs[src]:
            succs[src].append(dst)
    preds: List[List[int]] = [[] for _ in range(n)]
    for bi, ss in enumerate(succs):
        for s in ss:
            preds[s].append(bi)

    if forward:
        flow_in, flow_out = preds, succs
        boundary_nodes = {0}
    else:
        flow_in, flow_out = succs, preds
        boundary_nodes = {bi for bi in range(n) if not succs[bi]}

    in_facts = [bottom() for _ in range(n)]
    out_facts = [bottom() for _ in range(n)]
    work = deque(range(n) if forward else range(n - 1, -1, -1))
    on_work = set(work)
    while work:
        bi = work.popleft()
        on_work.discard(bi)
        incoming = [out_facts[p] for p in flow_in[bi]]
        merged = join(incoming)
        if bi in boundary_nodes:
            merged = join([merged, boundary]) if incoming else join([boundary])
        new_out = transfer(blocks[bi], merged)
        if merged != in_facts[bi] or new_out != out_facts[bi]:
            in_facts[bi] = merged
            out_facts[bi] = new_out
            for s in flow_out[bi]:
                if s not in on_work:
                    work.append(s)
                    on_work.add(s)
    return in_facts, out_facts


# --------------------------------------------------------------------------- liveness

def instr_uses(ins: IR.IRInstr) -> Set[IR.Temp]:
    """The temps an instruction reads, with spawn regions contributing
    their precise live-in (broadcast) set."""
    if isinstance(ins, IR.SpawnIR):
        return spawn_live_ins(ins)
    return set(ins.uses())


def spawn_live_ins(spawn: IR.SpawnIR,
                   body_live_in: Optional[Set[IR.Temp]] = None
                   ) -> Set[IR.Temp]:
    """Temps the spawn body needs from the enclosing (master) context:
    the exact live-in set of the body under the hardware's virtual-
    thread dispatch loop, plus the bounds the spawn hardware reads.
    ``body_live_in`` is that body live-in if the caller has solved the
    body already."""
    live = set(region_live_in(spawn.body, loop_back=True)
               if body_live_in is None else body_live_in)
    live.discard(spawn.dollar)
    live.update(t for t in (spawn.low, spawn.high) if isinstance(t, IR.Temp))
    return live


def _block_use_def(blocks: List[Block], instrs: List[IR.IRInstr],
                   uses: List[Set[IR.Temp]]):
    use: List[Set[IR.Temp]] = [set() for _ in blocks]
    defs: List[Set[IR.Temp]] = [set() for _ in blocks]
    for block in blocks:
        block_use, block_defs = use[block.index], defs[block.index]
        for pos in range(block.start, block.end):
            block_use.update(uses[pos] - block_defs)
            block_defs.update(instrs[pos].defs())
    return use, defs


def _liveness_blocks(instrs: List[IR.IRInstr], loop_back: bool,
                     seed_live_out: Optional[Set[IR.Temp]],
                     uses: List[Set[IR.Temp]]):
    """Block-level liveness; ``uses`` is ``instr_uses`` of each
    instruction, computed once by the caller (a spawn's entry is a whole
    body liveness)."""
    blocks, _ = split_blocks(instrs)
    if not blocks:
        return blocks, [], []
    use, defs = _block_use_def(blocks, instrs, uses)
    exit_live = set(seed_live_out or ())
    # the dispatch loop re-enters the region at its top: model it as an
    # edge from every exit block back to block 0
    extra = ([(b.index, 0) for b in blocks if not b.succs]
             if loop_back else None)

    def transfer(block: Block, out: Set[IR.Temp]) -> Set[IR.Temp]:
        return use[block.index] | (out - defs[block.index])

    def join(facts: List[Set[IR.Temp]]) -> Set[IR.Temp]:
        merged: Set[IR.Temp] = set()
        for f in facts:
            merged |= f
        return merged

    live_out, live_in = solve(blocks, transfer, join, boundary=exit_live,
                              bottom=set, forward=False, extra_edges=extra)
    return blocks, live_in, live_out


def liveness(instrs: List[IR.IRInstr], loop_back: bool = False,
             seed_live_out: Optional[Set[IR.Temp]] = None,
             uses: Optional[List[Set[IR.Temp]]] = None
             ) -> List[Set[IR.Temp]]:
    """Per-instruction live-out sets (backward dataflow to fixpoint).

    ``loop_back=True`` adds an edge from the region end to its start,
    modeling the hardware's virtual-thread dispatch loop around a spawn
    body.  ``seed_live_out`` is the set live at region exit.  ``uses``
    is ``[instr_uses(ins) for ins in instrs]`` if the caller has it.
    """
    if uses is None:
        uses = [instr_uses(ins) for ins in instrs]
    blocks, live_in, live_out = _liveness_blocks(instrs, loop_back,
                                                 seed_live_out, uses)
    result: List[Set[IR.Temp]] = [set() for _ in instrs]
    for block in blocks:
        live = set(live_out[block.index])
        for pos in range(block.end - 1, block.start - 1, -1):
            result[pos] = set(live)
            live.difference_update(instrs[pos].defs())
            live |= uses[pos]
    return result


def region_live_in(instrs: List[IR.IRInstr], loop_back: bool = False,
                   seed_live_out: Optional[Set[IR.Temp]] = None
                   ) -> Set[IR.Temp]:
    """The live-in set at the top of a region (entry of block 0)."""
    blocks, live_in, _ = _liveness_blocks(
        instrs, loop_back, seed_live_out, [instr_uses(ins) for ins in instrs])
    if not blocks:
        return set()
    return set(live_in[0])


# --------------------------------------------------------------------------- reaching definitions

def reaching_definitions(instrs: List[IR.IRInstr]
                         ) -> List[Dict[int, Set[int]]]:
    """For each instruction position, ``temp id -> set of positions``
    whose definitions may reach it (before the instruction executes).

    A definition site outside the list (function parameters, spawn
    broadcast) is represented by position ``-1``.
    """
    blocks, _ = split_blocks(instrs)
    if not blocks:
        return []
    defined: Set[int] = set()
    for ins in instrs:
        for t in ins.defs():
            defined.add(t.id)

    def block_transfer(block: Block, fact: Dict[int, Set[int]]):
        out = {tid: set(ps) for tid, ps in fact.items()}
        for pos in range(block.start, block.end):
            for t in instrs[pos].defs():
                out[t.id] = {pos}
        return out

    def join(facts):
        merged: Dict[int, Set[int]] = {}
        for f in facts:
            for tid, ps in f.items():
                merged.setdefault(tid, set()).update(ps)
        return merged

    boundary = {tid: {-1} for tid in defined}
    in_facts, _ = solve(blocks, block_transfer, join, boundary=boundary,
                        bottom=dict, forward=True)
    result: List[Dict[int, Set[int]]] = [dict() for _ in instrs]
    for block in blocks:
        fact = {tid: set(ps) for tid, ps in in_facts[block.index].items()}
        for pos in range(block.start, block.end):
            result[pos] = {tid: set(ps) for tid, ps in fact.items()}
            for t in instrs[pos].defs():
                fact[t.id] = {pos}
    return result


def block_def_positions(instrs: List[IR.IRInstr], start: int, end: int
                        ) -> Tuple[Dict[int, int], Set[int]]:
    """Block-local definition bookkeeping shared by the optimizer's
    hoisting passes: ``temp id -> position of its last definition`` in
    ``[start, end)`` plus the set of temp ids defined more than once."""
    def_pos: Dict[int, int] = {}
    multiply_defined: Set[int] = set()
    for i, ins in enumerate(instrs[start:end]):
        for d in ins.defs():
            if d.id in def_pos:
                multiply_defined.add(d.id)
            def_pos[d.id] = i
    return def_pos, multiply_defined
