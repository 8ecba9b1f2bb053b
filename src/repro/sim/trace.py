"""Execution traces (Section III-E).

"XMTSim generates execution traces at various detail levels.  At the
functional level, only the results of executed assembly instructions are
displayed.  The more detailed cycle-accurate level reports the
cycle-accurate components through which the instruction and data
packages travel.  Traces can be limited to specific instructions in the
assembly input and/or to specific TCUs."

A :class:`Trace` is a *text renderer* subscribed on ``machine.obs``
like every other consumer: it hears the ``issued`` and ``replied``
probes that also feed the structured
:class:`~repro.sim.observability.EventStream` behind the
machine-readable ``--trace-out`` exports.  Both views see the same
underlying events; this one formats them for humans.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Set

from repro.isa.disasm import format_instruction

LEVEL_FUNCTIONAL = "functional"
LEVEL_CYCLE = "cycle"


class Trace:
    """Collects (and optionally filters) trace records during a run."""

    def __init__(self, level: str = LEVEL_FUNCTIONAL,
                 tcus: Optional[Set[int]] = None,
                 ops: Optional[Set[str]] = None,
                 sink: Optional[Callable[[str], None]] = None,
                 limit: int = 0):
        if level not in (LEVEL_FUNCTIONAL, LEVEL_CYCLE):
            raise ValueError(f"unknown trace level {level!r}")
        self.level = level
        self.tcus = tcus      # None = all; Master is TCU -1
        self.ops = ops        # None = all mnemonics
        self.records: List[str] = []
        self.sink = sink
        self.limit = limit    # 0 = unlimited
        self.truncated = False

    def _want(self, tcu_id: int, op: str) -> bool:
        if self.limit and not self.truncated \
                and len(self.records) >= self.limit:
            # one explicit marker so a capped trace is never mistaken
            # for a complete one (later records are silently dropped)
            self.truncated = True
            self._emit(f"... trace truncated: limit={self.limit} reached, "
                       "further records dropped")
        if self.truncated:
            return False
        if self.tcus is not None and tcu_id not in self.tcus:
            return False
        if self.ops is not None and op not in self.ops:
            return False
        return True

    def _emit(self, text: str) -> None:
        self.records.append(text)
        if self.sink is not None:
            self.sink(text)

    # -- probes (see repro.sim.observability.core.PROBES) --------------------

    def issued(self, proc, ins) -> None:
        if not self._want(proc.tcu_id, ins.op):
            return
        now = proc.machine.scheduler.now
        who = "master" if proc.tcu_id < 0 else f"tcu{proc.tcu_id:04d}"
        self._emit(f"{now:>12} {who} [{ins.index:5}] "
                   f"{format_instruction(ins)}")

    def executed(self, ins, core) -> None:
        """``FunctionalSimulator(on_instruction=trace.executed)``: a
        functional-mode run has no clock and one serialized context."""
        if self._want(-1, ins.op):
            self._emit(f"[{ins.index:5}] {format_instruction(ins)}")

    def replied(self, pkg, now: int) -> None:
        if self.level != LEVEL_CYCLE:
            return
        if not self._want(pkg.tcu_id, pkg.kind):
            return
        who = "master" if pkg.tcu_id < 0 else f"tcu{pkg.tcu_id:04d}"
        reply = "" if pkg.reply is None else f" reply=0x{pkg.reply:x}"
        self._emit(f"{now:>12} {who} <- {pkg.kind} addr=0x{pkg.addr:08x}"
                   f"{reply} (issued {pkg.issue_time}, "
                   f"module {pkg.module})")

    def text(self) -> str:
        return "\n".join(self.records)

    def __len__(self) -> int:
        return len(self.records)
