"""Thread Control Units (TCUs) and the shared processor core logic.

TCUs are the "lightweight cores" of Fig. 1: in-order, one instruction
per cycle, with private ALU/shift/branch units, a register scoreboard
(stall-on-use for loads), a prefetch buffer, and non-blocking-store
tracking.  Multiply/divide and floating point are *shared* per cluster,
so TCUs arbitrate for them (structural stalls).  Memory instructions
become :class:`~repro.sim.packages.Package` objects that travel through
the cluster send port, the ICN and a shared-cache module, and expire
when the response returns to the commit stage -- the package life cycle
of Section III-A.

The issue slot is the simulator's hottest code.  Processors execute the
assembled records themselves (:mod:`repro.isa.instructions`): every
fetch returns an :class:`~repro.isa.instructions.Instruction` whose
integer opcode indexes its processor class's flat table of handler
functions, whose ``reads``/``wr`` feed the scoreboard, and whose ``fn``
slot carries the operational definition shared with the functional
mode.
"""

from __future__ import annotations

import heapq
from bisect import insort
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.isa.instructions import (
    FU_MDU,
    N_OPCODES,
    OP_ALU,
    OP_ALU_IMM,
    OP_ALU_SHARED,
    OP_BRANCH,
    OP_CHKID,
    OP_FENCE,
    OP_GETG,
    OP_GETTCU,
    OP_GETVT,
    OP_HALT,
    OP_JAL,
    OP_JOIN,
    OP_JR,
    OP_JUMP,
    OP_LI,
    OP_LOAD,
    OP_LOAD_RO,
    OP_NOP,
    OP_PREFETCH,
    OP_PRINT,
    OP_PS,
    OP_PSM,
    OP_SETG,
    OP_SPAWN,
    OP_STORE,
    OP_STORE_NB,
    OP_UNARY,
    OP_UNARY_SHARED,
    Instruction,
)
from repro.isa.registers import REG_RA, REG_ZERO
from repro.isa.semantics import (
    MASK32, TrapError, format_print, to_signed, to_unsigned)
from repro.sim import packages as P
from repro.sim.functional import CoreState, SimulationError

#: opcode -> handler method name; resolved to plain functions once per
#: processor class by :meth:`ProcessorBase.__init_subclass__` (so a
#: subclass's override of a handler or an ``_issue_*`` hook wins).  Built
#: as a dict keyed on the named constants, flattened to a list indexed by
#: opcode.
_HANDLER_NAMES_BY_CODE = {
    OP_ALU: "_h_aluop",
    OP_ALU_SHARED: "_h_alu_shared",
    OP_ALU_IMM: "_h_aluimm",
    OP_LI: "_h_loadimm",
    OP_UNARY: "_h_unary",
    OP_UNARY_SHARED: "_h_unary_shared",
    OP_BRANCH: "_h_branch",
    OP_JUMP: "_h_jump",
    OP_JAL: "_h_jal",
    OP_JR: "_h_jumpreg",
    OP_LOAD: "_h_load",
    OP_LOAD_RO: "_h_load",
    OP_STORE: "_h_store",
    OP_STORE_NB: "_h_store_nb",
    OP_PSM: "_h_psm",
    OP_PREFETCH: "_h_prefetch",
    OP_PS: "_h_ps",
    OP_GETG: "_h_getg",
    OP_SETG: "_h_setg",
    OP_FENCE: "_h_fence",
    OP_NOP: "_h_nop",
    OP_PRINT: "_h_print",
    OP_GETVT: "_issue_getvt",
    OP_GETTCU: "_issue_gettcu",
    OP_CHKID: "_issue_chkid",
    OP_SPAWN: "_issue_spawn",
    OP_JOIN: "_h_join",
    OP_HALT: "_issue_halt",
}
assert sorted(_HANDLER_NAMES_BY_CODE) == list(range(N_OPCODES)), \
    "processor handler table incomplete"
_HANDLER_NAMES: List[str] = [_HANDLER_NAMES_BY_CODE[c] for c in range(N_OPCODES)]


#: what a parked TCU, or the Master awaiting the join, is "asleep on":
#: no counter, nothing to credit
PARKED_KEY = ""
#: what a processor inside a run is "asleep on".  It names no counter: a
#: run is issue, not stall, and settling it credits instructions
RUN_KEY = "run"
#: the most ops one run chains.  What makes ``j self`` and ``while (1)``
#: loops of register ops end -- a fact about the engine, not about the
#: machine modelled, hence no configuration field: no simulated count
#: depends on it, only how often such a loop is looked at
CHAIN_CAP = 1024
#: ... and the fewest worth one: leaving and rejoining the tick list costs
#: about what issuing four ops one by one does, and most runs between
#: two memory ops are two or three (``kernels_fpga64``: 7 in 10)
RUN_MIN = 4
#: the packages whose delivery writes no register (acks of the two
#: stores, the end of a ``setg``): they need not end a run
REGISTER_FREE = frozenset((P.STORE, P.STORE_NB, P.PS_SET))
#: the packages whose reply writes a register from memory
_LOAD_KINDS = (P.LOAD, P.RO_FILL, P.PSM)


class ProcessorBase:
    """Issue/commit logic shared by the TCUs and the Master TCU."""

    #: stats key prefix ("tcu" or "master")
    kind = "tcu"
    #: package kind for a blocking ``sw`` (the Master's write buffer
    #: makes every store non-blocking; see MasterTCU)
    _store_kind = P.STORE
    #: active spawn region (TCUs set an instance attribute; the Master
    #: always runs the serial section) -- cycle accounting reads this
    region = None
    #: a TCU configured with blocking loads sets ``wait_load`` on issue
    _blocking_loads = False
    #: load packages sent and not yet answered, oldest first: a list
    #: only where a store must overtake them (the Master's write buffer)
    _loads_in_flight: Optional[List[P.Package]] = None
    #: None while the processor is ticked.  Else its tick said that
    #: every further tick could only repeat one stall until a delivery
    #: arrives (or a booked wake-up: a busy shared FU's release), and
    #: this is the key of that stall's counter, credited the skipped
    #: cycles on wake (or one of the two keys above)
    asleep_on: Optional[str] = None
    #: the clock domain that ticks it (set by the machine)
    domain = None
    #: the PCs a run may chain into: a TCU's stay inside its spawn
    #: region (``start_region``), the Master's go anywhere
    _region_start = 0
    _region_join = float("inf")
    #: where the ops of a run lead, computed when it is entered:
    #: ``(registers, pc, {block pc: times still to credit})`` -- PCs, not
    #: blocks, so it rides a checkpoint (an instance field once set)
    _run_ahead: Tuple[List[int], int, Dict[int, int]] = ([], 0, {})

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        #: opcode -> handler function, called as ``(self, now, u)``
        cls._handlers = [getattr(cls, name) for name in _HANDLER_NAMES]
        #: stall cause -> interned stats key ("tcu.stall.memory", ...),
        #: and the keys of the causes hit every blocked cycle
        cls._stall_keys = {}
        kind = cls.kind
        cls._k_memory = kind + ".stall.memory"
        cls._k_fu = kind + ".stall.fu"
        cls._k_latency = kind + ".stall.latency"
        cls._k_store_ack = kind + ".stall.store_ack"
        cls._k_drain = kind + ".stall.drain"

    def __init__(self, machine, tcu_id: int):
        self.machine = machine
        self.tcu_id = tcu_id
        self.core = CoreState()
        self.active = False
        self.pending_regs: set = set()
        self.outstanding_loads = 0
        self.outstanding_stores = 0
        self.wait_store_ack = False
        self.stall_until = -1
        self.inbox: List[Tuple[int, int, object]] = []
        self._retry: Optional[Tuple[P.Package, Instruction]] = None
        self.instructions_issued = 0
        #: domain cycle of the last tick accounted for (the one it fell
        #: asleep on, moved forward whenever it is settled)
        self.slept_at = 0
        #: a processor asleep on :data:`RUN_KEY` is inside a *run*: at
        #: ``run_pc``, on cycle ``slept_at``, it entered a chain of blocks
        #: and issues one of its ops per domain cycle without being
        #: ticked.  ``run_end`` is the cycle of its next real tick; the
        #: last ``run_left`` ops of the chain, the ones issued on the
        #: cycles up to there, are not executed yet (``core.pc`` is the
        #: first of them).  The first ``run_tail`` of those finish a
        #: block an earlier settle began one instruction at a time
        self.run_pc = 0
        self.run_end = 0
        self.run_left = 0
        self.run_tail = 0
        # hot-path caches: the counter dict and scheduler live as long as
        # the machine (checkpoints preserve identity through the pickle
        # memo); the latencies are fixed once the config validates
        self._counters = machine.stats.counters
        self._sched = machine.scheduler
        cfg = machine.config
        self._mdu_latency = cfg.mdu_latency
        self._fpu_latency = cfg.fpu_latency
        self._alu_extra = cfg.alu_latency - 1
        self._branch_extra = cfg.branch_latency - 1

    # -- delivery -------------------------------------------------------------

    def deliver(self, time: int, item: object) -> None:
        """The one way anything reaches a processor -- replies, shared-FU
        results, ``getvt``/``ps`` answers, prefetch fills, store acks --
        and so the wake signal of a sleeping one.  One inside a run is
        not woken by a package that writes no register: nothing the run
        does can tell it from one that arrives at the run's end, where
        the resume tick drains it before the next issue."""
        machine = self.machine
        machine._inbox_seq += 1
        heapq.heappush(self.inbox, (time, machine._inbox_seq, item))
        key = self.asleep_on
        if key is not None and (key != RUN_KEY or getattr(
                item, "kind", None) not in REGISTER_FREE):
            self.wake_at(time)

    def _drain_inbox(self, now: int) -> None:
        inbox = self.inbox
        while inbox and inbox[0][0] <= now:
            _, _, item = heapq.heappop(inbox)
            self._process_delivery(item)

    def _process_delivery(self, item: object) -> None:
        core = self.core
        if isinstance(item, tuple):
            tag = item[0]
            if tag == "reg":  # shared-FU completion
                _, rd, value = item
                core.write(rd, value)
                self.pending_regs.discard(rd)
            elif tag == "resume":  # master resumes after join
                self._resume(item[1])
            else:  # pragma: no cover
                raise AssertionError(f"unknown delivery {item!r}")
            return
        pkg: P.Package = item
        kind = pkg.kind
        if kind in (P.LOAD, P.RO_FILL, P.PSM):
            core.write(pkg.rd, pkg.reply)
            self.pending_regs.discard(pkg.rd)
            self.outstanding_loads -= 1
            self._on_load_reply(pkg)
        elif kind in (P.PS, P.PS_GET, P.GETVT):
            core.write(pkg.rd, pkg.reply)
            self.pending_regs.discard(pkg.rd)
        elif kind == P.PS_SET:
            pass  # no reply value; the write completed at the PS unit
        elif kind in (P.STORE, P.STORE_NB):
            self.outstanding_stores -= 1
            if kind == P.STORE:
                self.wait_store_ack = False
        elif kind == P.PREFETCH:
            self._on_prefetch_fill(pkg)
        else:  # pragma: no cover
            raise AssertionError(f"unexpected package {pkg!r}")

    def _on_load_reply(self, pkg: P.Package) -> None:
        pass

    def _on_prefetch_fill(self, pkg: P.Package) -> None:
        pass

    def _resume(self, pc: int) -> None:  # master only
        raise AssertionError("resume delivered to a TCU")

    # -- helpers used by dispatch ----------------------------------------------

    def _stall(self, cause: str) -> str:
        """Count a wasted issue slot (for ``stalled`` listeners a span
        of one cycle; the profiler charges it to the instruction the
        processor is blocked at, ``core.pc``).  Returns the counter's
        key (what a sleeper is credited on)."""
        key = self._stall_keys.get(cause)
        if key is None:
            key = self._stall_keys[cause] = f"{self.kind}.stall.{cause}"
        self._counters[key] += 1
        obs = self.machine.obs
        if obs is not None:
            cycle = self.domain.cycle  # (this tick's: its turn is not over)
            obs.stalled(self, cause, cycle, cycle)
        return key

    def _sources_ready(self, u: Instruction) -> bool:
        pending = self.pending_regs
        if not pending:
            return True
        for r in u.reads:
            if r in pending:
                return False
        wr = u.wr
        return wr < 0 or wr not in pending

    def _period(self) -> int:
        return self.domain.period

    def _trap(self, u, message: str) -> SimulationError:
        return SimulationError(
            f"trap at text index {u.index} (asm line {u.line}, {u.op}) "
            f"on {self.kind} {self.tcu_id}: {message}")

    # -- resilience hooks -------------------------------------------------------

    def describe_state(self) -> dict:
        """Snapshot for diagnostic dumps (watchdog trips, budget trips)."""
        key = self.asleep_on  # None | "parked" | "run" | the stall slept on
        return {
            "asleep_on": (None if key is None
                          else key.rsplit(".", 1)[-1] or "parked"),
            # stepping ``run_ops - run_left`` micro-ops from ``run_pc``
            # lands on ``pc``
            **({"run_pc": self.run_pc, "run_ops": self.run_end - self.slept_at,
                "run_left": self.run_left} if key == RUN_KEY else {}),
            "kind": self.kind,
            "id": self.tcu_id,
            "pc": self.core.pc,
            "state": "running" if self.active else "inactive",
            "loads": self.outstanding_loads,
            "stores": self.outstanding_stores,
            "pending_regs": len(self.pending_regs),
            "inbox": len(self.inbox),
            "wait_store_ack": self.wait_store_ack,
            "issued": self.instructions_issued,
        }

    # -- memory path --------------------------------------------------------------

    def _try_local_load(self, now: int, u: Instruction, addr: int) -> bool:
        """Service a load locally (prefetch buffer / master cache).
        Returns True if handled."""
        return False

    # -- the issue slot ---------------------------------------------------------

    def _check_fetch(self, pc: int) -> Instruction:
        raise NotImplementedError

    def _issue(self, now: int, cycle: int) -> Optional[str]:
        """Try to issue one instruction this cycle.  Returns what the
        processor may sleep on: the key of a stall that only a delivery
        ends, :data:`RUN_KEY` on entering a run, else None.
        (``TCU.tick`` inlines this.)"""
        if self._retry is not None:
            pkg, u = self._retry
            self._retry = None
            self._send_mem(now, pkg, u)  # (which books the retry again)
            return None

        pc = self.core.pc
        u = self._check_fetch(pc)
        machine = self.machine
        if machine.runs_ok:
            block = machine.run_starts[pc]
            if block and self._enter_run(block, cycle):
                return RUN_KEY
        if not self._sources_ready(u):
            return self._stall("memory")
        return self._handlers[u.code](self, now, u)

    def _enter_run(self, block, cycle: int) -> bool:
        """Chain the blocks from ``block``, the one at the PC (where
        ``machine.run_starts`` says a run may start), on: each
        is executed now, on a copy of the register file (``core.regs``
        never runs ahead of the settled cycle), and says where the next
        one starts -- through taken and untaken branches and ``j`` --
        until no block starts there, one touches a register the
        scoreboard holds or would trap (the one-instruction path names
        the op, on its own cycle), the PC leaves the spawn region
        (``_check_escape`` gets its tick) or :data:`CHAIN_CAP` is
        reached.  With :data:`RUN_MIN` ops or more chained, nothing can
        get between this processor and as many issue slots: it takes
        them unattended and True is returned."""
        blocks = self.machine.blocks
        pc = at = block.pc
        unready = self.pending_regs
        start, join = self._region_start, self._region_join
        regs = self.core.regs[:]
        chain: Dict[int, int] = {}
        ops = 0
        while (block and unready.isdisjoint(block.regs)
               and (ops + block.n <= CHAIN_CAP or not ops)):
            fn = block.fn or block.compile()
            n = block.n
            times = 0
            try:
                target = fn(regs)
                times = 1
                # a block that leads back to itself is a loop: it goes
                # round in place, the scoreboard test above holding for
                # every pass (nothing clears a register inside this call)
                while target == at and ops + (times + 1) * n <= CHAIN_CAP:
                    target = fn(regs)
                    times += 1
            except TrapError:
                target = None  # (``regs`` untouched: the chain ends before it)
            if times:
                chain[at] = chain.get(at, 0) + times
                ops += times * n
            if target is None:
                break
            at = target
            if not start <= at < join:
                break
            block = blocks[at]
        if ops < RUN_MIN:
            return False
        self.run_pc = pc
        self.run_left = ops
        self.run_tail = 0
        self.run_end = cycle + ops
        self._run_ahead = (regs, at, chain)
        return True

    def settle(self, cycle: int) -> None:
        """Credit a sleeper what it skipped before domain cycle
        ``cycle`` -- stall cycles, or the issue slots of a run -- and
        re-base it.  Counted in *domain cycles*, never picoseconds, so
        retiming and clock gating stay exact.  ``stalled`` listeners
        hear the same cycles, first to last, in one call."""
        key = self.asleep_on
        if key == RUN_KEY:
            self.settle_run(cycle)
            return
        skipped = cycle - self.slept_at - 1
        if key and skipped > 0:
            self._counters[key] += skipped
            obs = self.machine.obs
            if obs is not None:  # the skipped stalls, as one ranged call
                obs.stalled(self, key.rpartition(".")[2],
                            self.slept_at + 1, cycle - 1)
            self.slept_at = cycle - 1

    def settle_run(self, cycle: int) -> None:
        """Make the ops of the current run that were issued before
        domain cycle ``cycle`` (one per cycle since the run began) read
        as executed, and credit them, so that the processor reads as if
        it had been ticked on every edge so far.  All that is left of
        the chain: the registers computed at entry are installed.  A
        prefix -- the run was cut short by a delivery, a checkpoint, a
        timeout, an ``issued`` listener -- is redone on the
        real file: whole blocks through their functions, less than one
        through the one-instruction handlers.  The rest of that block is
        owed as the block formed where it starts if that is the rest --
        it begins with it, but may go on through a ``j`` the other did
        not follow -- else as ``run_tail``, stepped the same way."""
        left = self.run_left
        due = left - (self.run_end - cycle)
        if due <= 0:
            return
        machine = self.machine
        core = self.core
        blocks = machine.blocks
        regs, next_pc, chain = self._run_ahead
        machine.last_progress = now = self._sched.now
        tail = min(due, self.run_tail)
        if tail:
            self._step_ops(now, tail)
            self.run_tail -= tail
            left -= tail
            due -= tail
        if due >= left:
            core.regs = regs  # (the copy made at entry: nobody shares it)
            core.pc = next_pc
            self.run_left = 0
            self.instructions_issued += left
            done = chain
        else:
            self.run_left = left - due
            done = {}
            while due > 0:
                pc = core.pc
                block = blocks[pc]
                chain[pc] -= 1
                due -= block.n
                if due >= 0:
                    core.pc = (block.fn or block.compile())(core.regs)
                    self.instructions_issued += block.n
                    done[pc] = done.get(pc, 0) + 1
                else:
                    self._step_ops(now, due + block.n)
                    if blocks[core.pc].n == -due:
                        chain[core.pc] = chain.get(core.pc, 0) + 1
                    else:
                        self.run_tail = -due
        counters = self._counters
        for pc, times in done.items():
            for key, count in blocks[pc].tally:
                counters[key] += count * times

    def _step_ops(self, now: int, n: int) -> None:
        """Issue the next ``n`` ops of a run through their handlers."""
        uops = self.machine.decoded.uops
        core = self.core
        for _ in range(n):
            u = uops[core.pc]
            self._handlers[u.code](self, now, u)

    def _count_issue(self, u: Instruction) -> None:
        self.instructions_issued += 1
        counters = self._counters
        counters[u.stat_key] += 1
        counters[u.class_key] += 1
        machine = self.machine
        machine.last_progress = self._sched.now
        if machine.obs is not None:
            machine.obs.issued(self, u)

    # -- dispatch ------------------------------------------------------------------
    #
    # Issue dispatch goes through the class's flat list of handler
    # functions indexed by the instruction's integer opcode (built from
    # _HANDLER_NAMES so subclasses override by redefining the method).

    def _alu_tail(self, now: int) -> None:
        self.core.pc += 1
        extra = self._alu_extra
        if extra > 0:
            self.stall_until = now + extra * self._period()

    def _h_aluop(self, now: int, u: Instruction) -> None:
        core = self.core
        self._count_issue(u)
        regs = core.regs
        try:
            core.write(u.rd, u.fn(regs[u.rs], regs[u.rt]))
        except TrapError as exc:
            raise self._trap(u, str(exc)) from None
        self._alu_tail(now)

    def _h_alu_shared(self, now: int, u: Instruction) -> None:
        # arbitrate *before* touching operands: on contention-heavy
        # workloads most attempts stall, and the stall path must stay
        # cheap (no closures, no evaluation)
        latency = self._mdu_latency if u.fu == FU_MDU else self._fpu_latency
        if not self._try_issue_fu(u.fu, now, latency):
            self._stall("fu")
            return
        self._count_issue(u)
        regs = self.core.regs
        try:
            value = u.fn(regs[u.rs], regs[u.rt])
        except TrapError as exc:
            raise self._trap(u, str(exc)) from None
        rd = u.rd
        if rd != REG_ZERO:
            self.pending_regs.add(rd)
        self.deliver(now + latency * self._period(), ("reg", rd, value))
        self.core.pc += 1

    def _h_unary(self, now: int, u: Instruction) -> None:
        core = self.core
        self._count_issue(u)
        try:
            core.write(u.rd, u.fn(core.regs[u.rs]))
        except TrapError as exc:
            raise self._trap(u, str(exc)) from None
        self._alu_tail(now)

    def _h_unary_shared(self, now: int, u: Instruction) -> None:
        latency = self._mdu_latency if u.fu == FU_MDU else self._fpu_latency
        if not self._try_issue_fu(u.fu, now, latency):
            self._stall("fu")
            return
        self._count_issue(u)
        try:
            value = u.fn(self.core.regs[u.rs])
        except TrapError as exc:
            raise self._trap(u, str(exc)) from None
        rd = u.rd
        if rd != REG_ZERO:
            self.pending_regs.add(rd)
        self.deliver(now + latency * self._period(), ("reg", rd, value))
        self.core.pc += 1

    def _h_aluimm(self, now: int, u: Instruction) -> None:
        core = self.core
        self._count_issue(u)
        try:
            core.write(u.rd, u.fn(core.regs[u.rs], u.imm))
        except TrapError as exc:
            raise self._trap(u, str(exc)) from None
        self._alu_tail(now)

    def _h_loadimm(self, now: int, u: Instruction) -> None:
        self._count_issue(u)
        self.core.write(u.rd, u.imm)
        self._alu_tail(now)

    def _h_branch(self, now: int, u: Instruction) -> None:
        core = self.core
        self._count_issue(u)
        regs = core.regs
        if u.fn(regs[u.rs], regs[u.rt] if u.rt >= 0 else 0):
            core.pc = u.target
        else:
            core.pc += 1
        extra = self._branch_extra
        if extra > 0:
            self.stall_until = now + extra * self._period()

    def _h_jump(self, now: int, u: Instruction) -> None:
        self._count_issue(u)
        self.core.pc = u.target

    def _h_jal(self, now: int, u: Instruction) -> None:
        core = self.core
        self._count_issue(u)
        core.write(REG_RA, to_unsigned(core.pc + 1))
        core.pc = u.target

    def _h_jumpreg(self, now: int, u: Instruction) -> None:
        self._count_issue(u)
        self.core.pc = to_unsigned(self.core.regs[u.rs])

    def _ps_common(self, now: int, u: Instruction, kind: str) -> None:
        core = self.core
        self._count_issue(u)
        pkg = P.Package(kind, self.tcu_id, self.cluster_id,
                        addr=u.imm, value=core.regs[u.rd],
                        rd=u.rd, issue_time=now)
        self.machine.ps_unit.in_queue.push(now, pkg)
        if kind != P.PS_SET and u.rd != REG_ZERO:
            self.pending_regs.add(u.rd)
        core.pc += 1

    def _h_ps(self, now: int, u: Instruction) -> None:
        self._ps_common(now, u, P.PS)

    def _h_getg(self, now: int, u: Instruction) -> None:
        self._ps_common(now, u, P.PS_GET)

    def _h_setg(self, now: int, u: Instruction) -> None:
        self._ps_common(now, u, P.PS_SET)

    def _h_fence(self, now: int, u: Instruction) -> Optional[str]:
        if self.outstanding_loads or self.outstanding_stores:
            return self._stall("fence")
        self._count_issue(u)
        self._on_fence(now)
        self.core.pc += 1

    def _h_print(self, now: int, u: Instruction) -> None:
        regs = self.core.regs
        self._count_issue(u)
        machine = self.machine
        fmt = machine.program.strings[u.imm]
        try:
            machine.emit_output(format_print(fmt, [regs[r] for r in u.reads]))
        except TrapError as exc:
            raise self._trap(u, str(exc)) from None
        self.core.pc += 1

    def _h_nop(self, now: int, u: Instruction) -> None:
        self._count_issue(u)
        self._alu_tail(now)

    def _h_join(self, now: int, u: Instruction) -> None:
        raise self._trap(u, "join executed directly")

    # -- memory instructions --------------------------------------------------------

    def _h_load(self, now: int, u: Instruction) -> None:
        core = self.core
        addr = (core.regs[u.rs] + u.imm) & MASK32
        if self._try_local_load(now, u, addr):
            self._count_issue(u)
            core.pc += 1
            return
        pkg = P.Package(P.RO_FILL if u.code == OP_LOAD_RO else P.LOAD,
                        self.tcu_id, self.cluster_id, addr=addr, rd=u.rd,
                        issue_time=now)
        self._send_mem(now, pkg, u)

    def _h_store(self, now: int, u: Instruction) -> None:
        regs = self.core.regs
        pkg = P.Package(self._store_kind, self.tcu_id, self.cluster_id,
                        addr=(regs[u.rs] + u.imm) & MASK32,
                        value=regs[u.rt], issue_time=now)
        self._send_mem(now, pkg, u)

    def _h_store_nb(self, now: int, u: Instruction) -> None:
        regs = self.core.regs
        pkg = P.Package(P.STORE_NB, self.tcu_id, self.cluster_id,
                        addr=(regs[u.rs] + u.imm) & MASK32,
                        value=regs[u.rt], issue_time=now)
        self._send_mem(now, pkg, u)

    def _h_psm(self, now: int, u: Instruction) -> None:
        regs = self.core.regs
        pkg = P.Package(P.PSM, self.tcu_id, self.cluster_id,
                        addr=(regs[u.rs] + u.imm) & MASK32,
                        value=regs[u.rd], rd=u.rd, issue_time=now)
        self._send_mem(now, pkg, u)

    def _h_prefetch(self, now: int, u: Instruction) -> None:
        core = self.core
        addr = (core.regs[u.rs] + u.imm) & MASK32
        if not self._want_prefetch(addr):
            self._count_issue(u)
            core.pc += 1
            return
        pkg = P.Package(P.PREFETCH, self.tcu_id, self.cluster_id, addr=addr,
                        issue_time=now)
        self._send_mem(now, pkg, u)

    def _send_mem(self, now: int, pkg: P.Package, u: Instruction) -> None:
        """Enqueue on ``self.send_port`` (the cluster's ICN send port
        for a TCU, the Master's own); when it is full, stall and retry
        on the next tick."""
        pkg.src_line = u.src_line
        port = self.send_port
        if not port.push(now, pkg):
            self._retry = (pkg, u)
            self._stall("send_queue")
            return
        obs = self.machine.obs
        if obs is not None:
            obs.send_enqueued(pkg, now, len(port))
        self._apply_mem_issue(now, pkg, u)

    def _apply_mem_issue(self, now: int, pkg: P.Package, u: Instruction) -> None:
        """Bookkeeping once the package is accepted by the send port."""
        self._count_issue(u)
        kind = pkg.kind
        if kind in _LOAD_KINDS:
            if pkg.rd != REG_ZERO:
                self.pending_regs.add(pkg.rd)
            self.outstanding_loads += 1
            # a TCU with blocking loads stalls until the reply returns
            if self._blocking_loads:
                self.wait_load = True
            if kind == P.LOAD and self._loads_in_flight is not None:
                self._loads_in_flight.append(pkg)
        elif kind == P.STORE:
            self.outstanding_stores += 1
            self.wait_store_ack = True
            self._on_store_issued(pkg)
        elif kind == P.STORE_NB:
            self.outstanding_stores += 1
            self._on_store_issued(pkg)
        elif kind == P.PREFETCH:
            self._note_prefetch_sent(pkg)
        if kind == P.PSM:
            self._on_psm_issued(pkg)
        self.core.pc += 1

    def _want_prefetch(self, addr: int) -> bool:
        return False

    def _note_prefetch_sent(self, pkg: P.Package) -> None:
        pass

    def _on_fence(self, now: int) -> None:
        pass

    def _on_store_issued(self, pkg: P.Package) -> None:
        pass

    def _on_psm_issued(self, pkg: P.Package) -> None:
        pass

    # -- hooks the subclasses specialize ------------------------------------------------

    def _try_issue_fu(self, fu: str, now: int, latency: int) -> bool:
        raise NotImplementedError

    def _issue_getvt(self, now: int, u: Instruction) -> None:
        raise self._trap(u, "getvt outside parallel mode")

    def _issue_chkid(self, now: int, u: Instruction) -> None:
        raise self._trap(u, "chkid outside parallel mode")

    def _issue_gettcu(self, now: int, u: Instruction) -> None:
        raise self._trap(u, "gettcu outside parallel mode")

    def _issue_spawn(self, now: int, u: Instruction) -> None:
        raise self._trap(u, "spawn is a Master-only instruction")

    def _issue_halt(self, now: int, u: Instruction) -> None:
        raise self._trap(u, "halt is a Master-only instruction")


class TCU(ProcessorBase):
    """One Thread Control Unit inside a cluster."""

    kind = "tcu"

    # park/drain states
    RUNNING = 0
    DRAINING = 1
    PARKED = 2

    _k_pf_hit = "tcu.prefetch.hit"
    _k_pf_pending_hit = "tcu.prefetch.pending_hit"
    _k_pf_late_hit = "tcu.prefetch.late_hit"

    def __init__(self, machine, cluster, tcu_id: int, local_id: int):
        super().__init__(machine, tcu_id)
        self.cluster = cluster
        self.cluster_id = cluster.cluster_id
        self.send_port = cluster.send_queue
        self.local_id = local_id
        #: the machine's tick list (set by :class:`ClusterBank`)
        self.bank = None
        self.park_state = TCU.PARKED
        self.region = None
        # region bounds, cached by start_region so the per-tick
        # containment check is two int compares
        self._region_start = 0
        self._region_join = 0
        cfg = machine.config
        self._blocking_loads = cfg.tcu_blocking_loads
        #: set while a blocking load/psm reply is outstanding
        self.wait_load = False
        self._pf_capacity = cfg.prefetch_buffer_size
        self._pf_lru = cfg.prefetch_policy == "lru"
        self.prefetch_buffer: "OrderedDict[int, int]" = OrderedDict()
        self._pf_pending: set = set()
        #: loads waiting on an in-flight prefetch: addr -> [dest regs]
        self._pf_waiters: Dict[int, List[int]] = {}
        #: in-flight prefetches superseded by this TCU's own store;
        #: their fills must not enter the buffer
        self._pf_cancelled: set = set()
        #: memory-model flush point: prefetches issued before the last
        #: fence must not land in the buffer (Fig. 7's staleness hazard)
        self.last_fence_time = -1
        self.asleep_on = PARKED_KEY

    def wake_at(self, time: int) -> None:
        """Book a wake-up on the cluster bank's heap (deliveries may be
        future-dated: shared-FU results, ``getvt`` answers).  An entry
        for a TCU that is awake by then is stale and ignored."""
        wakes = self.bank.wakes
        if not wakes or time < wakes[0][0]:  # (else an edge is booked)
            self.domain.arm(time)
        heapq.heappush(wakes, (time, self.tcu_id))

    def _try_issue_fu(self, fu: str, now: int, latency: int) -> bool:
        return self.cluster.try_issue_fu(fu, now, latency)

    def _lost_fu(self, now: int, fu: str) -> Optional[str]:
        """Count a lost arbitration for ``fu``.  Until a non-pipelined
        unit frees, every tick could only lose again: if that is after
        the next edge, join the unit's waiters and sleep on the stall.
        The release edge lets the waiter of lowest ``local_id`` win (the
        rest would lose again), so only that one, the head, books a
        wake-up there; a head that wins wakes the next
        (:meth:`_won_fu`)."""
        self._counters[self._k_fu] += 1
        obs = self.machine.obs
        if obs is not None:
            cycle = self.domain.cycle
            obs.stalled(self, "fu", cycle, cycle)
        cluster = self.cluster
        free = cluster.fu_free_at(fu)
        if free > now + cluster.domain.period:
            waiters = cluster.fu_waiters[fu]
            local = self.local_id
            if local not in waiters:
                insort(waiters, local)
            if waiters[0] == local:
                self.wake_at(free)
            return self._k_fu
        return None

    def _won_fu(self, waiters: List[int], free: int) -> None:
        """Won the unit whose waiters are ``waiters``: leave them, and
        if this was their head, wake the next one at ``free``, the
        unit's new release."""
        local = self.local_id
        if local in waiters:
            head = waiters[0] == local
            waiters.remove(local)
            if head and waiters:
                self.cluster.tcus[waiters[0]].wake_at(free)

    def _h_alu_shared(self, now: int, u: Instruction) -> Optional[str]:
        # contention-heavy: most attempts lose the arbitration, so the
        # losing path is one call; a loser of a busy non-pipelined unit
        # sleeps until it frees
        latency = self._mdu_latency if u.fu == FU_MDU else self._fpu_latency
        if not self.cluster.try_issue_fu(u.fu, now, latency):
            return self._lost_fu(now, u.fu)
        self._count_issue(u)
        regs = self.core.regs
        try:
            value = u.fn(regs[u.rs], regs[u.rt])
        except TrapError as exc:
            raise self._trap(u, str(exc)) from None
        rd = u.rd
        if rd != REG_ZERO:
            self.pending_regs.add(rd)
        cluster = self.cluster
        done = now + latency * cluster.domain.period
        self.deliver(done, ("reg", rd, value))
        self.core.pc += 1
        waiters = cluster.fu_waiters[u.fu]
        if waiters:
            self._won_fu(waiters, done)

    def _h_unary_shared(self, now: int, u: Instruction) -> Optional[str]:
        latency = self._mdu_latency if u.fu == FU_MDU else self._fpu_latency
        if not self.cluster.try_issue_fu(u.fu, now, latency):
            return self._lost_fu(now, u.fu)
        self._count_issue(u)
        try:
            value = u.fn(self.core.regs[u.rs])
        except TrapError as exc:
            raise self._trap(u, str(exc)) from None
        rd = u.rd
        if rd != REG_ZERO:
            self.pending_regs.add(rd)
        cluster = self.cluster
        done = now + latency * cluster.domain.period
        self.deliver(done, ("reg", rd, value))
        self.core.pc += 1
        waiters = cluster.fu_waiters[u.fu]
        if waiters:
            self._won_fu(waiters, done)

    # -- region / virtual-thread life cycle -----------------------------------------

    def start_region(self, region, master_regs: List[int]) -> None:
        """Broadcast arrival: copy master registers, reset local state."""
        self.region = region
        self._region_start = region.start
        self._region_join = region.join_index
        self.core.regs[:] = master_regs
        self.core.regs[REG_ZERO] = 0
        self.core.pc = region.start
        self.active = True
        self.park_state = TCU.RUNNING
        self.asleep_on = None
        self.wait_load = False
        self.prefetch_buffer.clear()
        self._pf_pending.clear()
        self._pf_waiters.clear()
        self._pf_cancelled.clear()

    def describe_state(self) -> dict:
        d = super().describe_state()
        d["state"] = ("running", "draining", "parked")[self.park_state]
        d["wait_load"] = self.wait_load
        return d

    def _issue_getvt(self, now: int, u: Instruction) -> None:
        self._count_issue(u)
        pkg = P.Package(P.GETVT, self.tcu_id, self.cluster_id, rd=u.rd,
                        issue_time=now)
        self.machine.spawn_unit.in_queue.push(now, pkg)
        if u.rd != REG_ZERO:
            self.pending_regs.add(u.rd)
        self.core.pc += 1

    def _issue_gettcu(self, now: int, u: Instruction) -> None:
        self._count_issue(u)
        self.core.write(u.rd, self.tcu_id)
        self.core.pc += 1

    def _issue_chkid(self, now: int, u: Instruction) -> None:
        self._count_issue(u)
        vt = to_signed(self.core.regs[u.rs])
        if vt > self.machine.spawn_unit.high:
            # drain outstanding memory operations, then park (the memory
            # model orders all operations before the end of the spawn)
            self.park_state = TCU.DRAINING
            return
        self.core.pc += 1

    # -- prefetch buffer ------------------------------------------------------------------

    def _want_prefetch(self, addr: int) -> bool:
        if self._pf_capacity <= 0:
            return False
        if addr in self.prefetch_buffer:
            if self._pf_lru:
                self.prefetch_buffer.move_to_end(addr)
            return False
        return addr not in self._pf_pending

    def _note_prefetch_sent(self, pkg: P.Package) -> None:
        self._pf_pending.add(pkg.addr)

    def _on_prefetch_fill(self, pkg: P.Package) -> None:
        self._pf_pending.discard(pkg.addr)
        if pkg.issue_time <= self.last_fence_time:
            return  # issued before the last fence: possibly stale, drop
        # loads that matched the in-flight prefetch complete now (they
        # preceded any cancelling store in program order)
        for rd in self._pf_waiters.pop(pkg.addr, ()):
            self.core.write(rd, pkg.reply)
            self.pending_regs.discard(rd)
            self.outstanding_loads -= 1
            self.wait_load = False
            self._counters[self._k_pf_late_hit] += 1
        if pkg.addr in self._pf_cancelled:
            # superseded by this TCU's own store while in flight
            self._pf_cancelled.discard(pkg.addr)
            return
        buffer = self.prefetch_buffer
        if pkg.addr in buffer:
            buffer[pkg.addr] = pkg.reply
            return
        if len(buffer) >= self._pf_capacity:
            buffer.popitem(last=False)  # FIFO/LRU eviction point
        buffer[pkg.addr] = pkg.reply

    def _on_fence(self, now: int) -> None:
        """Fences flush the prefetch buffer: a value prefetched before
        the synchronization point must not satisfy a later load."""
        self.last_fence_time = now
        self.prefetch_buffer.clear()
        self._pf_pending.clear()
        self._pf_cancelled.clear()

    def _on_store_issued(self, pkg: P.Package) -> None:
        # a TCU's own store updates its prefetch buffer (same-thread
        # store-to-load forwarding through the buffer stays consistent)
        # and supersedes any still-in-flight prefetch of that word
        if pkg.addr in self.prefetch_buffer:
            self.prefetch_buffer[pkg.addr] = pkg.value
        if pkg.addr in self._pf_pending:
            self._pf_pending.discard(pkg.addr)
            self._pf_cancelled.add(pkg.addr)

    def _on_psm_issued(self, pkg: P.Package) -> None:
        # the read-modify-write happens at the cache; the local copy is
        # unknowable, so drop it
        self.prefetch_buffer.pop(pkg.addr, None)
        if pkg.addr in self._pf_pending:
            self._pf_pending.discard(pkg.addr)
            self._pf_cancelled.add(pkg.addr)

    def _try_local_load(self, now: int, u: Instruction, addr: int) -> bool:
        if u.code == OP_LOAD_RO:
            ro = self.cluster.ro_cache
            if ro.lookup(addr):
                # tags-only: values it may serve are spawn-invariant
                value = self.machine.memory.load(addr)
                if u.rd != REG_ZERO:
                    self.pending_regs.add(u.rd)
                    self.deliver(now + ro.hit_latency * self._period(),
                                 ("reg", u.rd, value))
                return True
            return False
        buffer = self.prefetch_buffer
        if addr in buffer:
            if self._pf_lru:
                buffer.move_to_end(addr)
            self.core.write(u.rd, buffer[addr])
            self._counters[self._k_pf_hit] += 1
            return True
        if addr in self._pf_pending:
            # the prefetch is in flight: wait for it instead of sending
            # a duplicate request (the pending entry acts as an MSHR)
            if u.rd != REG_ZERO:
                self.pending_regs.add(u.rd)
            self._pf_waiters.setdefault(addr, []).append(u.rd)
            self.outstanding_loads += 1
            if self._blocking_loads:
                self.wait_load = True
            self._counters[self._k_pf_pending_hit] += 1
            return True
        return False

    def _on_load_reply(self, pkg: P.Package) -> None:
        self.wait_load = False
        # same-TCU store-to-load consistency: a returning load does not
        # touch the prefetch buffer; RO fills were installed by the
        # machine on the way in

    # -- the clock edge --------------------------------------------------------------

    def tick(self, cycle: int) -> Optional[str]:
        # The hottest loop in the simulator: fetch, scoreboard and
        # dispatch are inlined here (rather than going through _issue /
        # _check_fetch / _sources_ready) to keep one TCU-cycle at a
        # handful of attribute lookups.  Returns the stall key the TCU
        # may sleep on (see ``asleep_on``), else None.
        now = self._sched.now
        inbox = self.inbox
        while inbox and inbox[0][0] <= now:
            self._process_delivery(heapq.heappop(inbox)[2])
        state = self.park_state
        machine = self.machine
        if state != TCU.RUNNING:
            if state == TCU.PARKED:
                return PARKED_KEY
            # DRAINING
            if (not self.outstanding_loads and not self.outstanding_stores
                    and not self.pending_regs):
                self.park_state = TCU.PARKED
                self.active = False
                machine.spawn_unit.tcu_parked()
                return PARKED_KEY
            self._counters[self._k_drain] += 1
            if machine.obs is not None:
                machine.obs.stalled(self, "drain", cycle, cycle)
            return self._k_drain
        if self.wait_store_ack:
            self._counters[self._k_store_ack] += 1
            if machine.obs is not None:
                machine.obs.stalled(self, "store_ack", cycle, cycle)
            return self._k_store_ack
        if self.wait_load:
            self._counters[self._k_memory] += 1
            if machine.obs is not None:
                machine.obs.stalled(self, "memory", cycle, cycle)
            return self._k_memory
        if self.stall_until > now:
            self._counters[self._k_latency] += 1
            if machine.obs is not None:
                machine.obs.stalled(self, "latency", cycle, cycle)
            return None
        if self._retry is not None:
            self._issue(now, cycle)
            return None
        pc = self.core.pc
        if not self._region_start <= pc < self._region_join:
            self._check_escape(pc)
        if machine.runs_ok:
            block = machine.run_starts[pc]
            if block and self._enter_run(block, cycle):
                return RUN_KEY
        u = machine.decoded.uops[pc]
        if self.pending_regs and not self._sources_ready(u):
            self._counters[self._k_memory] += 1
            if machine.obs is not None:
                machine.obs.stalled(self, "memory", cycle, cycle)
            return self._k_memory
        # (a fence hands back a key, and a loser of a busy non-pipelined
        # FU: stalls that a delivery, or the booked release, ends)
        return self._handlers[u.code](self, now, u)

    def _check_escape(self, pc: int) -> None:
        """The PC left the broadcast region (legal only with the
        parallel-calls convention of the compiler)."""
        if not self.machine.program.parallel_calls:
            raise SimulationError(
                f"TCU {self.tcu_id}: control left the spawn region "
                f"to text index {pc} (basic-block layout bug? "
                "paper Fig. 9)")
        if not 0 <= pc < len(self.machine.program.instructions):
            raise SimulationError(
                f"TCU {self.tcu_id}: PC out of range: {pc}")

    def _check_fetch(self, pc: int) -> Instruction:
        return self.machine.decoded.uops[pc]
