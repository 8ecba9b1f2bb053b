"""The Master TCU.

"A serial core with its own cache (Master TCU)" (Section II).  The
Master runs all serial sections, executes ``spawn`` (handing control to
the TCUs through the spawn unit) and resumes after the join.  Its
private cache is write-through and is invalidated at spawn and join
boundaries so serial and parallel sections always observe each other's
writes.  Stores retire through a write buffer (tracked by the
outstanding-store counter); ``spawn`` and ``fence`` drain it, which
implements the memory model's ordering at spawn boundaries.
"""

from __future__ import annotations

from typing import List, Optional

from repro.isa.instructions import OP_CHKID, OP_GETVT, OP_JOIN, Instruction
from repro.isa.registers import REG_ZERO
from repro.isa.semantics import to_signed
from repro.sim import packages as P
from repro.sim.cache import MasterCache
from repro.sim.engine import NEVER
from repro.sim.fabric import Port
from repro.sim.functional import SimulationError
from repro.sim.tcu import PARKED_KEY, RUN_KEY, ProcessorBase


class MasterTCU(ProcessorBase):
    kind = "master"
    # Write-buffer semantics: master stores retire asynchronously;
    # ordering to the same address is preserved by the FIFO path and
    # spawn/fence drain the buffer.
    _store_kind = P.STORE_NB

    def __init__(self, machine):
        super().__init__(machine, tcu_id=-1)
        cfg = machine.config
        self.cache = MasterCache(machine)
        self.send_queue = Port(capacity=cfg.send_queue_capacity)
        self.send_port = self.send_queue
        self.active = True
        self.halted = False
        self.cluster_id = -1  # the master has its own ICN port
        self._loads_in_flight: List[P.Package] = []

    def _try_issue_fu(self, fu: str, now: int, latency: int) -> bool:
        return True  # the Master owns private MDU/FPU units (Fig. 1)

    def wake_at(self, time: int) -> None:
        self.domain.arm(time)

    def describe_state(self) -> dict:
        d = super().describe_state()
        if self.halted:
            d["state"] = "halted"
        elif not self.active:
            d["state"] = "waiting-join"
        return d

    # -- master cache ----------------------------------------------------------

    def _try_local_load(self, now: int, u: Instruction, addr: int) -> bool:
        if not self.cache.probe_read(addr):
            return False
        value = self.machine.memory.load(addr)
        latency = self.cache.hit_latency
        if latency <= 1:
            self.core.write(u.rd, value)
        elif u.rd != REG_ZERO:
            self.pending_regs.add(u.rd)
            self.deliver(now + latency * self._period(), ("reg", u.rd, value))
        return True

    def _on_load_reply(self, pkg: P.Package) -> None:
        # RO_FILL and PSM replies arrive here too, but only a P.LOAD
        # was appended when it was sent
        if pkg in self._loads_in_flight:
            self._loads_in_flight.remove(pkg)
        self.cache.fill(pkg.addr)

    def _on_store_issued(self, pkg: P.Package) -> None:
        # Serial sections have exactly one writer (the Master), so its
        # write-through stores commit to the functional memory at issue;
        # the package still travels the full path for timing/bandwidth.
        # Without this, a master-cache load hit could observe memory
        # before the master's own in-flight store -- violating rule 1 of
        # the memory model (same-source same-destination ordering).
        # The same rule the other way: an older load of the word that
        # has not reached its cache module takes its value first.
        memory = self.machine.memory
        for load in self._loads_in_flight:
            if load.addr == pkg.addr and not load.performed:
                load.reply = memory.load(load.addr)
                load.performed = True
        memory.store(pkg.addr, pkg.value)
        pkg.performed = True

    # -- spawn / halt / resume -----------------------------------------------------

    def _issue_spawn(self, now: int, u: Instruction) -> Optional[str]:
        if self.outstanding_loads or self.outstanding_stores:
            # memory operations are ordered with respect to the beginning
            # of the spawn: drain the write buffer first
            return self._stall("spawn_drain")
        self._count_issue(u)
        machine = self.machine
        region = machine.program.region_for_spawn(self.core.pc)
        low = to_signed(self.core.regs[u.rs])
        high = to_signed(self.core.regs[u.rt])
        self.cache.invalidate()
        self.active = False
        machine.enter_parallel()
        machine.spawn_unit.begin_spawn(now, region, low, high, self.core.regs)

    def _resume(self, pc: int) -> None:
        self.core.pc = pc
        self.active = True

    def _issue_halt(self, now: int, u: Instruction) -> Optional[str]:
        if self.outstanding_loads or self.outstanding_stores:
            return self._stall("halt_drain")
        self._count_issue(u)
        self.halted = True
        self.machine.halt(now)

    # -- the clock edge --------------------------------------------------------------

    def tick(self, cycle: int) -> None:
        """``ClusterBank.tick`` + ``TCU.tick`` for the one processor
        outside the bank: asleep, it returns until :meth:`next_work` is due
        (or runs are off); awake, it issues, and sleeps on what the slot
        says it may sleep on."""
        now = self._sched.now
        machine = self.machine
        key = self.asleep_on
        if key is not None:
            inbox = self.inbox  # (``next_work(now) > now``, without the call)
            if (not (inbox and inbox[0][0] <= now)
                    and (key != self._k_latency or self.stall_until > now)
                    and (key != RUN_KEY
                         or self.run_end > cycle and machine.runs_ok)):
                return
            self.settle(cycle)
            self.asleep_on = None
        if self.inbox:
            self._drain_inbox(now)
        if not self.active or self.halted:
            key = PARKED_KEY  # until the join's resume; nothing to credit
        elif self.stall_until > now:
            # a timed stall (ALU/branch extra latency) always ends;
            # keep the watchdog quiet through it
            key = self._stall("latency")
            machine.note_progress()
        else:
            key = self._issue(now, cycle)
        if key is not None:
            self.asleep_on = key
            self.slept_at = cycle

    def next_work(self, now: int) -> int:
        key = self.asleep_on
        if key is None:
            return now
        work = self.inbox[0][0] if self.inbox else NEVER
        if key == RUN_KEY:
            work = min(work, self.domain.time_of(self.run_end))
        elif key == self._k_latency:
            work = min(work, self.stall_until)
        return work

    def settle(self, cycle: int) -> None:
        if self.asleep_on == self._k_latency and cycle - self.slept_at > 1:
            self.machine.note_progress()  # as the skipped ticks would have
        super().settle(cycle)

    def _check_fetch(self, pc: int) -> Instruction:
        uops = self.machine.decoded.uops
        if not 0 <= pc < len(uops):
            raise SimulationError(f"Master PC out of range: {pc}")
        u = uops[pc]
        code = u.code
        if code == OP_GETVT or code == OP_CHKID:
            raise self._trap(u, f"{u.op} in serial code")
        if code == OP_JOIN:
            raise self._trap(u, "fell through into a spawn region")
        return u
