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

from repro.isa.decode import MicroOp, OP_CHKID, OP_GETVT, OP_JOIN
from repro.isa.registers import REG_ZERO
from repro.isa.semantics import to_signed
from repro.sim import packages as P
from repro.sim.cache import MasterCache
from repro.sim.fabric import Port
from repro.sim.functional import SimulationError
from repro.sim.tcu import ProcessorBase


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
        self.send_queue = Port(capacity=cfg.send_queue_capacity,
                               name="master.send", layer="cluster",
                               owner=self)
        self.send_port = self.send_queue
        self.active = True
        self.halted = False
        self.domain = None  # set by the machine

    def domain_period(self) -> int:
        return self.domain.period

    def cluster_id(self) -> int:
        return -1  # the master has its own ICN port

    def _try_issue_fu(self, fu: str, now: int, latency: int) -> bool:
        return True  # the Master owns private MDU/FPU units (Fig. 1)

    def describe_state(self) -> dict:
        d = super().describe_state()
        if self.halted:
            d["state"] = "halted"
        elif not self.active:
            d["state"] = "waiting-join"
        return d

    # -- master cache ----------------------------------------------------------

    def _try_local_load(self, now: int, u: MicroOp, addr: int) -> bool:
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
        self.cache.fill(pkg.addr)

    def _on_store_issued(self, pkg: P.Package) -> None:
        # Serial sections have exactly one writer (the Master), so its
        # write-through stores commit to the functional memory at issue;
        # the package still travels the full path for timing/bandwidth.
        # Without this, a master-cache load hit could observe memory
        # before the master's own in-flight store -- violating rule 1 of
        # the memory model (same-source same-destination ordering).
        self.machine.memory.store(pkg.addr, pkg.value)
        pkg.performed = True

    # -- spawn / halt / resume -----------------------------------------------------

    def _issue_spawn(self, now: int, u: MicroOp) -> None:
        if self.outstanding_loads or self.outstanding_stores:
            # memory operations are ordered with respect to the beginning
            # of the spawn: drain the write buffer first
            self._stall("spawn_drain")
            return
        self._count_issue(u)
        machine = self.machine
        region = machine.program.region_for_spawn(self.core.pc)
        low = to_signed(self.core.regs[u.rs])
        high = to_signed(self.core.regs[u.rt])
        self.cache.invalidate()
        n_threads = max(0, high - low + 1)
        sampler = machine.sampler
        if sampler is not None and not sampler.should_sample(self.core.pc):
            # phase sampling fast-forward: execute the region through
            # the shared functional model (exact architectural state),
            # charge the site's calibrated cycle estimate
            executor = machine.sampler_exec
            executor.instruction_counts = {}
            executed = executor.run_spawn_region(region, low, high,
                                                 self.core.regs)
            machine.stats.merge_instruction_counts(executor.instruction_counts)
            machine.stats.inc("spawn.fast_forwarded")
            estimate_ps = sampler.estimate_ps(self.core.pc, n_threads,
                                              self.domain.period)
            self.stall_until = now + estimate_ps
            self.core.pc = region.join_index + 1
            machine.note_progress()
            return
        if sampler is not None:
            sampler.begin_measure(self.core.pc, now, n_threads)
        self.active = False
        machine.enter_parallel()
        machine.spawn_unit.begin_spawn(now, region, low, high, self.core.regs)

    def _resume(self, pc: int) -> None:
        self.core.pc = pc
        self.active = True

    def _issue_halt(self, now: int, u: MicroOp) -> None:
        if self.outstanding_loads or self.outstanding_stores:
            self._stall("halt_drain")
            return
        self._count_issue(u)
        self.halted = True
        self.machine.halt(now)

    # -- the clock edge --------------------------------------------------------------

    def tick(self, cycle: int) -> None:
        now = self._sched.now
        if self.inbox:
            self._drain_inbox(now)
        if not self.active or self.halted:
            return
        if self.wait_store_ack:
            self._stall("store_ack")
            return
        if self.stall_until > now:
            self._stall("latency")
            # a timed stall (MDU latency, sampling fast-forward) always
            # ends; keep the watchdog quiet through long estimates
            self.machine.note_progress()
            return
        self._issue(now)

    def _check_fetch(self, pc: int) -> MicroOp:
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
