"""Clusters: groups of TCUs sharing expensive functional units.

"TCUs include lightweight ALUs, shift and branch units, but the more
expensive multiply/divide (MDU) and floating point units (FPU) are
shared among TCUs in a cluster" (Section II).  The cluster also owns the
read-only cache and the ICN send port (a bounded queue that
back-pressures its TCUs).
"""

from __future__ import annotations

import heapq

from repro.isa.instructions import FU_FPU, FU_MDU
from repro.sim.cache import ReadOnlyCache
from repro.sim.fabric import Port
from repro.sim.tcu import RUN_KEY, TCU


class Cluster:
    def __init__(self, machine, cluster_id: int):
        cfg = machine.config
        self.machine = machine
        self.cluster_id = cluster_id
        # the ICN send port: a fabric Port so any ICN backend drains it
        self.send_queue = Port(capacity=cfg.send_queue_capacity)
        self.ro_cache = ReadOnlyCache(machine, cluster_id)
        self.tcus = [
            TCU(machine, self, cluster_id * cfg.tcus_per_cluster + i, i)
            for i in range(cfg.tcus_per_cluster)
        ]
        #: the TCUs ticked on the next edge, in ``local_id`` order
        #: (send-port back-pressure and MDU/FPU arbitration depend on
        #: it); everyone else sleeps until a delivery or a new region
        self.awake = []
        #: booked wake-ups ``(delivery time, local_id)``; an entry for a
        #: TCU that is awake by then is stale and ignored
        self.wakes = []
        #: ``(domain cycle, local_id)`` of the next real tick of every
        #: TCU inside a run -- cycles, not picoseconds, so a run spans
        #: retiming and gating exactly; an entry whose TCU was woken
        #: earlier (``run_end`` no longer matches) is stale and ignored
        self.resumes = []
        self._sched = machine.scheduler
        self.domain = None  # set by the machine
        # shared-FU arbitration state
        self._fpu_pipelined = cfg.fpu_pipelined
        self._mdu_pipelined = cfg.mdu_pipelined
        self._fpu_issued_at = -1
        self._mdu_issued_at = -1
        self._fpu_busy_until = -1
        self._mdu_busy_until = -1
        self.fpu_ops = 0
        self.mdu_ops = 0
        self._counters = machine.stats.counters

    def try_issue_fu(self, fu: str, now: int, latency: int) -> bool:
        """Arbitrate the shared MDU/FPU; at most one issue per cycle, and
        non-pipelined units stay busy for the full latency."""
        period = self.domain.period
        if fu == FU_FPU:
            if self._fpu_issued_at == now:
                return False
            if not self._fpu_pipelined and self._fpu_busy_until > now:
                return False
            self._fpu_issued_at = now
            self._fpu_busy_until = now + latency * period
            self.fpu_ops += 1
            self._counters["cluster.fpu_ops"] += 1
            return True
        if fu == FU_MDU:
            if self._mdu_issued_at == now:
                return False
            if not self._mdu_pipelined and self._mdu_busy_until > now:
                return False
            self._mdu_issued_at = now
            self._mdu_busy_until = now + latency * period
            self.mdu_ops += 1
            self._counters["cluster.mdu_ops"] += 1
            return True
        raise AssertionError(f"unknown shared FU {fu}")

    def fu_free_at(self, fu: str) -> int:
        """When a loser of ``fu``'s arbitration can win at the earliest:
        a non-pipelined unit's release time, -1 for a pipelined one
        (free again on the next edge)."""
        if fu == FU_FPU:
            return -1 if self._fpu_pipelined else self._fpu_busy_until
        return -1 if self._mdu_pipelined else self._mdu_busy_until

    def tick(self, cycle: int) -> None:
        """One clock edge for the TCUs that have something to do.

        A TCU whose tick says "nothing but this stall until a delivery
        arrives" leaves the tick list; a delivery books its wake-up.  So
        does a TCU whose tick says "nothing but this chain of blocks'
        issue slots" (a *run*), until the cycle after the chain or a
        delivery, whichever is first.
        """
        wakes = self.wakes
        resumes = self.resumes
        if resumes and not self.machine.runs_ok:
            self._end_runs(cycle)
        if (wakes and wakes[0][0] <= self._sched.now
                or resumes and resumes[0][0] <= cycle):
            self._wake_due(cycle)
        awake = self.awake
        slept = False
        for tcu in awake:
            key = tcu.tick(cycle)
            if key is not None:
                tcu.asleep_on = key
                tcu.slept_at = cycle
                if key == RUN_KEY:
                    heapq.heappush(resumes, (tcu.run_end, tcu.local_id))
                if tcu.inbox:  # a future-dated delivery already waits
                    heapq.heappush(wakes, (tcu.inbox[0][0], tcu.local_id))
                slept = True
        if slept:
            self.awake = [tcu for tcu in awake if tcu.asleep_on is None]

    def _wake_due(self, cycle: int) -> None:
        wakes = self.wakes
        resumes = self.resumes
        now = self._sched.now
        tcus = self.tcus
        while wakes and wakes[0][0] <= now:
            tcu = tcus[heapq.heappop(wakes)[1]]
            if tcu.asleep_on is not None:
                tcu.settle(cycle)
                tcu.asleep_on = None
        while resumes and resumes[0][0] <= cycle:
            end, local_id = heapq.heappop(resumes)
            tcu = tcus[local_id]
            if tcu.asleep_on == RUN_KEY and tcu.run_end == end:
                tcu.settle_run(cycle)
                tcu.asleep_on = None
        self.awake = [tcu for tcu in tcus if tcu.asleep_on is None]

    def _end_runs(self, cycle: int) -> None:
        """Runs are off (an ``issued`` listener showed up and must hear
        every instruction from this edge on): settle and wake every TCU
        inside one."""
        for tcu in self.tcus:
            if tcu.asleep_on == RUN_KEY:
                tcu.settle_run(cycle)
                tcu.asleep_on = None
        self.resumes.clear()
        self.awake = [tcu for tcu in self.tcus if tcu.asleep_on is None]

    def settle(self, cycle: int) -> None:
        """Make ``Stats``, the register files and every ``stalled``
        listener read as if every skipped cycle had been ticked; nobody
        wakes."""
        for tcu in self.tcus:
            tcu.settle(cycle)

    def start_region(self, region, master_regs) -> None:
        """Broadcast arrival: every TCU starts the region awake, with
        an empty inbox and no wake-up booked."""
        self.wakes.clear()
        self.resumes.clear()
        for tcu in self.tcus:
            tcu.inbox.clear()
            tcu.start_region(region, master_regs)
        self.awake = list(self.tcus)

    def invalidate_caches(self) -> None:
        self.ro_cache.invalidate()
        for tcu in self.tcus:
            tcu.prefetch_buffer.clear()
            tcu._pf_pending.clear()
