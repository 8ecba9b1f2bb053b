"""Clusters: groups of TCUs sharing expensive functional units.

"TCUs include lightweight ALUs, shift and branch units, but the more
expensive multiply/divide (MDU) and floating point units (FPU) are
shared among TCUs in a cluster" (Section II).  The cluster also owns the
read-only cache and the ICN send port (a bounded queue that
back-pressures its TCUs).  Which of its TCUs are ticked, and when, is
the machine's one tick list (:class:`~repro.sim.machine.ClusterBank`).
"""

from __future__ import annotations

from repro.isa.instructions import FU_FPU, FU_MDU
from repro.sim.cache import ReadOnlyCache
from repro.sim.fabric import Port
from repro.sim.tcu import TCU


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
        self.domain = None  # set by the machine
        # shared-FU arbitration state
        self._fpu_pipelined = cfg.fpu_pipelined
        self._mdu_pipelined = cfg.mdu_pipelined
        self._fpu_issued_at = -1
        self._mdu_issued_at = -1
        self._fpu_busy_until = -1
        self._mdu_busy_until = -1
        #: per shared unit, the ``local_id`` of every TCU asleep until
        #: it frees, in ``local_id`` order: the first is the one the
        #: release edge would let win, so only it is woken there
        #: (:meth:`TCU._lost_fu`, :meth:`TCU._won_fu`)
        self.fu_waiters = {FU_FPU: [], FU_MDU: []}
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

    def invalidate_caches(self) -> None:
        self.ro_cache.invalidate()
        for tcu in self.tcus:
            tcu.prefetch_buffer.clear()
            tcu._pf_pending.clear()
