"""Spawn-join unit: broadcast, virtual-thread allocation, join detection.

"Tasks are efficiently started and distributed thanks to the use of
prefix-sum for fast dynamic allocation of work and a dedicated
instruction and data broadcast bus" (Section II).  The unit:

- on ``spawn``: charges the instruction-broadcast cost (region length /
  broadcast width) and the master register-file broadcast, then releases
  every TCU at the region start with a copy of the master registers
  (the paper's fix (b) for the master-register dataflow hazard);
- serves ``getvt`` requests by a combining prefix-sum on the
  virtual-thread counter (all same-cycle requesters get consecutive IDs);
- detects the join: when every TCU has parked on a failed ``chkid`` (and
  drained its outstanding memory operations), the Master resumes after
  the ``join`` -- the "barrier-like function of chkid" of Section IV-D.
"""

from __future__ import annotations

from typing import List, Optional

from repro.sim import packages as P
from repro.sim.engine import NEVER, TimedQueue

IDLE = "idle"
BROADCASTING = "broadcasting"
PARALLEL = "parallel"


class SpawnUnit:
    def __init__(self, machine):
        cfg = machine.config
        self.machine = machine
        self.getvt_latency = cfg.getvt_latency
        self.broadcast_width = cfg.broadcast_instructions_per_cycle
        self.start_overhead = cfg.spawn_start_overhead
        self.join_overhead = cfg.join_overhead
        self.in_queue = TimedQueue()  # getvt requests
        self.domain = None            # set by the machine

        self.state = IDLE
        #: the spawn region in flight (None between spawns) and the
        #: time it began
        self.region = None
        self.began = 0
        self.counter = 0
        self.high = 0
        self._release_time: Optional[int] = None
        self._master_regs: Optional[List[int]] = None
        self._parked = 0
        self.spawn_count = 0

    # -- master-side API ----------------------------------------------------

    def begin_spawn(self, now: int, region, low: int, high: int,
                    master_regs: List[int]) -> None:
        if self.state != IDLE:
            raise RuntimeError("spawn while a parallel section is active")
        self.spawn_count += 1
        self.machine.stats.inc("spawn.count")
        self.state = BROADCASTING
        self.region = region
        self.began = now
        self.counter = low
        self.high = high
        self._master_regs = list(master_regs)
        self._parked = 0
        broadcast_cycles = -(-region.length // self.broadcast_width)
        total = self.start_overhead + broadcast_cycles
        self.machine.stats.inc("spawn.broadcast_cycles", broadcast_cycles)
        self._release_time = now + total * self.domain.period
        if self.machine.obs is not None:
            self.machine.obs.spawn_began(region, now,
                                         max(0, high - low + 1))

    def tcu_parked(self) -> None:
        """A TCU finished (failed chkid + drained memory operations)."""
        self._parked += 1
        if self._parked == self.machine.config.n_tcus:
            self._do_join()

    def _do_join(self) -> None:
        now = self.machine.scheduler.now
        self.state = IDLE
        region = self.region
        self.region = None
        self.machine.finish_spawn(now + self.join_overhead * self.domain.period,
                                  region)

    # -- per-cycle behaviour -------------------------------------------------

    def tick(self, cycle: int) -> None:
        machine = self.machine
        now = machine.scheduler.now
        if self.state == BROADCASTING and now >= self._release_time:
            self.state = PARALLEL
            machine.release_tcus(self.region, self._master_regs)
            self._master_regs = None
        if self.state != PARALLEL:
            return
        requests = self.in_queue.drain_ready(now)
        if not requests:
            return
        machine.note_progress()
        reply_time = now + self.getvt_latency * self.domain.period
        for pkg in requests:
            pkg.reply = self.counter & 0xFFFFFFFF
            self.counter += 1
            machine.stats.inc("spawn.getvt")
            machine.deliver_to_tcu(pkg.tcu_id, reply_time, pkg)

    def next_work(self, now: int) -> int:
        """The release of a broadcast, else a queued ``getvt`` (the
        requesters tick in this domain, which asks after they pushed)."""
        if self.state == BROADCASTING:
            return self._release_time
        return self.in_queue.ready_at() if self.state == PARALLEL else NEVER
