"""Global prefix-sum unit.

The hardware ``ps`` primitive is "similar in function to the NYU
Ultracomputer atomic Fetch-and-Add" and provides "constant, low overhead
coordination between virtual threads" (Section II-A): all requests to
the same global register that arrive in the same cycle are *combined*
and answered together, regardless of how many TCUs issued one.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.isa.registers import NUM_GLOBAL_REGS
from repro.sim import packages as P
from repro.sim.engine import TimedQueue


class PrefixSumUnit:
    """Combining prefix-sum over the global register file."""

    def __init__(self, machine):
        self.machine = machine
        self.latency = machine.config.ps_latency
        self.in_queue = TimedQueue()  # ps requests from all TCUs
        self.domain = None            # set by the machine
        self.combined_rounds = 0
        self.requests = 0

    def tick(self, cycle: int) -> None:
        machine = self.machine
        now = machine.scheduler.now
        requests: List[P.Package] = self.in_queue.drain_ready(now)
        if not requests:
            return
        machine.note_progress()
        gregs = machine.global_regs
        reply_time = now + self.latency * self.domain.period
        touched = set()
        for pkg in requests:
            greg = pkg.addr  # ps packages carry the register index in addr
            if pkg.kind == P.PS:
                old = gregs[greg]
                gregs[greg] = (old + pkg.value) & 0xFFFFFFFF
                pkg.reply = old
            elif pkg.kind == P.PS_GET:
                pkg.reply = gregs[greg]
            else:  # PS_SET
                gregs[greg] = pkg.value & 0xFFFFFFFF
                pkg.reply = pkg.value
            touched.add(greg)
            self.requests += 1
            machine.stats.inc("psunit.request")
            machine.deliver_to_tcu(pkg.tcu_id, reply_time, pkg)
        self.combined_rounds += 1
        if len(requests) > 1:
            machine.stats.inc("psunit.combined", len(requests))

    def next_work(self, now: int) -> int:
        return self.in_queue.ready_at()
