"""DRAM subsystem backends.

"Currently, only on-chip components are simulated, and DRAM is modeled
as simple latency" (Section III).  That sentence is the ``simple``
backend: each port accepts one transaction per DRAM-domain cycle (the
bandwidth knob) and completes it a fixed number of cycles later; line
fills call back into the owning cache module.  Addresses are
interleaved over ports by cache-line index.

The ``banked`` backend is the HBM-flavoured alternate: every port holds
``dram_banks`` independent banks, each with its own queue and its own
accept slot per cycle, so bank-level parallelism multiplies per-port
bandwidth while the per-transaction latency stays the same.  Both are
fabric backends (``@register_backend("dram", name)``) selected by
``XMTConfig.dram_backend``; the machine exposes whichever port list the
backend built as ``machine.dram_ports`` so telemetry and the power
model keep reading one surface.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque, List, Tuple

from repro.sim.engine import NEVER
from repro.sim.fabric import Component, register_backend


class DRAMPort(Component):
    """One off-chip memory channel: bounded queue + fixed latency."""

    def __init__(self, machine, port_id: int):
        cfg = machine.config
        self.machine = machine
        self.port_id = port_id
        self.latency = cfg.dram_latency
        self.capacity = cfg.dram_queue_capacity
        # (module, line, is_writeback) waiting to be accepted
        self.queue: Deque[Tuple[object, int, bool]] = deque()
        # (ready_time, seq, module, line) in flight
        self._in_flight: List[Tuple[int, int, object, int]] = []
        self._seq = 0
        self.domain = None  # set by the machine
        self.reads = 0
        self.writes = 0

    def request(self, module, line: int, writeback: bool = False) -> None:
        """Enqueue a transaction (cache modules never see a full DRAM
        queue stall; the queue is where reordering slack lives) and
        wake the port: a DRAM edge later in this timestamp accepts it."""
        self._lane(line).append((module, line, writeback))
        self.domain.arm(self.machine.scheduler.now)

    def _lane(self, line: int) -> Deque[Tuple[object, int, bool]]:
        return self.queue

    def _complete(self, now: int) -> None:
        """Finish every in-flight transaction whose data is ready."""
        while self._in_flight and self._in_flight[0][0] <= now:
            _, _, module, line = heapq.heappop(self._in_flight)
            self.machine.note_progress()
            module.dram_fill(now, line)

    def _accept(self, now: int, module, line: int, writeback: bool) -> None:
        """Consume one accept slot: start a read or retire a write-back."""
        stats = self.machine.stats
        self.machine.note_progress()
        ready = now
        if writeback:
            # write-backs consume bandwidth but need no completion event
            self.writes += 1
            stats.inc("dram.write")
        else:
            self.reads += 1
            stats.inc("dram.read")
            self._seq += 1
            ready = now + self.latency * self.domain.period
            heapq.heappush(self._in_flight, (ready, self._seq, module, line))
        obs = self.machine.obs
        if obs is not None:
            obs.dram_accepted(self, module, line, now, ready, writeback)

    def tick(self, cycle: int) -> None:
        now = self.machine.scheduler.now
        self._complete(now)
        # accept one transaction per cycle (bandwidth limit)
        if self.queue:
            module, line, writeback = self.queue.popleft()
            self._accept(now, module, line, writeback)

    def next_work(self, now: int) -> int:
        if self.queue_depth():
            return now
        if self._in_flight:
            return self._in_flight[0][0]
        return NEVER

    # -- resilience hooks ---------------------------------------------------

    def queue_depth(self) -> int:
        """Transactions waiting to be accepted (the port-interface depth
        the flight recorder stamps; backends with several internal
        queues report their total here)."""
        return len(self.queue)

    def occupancy(self) -> dict:
        """Queue occupancy snapshot for diagnostic dumps."""
        return {"queued": len(self.queue), "in_flight": len(self._in_flight)}


class BankedDRAMPort(DRAMPort):
    """HBM-flavoured channel: independent banks, one accept slot each.

    Lines interleave over banks by ``(line // n_ports) % n_banks`` (the
    port-selection bits are already consumed by channel interleaving),
    so streaming traffic spreads across banks and the port accepts up
    to ``dram_banks`` transactions per cycle instead of one.  Latency
    per transaction is unchanged -- the backend alters *bandwidth*
    shape only, which is what makes it a clean sweep axis against
    ``simple``.
    """

    def __init__(self, machine, port_id: int):
        super().__init__(machine, port_id)
        cfg = machine.config
        self._port_stride = max(1, cfg.n_dram_ports)
        self.banks: List[Deque[Tuple[object, int, bool]]] = [
            deque() for _ in range(cfg.dram_banks)]

    def bank_of(self, line: int) -> int:
        return (line // self._port_stride) % len(self.banks)

    def _lane(self, line: int) -> Deque[Tuple[object, int, bool]]:
        return self.banks[self.bank_of(line)]

    def tick(self, cycle: int) -> None:
        now = self.machine.scheduler.now
        self._complete(now)
        # each bank owns an accept slot: bank-level parallelism
        for bank in self.banks:
            if bank:
                module, line, writeback = bank.popleft()
                self._accept(now, module, line, writeback)

    def queue_depth(self) -> int:
        return sum(len(bank) for bank in self.banks)

    def occupancy(self) -> dict:
        return {"queued": self.queue_depth(),
                "in_flight": len(self._in_flight),
                "banks": [len(bank) for bank in self.banks]}


@register_backend("dram", "simple")
class SimpleDRAM(Component):
    """The paper's DRAM model: one queue and one accept per port-cycle.

    The subsystem owns the port list and the channel-interleave routing
    (line index modulo port count); the machine talks to it only via
    :meth:`request` and re-exposes :attr:`ports` as
    ``machine.dram_ports``.
    """

    port_cls = DRAMPort

    def __init__(self, machine):
        self.machine = machine
        self.ports = [self.port_cls(machine, i)
                      for i in range(machine.config.n_dram_ports)]

    def route(self, line: int) -> DRAMPort:
        return self.ports[line % len(self.ports)]

    def request(self, module, line: int, writeback: bool = False) -> None:
        self.route(line).request(module, line, writeback)

    def components(self) -> list:
        """The clocked actors the DRAM domain ticks, in tick order."""
        return list(self.ports)


@register_backend("dram", "banked")
class BankedDRAM(SimpleDRAM):
    """``dram_banks`` independent banks behind each of the
    ``n_dram_ports`` channels (see :class:`BankedDRAMPort`)."""

    port_cls = BankedDRAMPort
