"""Shared first-level cache, master cache, and cluster read-only cache.

The XMT L1 "is shared and partitioned into mutually-exclusive cache
modules, sharing several off-chip DRAM memory channels. ... Cache
modules handle concurrent requests, which are buffered and reordered to
achieve better DRAM bandwidth utilization" (Section II).  Because each
module owns a disjoint hash-partition of the address space and processes
its queue serially, ``psm`` operations to the same location are
naturally atomic and queued -- exactly the paper's description.

Timing is transaction-level: the tag arrays decide hit/miss and
replacement; data values live in the machine's functional
:class:`~repro.sim.functional.Memory`, which each module reads/writes at
the instant a request is *processed*.  That instant defines the global
memory order, so relaxed-consistency outcomes (paper Fig. 6) emerge from
modeled timing rather than from an arbitrary serialization.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.isa.semantics import to_signed
from repro.sim import packages as P
from repro.sim.engine import NEVER
from repro.sim.fabric import Component, Port, register_backend

#: the package kinds that dirty the line they hit
_WRITES = (P.STORE, P.STORE_NB)


class CacheArray:
    """Set-associative tag array with true-LRU replacement (tags only)."""

    __slots__ = ("sets", "assoc", "line_words", "_line_shift", "_lines")

    def __init__(self, sets: int, assoc: int, line_words: int):
        self.sets = sets
        self.assoc = assoc
        self.line_words = line_words
        self._line_shift = 2 + (line_words - 1).bit_length() if line_words > 1 else 2
        # per-set OrderedDict tag -> dirty flag; LRU order = insertion
        # order.  None until the set's first fill: most sets of a big
        # machine are never touched
        self._lines: List[Optional[OrderedDict]] = [None] * sets

    def lookup(self, addr: int, write: bool = False) -> bool:
        """Probe (and on hit, touch) the line containing ``addr``."""
        return self.lookup_line(addr >> self._line_shift, write)

    def lookup_line(self, line: int, write: bool = False) -> bool:
        """:meth:`lookup` by line address (``addr >> _line_shift``)."""
        entries = self._lines[line & (self.sets - 1)]
        if entries is not None and line in entries:
            entries.move_to_end(line)
            if write:
                entries[line] = True
            return True
        return False

    def fill(self, addr: int, dirty: bool = False) -> Optional[Tuple[int, bool]]:
        """Install the line containing ``addr``.

        Returns ``(victim_line, victim_dirty)`` if an eviction occurred.
        """
        line = addr >> self._line_shift
        index = line & (self.sets - 1)
        entries = self._lines[index]
        if entries is None:
            entries = self._lines[index] = OrderedDict()
        victim = None
        if line in entries:
            entries.move_to_end(line)
            entries[line] = entries[line] or dirty
            return None
        if len(entries) >= self.assoc:
            victim = entries.popitem(last=False)
        entries[line] = dirty
        return victim

    def invalidate_all(self) -> int:
        """Drop every line; returns how many were dirty (write-back cost)."""
        dirty = 0
        for entries in filter(None, self._lines):
            dirty += sum(1 for d in entries.values() if d)
            entries.clear()
        return dirty

    def occupancy(self) -> int:
        return sum(len(e) for e in filter(None, self._lines))


class CacheModule(Component):
    """One partition of the shared L1 (a solid box of Fig. 1).

    Requests arrive from the ICN into :attr:`in_queue`; up to
    ``cache_ports`` are dequeued per cache cycle.  Hits respond after the
    hit latency; misses allocate an MSHR, go to the owning DRAM port and
    respond when the fill returns.  Responses leave through
    :attr:`out_queue`, drained by the ICN return network.  Both queues
    are fabric :class:`Port`\\ s -- the only surface any ICN backend
    touches; which addresses land here is the ``cache_layout``
    backend's decision, not the module's.
    """

    def __init__(self, machine, module_id: int):
        cfg = machine.config
        self.machine = machine
        self.module_id = module_id
        self.array = CacheArray(cfg.cache_sets, cfg.cache_assoc, cfg.cache_line_words)
        # requests from the ICN / responses toward the ICN
        self.in_queue = Port()
        self.in_queue.on_push = self.wake
        self.out_queue = Port()
        self.ports = cfg.cache_ports
        self.hit_latency = cfg.cache_hit_latency
        # line address -> list of waiting packages (MSHR-style merging)
        self.pending_misses: Dict[int, List[P.Package]] = {}
        # responses scheduled after the hit latency
        self._delayed: List[Tuple[int, int, P.Package]] = []
        self.domain = None  # set by the machine
        # local counters (floorplan visualization / power model)
        self.hits = 0
        self.misses = 0
        self.writebacks = 0
        self.psm_ops = 0

    # -- functional execution at the commit point -----------------------------

    def _perform(self, pkg: P.Package, now: int) -> None:
        """Apply the package's memory effect; this defines memory order."""
        memory = self.machine.memory
        stats = self.machine.stats
        if pkg.kind in (P.LOAD, P.PREFETCH, P.RO_FILL):
            if not pkg.performed:  # (a Master load overtaken by its store)
                pkg.reply = memory.load(pkg.addr)
        elif pkg.kind in (P.STORE, P.STORE_NB):
            if not pkg.performed:
                memory.store(pkg.addr, pkg.value)
        elif pkg.kind == P.PSM:
            pkg.reply = memory.psm(pkg.addr, to_signed(pkg.value))
            self.psm_ops += 1
            stats.inc("cache.psm")
        else:  # pragma: no cover - routing prevents this
            raise AssertionError(f"cache module got {pkg.kind} package")
        obs = self.machine.obs
        if obs is not None:
            obs.committed(self, pkg, now)

    def wake(self, time: int) -> None:
        """Consumer-side wake-up, :attr:`in_queue`'s ``on_push`` hook: a
        package entering the port at ``time`` puts this module in the
        cache bank's active set for the edge after."""
        self.machine.cache_bank.activate(self.module_id, time + 1)

    # -- per-cycle behaviour ----------------------------------------------------

    def tick(self, cycle: int) -> int:
        """Release the responses whose latency elapsed, accept up to
        ``cache_ports`` requests, and return when a tick can next do
        something (the bank's ``next_work`` is the earliest over its
        active set): a queued request, or a response whose latency
        elapses; :data:`NEVER` for a module waiting only for DRAM,
        which :meth:`dram_fill` wakes."""
        machine = self.machine
        now = machine.scheduler.now
        obs = machine.obs
        # release responses whose latency elapsed
        delayed = self._delayed
        while delayed and delayed[0][0] <= now:
            pkg = heapq.heappop(delayed)[2]
            if obs is not None:
                obs.response_enqueued(pkg, now, len(self.out_queue))
            self.out_queue.push(now, pkg)
        # accept new requests
        items = self.in_queue._items
        if items and items[0][0] < now:
            machine.last_progress = now
            counters = machine.stats.counters
            array = self.array
            shift = array._line_shift
            pending = self.pending_misses
            ready = now + self.hit_latency * self.domain.period
            taken = 0
            while items and items[0][0] < now and taken < self.ports:
                pkg = items.popleft()[1]
                taken += 1
                line = pkg.addr >> shift
                if array.lookup_line(line, pkg.kind in _WRITES):
                    self.hits += 1
                    counters["cache.hit"] += 1
                    self._perform(pkg, now)
                    heapq.heappush(delayed, (ready, pkg.seq, pkg))
                    outcome = "hit"
                elif line in pending:
                    # merge with the in-flight fill (buffered requests)
                    self.misses += 1
                    counters["cache.miss"] += 1
                    counters["cache.mshr_merge"] += 1
                    pending[line].append(pkg)
                    outcome = "mshr"
                else:
                    self.misses += 1
                    counters["cache.miss"] += 1
                    pending[line] = [pkg]
                    machine.dram.request(self, line)
                    outcome = "miss"
                if obs is not None:
                    obs.cache_dequeued(self, pkg, now, outcome)
        work = items[0][0] + 1 if items else NEVER
        if delayed and delayed[0][0] < work:
            work = delayed[0][0]
        return work

    # -- DRAM fill callback -------------------------------------------------------

    def dram_fill(self, now: int, line: int) -> None:
        """A line fetch completed: install, write back victim, drain waiters."""
        waiters = self.pending_misses.pop(line, [])
        obs = self.machine.obs
        if obs is not None:
            obs.dram_filled(self, line, now, waiters)
        dirty = any(w.is_write or w.kind == P.PSM for w in waiters)
        fill_addr = waiters[0].addr if waiters else line << self.array._line_shift
        victim = self.array.fill(fill_addr, dirty=dirty)
        if victim is not None and victim[1]:
            self.writebacks += 1
            self.machine.stats.inc("cache.writeback")
            self.machine.dram.request(self, victim[0], writeback=True)
        ready = now + self.hit_latency * self.domain.period
        for pkg in waiters:
            self._perform(pkg, now)
            heapq.heappush(self._delayed, (ready, pkg.seq, pkg))
        self.machine.cache_bank.activate(self.module_id, ready)

    # -- resilience hooks ---------------------------------------------------------

    def occupancy(self) -> Dict[str, int]:
        """Queue occupancy snapshot for diagnostic dumps."""
        return {
            "in_queue": len(self.in_queue),
            "out_queue": len(self.out_queue),
            "delayed": len(self._delayed),
            "pending_misses": sum(len(w) for w in
                                  self.pending_misses.values()),
        }


@register_backend("cache_layout", "hashed")
class HashedLayout:
    """The paper's address hashing: line indexes are scattered over the
    modules by a Fibonacci hash so regular strides cannot concentrate
    on one module ("the shared caches are partitioned ... addresses are
    hashed", Section II)."""

    def __init__(self, machine):
        cfg = machine.config
        self.n_modules = cfg.n_cache_modules
        self._line_shift = 2 + (cfg.cache_line_words - 1).bit_length() \
            if cfg.cache_line_words > 1 else 2

    def module_of(self, addr: int) -> int:
        """Home cache module of ``addr`` (any ICN backend routes here)."""
        return P.hash_address(addr, self.n_modules, self._line_shift)


@register_backend("cache_layout", "interleaved")
class InterleavedLayout(HashedLayout):
    """Plain low-order line interleave (no hashing).

    The ablation of :class:`HashedLayout`: power-of-two strides map
    whole access streams onto a single module, exhibiting exactly the
    hotspots hashing exists to prevent -- useful as the contrast
    configuration in topology sweeps.
    """

    def module_of(self, addr: int) -> int:
        return (addr >> self._line_shift) % self.n_modules


class MasterCache:
    """The Master TCU's private cache (write-through, tags-only timing).

    Only serial code runs while the master cache is live; it is
    invalidated at every spawn and join so the serial section always
    observes the TCUs' writes and vice versa.
    """

    def __init__(self, machine):
        cfg = machine.config
        self.machine = machine
        self.array = CacheArray(cfg.master_cache_sets, cfg.master_cache_assoc,
                                cfg.cache_line_words)
        self.hit_latency = cfg.master_cache_hit_latency
        self.hits = 0
        self.misses = 0

    def probe_read(self, addr: int) -> bool:
        hit = self.array.lookup(addr)
        if hit:
            self.hits += 1
            self.machine.stats.inc("master_cache.hit")
        else:
            self.misses += 1
            self.machine.stats.inc("master_cache.miss")
        return hit

    def fill(self, addr: int) -> None:
        self.array.fill(addr)  # write-through: never dirty

    def invalidate(self) -> None:
        self.array.invalidate_all()
        self.machine.stats.inc("master_cache.invalidate")


class ReadOnlyCache:
    """Cluster-level read-only cache for values constant across threads.

    Fully-associative LRU over line addresses; invalidated at spawn and
    join boundaries, so its tags-only model can never return a value
    that differs from shared memory.
    """

    def __init__(self, machine, cluster_id: int):
        cfg = machine.config
        self.machine = machine
        self.cluster_id = cluster_id
        self.capacity = cfg.ro_cache_lines
        self.hit_latency = cfg.ro_cache_hit_latency
        self.line_words = cfg.cache_line_words
        self._shift = 2 + (self.line_words - 1).bit_length() if self.line_words > 1 else 2
        self._lines: "OrderedDict[int, None]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def lookup(self, addr: int) -> bool:
        line = addr >> self._shift
        if line in self._lines:
            self._lines.move_to_end(line)
            self.hits += 1
            self.machine.stats.inc("ro_cache.hit")
            return True
        self.misses += 1
        self.machine.stats.inc("ro_cache.miss")
        return False

    def fill(self, addr: int) -> None:
        line = addr >> self._shift
        if line in self._lines:
            self._lines.move_to_end(line)
            return
        if self.capacity and len(self._lines) >= self.capacity:
            self._lines.popitem(last=False)
        if self.capacity:
            self._lines[line] = None

    def invalidate(self) -> None:
        self._lines.clear()
