"""Interconnection-network backends, modeled as macro-actors.

The paper singles the ICN out twice: it is the component implemented as
a macro-actor (Fig. 4) because per-switch events would cross the DE
scheduling threshold, and it dominates simulation cost ("up to 60% of
the time can be spent in simulating the interconnection network",
Section III-D).  We model it transaction-level: a package injected at a
cluster send port traverses to its cache module (placement decided by
the machine's ``cache_layout`` backend); responses traverse a separate
return network.  Contention is expressed by per-cluster injection
width, per-module return drain width and the bounded cluster send
queues (back-pressure to the TCUs).

Every network here is a fabric backend (``@register_backend("icn",
name)``) behind the same :class:`~repro.sim.fabric.Component` surface:

- ``mot``       -- the clocked mesh-of-trees (fixed log-depth latency);
- ``mot-async`` -- its GALS/asynchronous variant (continuous-time,
  no ICN clock, lower per-package energy);
- ``crossbar``  -- a single-stage N x M crossbar: shallow constant
  latency, but each output port accepts one package per cycle;
- ``ring``      -- a unidirectional ring of cluster and module stops:
  latency is the hop distance, so placement matters.

All four share the injection/drain engine of :class:`Interconnect` and
differ only in the arrival-time law (``_arrival``), which is exactly
the seam the port abstraction promises: the observation probes and
telemetry gauges live in the shared engine and hold for every backend.
"""

from __future__ import annotations

import functools
import heapq
from typing import List, Tuple

from repro.sim import packages as P
from repro.sim.engine import NEVER
from repro.sim.fabric import Component, register_backend


class _OccupiedPorts:
    """The ports of one network side that hold a package.

    The same rule as the cache bank's active set: a port's ``on_push``
    hook lists it, the network's tick visits only listed ports -- in
    port order, which the ``crossbar``/``ring`` arrival laws depend on
    -- and forgets a port once it is drained.  The list and the hooks
    (partials of a bound method) are plain data and ride checkpoints.
    """

    def __init__(self, ports):
        self.ports = ports
        self._listed = [False] * len(ports)
        self._indices: List[int] = []
        self._arm = self.on_empty = None

    def hook(self, arm, on_empty=None) -> None:
        """``arm``: the draining network's ``domain.arm``;
        ``on_empty(index, now)``: told when a drain empties a port."""
        self._arm = arm
        self.on_empty = on_empty
        for index, port in enumerate(self.ports):
            port.on_push = functools.partial(self._note, index)

    def _note(self, index: int, time: int) -> None:
        if not self._listed[index]:
            self._listed[index] = True
            self._indices.append(index)
            self._arm(time + 1)  # visible on the network's edge after

    def drain(self, now: int, width: int) -> List[P.Package]:
        """Pop up to ``width`` ready packages from each occupied port, in
        port order."""
        indices = self._indices
        indices.sort()
        ports = self.ports
        listed = self._listed
        on_empty = self.on_empty
        out = []
        still = []
        for index in indices:
            items = ports[index]._items
            taken = 0
            while items and items[0][0] < now and taken < width:
                out.append(items.popleft()[1])
                taken += 1
            if items:
                still.append(index)
            else:
                listed[index] = False
                if on_empty is not None:
                    on_empty(index, now)
        indices[:] = still
        return out


@register_backend("icn", "mot")
class Interconnect(Component):
    """Both ICN directions plus the Master ICN send/return paths."""

    #: relative per-package dynamic energy (see AsyncInterconnect)
    energy_factor = 1.0

    def __init__(self, machine):
        cfg = machine.config
        self.machine = machine
        self.depth = cfg.icn_depth()
        self.width_per_cluster = cfg.icn_width_per_cluster
        self.return_width = cfg.icn_return_width
        #: address -> module placement, owned by the cache_layout backend
        self._route = machine.cache_router.module_of
        # in-flight heaps: (arrival_time, seq, pkg)
        self._to_cache: List[Tuple[int, int, P.Package]] = []
        self._to_cluster: List[Tuple[int, int, P.Package]] = []
        self.domain = None  # set by the machine
        self.packages_sent = 0
        self.packages_returned = 0
        # the ports this network drains, and which of them hold a package
        self._send_side = _OccupiedPorts(machine.send_ports)
        self._return_side = _OccupiedPorts(
            [module.out_queue for module in machine.cache_modules])

    def hook_ports(self) -> None:
        self._send_side.hook(self.domain.arm)
        # a module that holds nothing else leaves the cache bank's
        # active set on the bank's next tick: make sure there is one (in
        # one domain, it is the bank's tick later on this very edge)
        bank = self.machine.cache_bank
        self._return_side.hook(
            self.domain.arm,
            bank.activate if bank.domain is not self.domain else None)

    # -- per-cycle behaviour -------------------------------------------------

    def tick(self, cycle: int) -> None:
        to_cache = self._to_cache
        to_cluster = self._to_cluster
        send_side = self._send_side
        return_side = self._return_side
        if not (to_cache or to_cluster
                or send_side._indices or return_side._indices):
            return  # quiet cycle: nothing queued anywhere on the network
        machine = self.machine
        now = machine.scheduler.now
        obs = machine.obs

        # 1. deliver packages that finished the send traversal
        if to_cache and to_cache[0][0] <= now:
            modules = machine.cache_modules
            while to_cache and to_cache[0][0] <= now:
                pkg = heapq.heappop(to_cache)[2]
                in_queue = modules[pkg.module].in_queue
                if obs is not None:
                    obs.cache_enqueued(pkg, now, len(in_queue))
                # the port's on_push wake-up activates the module in the
                # cache bank; no backend names the bank directly
                in_queue.push(now, pkg)
            machine.last_progress = now

        # 2. deliver responses that finished the return traversal
        if to_cluster and to_cluster[0][0] <= now:
            deliver = machine.deliver_response
            while to_cluster and to_cluster[0][0] <= now:
                deliver(now, heapq.heappop(to_cluster)[2])
            machine.last_progress = now

        # 3. inject new requests from the cluster (and master) send ports
        counters = machine.stats.counters
        arrival_of = self._arrival
        if send_side._indices:
            sent = send_side.drain(now, self.width_per_cluster)
            route = self._route
            for pkg in sent:
                pkg.module = route(pkg.addr)
                self.packages_sent += 1
                arrival = arrival_of(now, pkg, "send")
                heapq.heappush(to_cache, (arrival, pkg.seq, pkg))
                if obs is not None:
                    obs.icn_injected(pkg, now, arrival, len(to_cache))
            if sent:
                counters["icn.send"] += len(sent)

        # 4. drain cache-module responses into the return network
        if return_side._indices:
            returned = return_side.drain(now, self.return_width)
            for pkg in returned:
                self.packages_returned += 1
                arrival = arrival_of(now, pkg, "return")
                heapq.heappush(to_cluster, (arrival, pkg.seq, pkg))
                if obs is not None:
                    obs.icn_returned(pkg, now, arrival, len(to_cluster))
            if returned:
                counters["icn.return"] += len(returned)
        if obs is not None:
            obs.icn_ticked(len(to_cache), len(to_cluster))

    def next_work(self, now: int) -> int:
        if self._send_side._indices or self._return_side._indices:
            return now
        work = self._to_cache[0][0] if self._to_cache else NEVER
        if self._to_cluster and self._to_cluster[0][0] < work:
            work = self._to_cluster[0][0]
        return work

    # -- resilience hooks ----------------------------------------------------

    def occupancy(self) -> dict:
        """In-flight package counts for diagnostic dumps."""
        return {"in_flight_send": len(self._to_cache),
                "in_flight_return": len(self._to_cluster)}

    def _arrival(self, now: int, pkg: P.Package, direction: str) -> int:
        """Arrival time of a package: ``depth`` cycles of the ICN clock.
        Fixed-latency (synchronous) traversal preserves per-channel
        FIFO order by construction."""
        return now + self.depth * self.domain.period


@register_backend("icn", "mot-async")
class AsyncInterconnect(Interconnect):
    """GALS/asynchronous mesh-of-trees (Section III-F, following [39]).

    "Use of asynchronous logic in the interconnection network design
    might be preferable for its advantages in power consumption."  An
    asynchronous network has no ICN clock: a package's traversal time is
    a continuous quantity -- per-stage handshake delay times the log
    depth, plus data-dependent jitter -- *independent of any clock
    period*.  This is exactly what the paper's DE (not DT) engine
    exists to support: "DE simulation allows modeling not only
    synchronous (clocked) components but also asynchronous components
    that require a continuous time concept."

    Two observable differences from the synchronous ICN:

    - traversal latency does not degrade when the ICN clock domain is
      slowed for power (there is no ICN clock);
    - per-package energy is lower (no clock tree): the power model
      reads :attr:`energy_factor`.
    """

    #: no clock of its own: polls at the cluster rate, immune to any
    #: "icn" domain retiming (the machine reads this when building
    #: clock domains and scaling them)
    clocked = False

    #: relative per-package dynamic energy vs the synchronous network
    energy_factor = 0.7

    def __init__(self, machine):
        super().__init__(machine)
        cfg = machine.config
        self.hop_delay_ps = cfg.icn_async_hop_delay_ps
        self.jitter = cfg.icn_async_jitter
        # per-channel last-arrival clamp: asynchronous links are still
        # physical FIFOs, so same-source same-destination ordering (rule
        # 1 of the memory model) must survive the jitter
        self._last_arrival: dict = {}

    def traversal_latency(self, pkg: P.Package) -> int:
        base = self.depth * self.hop_delay_ps
        if self.jitter <= 0:
            return base
        # deterministic per-package handshake jitter in [-j, +j];
        # keyed on run-local state (injection count, address, source) so
        # identical runs reproduce identical timings
        n = self.packages_sent + self.packages_returned
        h = ((n * 0x9E3779B1) ^ (pkg.addr * 31) ^ (pkg.tcu_id * 7919)) & 0xFFFF
        spread = (h / 0xFFFF) * 2.0 - 1.0
        return max(1, int(base * (1.0 + self.jitter * spread)))

    def _arrival(self, now: int, pkg: P.Package, direction: str) -> int:
        arrival = now + self.traversal_latency(pkg)
        key = (direction, pkg.tcu_id, pkg.module)
        floor = self._last_arrival.get(key, 0)
        if arrival <= floor:
            arrival = floor + 1
        self._last_arrival[key] = arrival
        return arrival


@register_backend("icn", "crossbar")
class CrossbarInterconnect(Interconnect):
    """Single-stage N x M crossbar.

    The opposite corner of the design space from the mesh-of-trees:
    traversal is a constant shallow latency (``icn_latency`` cycles
    when set, else 1 -- no log-depth pipeline), but the crossbar has
    one output port per destination and each accepts a single package
    per cycle.  Under uniform traffic it beats the MoT on latency; when
    many sources hash to one module the output-port serialization
    surfaces exactly the hotspot the tree's pipelining hides.

    Per-channel FIFO order (memory-model rule 1) holds: arrivals at a
    given output are strictly increasing, and a source's packages to
    that output are injected in program order at monotonic ``now``.
    """

    def __init__(self, machine):
        super().__init__(machine)
        cfg = machine.config
        self.xbar_latency = cfg.icn_latency if cfg.icn_latency is not None else 1
        # (direction, output port) -> time its last package lands
        self._out_busy: dict = {}

    def _arrival(self, now: int, pkg: P.Package, direction: str) -> int:
        if direction == "send":
            dest = pkg.module
        else:  # one return port per cluster; the master owns its own
            dest = pkg.cluster_id if pkg.tcu_id >= 0 else -1
        arrival = now + self.xbar_latency * self.domain.period
        key = (direction, dest)
        busy = self._out_busy.get(key, 0)
        if arrival <= busy:
            arrival = busy + self.domain.period
        self._out_busy[key] = arrival
        return arrival


@register_backend("icn", "ring")
class RingInterconnect(Interconnect):
    """Unidirectional ring: master, clusters and cache modules as stops.

    Stop order is master, cluster 0..N-1, module 0..M-1; a package
    travels clockwise from its source stop to its destination stop at
    one hop per ICN cycle, so latency is data-dependent (the hop
    distance) instead of the tree's uniform log depth.  Cheap to build,
    scales poorly: mean distance grows linearly with machine size,
    which is exactly the saturation behaviour topology sweeps are after.

    FIFO per channel holds because a (source, destination) pair always
    sees the same distance, making arrivals monotonic per channel.
    """

    def __init__(self, machine):
        super().__init__(machine)
        cfg = machine.config
        self.n_cluster_stops = cfg.n_clusters + 1   # +1: the master's stop
        self.n_stops = self.n_cluster_stops + cfg.n_cache_modules

    def _cluster_stop(self, pkg: P.Package) -> int:
        # master (tcu_id < 0) sits at stop 0; cluster c at stop c + 1
        return 0 if pkg.tcu_id < 0 else pkg.cluster_id + 1

    def _hops(self, src: int, dst: int) -> int:
        return (dst - src) % self.n_stops or self.n_stops

    def _arrival(self, now: int, pkg: P.Package, direction: str) -> int:
        module_stop = self.n_cluster_stops + pkg.module
        if direction == "send":
            hops = self._hops(self._cluster_stop(pkg), module_stop)
        else:
            hops = self._hops(module_stop, self._cluster_stop(pkg))
        return now + hops * self.domain.period
