"""Ports, links and the component protocol of the Fig. 1 fabric.

A :class:`Port` is the only thing two components may share: a named,
layer-tagged :class:`~repro.sim.engine.TimedQueue`, so every transfer
keeps the engine's two-phase hand-off semantics (entries pushed at time
T are visible to the consumer only strictly after T).  A :class:`Link`
is wiring metadata -- which port feeds which component -- collected by
:class:`~repro.sim.fabric.wiring.Fabric` so tools can render the
topology without knowing any backend's internals.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.sim.engine import TimedQueue


class Port(TimedQueue):
    """A named attachment point between two components.

    Same queue semantics as :class:`TimedQueue` (bounded, two-phase
    visibility) plus the fabric metadata tools need: ``name`` for
    wiring maps, ``layer`` for lifecycle/accounting attribution, and an
    optional ``on_push`` hook fired after each successful push -- the
    consumer-side wake-up (e.g. activating a cache module in its bank
    macro-actor) without the producer naming the consumer.  Hooks are
    transient wiring: detached for checkpoints and restored by
    :meth:`~repro.sim.fabric.wiring.Fabric.hook`.
    """

    __slots__ = ("name", "layer", "owner", "on_push")

    def __init__(self, capacity: int = 0, name: str = "", layer: str = "",
                 owner: Any = None):
        super().__init__(capacity)
        self.name = name
        self.layer = layer
        self.owner = owner
        self.on_push = None

    def push(self, time: int, item: Any) -> bool:
        if TimedQueue.push(self, time, item):
            hook = self.on_push
            if hook is not None:
                hook(time)
            return True
        return False

    def depth(self) -> int:
        """Current occupancy (the lifecycle recorder stamps this)."""
        return len(self._items)

    def describe(self) -> Dict[str, Any]:
        return {"name": self.name, "layer": self.layer,
                "depth": len(self._items), "capacity": self.capacity}


class Link:
    """One arrow of Fig. 1: a port feeding a component (or component
    feeding a port).  Pure metadata -- packages never pass *through* a
    Link; they sit in the port until the consumer's tick drains it."""

    __slots__ = ("src", "dst", "port")

    def __init__(self, src: str, dst: str, port: Optional[Port] = None):
        self.src = src
        self.dst = dst
        self.port = port

    def describe(self) -> Dict[str, Any]:
        d: Dict[str, Any] = {"src": self.src, "dst": self.dst}
        if self.port is not None:
            d["port"] = self.port.name
        return d


class Component:
    """Protocol of a solid Fig. 1 box; concrete backends subclass this.

    The machine drives components only through this surface:

    - ``tick(cycle)`` from the owning clock domain (``clocked = False``
      components have no clock of their own and ride the cluster
      domain -- e.g. the asynchronous ICN);
    - ``next_work(now)`` after each edge: the earliest time a tick
      could do anything (``now`` = the next edge,
      :data:`~repro.sim.engine.NEVER` = not until handed work, when
      whoever hands it over calls ``domain.arm``), so that idle time
      is skipped; ``occupancy()`` for watchdog diagnostics and
      telemetry gauges;
    - ``attach(machine)`` at construction time;
    - the fault-injection hooks ``drop_in_flight`` /
      ``duplicate_in_flight`` / ``delay_in_flight``, which a backend
      without in-flight state may leave as the no-op defaults (the
      campaign engine treats ``None`` as "site not applicable").
    """

    #: lifecycle/accounting layer this component's time is charged to
    layer = ""
    #: False = no clock of its own; ticks with the cluster domain
    clocked = True
    #: set by the machine when the component joins a clock domain
    domain = None

    def attach(self, machine) -> None:
        self.machine = machine

    def hook_ports(self) -> None:
        """(Re)attach ``on_push`` wake-ups to the ports this component
        drains; called by :meth:`Fabric.hook`.  Default: it polls."""

    def tick(self, cycle: int) -> None:  # pragma: no cover - protocol default
        pass

    def next_work(self, now: int) -> int:
        return now

    def occupancy(self) -> Dict[str, Any]:
        return {}

    # -- fault-injection hooks (optional per backend) ------------------------

    def drop_in_flight(self, rng):
        return None

    def duplicate_in_flight(self, rng):
        return None

    def delay_in_flight(self, rng, extra_ps: int):
        return None
