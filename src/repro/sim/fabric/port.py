"""Ports and the component protocol of the Fig. 1 fabric.

A :class:`Port` is the only thing two components may share: a
:class:`~repro.sim.engine.TimedQueue`, so every transfer keeps the
engine's two-phase hand-off semantics (entries pushed at time T are
visible to the consumer only strictly after T), plus the consumer's
wake-up hook.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.sim.engine import TimedQueue


class Port(TimedQueue):
    """An attachment point between two components.

    Same queue semantics as :class:`TimedQueue` (bounded, two-phase
    visibility) plus an optional ``on_push`` hook fired after each
    successful push -- the consumer-side wake-up (e.g. activating a
    cache module in its bank macro-actor) without the producer naming
    the consumer.  The consumer sets its hook once, while the machine
    is built; hooks are bound methods of objects inside the machine, so
    they ride checkpoints like any other state.
    """

    __slots__ = ("on_push",)

    def __init__(self, capacity: int = 0):
        super().__init__(capacity)
        self.on_push = None

    def push(self, time: int, item: Any) -> bool:
        items = self._items
        if self.capacity and len(items) >= self.capacity:
            return False
        items.append((time, item))
        hook = self.on_push
        if hook is not None:
            hook(time)
        return True


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
    - ``hook_ports()``, once, after the component joined its clock
      domain: set the ``on_push`` wake-ups of the ports it drains.
    """

    #: False = no clock of its own; ticks with the cluster domain
    clocked = True
    #: set by the machine when the component joins a clock domain
    domain = None

    def hook_ports(self) -> None:
        """Set the ``on_push`` wake-ups of the ports this component
        drains; called once by the machine, after the clock domains
        are built (a hook arms the component's domain).  Default: it
        polls."""

    def tick(self, cycle: int) -> None:  # pragma: no cover - protocol default
        pass

    def next_work(self, now: int) -> int:
        return now

    def occupancy(self) -> Dict[str, Any]:
        return {}

