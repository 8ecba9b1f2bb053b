"""The one observation spine: probes fired by the machine, consumers
subscribed on ``machine.obs``.

The cycle-accurate components fire a fixed vocabulary of *probes*
(:data:`PROBES`) at their port boundaries and issue slots, each behind
the single ``machine.obs is not None`` test -- a machine without an
:class:`Observability` pays one attribute test per site and nothing
else.  A *consumer* is any object that defines methods named after the
probes it wants; :meth:`Observability.subscribe` binds every probe once
to a no-op, to the lone subscriber's method, or to a fan-out over the
subscribers, so the components never learn who is listening and a probe
nobody subscribed to costs one empty call.

The text :class:`~repro.sim.trace.Trace`, the structured
:class:`~repro.sim.observability.events.EventStream`, the
:class:`~repro.sim.observability.metrics.MetricsRegistry`, the
:class:`~repro.sim.observability.profiler.CycleProfiler`, the
:class:`~repro.sim.observability.lifecycle.FlightRecorder` and the
:class:`~repro.sim.observability.lifecycle.CycleAccountant` are all
consumers; each owns the formatting of its own schema.
"""

from __future__ import annotations

import difflib
import functools
import inspect

#: probe name -> (arguments, firing site).  ``depth`` is the occupancy
#: of the queue the package is about to enter; times are picoseconds.
PROBES = {
    "issued": ("proc, uop",
               "tcu.py: an instruction took the processor's issue slot"),
    "stalled": ("proc, cause, first, last",
                "tcu.py: the issue slot was wasted on every clusters-"
                "domain cycle first..last (one cycle when ticked, the "
                "span slept through when settled); proc.core.pc is the "
                "blocked instruction"),
    "send_enqueued": ("pkg, now, depth",
                      "tcu.py/mtcu.py: pushed into the cluster/master "
                      "send port"),
    "icn_injected": ("pkg, now, arrival, depth",
                     "icn.py: left a send port for the send network"),
    "cache_enqueued": ("pkg, now, depth",
                       "icn.py: reached its cache module's input port"),
    "cache_dequeued": ("module, pkg, now, outcome",
                       "cache.py: the module accepted it "
                       "(hit | miss | mshr)"),
    "dram_accepted": ("port, module, line, now, ready, writeback",
                      "dram.py: a DRAM port started the transaction"),
    "dram_filled": ("module, line, now, waiters",
                    "cache.py: the line fetch completed for its waiters"),
    "committed": ("module, pkg, now",
                  "cache.py: the package's memory effect was performed "
                  "(the commit point: a hit, or each waiter of a fill)"),
    "response_enqueued": ("pkg, now, depth",
                          "cache.py: the response entered the module's "
                          "output port"),
    "icn_returned": ("pkg, now, arrival, depth",
                     "icn.py: drained into the return network"),
    "icn_ticked": ("in_flight_send, in_flight_return",
                   "icn.py: end of a non-quiet network tick"),
    "replied": ("pkg, now",
                "machine.py: the response was delivered to its processor"),
    "spawn_began": ("region, now, n_threads",
                    "spawn_unit.py: the master started a spawn"),
    "spawn_ended": ("region, now",
                    "machine.py: every TCU parked and the master resumes"),
}

_SIGNATURES = ", ".join(f"{name}({args})"
                        for name, (args, _site) in PROBES.items())


def _unheard(*args) -> None:
    """Bound to a probe nobody subscribed to."""


def _fan_out(methods):
    def fire(*args):
        for method in methods:
            method(*args)
    return fire


@functools.lru_cache(maxsize=None)
def _probes_heard(cls) -> tuple:
    """The probes ``cls`` defines methods for (checked once per class).

    A class that hears nothing, whose method name is a near miss of a
    probe name (a typo would otherwise listen to silence), or whose
    probe method cannot take the probe's arguments (it would raise from
    inside a tick or a settle), is rejected with the probe list.
    """
    for name in dir(cls):
        if (name.startswith("_") or name in PROBES
                or not callable(getattr(cls, name))):
            continue
        close = difflib.get_close_matches(name, PROBES, n=1, cutoff=0.8)
        if close:
            raise ValueError(
                f"{cls.__name__}.{name} is not a probe (did you mean "
                f"{close[0]!r}?); probes: {_SIGNATURES}")
    heard = tuple(name for name in PROBES
                  if callable(getattr(cls, name, None)))
    if not heard:
        raise ValueError(f"{cls.__name__} defines no probe method; "
                         f"probes: {_SIGNATURES}")
    for name in heard:
        args = ["self"] + PROBES[name][0].split(", ")
        bound = isinstance(inspect.getattr_static(cls, name),
                           (staticmethod, classmethod))
        try:
            inspect.signature(getattr(cls, name)).bind(*args[bound:])
        except TypeError:
            raise ValueError(
                f"{cls.__name__}.{name} cannot be called as "
                f"{name}({PROBES[name][0]}); probes: {_SIGNATURES}") from None
    return heard


class Observability:
    """The subscriber list of one machine (``machine.obs``).

    The five keywords subscribe the stock consumers and keep them
    reachable by name (``obs.metrics`` ...); anything else -- a
    :class:`~repro.sim.trace.Trace`, a user-written consumer -- goes
    through :meth:`subscribe`.
    """

    def __init__(self, events=None, metrics=None, profiler=None,
                 accounting=None, lifecycle=None):
        self.events = events
        self.metrics = metrics
        self.profiler = profiler
        self.accounting = accounting
        self.lifecycle = lifecycle
        self.machine = None
        self.consumers = []
        self._bind()
        for consumer in (lifecycle, accounting, profiler, metrics, events):
            if consumer is not None:
                self.subscribe(consumer)

    def subscribe(self, consumer) -> None:
        """Register ``consumer`` for every probe its class defines a
        method for (``ValueError`` if that is none, or a near miss)."""
        if consumer in self.consumers:
            return
        _probes_heard(type(consumer))
        if self.machine is not None:
            # what sleepers skipped so far is not the newcomer's to hear
            self.machine.settle()
        self.consumers.append(consumer)
        self._bind()
        if self.machine is not None:
            self._attached(consumer)
            self.machine.listeners_changed()

    def has_listener(self, probe: str) -> bool:
        """Whether any subscriber hears ``probe``.  The machine asks
        this about ``issued`` (``Machine.listeners_changed``): while
        somebody listens, nobody takes a run."""
        return getattr(self, probe) is not _unheard

    def _bind(self) -> None:
        for name in PROBES:
            methods = [getattr(consumer, name) for consumer in self.consumers
                       if name in _probes_heard(type(consumer))]
            if not methods:
                fire = _unheard
            elif len(methods) == 1:
                fire = methods[0]
            else:
                fire = _fan_out(methods)
            setattr(self, name, fire)

    def attach(self, machine) -> None:
        """Bind to a machine (``Machine.__init__`` calls this; so does a
        driver re-subscribing after a checkpoint restore).  Consumers
        that define ``attached(machine)`` learn the machine here."""
        self.machine = machine
        for consumer in self.consumers:
            self._attached(consumer)
        machine.listeners_changed()

    def _attached(self, consumer) -> None:
        attached = getattr(consumer, "attached", None)
        if attached is not None:
            attached(self.machine)
