"""Discrete-event simulation engine (Section III-C of the paper).

The system is a collection of *actors* that schedule *events*; the
scheduler keeps events "in a list-like data structure, the event list,
ordered according to their schedule times and priorities" and notifies
one actor per main-loop iteration (the paper's Fig. 5b).  Unlike a
discrete-time simulator, simulated time advances unevenly, which is what
lets components live in different clock domains (and lets the
DVFS/thermal plug-ins retime domains at runtime).

Two styles of actor are provided, matching the paper's Fig. 4:

- fine-grained: one :class:`ComponentActor` per cycle-accurate component
  (``Actor 1`` in Fig. 4), and
- :class:`ClockDomain` **macro-actors** that iterate over many registered
  components on each tick (``Actor 2``), the style the real XMTSim uses
  for the interconnection network because scheduling one event per
  component per cycle becomes more expensive than polling once the event
  density passes a threshold (~800 events/cycle in the paper's
  experiment; ``benchmarks/test_bench_de_engine.py`` reproduces the
  crossover).

Time is measured in integer **picoseconds** so that domains with
different frequencies interleave deterministically.  Ties are broken by
``(time, priority, sequence)``.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

#: Canonical event priorities.  Each clock cycle is split into two
#: phases (negotiate, then transfer -- Section III-C "ports and event
#: priorities"); downstream components tick at later priorities so a
#: package handed off in phase TRANSFER is seen by its consumer in the
#: same simulated cycle, exactly once.
PRIO_PHASE_NEGOTIATE = 0
PRIO_PHASE_TRANSFER = 1
PRIO_CLUSTERS = 10
PRIO_SPAWN_UNIT = 12
PRIO_PS_UNIT = 13
PRIO_ICN = 14
PRIO_CACHE = 16
PRIO_DRAM = 18
PRIO_PLUGIN = 50
PRIO_STOP = 99

#: ``next_work`` answer of a component that sleeps until it is handed
#: work (whoever hands it over re-arms the domain, :meth:`ClockDomain.arm`)
NEVER = 1 << 62


class Event:
    """A scheduled notification.  Cancel by flipping :attr:`cancelled`."""

    __slots__ = ("time", "priority", "seq", "actor", "arg", "cancelled")

    def __init__(self, time: int, priority: int, seq: int, actor: "Actor", arg: Any):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.actor = actor
        self.arg = arg
        self.cancelled = False

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        if self.priority != other.priority:
            return self.priority < other.priority
        return self.seq < other.seq


class Actor:
    """Base class of everything that can be notified by the scheduler."""

    def notify(self, scheduler: "Scheduler", time: int, arg: Any) -> None:
        raise NotImplementedError


class _StopActor(Actor):
    def notify(self, scheduler, time, arg):
        scheduler.stopped = True


class Scheduler:
    """The DE scheduler: event list + main loop (paper Fig. 4/5b)."""

    #: cancelled events trigger a heap compaction once they outnumber
    #: the live ones (and the heap is big enough for it to matter)
    COMPACT_MIN = 64
    #: processed events between two ``check_hook`` calls, unless a
    #: budget asks for an earlier first check (:attr:`check_interval`)
    CHECK_INTERVAL = 2048

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._seq = 0
        self._cancelled = 0
        self.now = 0
        #: priority of the event being (or last) notified: tells a clock
        #: domain whether its turn in the current timestamp is over
        self.priority = 0
        self.stopped = False
        self.events_processed = 0
        self._stop_actor = _StopActor()
        #: optional guard called every :attr:`check_interval` processed
        #: events as ``check_hook(scheduler, processed_this_run)``; may
        #: raise to abort the run (wall-clock / event budgets live here
        #: so the hot loop stays free of time syscalls)
        self.check_hook: Optional[Callable[["Scheduler", int], None]] = None
        self.check_interval = self.CHECK_INTERVAL

    def __getstate__(self):
        """What a checkpoint holds of the event list."""
        state = self.__dict__.copy()
        # a run's budgets are its driver's (any callable): every
        # ``Machine.run`` installs its own
        state["check_hook"] = None
        # transient events stay behind: plug-in samplers (may close over
        # unpicklable policies, open sinks) and injected faults (a
        # restored run must not replay the fault -- that is what makes
        # transients transient); whoever resumes re-arms what it wants
        keep = [e for e in self._heap
                if not getattr(e.actor, "checkpoint_transient", False)]
        heapq.heapify(keep)
        state["_heap"] = keep
        state["_cancelled"] = sum(e.cancelled for e in keep)
        return state

    # -- event management ---------------------------------------------------

    def schedule(self, delay: int, actor: Actor, priority: int = 0,
                 arg: Any = None) -> Event:
        """Schedule ``actor.notify`` at ``now + delay`` (delay >= 0)."""
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        return self.schedule_at(self.now + delay, actor, priority, arg)

    def schedule_at(self, time: int, actor: Actor, priority: int = 0,
                    arg: Any = None) -> Event:
        if time < self.now:
            raise ValueError("cannot schedule into the past")
        self._seq += 1
        event = Event(time, priority, self._seq, actor, arg)
        heapq.heappush(self._heap, event)
        return event

    def cancel(self, event: Event) -> None:
        """Lazy cancellation: the event is skipped when popped.

        Cancelled entries are counted, and once they outnumber the live
        events the heap is compacted -- otherwise a workload that keeps
        cancelling (DVFS retiming, halted domains) accumulates garbage
        entries forever.
        """
        if event.cancelled:
            return
        event.cancelled = True
        self._cancelled += 1
        if (self._cancelled > self.COMPACT_MIN
                and self._cancelled * 2 > len(self._heap)):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and restore the heap invariant.

        Mutates the list in place: the run loop aliases ``self._heap``.
        """
        self._heap[:] = [e for e in self._heap if not e.cancelled]
        heapq.heapify(self._heap)
        self._cancelled = 0

    def stop(self, delay: int = 0) -> Event:
        """Schedule the *stop event* that terminates the simulation."""
        return self.schedule(delay, self._stop_actor, priority=PRIO_STOP)

    @property
    def pending(self) -> int:
        """Live (non-cancelled) event count -- O(1)."""
        return len(self._heap) - self._cancelled

    def metrics_snapshot(self) -> dict:
        """Engine bookkeeping for the observability metrics export."""
        return {
            "now_ps": self.now,
            "events_processed": self.events_processed,
            "pending_events": self.pending,
            "heap_size": len(self._heap),
            "cancelled_events": self._cancelled,
        }

    # -- main loop ------------------------------------------------------------

    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> int:
        """Run until the stop event, an empty event list, ``until`` time,
        or ``max_events`` notifications.  Returns the final time."""
        heap = self._heap
        processed = 0
        hook = self.check_hook
        next_check = self.check_interval
        try:
            while heap and not self.stopped:
                event = heapq.heappop(heap)
                if event.cancelled:
                    self._cancelled -= 1
                    continue
                if until is not None and event.time > until:
                    heapq.heappush(heap, event)
                    self.now = until
                    self.priority = PRIO_STOP  # every turn at ``until`` is over
                    break
                self.now = event.time
                self.priority = event.priority
                event.actor.notify(self, event.time, event.arg)
                processed += 1
                if max_events is not None and processed >= max_events:
                    break
                if hook is not None and processed >= next_check:
                    next_check = processed + self.check_interval
                    hook(self, processed)
        finally:
            self.events_processed += processed
        return self.now


class CallbackActor(Actor):
    """Adapter turning a plain callable into an actor.

    Avoid for checkpointable state -- bound methods of picklable objects
    are fine, module-level lambdas are not.
    """

    def __init__(self, fn: Callable[["Scheduler", int, Any], None]):
        self._fn = fn

    def notify(self, scheduler, time, arg):
        self._fn(scheduler, time, arg)


class ComponentActor(Actor):
    """Fine-grained style: one actor per component, one event per cycle.

    This is ``Actor 1`` of the paper's Fig. 4.  Used by the DE-engine
    ablation benchmark; the machine model itself uses macro-actors.
    """

    def __init__(self, component: Any, period: int, priority: int = PRIO_CLUSTERS):
        self.component = component
        self.period = period
        self.priority = priority
        self.cycle = 0
        self.running = False

    def start(self, scheduler: Scheduler, phase: int = 0) -> None:
        self.running = True
        scheduler.schedule(phase, self, self.priority)

    def notify(self, scheduler, time, arg):
        if not self.running:
            return
        self.component.tick(self.cycle)
        self.cycle += 1
        scheduler.schedule(self.period, self, self.priority)


class ClockDomain(Actor):
    """Macro-actor: iterates registered components on its clock edges.

    "A macro-actor contains the code for many components and iterates
    through them at every simulated clock cycle" (Section III-D) -- at
    every cycle *on which one of them can do anything*.  After an edge
    each component is asked ``next_work(now)``, the earliest time a tick
    of it could do something (``now``: the next edge; a future time; or
    :data:`NEVER`: not until handed work, when whoever hands it over
    calls :meth:`arm`), and the first edge at or after the minimum is
    booked.  Skipped edges are accounted for lazily and in whole edges
    (:meth:`_sync`), so :attr:`cycle` reads what a domain ticking on
    every edge would report.  The frequency may be changed -- or the
    domain disabled entirely -- at runtime by activity plug-ins (Section
    III-B); period changes take effect at the next edge.
    """

    def __init__(self, name: str, period: int, priority: int = PRIO_CLUSTERS):
        if period <= 0:
            raise ValueError("clock period must be positive")
        self.name = name
        self.period = period
        self.priority = priority
        self.components: List[Any] = []
        #: flat lists of bound ``tick`` / ``next_work`` methods,
        #: maintained by :meth:`add` so the per-edge loops skip the
        #: attribute traversal per component per cycle (bound methods
        #: pickle fine: checkpoints restore them against the restored
        #: components)
        self._ticks: List[Callable[[int], None]] = []
        self._asks: List[Callable[[int], int]] = []
        self._cycle = 0
        #: time of the earliest edge not yet counted in ``_cycle``;
        #: later ones follow at the period then in force
        self._next_edge = 0
        self.enabled = True
        self.running = False
        self._sched: Optional[Scheduler] = None
        self._next_event: Optional[Event] = None

    def add(self, component: Any) -> None:
        """Register a component exposing ``tick(cycle)`` (and
        ``next_work(now)``: without it, it is ticked on every edge)."""
        self.components.append(component)
        self._ticks.append(component.tick)
        self._asks.append(getattr(component, "next_work", _every_edge))

    def start(self, scheduler: Scheduler, phase: int = 0) -> None:
        if self.running:
            return
        self.running = True
        self._sched = scheduler
        self._next_edge = scheduler.now + phase
        self._next_event = scheduler.schedule(phase, self, self.priority)

    @property
    def cycle(self) -> int:
        """Edges ticked so far, skipped ones included."""
        self._sync()
        return self._cycle

    @property
    def booked(self) -> Optional[int]:
        """Time of the booked next edge (None: nobody has work)."""
        return self._next_event.time if self._next_event else None

    def time_of(self, cycle: int) -> int:
        """When ``tick(cycle)`` is due at the current period.  For
        ``next_work`` answers: retiming and gating make the domain ask
        again."""
        return self._next_edge + (cycle - self._cycle) * self.period

    def _sync(self) -> None:
        """Count the edges that have passed unattended: those before
        now, and one at now if this domain's turn in it is over."""
        sched = self._sched
        if sched is None or not self.running:
            return
        span = sched.now - self._next_edge + (self.priority < sched.priority)
        if span > 0:
            edges = -(-span // self.period)
            self._next_edge += edges * self.period
            if self.enabled:
                self._cycle += edges

    def arm(self, time: int) -> None:
        """A component of this domain can do something at ``time``: book
        the first uncounted edge at or after it, unless an earlier one
        is -- the edge, and the turn within its timestamp, on which a
        domain ticking every edge would find the work.  ``arm(0)``: the
        next edge, whatever anyone answered."""
        booked = self._next_event
        if booked is not None and booked.time <= time:
            return  # (so is every call from inside this domain's own edge)
        if not self.running or not self.enabled:
            return  # (``start`` / ``enable`` book the next edge)
        self._sync()
        edge = self._next_edge
        if time > edge:
            edge += -(-(time - edge) // self.period) * self.period
        if booked is not None:
            if booked.time <= edge:
                return
            self._sched.cancel(booked)
        self._next_event = self._sched.schedule_at(edge, self, self.priority)

    def set_frequency_scale(self, base_period: int, scale: float) -> None:
        """Retime the domain to ``base_period / scale`` (DVFS hook)."""
        if scale <= 0:
            raise ValueError("frequency scale must be positive")
        period = max(1, round(base_period / scale))
        if period != self.period:
            self._sync()  # the edges so far, and the next, keep their times
            self.period = period
            self.arm(0)   # answers given in cycles mean other times now

    def disable(self) -> None:
        """Clock-gate the domain (components stop ticking, time passes)."""
        self._sync()
        self.enabled = False

    def enable(self) -> None:
        if not self.enabled:
            self._sync()
            self.enabled = True
            self.arm(0)

    def notify(self, scheduler, time, arg):
        if not self.running:
            return
        if time != self._next_edge:
            self._sync()
        if not self.enabled:
            self._next_event = None  # gated: ``enable`` books the next edge
            return
        cycle = self._cycle
        for tick in self._ticks:
            tick(cycle)
        self._cycle = cycle + 1
        self._next_edge = edge = time + self.period
        work = NEVER
        for ask in self._asks:
            at = ask(time)
            if at < work:
                work = at
                if work <= edge:  # a busy domain: one or two calls
                    break
        if work >= NEVER:
            self._next_event = None  # asleep until somebody arms it
            return
        if work > edge:
            edge += -(-(work - edge) // self.period) * self.period
        self._next_event = scheduler.schedule_at(edge, self, self.priority)

    def halt(self, scheduler: Scheduler) -> None:
        self._sync()
        self.running = False
        if self._next_event is not None:
            scheduler.cancel(self._next_event)
            self._next_event = None


def _every_edge(now: int) -> int:
    return now


class TimedQueue:
    """Bounded FIFO whose entries become visible one consumer-tick later.

    This implements the paper's two-phase hand-off (negotiate/transfer)
    without per-transfer events: producers ``push`` during their tick;
    consumers ``pop_ready`` only see entries pushed strictly before the
    current time, so a package can never traverse two components in the
    same cycle regardless of component iteration order.
    """

    __slots__ = ("capacity", "_items",)

    def __init__(self, capacity: int = 0):
        self.capacity = capacity  # 0 = unbounded
        self._items: Deque[Tuple[int, Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def full(self) -> bool:
        return self.capacity > 0 and len(self._items) >= self.capacity

    def ready_at(self) -> int:
        """Earliest time the head entry is visible (``next_work``)."""
        return self._items[0][0] + 1 if self._items else NEVER

    def push(self, time: int, item: Any) -> bool:
        """Append ``item``; returns False (and drops nothing) when full."""
        if self.full():
            return False
        self._items.append((time, item))
        return True

    def peek_ready(self, now: int) -> Optional[Any]:
        if self._items and self._items[0][0] < now:
            return self._items[0][1]
        return None

    def pop_ready(self, now: int) -> Optional[Any]:
        """Pop the head entry if it was pushed before ``now``."""
        if self._items and self._items[0][0] < now:
            return self._items.popleft()[1]
        return None

    def drain_ready(self, now: int, limit: int = 0) -> List[Any]:
        """Pop up to ``limit`` ready entries (0 = all ready)."""
        out = []
        while self._items and self._items[0][0] < now:
            out.append(self._items.popleft()[1])
            if limit and len(out) >= limit:
                break
        return out
