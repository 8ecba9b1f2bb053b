"""Structured diagnostic dumps.

When the watchdog trips (or a budget is exceeded) the interesting
question is *what was the machine doing*: which TCUs were blocked on
what, what the event list looked like, and where packages were queued.
:func:`collect` snapshots exactly that into a :class:`DiagnosticDump`
that travels on the typed resilience exceptions and renders to a short
human-readable report.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.sim import engine as E

#: canonical priority value -> class name, for the event histogram
PRIORITY_NAMES: Dict[int, str] = {
    E.PRIO_PHASE_NEGOTIATE: "negotiate",
    E.PRIO_PHASE_TRANSFER: "transfer",
    E.PRIO_CLUSTERS: "clusters",
    E.PRIO_SPAWN_UNIT: "spawn_unit",
    E.PRIO_PS_UNIT: "ps_unit",
    E.PRIO_ICN: "icn",
    E.PRIO_CACHE: "cache",
    E.PRIO_DRAM: "dram",
    E.PRIO_PLUGIN: "plugin",
    E.PRIO_STOP: "stop",
}


@dataclass
class DiagnosticDump:
    """Machine state snapshot attached to resilience exceptions."""

    reason: str
    time_ps: int
    cycles: int
    instructions: int
    events_processed: int
    pending_events: int
    #: live events grouped by priority class name
    event_histogram: Dict[str, int] = field(default_factory=dict)
    #: clock domain -> its cycle count and the time of its booked next
    #: edge (None: every component waits to be handed work)
    domains: Dict[str, Dict[str, Optional[int]]] = field(default_factory=dict)
    #: ``describe_state()`` of the master followed by every TCU
    processors: List[Dict[str, object]] = field(default_factory=list)
    #: the ``*.stall.*`` counters, settled: cycles slept through by
    #: TCUs that are not being ticked are included
    stalls: Dict[str, int] = field(default_factory=dict)
    #: ICN occupancy: in-flight both directions + send-port backlog
    icn: Dict[str, int] = field(default_factory=dict)
    #: aggregate cache-module queue occupancy
    caches: Dict[str, object] = field(default_factory=dict)
    #: aggregate DRAM port occupancy (a banked backend adds ``banks``,
    #: the per-bank queue depths summed over the ports)
    dram: Dict[str, object] = field(default_factory=dict)
    #: tail of the observability event stream (when tracing was on)
    recent_events: List[Dict[str, object]] = field(default_factory=list)
    #: current observability gauge values (when metrics were on)
    gauges: Dict[str, object] = field(default_factory=dict)
    #: the last telemetry frame emitted before death (when a sampler
    #: was armed): shows *progress at the time of death*, not just the
    #: recent span events
    last_telemetry: Optional[Dict[str, object]] = None
    #: filled in by campaign workers: which OS process produced the dump
    #: and which attempt of the run it belongs to
    worker_pid: Optional[int] = None
    attempt: Optional[int] = None

    def summary(self) -> str:
        """One-line digest (what the CLI prints on a non-zero exit)."""
        running = sum(1 for p in self.processors
                      if p.get("state") == "running")
        origin = (f" [worker pid={self.worker_pid}, attempt={self.attempt}]"
                  if self.worker_pid is not None else "")
        progress = ""
        if self.last_telemetry is not None:
            frame = self.last_telemetry
            interval = frame.get("interval") or {}
            progress = (f"; last telemetry: cycle {frame.get('cycle')} "
                        f"ipc {interval.get('ipc')} at "
                        f"{frame.get('wall_seconds')}s wall")
        return (f"{self.reason} at {self.time_ps} ps (~cycle {self.cycles}): "
                f"{self.instructions} instructions, "
                f"{self.pending_events} pending events, "
                f"{running}/{len(self.processors)} processors running"
                + progress + origin)

    def format(self) -> str:
        """Multi-line structured report."""
        lines = [f"=== diagnostic dump: {self.reason} ===",
                 f"time: {self.time_ps} ps (~cycle {self.cycles})  "
                 f"instructions: {self.instructions}  "
                 f"events processed: {self.events_processed}"]
        hist = ", ".join(f"{k}: {v}"
                         for k, v in sorted(self.event_histogram.items()))
        lines.append(f"pending events: {self.pending_events}"
                     + (f"  ({hist})" if hist else ""))
        lines.append("domains: " + ", ".join(
            f"{name} cycle {d['cycle']} next edge "
            + ("unbooked" if d["booked"] is None else f"at {d['booked']}")
            for name, d in self.domains.items()))
        for proc in self.processors:
            if proc.get("kind") == "master":
                lines.append(self._proc_line(proc))
        states: Dict[str, int] = {}
        for proc in self.processors:
            if proc.get("kind") == "master":
                continue
            states[str(proc.get("state"))] = \
                states.get(str(proc.get("state")), 0) + 1
        if states:
            # parked is a state of its own; the rest is either on its
            # cluster's tick list, asleep on one stall, or inside a run
            waits = [proc.get("asleep_on") for proc in self.processors
                     if proc.get("kind") != "master"]
            asleep = Counter(str(cause) for cause in waits
                             if cause not in (None, "parked"))
            lines.append("tcus: " + ", ".join(
                f"{n} {s}" for s, n in sorted(states.items()))
                + f"; {waits.count(None)} awake" + "".join(
                f", {n} asleep on {cause}"
                for cause, n in sorted(asleep.items())))
        shown = 0
        for proc in self.processors:
            if proc.get("kind") == "master" or proc.get("state") == "parked":
                continue
            lines.append("  " + self._proc_line(proc))
            shown += 1
            if shown >= 16:
                lines.append("  ... (further TCUs elided)")
                break
        if self.stalls:
            lines.append("stall cycles: " + ", ".join(
                f"{k}={v}" for k, v in sorted(self.stalls.items())))
        lines.append("icn: " + ", ".join(
            f"{k}={v}" for k, v in sorted(self.icn.items())))
        lines.append("caches: " + ", ".join(
            f"{k}={v}" for k, v in sorted(self.caches.items())))
        lines.append("dram: " + ", ".join(
            f"{k}={v}" for k, v in sorted(self.dram.items())))
        if self.gauges:
            lines.append("gauges: " + ", ".join(
                f"{k}={v}" for k, v in sorted(self.gauges.items())))
        if self.last_telemetry is not None:
            frame = self.last_telemetry
            interval = frame.get("interval") or {}
            lines.append(
                f"last telemetry frame (seq {frame.get('seq')}, "
                f"{frame.get('kind')}): cycle {frame.get('cycle')}, "
                f"{frame.get('instructions')} instructions, "
                f"interval ipc {interval.get('ipc')}, "
                f"{frame.get('wall_seconds')}s wall")
        if self.recent_events:
            lines.append(f"last {len(self.recent_events)} trace events "
                         "(newest last):")
            for event in self.recent_events[-8:]:
                args = event.get("args") or {}
                extras = " ".join(f"{k}={v}" for k, v in args.items())
                lines.append(f"  {event.get('ts'):>12} {event.get('track')} "
                             f"{event.get('ph')} {event.get('cat')}:"
                             f"{event.get('name')} {extras}".rstrip())
        return "\n".join(lines)

    @staticmethod
    def _proc_line(proc: Dict[str, object]) -> str:
        name = ("master" if proc.get("kind") == "master"
                else f"tcu {proc.get('id')}")
        extras = [f"{key}={proc[key]}"
                  for key in ("state", "pc", "loads", "stores",
                              "pending_regs", "inbox", "wait_load",
                              "wait_store_ack", "asleep_on", "run_pc",
                              "run_ops", "run_left")
                  if key in proc]
        return f"{name}: " + " ".join(extras)


def event_histogram(scheduler) -> Dict[str, int]:
    """Live events in the scheduler heap, grouped by priority class."""
    hist: Dict[str, int] = {}
    for event in scheduler._heap:
        if event.cancelled:
            continue
        name = PRIORITY_NAMES.get(event.priority, str(event.priority))
        hist[name] = hist.get(name, 0) + 1
    return hist


def collect(machine, reason: str) -> DiagnosticDump:
    """Snapshot a machine into a :class:`DiagnosticDump`."""
    scheduler = machine.scheduler
    period = machine.config.cluster_period
    machine.settle()  # the dump's counters include cycles slept through
    processors = [machine.master.describe_state()]
    processors += [tcu.describe_state() for tcu in machine.tcus]

    icn, caches, dram = machine.occupancy()

    # what observation can add to a post-mortem: the consumers' event
    # ring and gauge levels, and a telemetry sampler's last frame
    obs = machine.obs
    events = getattr(obs, "events", None)
    recent_events = ([event.to_dict() for event in events.recent]
                     if events is not None else [])
    metrics = getattr(obs, "metrics", None)
    gauges = metrics.gauge_values() if metrics is not None else {}
    last_telemetry = None
    for plugin in machine.activity_plugins:
        last_telemetry = getattr(plugin, "last_frame", last_telemetry)

    return DiagnosticDump(
        reason=reason,
        time_ps=scheduler.now,
        cycles=scheduler.now // period,
        instructions=machine.stats.instruction_total(),
        events_processed=scheduler.events_processed,
        pending_events=scheduler.pending,
        event_histogram=event_histogram(scheduler),
        domains={name: {"cycle": domain.cycle, "booked": domain.booked}
                 for name, domain in machine.domains.items()},
        processors=processors,
        stalls={key: value for key, value in machine.stats.counters.items()
                if ".stall." in key and value},
        icn=icn,
        caches=caches,
        dram=dram,
        recent_events=recent_events,
        gauges=gauges,
        last_telemetry=last_telemetry,
    )
