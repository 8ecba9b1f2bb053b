"""Live telemetry: streaming progress frames from a running simulation.

Everything else in the observability layer is post-hoc -- traces,
metrics and profiles exist only after the run finishes, so a multi-hour
campaign or a 1024-TCU simulation is a black box while it executes.
This module closes that gap the way MGSim's asynchronous monitor and
Akita's real-time monitoring tool do: a sampler rides the existing
discrete-event scheduler and periodically emits a small **telemetry
frame** (schema ``xmtsim-telemetry/1``) describing where the run is --

- simulated position: cycle, retired instructions, pending events,
  queue-occupancy gauges (ICN / cache / DRAM) and the spawn region
  currently in flight;
- progress rate: per-interval cycle/instruction deltas, the interval
  IPC, and host cycles/second;
- host position: wall seconds since the run started, plus an ETA when
  a target cycle count is known (``--max-cycles`` campaigns).

Frames go to any number of **sinks**, each anything with
``write_line(str)``: a JSONL file (:class:`JsonlSink`) that ``xmt-top
watch --follow`` tails live and ``xmt-top report`` tabulates, or a
campaign worker's pipe.

The sampler is an activity plug-in (:class:`~repro.sim.plugins.
ActivityPlugin`, Section III-B) -- the one interval loop, in the
non-perturbing ``PRIO_PLUGIN`` slot -- so cycle counts with telemetry
enabled are bit-identical to a bare run, and with telemetry disabled no
code is on the hot path at all.  Like every plug-in it is
``checkpoint_transient``: snapshots never capture open file handles,
and a restored machine runs without telemetry until the sampler is
armed on it again.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, Optional

from repro.sim.observability.artifacts import schema_of
from repro.sim.plugins import ActivityPlugin


def machine_gauges(machine) -> Dict[str, int]:
    """Queue-occupancy snapshot of a live machine (cheap, no obs needed).

    The same quantities the metrics gauges track, read directly from
    the components so telemetry works even when the metrics registry is
    off.
    """
    icn, caches, dram = machine.occupancy()
    return {f"{layer}.{key}": totals.get(key, 0)
            for layer, totals, keys in (
                ("icn", icn, ("in_flight_send", "in_flight_return",
                              "send_ports")),
                ("cache", caches, ("in_queue", "out_queue")),
                ("dram", dram, ("queued", "in_flight")))
            for key in keys}


class JsonlSink:
    """Append lines to a JSONL file, one record per line: telemetry
    frames, and the campaign engine's outcome and telemetry streams.

    Flushes after every line: the file is meant to be tailed (by
    ``xmt-top watch --follow`` or a campaign supervisor) while the run
    is still going, and frame rate is far below I/O rates.
    """

    def __init__(self, target):
        if hasattr(target, "write"):
            self._fh = target
            self._owned = False
        else:
            parent = os.path.dirname(os.path.abspath(target))
            os.makedirs(parent, exist_ok=True)
            self._fh = open(target, "w")
            self._owned = True

    def write_line(self, line: str) -> None:
        self._fh.write(line + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._owned:
            self._fh.close()


class TelemetrySampler(ActivityPlugin):
    """Activity plug-in emitting telemetry frames from a live machine.

    Samples every ``every_cycles`` cycles (its ``interval_cycles``).
    ``meta`` fields (campaign label, attempt, worker pid) are merged
    into every frame.  ``eta_cycles`` is the target cycle count when one
    is known (a ``--max-cycles`` budget); it turns the overall
    cycles/second rate into an ETA.
    """

    def __init__(self, every_cycles: int = 2000, sinks=(),
                 meta: Optional[Dict[str, Any]] = None,
                 eta_cycles: Optional[int] = None):
        super().__init__(every_cycles)
        self.sinks = list(sinks)
        self.meta = dict(meta or {})
        self.eta_cycles = eta_cycles
        self.machine = None
        self.seq = 0
        self.emitted = 0
        self.last_frame: Optional[Dict[str, Any]] = None
        self._wall_start: Optional[float] = None
        self._prev_cycle = 0
        self._prev_instructions = 0
        self._prev_wall = 0.0
        self._prev_gauges: Dict[str, int] = {}
        self._finished = False

    # -- lifecycle -----------------------------------------------------------

    def attach(self, machine) -> None:
        """Bind to a machine (a fresh one, or a restored one)."""
        self.machine = machine

    def arm(self) -> None:
        """Start sampling: emits one ``heartbeat`` frame immediately
        (liveness signal before the first interval elapses) and
        registers the sampler as a plug-in of the machine."""
        machine = self.machine
        if machine is None:
            raise RuntimeError("attach() the sampler to a machine first")
        self._wall_start = time.perf_counter()
        period = machine.config.cluster_period
        self._prev_cycle = machine.scheduler.now // period
        self._prev_instructions = machine.stats.instruction_total()
        self._prev_wall = 0.0
        self._prev_gauges = machine_gauges(machine)
        self._finished = False
        self._emit("heartbeat")
        machine.add_plugin(self)

    def sample(self, machine, time: int) -> None:
        if not self._finished:  # (a sampler closed mid-run goes quiet)
            self._emit("frame")

    def finish(self, machine=None) -> None:
        """Emit the closing ``final`` frame, once (also on abnormal
        ends: budget trips still get a last-known-position frame)."""
        if self.machine is None or self._finished:
            return
        self._finished = True
        self._emit("final")

    def close(self) -> None:
        """Finish (if not already) and close every sink."""
        self.finish()
        for sink in self.sinks:
            try:
                sink.close()
            except OSError:
                pass

    # -- frame construction --------------------------------------------------

    def _emit(self, kind: str) -> None:
        machine = self.machine
        machine.settle()  # count the instructions of runs in flight
        scheduler = machine.scheduler
        period = machine.config.cluster_period
        cycle = scheduler.now // period
        instructions = machine.stats.instruction_total()
        wall = (time.perf_counter() - self._wall_start
                if self._wall_start is not None else 0.0)
        gauges = machine_gauges(machine)

        d_cycles = cycle - self._prev_cycle
        d_instr = instructions - self._prev_instructions
        d_wall = wall - self._prev_wall
        interval = {
            "cycles": d_cycles,
            "instructions": d_instr,
            "wall_seconds": round(d_wall, 6),
            "ipc": round(d_instr / d_cycles, 4) if d_cycles > 0 else 0.0,
            "cycles_per_host_s": (round(d_cycles / d_wall, 1)
                                  if d_wall > 0 else None),
            "gauges": {name: value - self._prev_gauges.get(name, 0)
                       for name, value in gauges.items()},
        }

        eta = None
        if self.eta_cycles is not None and wall > 0 and cycle > 0:
            remaining = self.eta_cycles - cycle
            rate = cycle / wall  # overall rate: stabler than per-interval
            if remaining > 0 and rate > 0:
                eta = round(remaining / rate, 3)
            elif remaining <= 0:
                eta = 0.0

        spawn = machine.spawn_unit
        active_spawns = ([] if spawn.region is None else
                         [{"spawn_index": spawn.region.spawn_index,
                           "since_cycle": spawn.began // period}])

        # flight-recorder pile-ups: per-layer queue-wait p50/p95 over the
        # lifecycles that completed during this interval
        recorder = getattr(machine.obs, "lifecycle", None)
        hops = recorder.interval_summary() if recorder is not None else None

        frame: Dict[str, Any] = {
            "schema": schema_of("telemetry"),
            "kind": kind,
            "seq": self.seq,
            "cycle": cycle,
            "time_ps": scheduler.now,
            "instructions": instructions,
            "wall_seconds": round(wall, 6),
            "pending_events": scheduler.pending,
            "interval": interval,
            "gauges": gauges,
            "active_spawns": active_spawns,
            "eta_seconds": eta,
            "halted": bool(machine.halted),
        }
        if hops:
            frame["hops"] = hops
        frame.update(self.meta)
        self.seq += 1
        self._prev_cycle = cycle
        self._prev_instructions = instructions
        self._prev_wall = wall
        self._prev_gauges = gauges
        self.last_frame = frame
        self.emitted += 1
        line = json.dumps(frame, sort_keys=True)
        for sink in self.sinks:
            sink.write_line(line)
