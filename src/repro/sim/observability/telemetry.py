"""Live telemetry: streaming progress frames from a running simulation.

Everything else in the observability layer is post-hoc -- traces,
metrics and profiles exist only after the run finishes, so a multi-hour
campaign or a 1024-TCU simulation is a black box while it executes.
This module closes that gap the way MGSim's asynchronous monitor and
Akita's real-time monitoring tool do: a sampler rides the existing
discrete-event scheduler and periodically emits a small **telemetry
frame** (schema ``xmtsim-telemetry/1``) describing where the run is --

- simulated position: cycle, retired instructions, pending events,
  queue-occupancy gauges (ICN / cache / DRAM) and the spawn regions
  currently in flight;
- progress rate: per-interval cycle/instruction deltas, the interval
  IPC, and host cycles/second;
- host position: wall seconds since the run started, plus an ETA when
  a target cycle count is known (``--max-cycles`` campaigns).

Frames go to any number of **sinks**: a JSONL file
(:class:`JsonlSink`, tail it or feed it to ``xmt-top report``) and/or a
Unix-domain socket publisher (:class:`SocketPublisher`) that ``xmt-top``
subscribes to live.  The publisher is strictly non-blocking: a slow or
vanished subscriber gets frames dropped, never a stalled simulation.

The sampler is a scheduler actor at ``PRIO_PLUGIN`` -- the same
non-perturbing slot activity plug-ins use -- so cycle counts with
telemetry enabled are bit-identical to a bare run, and with telemetry
disabled no code is on the hot path at all.  Its events are
``checkpoint_transient``: snapshots never capture open file handles or
sockets, and a restored machine simply runs without telemetry until a
new sampler is armed.
"""

from __future__ import annotations

import json
import os
import socket
import time
from typing import Any, Dict, List, Optional

from repro.sim.engine import PRIO_PLUGIN, Actor
from repro.sim.observability.artifacts import schema_of


def machine_gauges(machine) -> Dict[str, int]:
    """Queue-occupancy snapshot of a live machine (cheap, no obs needed).

    The same quantities the metrics gauges track, read directly from
    the components so telemetry works even when the metrics registry is
    off.
    """
    gauges: Dict[str, int] = {}
    icn = machine.icn.occupancy()
    gauges["icn.in_flight_send"] = icn.get("in_flight_send", 0)
    gauges["icn.in_flight_return"] = icn.get("in_flight_return", 0)
    gauges["icn.send_ports"] = sum(len(p) for p in machine.send_ports)
    in_q = out_q = 0
    for module in machine.cache_modules:
        occ = module.occupancy()
        in_q += occ.get("in_queue", 0)
        out_q += occ.get("out_queue", 0)
    gauges["cache.in_queue"] = in_q
    gauges["cache.out_queue"] = out_q
    queued = in_flight = 0
    for port in machine.dram_ports:
        occ = port.occupancy()
        queued += occ.get("queued", 0)
        in_flight += occ.get("in_flight", 0)
    gauges["dram.queued"] = queued
    gauges["dram.in_flight"] = in_flight
    return gauges


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


class SocketPublisher:
    """Publish telemetry lines on a Unix-domain stream socket.

    Strictly non-blocking on the simulator side: subscribers are
    accepted opportunistically at each publish, writes go through a
    small per-subscriber backlog, and a subscriber that stops reading
    (backlog full) gets whole frames **dropped** -- counted in
    :attr:`dropped` -- while one that disconnects is pruned.  Under no
    circumstance does a publish call block the simulation.
    """

    def __init__(self, path: str, max_buffer: int = 65536):
        self.path = path
        self.dropped = 0
        self.max_buffer = max_buffer
        try:
            os.unlink(path)
        except OSError:
            pass
        self._server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._server.setblocking(False)
        self._server.bind(path)
        self._server.listen(8)
        #: ``[sock, backlog bytearray]`` per connected subscriber
        self._clients: List[list] = []

    @property
    def subscribers(self) -> int:
        return len(self._clients)

    def _accept(self) -> None:
        while True:
            try:
                client, _ = self._server.accept()
            except (BlockingIOError, InterruptedError, OSError):
                return
            client.setblocking(False)
            self._clients.append([client, bytearray()])

    def write_line(self, line: str) -> None:
        self._accept()
        data = (line + "\n").encode("utf-8")
        for entry in list(self._clients):
            backlog = entry[1]
            if len(backlog) + len(data) > self.max_buffer:
                # slow subscriber: drop this frame for them (whole
                # frames only -- a partial line would corrupt their
                # stream), never block the simulation
                self.dropped += 1
            else:
                backlog += data
            self._flush(entry)

    def _flush(self, entry) -> None:
        sock, backlog = entry
        while backlog:
            try:
                sent = sock.send(bytes(backlog))
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                self._disconnect(entry)
                return
            if sent == 0:
                self._disconnect(entry)
                return
            del backlog[:sent]

    def _disconnect(self, entry) -> None:
        try:
            entry[0].close()
        except OSError:
            pass
        if entry in self._clients:
            self._clients.remove(entry)

    def close(self) -> None:
        for entry in list(self._clients):
            self._flush(entry)
            self._disconnect(entry)
        try:
            self._server.close()
        finally:
            try:
                os.unlink(self.path)
            except OSError:
                pass


class TelemetrySampler(Actor):
    """Interval sampler emitting telemetry frames from a live machine.

    Scheduled at ``PRIO_PLUGIN`` every ``every_cycles`` cycles -- the
    non-perturbing slot, so enabling telemetry never changes cycle
    counts.  ``meta`` fields (campaign label, attempt, worker pid) are
    merged into every frame.  ``eta_cycles`` is the target cycle count
    when one is known (a ``--max-cycles`` budget); it turns the overall
    cycles/second rate into an ETA.
    """

    #: sinks hold file handles / sockets: strip our events from
    #: checkpoints, a restored machine re-arms a fresh sampler
    checkpoint_transient = True

    def __init__(self, every_cycles: int = 2000, sinks=(),
                 meta: Optional[Dict[str, Any]] = None,
                 eta_cycles: Optional[int] = None):
        self.every_cycles = max(1, int(every_cycles))
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
        #: spawn_index -> begin time of the in-flight region
        self._spawn_begin: Dict[int, int] = {}

    # -- lifecycle -----------------------------------------------------------

    def attach(self, machine) -> None:
        """Bind to a machine.  When it carries an ``obs`` the sampler
        subscribes for the spawn probes (frames then name the regions in
        flight, and diagnostic dumps find the last frame there)."""
        self.machine = machine
        if machine.obs is not None:
            machine.obs.subscribe(self)

    def spawn_began(self, region, now: int, n_threads: int) -> None:
        self._spawn_begin[region.spawn_index] = now

    def spawn_ended(self, region, now: int) -> None:
        self._spawn_begin.pop(region.spawn_index, None)

    def arm(self, scheduler=None) -> None:
        """Start sampling: emits one ``heartbeat`` frame immediately
        (liveness signal before the first interval elapses) and
        schedules the first interval tick."""
        if self.machine is None:
            raise RuntimeError("attach() the sampler to a machine first")
        sched = scheduler if scheduler is not None else \
            self.machine.scheduler
        self._wall_start = time.perf_counter()
        period = self.machine.config.cluster_period
        self._prev_cycle = sched.now // period
        self._prev_instructions = self.machine.stats.instruction_total()
        self._prev_wall = 0.0
        self._prev_gauges = machine_gauges(self.machine)
        self._finished = False
        self._emit("heartbeat")
        sched.schedule(self.every_cycles * period, self, PRIO_PLUGIN)

    def notify(self, scheduler, now, arg):
        if self.machine is None or self.machine.halted or self._finished:
            return
        self._emit("frame")
        period = self.machine.config.cluster_period
        scheduler.schedule(self.every_cycles * period, self, PRIO_PLUGIN)

    def finish(self) -> None:
        """Emit the closing ``final`` frame (also on abnormal ends:
        budget trips still get a last-known-position frame)."""
        if self.machine is None or self._finished:
            return
        self._finished = True
        self._emit("final")

    def close(self) -> None:
        """Finish (if not already) and close every sink."""
        if self.machine is not None and not self._finished:
            self.finish()
        for sink in self.sinks:
            try:
                sink.close()
            except OSError:
                pass

    # -- frame construction --------------------------------------------------

    def _emit(self, kind: str) -> None:
        frame = self.build_frame(kind)
        self.last_frame = frame
        self.emitted += 1
        line = json.dumps(frame, sort_keys=True)
        for sink in self.sinks:
            sink.write_line(line)

    def build_frame(self, kind: str = "frame") -> Dict[str, Any]:
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

        active_spawns = [
            {"spawn_index": spawn_index, "since_cycle": began // period}
            for spawn_index, began in sorted(self._spawn_begin.items())]

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
        return frame
