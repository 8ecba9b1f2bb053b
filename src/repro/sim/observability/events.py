"""Structured span/event stream (the machine-readable face of tracing).

The paper's Section III-E traces are line-oriented text; this module is
the structured event stream underneath them.  Instrumentation points in
the machine (TCU issue slots, the ICN, cache modules, DRAM ports, the
spawn unit) fire probes; an :class:`EventStream` subscribed on
``machine.obs`` turns them into :class:`SpanEvent` records -- begin/end
spans, complete spans with a known duration, and instants.  The text
:class:`~repro.sim.trace.Trace` levels are renderers over the same
probes.  The stream is written as **JSON Lines** (one event object
per line, ``events.jsonl`` in a run directory) while the run goes;
:func:`chrome_trace` turns those records into the **Chrome
trace-event format**, which loads directly in Perfetto or
``chrome://tracing`` with one track per TCU and per cycle-accurate
module.

Timestamps are simulated picoseconds (the engine's native unit); the
Chrome export converts to the format's microseconds.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Dict, IO, Iterable, List, Optional

#: event phases (a subset of the Chrome trace-event phases)
PH_BEGIN = "B"
PH_END = "E"
PH_COMPLETE = "X"
PH_INSTANT = "i"


class SpanEvent:
    """One structured trace event.

    ``ts``/``dur`` are simulated picoseconds; ``track`` names the
    timeline the event belongs to (``master``, ``tcu0003``, ``cache05``,
    ``dram0``, ``icn.send``, ``spawn``, ...).
    """

    __slots__ = ("name", "cat", "ph", "ts", "dur", "track", "args")

    def __init__(self, name: str, cat: str, ph: str, ts: int,
                 track: str, dur: int = 0,
                 args: Optional[Dict[str, Any]] = None):
        self.name = name
        self.cat = cat
        self.ph = ph
        self.ts = ts
        self.dur = dur
        self.track = track
        self.args = args

    def to_dict(self) -> Dict[str, Any]:
        d: Dict[str, Any] = {"name": self.name, "cat": self.cat,
                             "ph": self.ph, "ts": self.ts,
                             "track": self.track}
        if self.ph == PH_COMPLETE:
            d["dur"] = self.dur
        if self.args:
            d["args"] = self.args
        return d

    def __repr__(self):  # pragma: no cover - debugging aid
        return (f"<event {self.ph} {self.cat}:{self.name} "
                f"@{self.ts}ps on {self.track}>")


def _processor_track(tcu_id: int) -> str:
    return "master" if tcu_id < 0 else "tcu%04d" % tcu_id


class EventStream:
    """Collects span events; keeps a bounded ring of the most recent.

    ``retain=False`` keeps only the ring buffer (enough for diagnostic
    dumps) without accumulating a full trace.

    ``stream_to`` attaches the one export, an incremental JSONL sink:
    every emitted event is serialized to the file as it happens
    (flushed every ``flush_every`` events), so a long run with
    ``retain=False`` traces in O(ring buffer) memory instead of
    buffering millions of events -- the mode ``xmtsim --observe
    events`` uses for ``events.jsonl``.  Pass a path (the stream owns
    and closes the file) or an open file object (the caller keeps
    ownership); call :meth:`close` when the run ends.
    """

    def __init__(self, retain: bool = True, recent: int = 64,
                 instructions: bool = True,
                 stream_to: Optional[object] = None,
                 flush_every: int = 512):
        self.events: Optional[List[SpanEvent]] = [] if retain else None
        self.recent: "deque[SpanEvent]" = deque(maxlen=recent)
        #: emit one instant per instruction issue (the densest category;
        #: disable for long runs where only the memory path matters)
        self.instructions = instructions
        self.emitted = 0
        self._program = None  # set when attached to a machine
        self.flush_every = max(1, flush_every)
        self._stream_fh: Optional[IO[str]] = None
        self._stream_owned = False
        self._unflushed = 0
        if stream_to is not None:
            if hasattr(stream_to, "write"):
                self._stream_fh = stream_to  # type: ignore[assignment]
            else:
                self._stream_fh = open(stream_to, "w")
                self._stream_owned = True

    def __len__(self) -> int:
        return len(self.events) if self.events is not None else len(self.recent)

    def emit(self, event: SpanEvent) -> None:
        self.emitted += 1
        if self.events is not None:
            self.events.append(event)
        self.recent.append(event)
        fh = self._stream_fh
        if fh is not None:
            fh.write(json.dumps(event.to_dict(), sort_keys=True))
            fh.write("\n")
            self._unflushed += 1
            if self._unflushed >= self.flush_every:
                fh.flush()
                self._unflushed = 0

    def close(self) -> None:
        """Flush and (when path-owned) close the streaming sink."""
        fh = self._stream_fh
        if fh is None:
            return
        fh.flush()
        if self._stream_owned:
            fh.close()
        self._stream_fh = None
        self._unflushed = 0

    # -- convenience constructors -------------------------------------------

    def instant(self, name: str, cat: str, ts: int, track: str,
                args: Optional[Dict[str, Any]] = None) -> None:
        self.emit(SpanEvent(name, cat, PH_INSTANT, ts, track, args=args))

    def complete(self, name: str, cat: str, ts: int, dur: int, track: str,
                 args: Optional[Dict[str, Any]] = None) -> None:
        self.emit(SpanEvent(name, cat, PH_COMPLETE, ts, track, dur=dur,
                            args=args))

    def begin(self, name: str, cat: str, ts: int, track: str,
              args: Optional[Dict[str, Any]] = None) -> None:
        self.emit(SpanEvent(name, cat, PH_BEGIN, ts, track, args=args))

    def end(self, name: str, cat: str, ts: int, track: str) -> None:
        self.emit(SpanEvent(name, cat, PH_END, ts, track))

    # -- probes (see repro.sim.observability.core.PROBES) --------------------

    def attached(self, machine) -> None:
        self._program = machine.program

    def issued(self, proc, uop) -> None:
        if self.instructions:
            self.instant(uop.op, "instr", proc.machine.scheduler.now,
                         _processor_track(proc.tcu_id),
                         args={"index": uop.index, "src_line": uop.src_line})

    def icn_injected(self, pkg, now: int, arrival: int, depth: int) -> None:
        self.complete(pkg.kind, "icn", now, arrival - now, "icn.send",
                      args={"seq": pkg.seq, "tcu": pkg.tcu_id,
                            "module": pkg.module, "addr": pkg.addr})

    def icn_returned(self, pkg, now: int, arrival: int, depth: int) -> None:
        self.complete(pkg.kind, "icn", now, arrival - now, "icn.return",
                      args={"seq": pkg.seq, "tcu": pkg.tcu_id,
                            "module": pkg.module})

    def cache_dequeued(self, module, pkg, now: int, outcome: str) -> None:
        dur = (module.hit_latency * module.domain.period
               if outcome == "hit" else 0)
        self.complete(f"{pkg.kind}:{outcome}", "cache", now, dur,
                      "cache%02d" % module.module_id,
                      args={"seq": pkg.seq, "addr": pkg.addr,
                            "tcu": pkg.tcu_id})

    def dram_accepted(self, port, module, line: int, now: int, ready: int,
                      writeback: bool) -> None:
        track = "dram%d" % port.port_id
        if writeback:
            self.instant("writeback", "dram", now, track,
                         args={"line": line})
        else:
            self.complete("read", "dram", now, ready - now, track,
                          args={"line": line})

    def replied(self, pkg, now: int) -> None:
        self.complete(pkg.kind + ".reply", "mem", pkg.issue_time,
                      now - pkg.issue_time, _processor_track(pkg.tcu_id),
                      args={"seq": pkg.seq, "addr": pkg.addr,
                            "module": pkg.module,
                            "latency_ps": now - pkg.issue_time})

    def _spawn_name(self, region) -> str:
        src_line = self._program.instructions[region.spawn_index].src_line
        return f"spawn@line{src_line or region.spawn_index}"

    def spawn_began(self, region, now: int, n_threads: int) -> None:
        self.begin(self._spawn_name(region), "spawn", now, "spawn",
                   args={"spawn_index": region.spawn_index,
                         "threads": n_threads})

    def spawn_ended(self, region, now: int) -> None:
        self.end(self._spawn_name(region), "spawn", now, "spawn")

    # -- reading --------------------------------------------------------------

    def iter_events(self) -> Iterable[SpanEvent]:
        if self.events is not None:
            return iter(self.events)
        return iter(self.recent)


def chrome_trace(records: Iterable[Dict[str, Any]],
                 process_name: str = "xmtsim") -> Dict[str, Any]:
    """The trace-event JSON object Perfetto/chrome://tracing load, from
    the records of an ``events.jsonl`` stream (``xmt-prof chrome``).

    Tracks map to threads of one process: each distinct ``track``
    string becomes a ``tid`` with a ``thread_name`` metadata record,
    in sorted track order so TCUs group together in the UI.
    """
    events = list(records)
    tracks = sorted({e["track"] for e in events})
    tid_of = {track: i + 1 for i, track in enumerate(tracks)}
    out: List[Dict[str, Any]] = [{
        "name": "process_name", "ph": "M", "pid": 1, "tid": 0,
        "args": {"name": process_name},
    }]
    for track in tracks:
        out.append({"name": "thread_name", "ph": "M", "pid": 1,
                    "tid": tid_of[track], "args": {"name": track}})
        out.append({"name": "thread_sort_index", "ph": "M", "pid": 1,
                    "tid": tid_of[track],
                    "args": {"sort_index": tid_of[track]}})
    for e in events:
        rec: Dict[str, Any] = {
            "name": e["name"], "cat": e["cat"], "ph": e["ph"],
            "ts": e["ts"] / 1e6,  # ps -> us
            "pid": 1, "tid": tid_of[e["track"]],
        }
        if e["ph"] == PH_COMPLETE:
            rec["dur"] = e["dur"] / 1e6
        elif e["ph"] == PH_INSTANT:
            rec["s"] = "t"  # thread-scoped instant
        if e.get("args"):
            rec["args"] = e["args"]
        out.append(rec)
    return {"traceEvents": out, "displayTimeUnit": "ns"}
