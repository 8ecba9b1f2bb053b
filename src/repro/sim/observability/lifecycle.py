"""Request-lifecycle flight recorder and top-down cycle accounting.

Two cooperating pieces answer the question every architectural study
starts with -- *where does a memory request spend its time, and what is
each TCU cycle stalled on?*

**Flight recorder** (:class:`FlightRecorder`): every memory
:class:`~repro.sim.packages.Package` gains a lifecycle record (the
``rec`` slot) stamped with ``(stage, time_ps, queue_depth_at_arrival)``
at each port boundary it crosses -- TCU send queue, ICN injection,
cache-module input queue, the hit/miss/MSHR decision, DRAM accept and
fill, the response queue and the return network.  When the reply
reaches its TCU the record is decomposed into per-hop *queue-wait vs
service vs transit* cycles that telescope exactly to the end-to-end
latency.  Aggregates are bounded (per-hop histograms, per-module wait
totals, a deterministic reservoir of complete lifecycles) and each
completed lifecycle can be streamed to JSONL like traces.  The recorder
is a consumer subscribed on ``machine.obs`` like every other: its
methods below are named after the probes it hears.

**Cycle accounting** (:class:`CycleAccountant`): attributes every
processor cycle to a stall taxonomy --

- ``retiring``        -- the issue slot retired an instruction (read
  off the processor's ``instructions_issued``, not heard per
  instruction: the accountant keeps nobody out of runs)
- ``frontend``        -- multi-cycle latency bubbles
- ``scoreboard_raw``  -- RAW on an in-core result (no memory in flight)
- ``fu_busy``         -- shared FU arbitration loss
- ``mem.<layer>``     -- stalled on memory, split by the layer the
  *oldest outstanding request* was in on that cycle (cluster / icn /
  cache / dram / return, from the flight recorder's time stamps;
  ``unknown`` without one)
- ``sync_join.*``     -- drain before join (observed), parked TCUs and
  the master's wait-at-join (derived at export)

Both cost per request, not per instruction: the recorder folds a reply
in one pass into value tallies, and the accountant hears only
``stalled`` (one ranged call per sleep) and ``spawn_ended``.

Every ticking processor attributes exactly one cycle per cycle, so the
exported tree is exhaustive and exclusive: attributed + derived idle
sums to ``elapsed_cycles x n_processors`` exactly (the ``exact`` flag
guards this; cross-domain DVFS retiming clears it).

Exports are versioned: ``xmt-lifecycle/1`` and ``xmt-accounting/1``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, IO, List, Optional, Tuple

from repro.sim.observability.artifacts import schema_of
from repro.sim.observability.metrics import Histogram, histogram_percentile

# -- lifecycle stage codes (stamped into Package.rec) ------------------------

ST_SQ = 0          # enqueued in the cluster/master ICN send port
ST_ICN_SEND = 1    # injected into the send interconnect
ST_CACHE_Q = 2     # arrived in a cache module's input queue
ST_CACHE_HIT = 3   # dequeued: hit
ST_CACHE_MISS = 4  # dequeued: miss (owns the DRAM transaction)
ST_CACHE_MSHR = 5  # dequeued: merged into an in-flight miss
ST_DRAM_ACC = 6    # the miss transaction was accepted by its DRAM port
ST_FILL = 7        # DRAM fill released the waiters
ST_OUT_Q = 8       # response entered the module's output queue
ST_ICN_RET = 9     # drained into the return interconnect
ST_DONE = 10       # replied: the record is retired (closes ``rec``; no hop)

STAGE_NAMES = {
    ST_SQ: "sq", ST_ICN_SEND: "icn_send", ST_CACHE_Q: "cache_q",
    ST_CACHE_HIT: "hit", ST_CACHE_MISS: "miss", ST_CACHE_MSHR: "mshr",
    ST_DRAM_ACC: "dram_acc", ST_FILL: "fill", ST_OUT_Q: "out_q",
    ST_ICN_RET: "icn_ret",
}

#: memory layer a request is "in" after clearing each stage -- what a
#: TCU stalled on that request is actually waiting for.  Stages are
#: stamped at fabric *port* boundaries (the shared engine in
#: ``icn.py``/``cache.py``/``dram.py``), never by backend class, so
#: ``current_layer`` and the ``mem.<layer>`` accounting attribute
#: correctly for every registered ICN/DRAM/cache backend
_LAYER_OF = {
    ST_SQ: "cluster", ST_ICN_SEND: "icn",
    ST_CACHE_Q: "cache", ST_CACHE_HIT: "cache",
    ST_CACHE_MISS: "dram", ST_CACHE_MSHR: "dram", ST_DRAM_ACC: "dram",
    ST_FILL: "cache", ST_OUT_Q: "return", ST_ICN_RET: "return",
}

LAYERS = ("cluster", "icn", "cache", "dram", "return")

#: hop name -> layer whose queue/port that time was spent in
HOP_LAYER = {
    "issue_wait": "cluster", "sq_wait": "cluster", "icn_send": "icn",
    "cache_wait": "cache", "cache_service": "cache",
    "dram_wait": "dram", "dram_service": "dram", "mshr_wait": "dram",
    "ret_wait": "return", "icn_return": "return",
}

_OUTCOME_STAGE = {"hit": ST_CACHE_HIT, "miss": ST_CACHE_MISS,
                  "mshr": ST_CACHE_MSHR}

#: the hop histograms, in the order :meth:`FlightRecorder.replied`
#: unpacks their tallies
_HOPS = ("issue_wait", "sq_wait", "icn_send", "cache_wait", "dram_wait",
         "dram_service", "mshr_wait", "cache_service", "ret_wait",
         "icn_return", "total")


def _sample(entry) -> Dict[str, Any]:
    """One kept lifecycle as the reservoir and the stream give it."""
    (seq, kind, tcu, addr, module, outcome, issue_c, reply_c, rec,
     hops) = entry
    return {
        "seq": seq, "kind": kind, "tcu": tcu, "addr": addr,
        "module": module, "outcome": outcome,
        "issue_cycle": issue_c, "reply_cycle": reply_c,
        "latency": reply_c - issue_c,
        "hops": {name: v for name, v in zip(_HOPS, hops) if v is not None},
        "depths": {STAGE_NAMES[stage]: depth
                   for stage, _t, depth in rec[:-1]},
    }


class FlightRecorder:
    """Per-hop lifecycle tracking for memory packages.

    Bounded-memory by construction: per-hop :class:`Histogram`
    aggregates, capped per-layer interval buffers (telemetry p50/p95),
    per-module/per-port wait totals, and a ``capacity``-sized
    deterministic reservoir of complete lifecycles (LCG replacement, so
    runs are reproducible).  ``sample_every`` thins which completions
    are eligible for the reservoir/stream without affecting aggregates.
    """

    def __init__(self, capacity: int = 256, sample_every: int = 1,
                 stream: Optional[IO[str]] = None,
                 interval_cap: int = 2048):
        if capacity < 1:
            raise ValueError("reservoir capacity must be >= 1")
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.capacity = capacity
        self.sample_every = sample_every
        self._period = 1
        self._stream = stream
        self._owns_stream = False
        # aggregates (bounded); a hop never observed is not exported
        self.hops: Dict[str, Histogram] = {
            name: Histogram() for name in _HOPS}
        self._tallies = tuple(self.hops[name].tally for name in _HOPS)
        self.module_wait: Dict[int, List[int]] = {}   # module -> [count, cyc]
        self.port_wait: Dict[int, List[int]] = {}     # cluster -> [count, cyc]
        self.completed = 0
        self.sampled = 0
        self.dropped = 0          # records missing their initial stage
        #: the reservoir's lifecycles: as :meth:`replied` keeps them (a
        #: tuple), or as :attr:`reservoir` has built them since (a dict)
        self._kept: List[Any] = []
        self._rng = 0x2545F491
        # transient in-flight state (bounded by outstanding requests)
        self._outstanding: Dict[int, List[list]] = {}
        self._dram_inflight: Dict[Tuple[int, int], Tuple[int, int]] = {}
        self._interval: Dict[str, List[int]] = {l: [] for l in LAYERS}
        self._interval_cap = interval_cap

    # -- wiring --------------------------------------------------------------

    def attached(self, machine) -> None:
        """Bound to a machine.  In-flight tracking is reset (a
        checkpoint-restored machine carries fresh package copies whose
        old records we can no longer chase); aggregates survive."""
        self._period = machine.config.cluster_period
        self._outstanding.clear()
        self._dram_inflight.clear()

    def stream_to(self, path: str) -> None:
        """Stream every sampled lifecycle to ``path`` as JSONL."""
        self._stream = open(path, "w")
        self._owns_stream = True

    def close(self) -> None:
        if self._stream is not None:
            self._stream.flush()
            if self._owns_stream:
                self._stream.close()
                self._stream = None

    # -- probes (hot; see repro.sim.observability.core.PROBES) ---------------

    def send_enqueued(self, pkg, now: int, depth: int) -> None:
        """The TCU/master pushed ``pkg`` into its ICN send port."""
        rec = [(ST_SQ, now, depth)]
        pkg.rec = rec
        # a sender is awake, so every stall of its before now has been
        # heard: its retired records have no tick left to answer for
        self._outstanding[pkg.tcu_id] = lst = [
            r for r in self._outstanding.get(pkg.tcu_id, ())
            if r[-1][0] != ST_DONE]
        lst.append(rec)

    def icn_injected(self, pkg, now: int, arrival: int, depth: int) -> None:
        rec = pkg.rec
        if rec is not None:
            rec.append((ST_ICN_SEND, now, depth))

    def cache_enqueued(self, pkg, now: int, depth: int) -> None:
        rec = pkg.rec
        if rec is not None:
            rec.append((ST_CACHE_Q, now, depth))

    def cache_dequeued(self, module, pkg, now: int, outcome: str) -> None:
        rec = pkg.rec
        if rec is not None:
            rec.append((_OUTCOME_STAGE[outcome], now, len(module.in_queue)))

    def dram_accepted(self, port, module, line: int, now: int,
                      ready: int, writeback: bool) -> None:
        if writeback:
            return  # no package waits on a write-back
        # depth through the port interface (``queue_depth``), not a
        # concrete attribute: banked/alternate DRAM backends report
        # their aggregate here and the stamp stays meaningful
        self._dram_inflight[(module.module_id, line)] = (
            now, port.queue_depth())

    def dram_filled(self, module, line: int, now: int, waiters) -> None:
        info = self._dram_inflight.pop((module.module_id, line), None)
        n = len(waiters)
        for pkg in waiters:
            rec = pkg.rec
            if rec is None:
                continue
            if info is not None and rec[-1][0] == ST_CACHE_MISS:
                # only the transaction owner waited for the DRAM accept;
                # MSHR-merged packages arrived later and would read a
                # negative wait out of the owner's accept timestamp
                rec.append((ST_DRAM_ACC, info[0], info[1]))
            rec.append((ST_FILL, now, n))

    def response_enqueued(self, pkg, now: int, depth: int) -> None:
        rec = pkg.rec
        if rec is not None:
            rec.append((ST_OUT_Q, now, depth))

    def icn_returned(self, pkg, now: int, arrival: int, depth: int) -> None:
        rec = pkg.rec
        if rec is not None:
            rec.append((ST_ICN_RET, now, depth))

    def replied(self, pkg, now: int) -> None:
        """The response reached its TCU: decompose and retire the
        record.  Tolerates partial records (recorder attached mid-run,
        checkpoint restores): missing boundaries drop the affected hop,
        never raise.  One pass: the stamps land in one slot per stage,
        the hops are locals, each counted by one increment on its
        histogram's tally; a sample the reservoir keeps is a tuple,
        whose dicts are built when it is read (the stream's at once)."""
        rec = pkg.rec
        if rec is None:
            return
        pkg.rec = None
        period = self._period
        # hop boundaries in whole cycles: differences of floored cycle
        # numbers telescope exactly to the end-to-end latency
        cyc = [None] * ST_DONE
        for stage, t, _depth in rec:
            cyc[stage] = t // period
        # retired, yet still what ticks up to now were waiting for (a
        # sleeper's are heard later): the processor's next send prunes it
        rec.append((ST_DONE, now, 0))
        sq, send, cache_q, hit, miss, mshr, acc, fill, out_q, ret = cyc
        if sq is None:
            self.dropped += 1
            return
        (t_issue, t_sq, t_icn, t_cache, t_dram, t_dram_service, t_mshr,
         t_service, t_ret, t_return, t_total) = self._tallies
        issue_c = pkg.issue_time // period
        reply_c = now // period
        issue_wait = sq - issue_c
        t_issue[issue_wait] = t_issue.get(issue_wait, 0) + 1
        sq_wait = icn_send = cache_wait = dram_wait = dram_service = None
        mshr_wait = None
        # a queue wait also goes to its layer's buffer for the live
        # telemetry interval (capped)
        interval = self._interval
        cap = self._interval_cap
        if send is not None:
            sq_wait = send - sq
            t_sq[sq_wait] = t_sq.get(sq_wait, 0) + 1
            buf = interval["cluster"]
            if len(buf) < cap:
                buf.append(sq_wait)
            if cache_q is not None:
                icn_send = cache_q - send
                t_icn[icn_send] = t_icn.get(icn_send, 0) + 1
                buf = interval["icn"]
                if len(buf) < cap:
                    buf.append(icn_send)
        deq = (hit if hit is not None else miss if miss is not None
               else mshr)
        if deq is not None and cache_q is not None:
            cache_wait = deq - cache_q
            t_cache[cache_wait] = t_cache.get(cache_wait, 0) + 1
            buf = interval["cache"]
            if len(buf) < cap:
                buf.append(cache_wait)
        if hit is None and miss is not None:
            if acc is not None:
                dram_wait = acc - miss
                t_dram[dram_wait] = t_dram.get(dram_wait, 0) + 1
                buf = interval["dram"]
                if len(buf) < cap:
                    buf.append(dram_wait)
                if fill is not None:
                    dram_service = fill - acc
                    t_dram_service[dram_service] = \
                        t_dram_service.get(dram_service, 0) + 1
        elif hit is None and mshr is not None and fill is not None:
            mshr_wait = fill - mshr
            t_mshr[mshr_wait] = t_mshr.get(mshr_wait, 0) + 1
            buf = interval["dram"]
            if len(buf) < cap:
                buf.append(mshr_wait)
        cache_service = ret_wait = icn_return = None
        if out_q is not None:
            cache_service = out_q - (fill if fill is not None else
                                     deq if deq is not None else sq)
            t_service[cache_service] = t_service.get(cache_service, 0) + 1
            if ret is not None:
                ret_wait = ret - out_q
                t_ret[ret_wait] = t_ret.get(ret_wait, 0) + 1
                buf = interval["return"]
                if len(buf) < cap:
                    buf.append(ret_wait)
                icn_return = reply_c - ret
                t_return[icn_return] = t_return.get(icn_return, 0) + 1
        total = reply_c - issue_c
        t_total[total] = t_total.get(total, 0) + 1
        # contention totals: which cache module / ICN send port soaked
        # up the waiting
        if cache_wait is not None and pkg.module >= 0:
            cell = self.module_wait.get(pkg.module)
            if cell is None:
                cell = self.module_wait[pkg.module] = [0, 0]
            cell[0] += 1
            cell[1] += cache_wait + (dram_wait or 0)
        if sq_wait is not None:
            port = pkg.cluster_id if pkg.tcu_id >= 0 else -1
            cell = self.port_wait.get(port)
            if cell is None:
                cell = self.port_wait[port] = [0, 0]
            cell[0] += 1
            cell[1] += sq_wait
        self.completed += 1
        if self.completed % self.sample_every:
            return
        self.sampled += 1
        kept = self._kept
        slot = len(kept)
        if slot == self.capacity:  # full: the LCG picks who is replaced
            self._rng = (self._rng * 1103515245 + 12345) & 0x7FFFFFFF
            slot = self._rng % self.sampled
        stream = self._stream
        if slot >= self.capacity and stream is None:
            return  # nobody keeps this one
        entry = (pkg.seq, pkg.kind, pkg.tcu_id, pkg.addr, pkg.module,
                 ("hit" if hit is not None else "miss" if miss is not None
                  else "mshr" if mshr is not None else "?"),
                 issue_c, reply_c, rec,
                 (issue_wait, sq_wait, icn_send, cache_wait, dram_wait,
                  dram_service, mshr_wait, cache_service, ret_wait,
                  icn_return))
        if slot < len(kept):
            kept[slot] = entry
        elif slot < self.capacity:
            kept.append(entry)
        if stream is not None:
            sample = _sample(entry)
            sample["schema"] = schema_of("lifecycle-stream")
            json.dump(sample, stream, separators=(",", ":"))
            stream.write("\n")

    @property
    def reservoir(self) -> List[Dict[str, Any]]:
        """The kept lifecycles, one dict each, in slot order (each built
        in its slot when first read: an export does not hold both)."""
        kept = self._kept
        for slot, entry in enumerate(kept):
            if type(entry) is tuple:
                kept[slot] = _sample(entry)
        return list(kept)

    # -- queries -------------------------------------------------------------

    def layers_over(self, tcu_id: int, time: int, period: int,
                    n: int) -> List[Tuple[str, int]]:
        """``[(layer, ticks)]``: how many of the ``n`` ticks of
        ``tcu_id`` at ``time``, ``time + period``, ... found its *oldest*
        outstanding request in which layer, in order.  A stamp counts
        for a tick iff it was made *before* it (``stamp_time <
        tick_time``): the clusters domain has the first turn in a
        timestamp, so what the ICN, caches and DRAM stamp at ``t`` --
        the reply included -- is not yet there for the tick at ``t``.
        That makes the answer a function of the arguments alone, the
        same asked on the tick or any time later.  (Stamps are in time
        order; the one retro-dated, ``ST_DRAM_ACC``, names its
        predecessor's layer and is followed by the later ``ST_FILL``, so
        a record's last stamp is its latest: a record stamped wholly
        before the span is answered from that stamp alone.)"""
        out = []
        for rec in self._outstanding.get(tcu_id, ()):
            seen, at, _depth = rec[-1]  # (the latest stamp: see above)
            if at >= time:  # some stamp is made during the span: walk it
                seen = None  # the last stage stamped before the tick
                for stage, at, _depth in rec:
                    if at >= time:  # ticks up to ``at`` do not see it
                        k = (at - time) // period + 1
                        if k >= n:
                            break
                        out.append((_LAYER_OF.get(seen, "unknown"), k))
                        n -= k
                        time += k * period
                    seen = stage
            if seen != ST_DONE:  # still in flight: the answer from here on
                break
        else:  # (every record was retired before ``time``)
            seen = None
        out.append((_LAYER_OF.get(seen, "unknown"), n))
        return out

    def current_layer(self, tcu_id: int, time: int) -> str:
        """The layer the *oldest* outstanding request of ``tcu_id`` was
        in for its tick at ``time`` -- what a memory-stalled TCU was
        actually waiting for."""
        return self.layers_over(tcu_id, time, 1, 1)[0][0]

    def interval_summary(self) -> Dict[str, Dict[str, int]]:
        """Per-layer queue-wait p50/p95 since the last call (telemetry
        frames embed this; the buffers reset every interval)."""
        out: Dict[str, Dict[str, int]] = {}
        for layer in LAYERS:
            vals = self._interval[layer]
            if not vals:
                continue
            vals.sort()
            n = len(vals)
            out[layer] = {"p50": vals[n // 2],
                          "p95": vals[min(n - 1, (n * 95) // 100)],
                          "count": n}
            self._interval[layer] = []
        return out

    # -- export --------------------------------------------------------------

    def _hot(self, table: Dict[int, List[int]], key: str,
             top: int = 8) -> List[Dict[str, Any]]:
        rows = sorted(table.items(), key=lambda kv: -kv[1][1])[:top]
        return [{key: k, "requests": c, "wait_cycles": w,
                 "mean_wait": round(w / c, 2) if c else 0.0}
                for k, (c, w) in rows]

    def to_data(self) -> Dict[str, Any]:
        return {
            "schema": schema_of("lifecycle"),
            "completed": self.completed,
            "sampled": self.sampled,
            "dropped": self.dropped,
            "capacity": self.capacity,
            "sample_every": self.sample_every,
            "hops": {name: h.to_dict()
                     for name, h in sorted(self.hops.items()) if h.tally},
            "hot_modules": self._hot(self.module_wait, "module"),
            "hot_ports": self._hot(self.port_wait, "cluster"),
            "samples": self.reservoir,
        }


# -- top-down cycle accounting -----------------------------------------------

CAT_RETIRING = "retiring"
CAT_FRONTEND = "frontend"
CAT_SCOREBOARD = "scoreboard_raw"
CAT_FU = "fu_busy"
CAT_DRAIN = "sync_join.drain"
CAT_PARKED = "sync_join.parked"
CAT_JOIN_WAIT = "sync_join.join_wait"

#: stall causes with a fixed category; everything else is a
#: memory-shaped wait split by the flight recorder's layer answer
_CAUSE_STATIC = {
    "fu": CAT_FU,
    "latency": CAT_FRONTEND,
    "drain": CAT_DRAIN,
    "send_queue": "mem.cluster",
}


def _processors(machine) -> list:
    """The Master and the TCUs; none yet while ``Machine.__init__``
    attaches its observers (they start at zero instructions)."""
    master = getattr(machine, "master", None)
    return [] if master is None else [master, *machine.tcus]


class CycleAccountant:
    """One cell per ``(processor, spawn_region, category)``; a consumer
    of the ``stalled`` and ``spawn_ended`` probes.

    Retirements are not heard one by one: a processor's ``retiring``
    cell is the growth of its ``instructions_issued`` counter, taken
    from a baseline read when the accountant is attached and *folded*
    under the processor's spawn region -- the TCUs at ``spawn_ended``
    (every TCU is parked then, so its counter is exact, and its region
    is the one ending), every processor before
    :func:`export_accounting` reads :attr:`cells`.  So the accountant
    does not keep anyone out of runs (DESIGN 1.2 invariant 4)."""

    def __init__(self):
        #: (tcu_id, spawn_index, category) -> cycles; spawn_index -1 is
        #: the serial section / master
        self.cells: Dict[Tuple[int, int, str], int] = {}
        #: the flight recorder subscribed next to us, if any: it knows
        #: which layer a stalled TCU's oldest request is in
        self.recorder = None
        self._machine = None
        #: tcu_id -> the ``instructions_issued`` already in ``cells``
        self._folded: Dict[int, int] = {}

    def attached(self, machine) -> None:
        if self._machine is not None:
            self._fold(self._machine)  # what the machine we leave retired
        self._machine = machine
        self.recorder = machine.obs.lifecycle
        self._folded = {proc.tcu_id: proc.instructions_issued
                        for proc in _processors(machine)}

    def _fold(self, machine) -> None:
        """Move every processor's retirements since the last fold into
        its ``retiring`` cell under its current region."""
        machine.settle()  # a processor inside a run has not counted it yet
        self._fold_procs(_processors(machine))

    def _fold_procs(self, procs) -> None:
        cells = self.cells
        folded = self._folded
        for proc in procs:
            issued = proc.instructions_issued
            pid = proc.tcu_id
            done = folded.get(pid, 0)
            if issued != done:
                folded[pid] = issued
                region = proc.region
                key = (pid, -1 if region is None else region.spawn_index,
                       CAT_RETIRING)
                cells[key] = cells.get(key, 0) + issued - done

    def spawn_ended(self, region, now: int) -> None:
        self._fold_procs(self._machine.tcus)

    def stalled(self, proc, cause: str, first: int, last: int) -> None:
        cells = self.cells
        region = proc.region
        pid = proc.tcu_id
        spawn = -1 if region is None else region.spawn_index
        n = last - first + 1
        cat = _CAUSE_STATIC.get(cause)
        if cat is None:
            # memory-shaped waits: "memory" (scoreboard), "store_ack",
            # "fence", and the master's "spawn_drain"/"halt_drain"
            # (nothing is delivered during a sleep: the whole span saw
            # the same ``outstanding_loads``)
            if cause == "memory" and not proc.outstanding_loads:
                cat = CAT_SCOREBOARD
            elif self.recorder is None:
                cat = "mem.unknown"
            else:
                # one cell per layer the oldest request passed through:
                # the span's cycles tick at ``time_of`` (a span never
                # straddles a retiming or a gating, see Machine.settle)
                domain = proc.domain
                for layer, k in self.recorder.layers_over(
                        pid, domain.time_of(first), domain.period, n):
                    key = (pid, spawn, "mem." + layer)
                    cells[key] = cells.get(key, 0) + k
                return
        key = (pid, spawn, cat)
        cells[key] = cells.get(key, 0) + n


def _nest(flat: Dict[str, int]) -> Dict[str, Any]:
    tree: Dict[str, Any] = {}
    for cat in sorted(flat):
        node = tree
        parts = cat.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = flat[cat]
    return tree


def export_accounting(machine, accountant: CycleAccountant,
                      cycles: Optional[int] = None) -> Dict[str, Any]:
    """The ``xmt-accounting/1`` payload for one finished run.

    Observed cells are summed machine-wide and per spawn region; the
    unattributed remainder of each processor's ``cycles`` is derived
    idle (``sync_join.parked`` for TCUs -- serial sections and post-join
    parking -- and ``sync_join.join_wait`` for the master).  The
    ``exact`` flag asserts the exhaustive-and-exclusive invariant:
    attributed + derived == cycles x n_processors.
    """
    accountant._fold(machine)
    period = machine.config.cluster_period
    if cycles is None:
        cycles = machine.halt_time // period
    proc_ids = [-1] + sorted(t.tcu_id for t in machine.tcus)
    n_procs = len(proc_ids)
    attributed = {pid: 0 for pid in proc_ids}
    flat: Dict[str, int] = {}
    regions: Dict[int, Dict[str, int]] = {}
    for (pid, spawn, cat), n in accountant.cells.items():
        attributed[pid] = attributed.get(pid, 0) + n
        flat[cat] = flat.get(cat, 0) + n
        if spawn >= 0:
            row = regions.setdefault(spawn, {})
            row[cat] = row.get(cat, 0) + n
    exact = True
    for pid in proc_ids:
        idle = cycles - attributed[pid]
        if idle < 0:
            exact = False
            idle = 0
        cat = CAT_JOIN_WAIT if pid < 0 else CAT_PARKED
        flat[cat] = flat.get(cat, 0) + idle
    # cells for processors the machine no longer knows (never happens
    # in practice) would break exhaustiveness -- keep the flag honest
    if set(attributed) - set(proc_ids):
        exact = False
    total = cycles * n_procs
    attributed_total = sum(flat.values())
    if attributed_total != total:
        exact = False
    region_rows = []
    instructions = machine.program.instructions
    for spawn in sorted(regions):
        row = regions[spawn]
        src_line = (instructions[spawn].src_line
                    if 0 <= spawn < len(instructions) else 0)
        region_rows.append({
            "spawn_index": spawn, "src_line": src_line,
            "cycles": sum(row.values()),
            "categories": _nest(row),
        })
    return {
        "schema": schema_of("accounting"),
        "cycles": cycles,
        "n_processors": n_procs,
        "total_cycles": total,
        "attributed_cycles": attributed_total,
        "exact": exact,
        "machine": {"flat": flat, "tree": _nest(flat)},
        "processors": {
            "attributed_min": min(attributed.values()) if attributed else 0,
            "attributed_max": max(attributed.values()) if attributed else 0,
        },
        "spawn_regions": region_rows,
    }


def hop_percentiles(hops: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Summarize exported hop histograms into count/mean/p50/p95/max
    rows (the renderer-facing view of ``to_data()["hops"]``)."""
    out: Dict[str, Dict[str, Any]] = {}
    for name, h in hops.items():
        if not h.get("count"):
            continue
        out[name] = {
            "count": h["count"], "mean": h["mean"],
            "p50": histogram_percentile(h, 50),
            "p95": histogram_percentile(h, 95),
            "max": h["max"],
        }
    return out
