"""Filter and activity plug-ins (Section III-B).

Two plug-in interfaces, exactly as in XMTSim:

- **Filter plug-ins** post-process the instruction stream / memory
  traffic: they are consumers on the observation spine
  (``machine.obs``) hearing the ``committed`` probe, so they see every
  package that commits at a cache module.  The built-in
  :class:`HotMemoryFilter` reproduces the paper's default plug-in that
  "creates a list of most frequently accessed locations in the XMT
  shared memory space", which lets a programmer find the assembly (and,
  through the compiler, XMTC) lines causing memory bottlenecks.

- **Activity plug-ins** are sampled at a regular interval of simulated
  time; they can read the instruction/activity counters and *change the
  frequencies of the clock domains* or enable/disable them -- the
  mechanism that makes XMTSim "the only publicly available many-core
  simulator that allows evaluation of mechanisms such as dynamic power
  and thermal management".
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.sim.engine import PRIO_PLUGIN, Actor
from repro.sim.stats import IntervalSeries, diff_snapshots


class ActivityPlugin(Actor):
    """Base class: override :meth:`sample` (and optionally :meth:`finish`).

    The plug-in is its own scheduler actor: :meth:`on_start` books the
    first sample, :meth:`notify` settles the machine (the activity
    counters include what sleepers and runs have not yet credited),
    samples and books the next one.  It rides the non-perturbing
    ``PRIO_PLUGIN`` slot, so sampling never changes cycle counts.  A
    plug-in that needs finer control than interval sampling (e.g. the
    resilience layer's fault injector, which fires at exact simulated
    times) overrides :meth:`on_start` to schedule its own events.
    """

    #: plug-ins may hold unpicklable state (policy closures, open
    #: sinks): their events are stripped from checkpoints, and whoever
    #: resumes re-registers them
    checkpoint_transient = True

    #: sampling interval in cluster-domain cycles
    interval_cycles: int = 10_000

    def __init__(self, interval_cycles: int = 10_000):
        if interval_cycles < 1:
            raise ValueError(f"{type(self).__name__}: the sampling interval "
                             f"must be at least 1 cycle, got "
                             f"{interval_cycles}")
        self.interval_cycles = interval_cycles

    def on_start(self, machine, scheduler) -> None:
        """Called when the machine starts (or, for a plug-in added to a
        started machine, at once): books the first sample."""
        self.machine = machine
        self._book(scheduler)

    def notify(self, scheduler, time, arg):
        machine = self.machine
        if machine.halted:
            return
        machine.settle()
        self.sample(machine, time)
        self._book(scheduler)

    def _book(self, scheduler) -> None:
        period = self.machine.config.cluster_period
        scheduler.schedule(self.interval_cycles * period, self, PRIO_PLUGIN)

    def sample(self, machine, time: int) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def finish(self, machine) -> None:
        pass


class ActivityRecorder(ActivityPlugin):
    """Records counter snapshots over simulated time.

    The recorded :class:`~repro.sim.stats.IntervalSeries` is the
    "execution profile of XMTC programs over simulated time, showing
    memory and computation intensive phases" that feeds the power model.
    """

    def __init__(self, interval_cycles: int = 10_000,
                 keys: Optional[List[str]] = None):
        super().__init__(interval_cycles)
        self.series = IntervalSeries()
        self.keys = keys

    def sample(self, machine, time: int) -> None:
        snap = machine.stats.snapshot()
        if self.keys is not None:
            snap = {k: v for k, v in snap.items()
                    if any(k.startswith(p) for p in self.keys)}
        self.series.record(time, snap)

    def finish(self, machine) -> None:
        self.sample(machine, machine.scheduler.now)


class FrequencyController(ActivityPlugin):
    """Programmable DVFS: calls a policy on each sample.

    ``policy(machine, time, activity_delta) -> dict domain -> scale``;
    returned scales are applied with
    :meth:`~repro.sim.machine.Machine.set_domain_scale`.
    """

    def __init__(self, policy: Callable, interval_cycles: int = 10_000):
        super().__init__(interval_cycles)
        self.policy = policy
        self._prev: Dict[str, int] = {}
        self.decisions: List[Tuple[int, Dict[str, float]]] = []

    def sample(self, machine, time: int) -> None:
        snap = machine.stats.snapshot()
        delta = diff_snapshots(self._prev, snap)
        self._prev = snap
        scales = self.policy(machine, time, delta) or {}
        for domain, scale in scales.items():
            machine.set_domain_scale(domain, scale)
        if scales:
            self.decisions.append((time, dict(scales)))


class HotMemoryFilter:
    """Built-in filter plug-in: most frequently accessed memory words.

    The paper's default plug-in: it finds the memory bottleneck
    addresses, names the globals they belong to, and -- through the
    compiler's source-line markers -- refers them "back to the
    corresponding XMTC lines of code" (Section III-B).
    """

    def __init__(self, top: int = 10):
        self.top = top
        self.counts: Dict[int, int] = {}
        #: XMTC source line -> memory accesses issued by it
        self.line_counts: Dict[int, int] = {}

    def committed(self, module, pkg, now: int) -> None:
        self.counts[pkg.addr] = self.counts.get(pkg.addr, 0) + 1
        if pkg.src_line:
            self.line_counts[pkg.src_line] = \
                self.line_counts.get(pkg.src_line, 0) + 1

    def hottest(self) -> List[Tuple[int, int]]:
        """``[(address, accesses)]`` sorted by access count, descending."""
        ranked = sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[: self.top]

    def hottest_lines(self) -> List[Tuple[int, int]]:
        """``[(xmtc_line, accesses)]`` sorted by access count."""
        ranked = sorted(self.line_counts.items(),
                        key=lambda kv: (-kv[1], kv[0]))
        return ranked[: self.top]

    def report(self, program=None, source: str = None) -> str:
        lines = ["hottest shared-memory locations:"]
        for addr, count in self.hottest():
            name = ""
            if program is not None:
                for sym in program.globals_table.values():
                    if sym.addr <= addr < sym.addr + 4 * sym.n_words:
                        name = f"  ({sym.name}[{(addr - sym.addr) // 4}])"
                        break
            lines.append(f"  0x{addr:08x}: {count}{name}")
        if self.line_counts:
            src_lines = source.splitlines() if source else None
            lines.append("hottest XMTC source lines:")
            for line_no, count in self.hottest_lines():
                text = ""
                if src_lines and 1 <= line_no <= len(src_lines):
                    text = f"  | {src_lines[line_no - 1].strip()}"
                lines.append(f"  line {line_no}: {count} accesses{text}")
        return "\n".join(lines)


class InstructionHistogramFilter:
    """Filter plug-in: classify committed memory packages by kind."""

    def __init__(self):
        self.by_kind: Dict[str, int] = {}

    def committed(self, module, pkg, now: int) -> None:
        self.by_kind[pkg.kind] = self.by_kind.get(pkg.kind, 0) + 1


class RaceRecord:
    """One dynamic race: conflicting accesses to ``addr`` from distinct
    virtual threads inside one spawn region."""

    __slots__ = ("kind", "addr", "tsids", "lines", "region_start")

    def __init__(self, kind: str, addr: int, tsids: Tuple[int, ...],
                 lines: Tuple[int, ...], region_start: int):
        self.kind = kind          # "write-write" | "read-write" | "psm-write"
        self.addr = addr
        self.tsids = tsids        # sample of conflicting thread ids
        self.lines = lines        # XMTC source lines involved (if known)
        self.region_start = region_start

    def __repr__(self):
        return (f"RaceRecord({self.kind}, addr=0x{self.addr:08x}, "
                f"tsids={self.tsids})")


class RaceSanitizer:
    """Dynamic race sanitizer for the functional simulator.

    Pass an instance as ``FunctionalSimulator(..., sanitizer=...)``.
    Inside each spawn region it tracks, per word address, which
    virtual-thread ids stored, loaded and ``psm``-ed it; at the region's
    join it reports:

    - **write-write**: two different threads plain-stored the word;
    - **read-write**: one thread plain-stored it and a different one
      loaded it (the serialized run picked one order, the hardware
      would not have to);
    - **psm-write**: a thread ``psm``-ed a word that another
      plain-stored -- the atomic update and the store are unordered.

    ``psm`` vs ``psm`` is *not* a race (the hardware serializes them),
    and master-written data read by many threads is fine (no writer in
    the region).  Serial code outside spawn regions is never tracked.
    """

    def __init__(self, max_races: int = 64):
        self.races: List[RaceRecord] = []
        self.max_races = max_races
        self.regions_checked = 0
        self._region_start: Optional[int] = None
        self._tsid: Optional[int] = None
        #: addr -> {"w": {tsid: line}, "r": {tsid: line}, "p": {tsid: line}}
        self._cells: Dict[int, Dict[str, Dict[int, int]]] = {}

    @property
    def clean(self) -> bool:
        return not self.races

    # -- hooks called by the functional simulator ---------------------------

    def region_begin(self, region) -> None:
        self._region_start = getattr(region, "start", None)
        self._tsid = None
        self._cells = {}

    def set_thread(self, tsid: int) -> None:
        self._tsid = tsid

    def on_load(self, addr: int, ins) -> None:
        self._note(addr, "r", ins)

    def on_store(self, addr: int, ins) -> None:
        self._note(addr, "w", ins)

    def on_psm(self, addr: int, ins) -> None:
        self._note(addr, "p", ins)

    def _note(self, addr: int, kind: str, ins) -> None:
        if self._region_start is None or self._tsid is None:
            return  # serial code, or the region prologue before getvt
        cell = self._cells.setdefault(addr, {"w": {}, "r": {}, "p": {}})
        cell[kind].setdefault(self._tsid, getattr(ins, "src_line", 0))

    def region_end(self) -> None:
        self.regions_checked += 1
        for addr, cell in self._cells.items():
            writers, readers, psms = cell["w"], cell["r"], cell["p"]
            if len(writers) > 1:
                self._report("write-write", addr, writers, writers)
            for tsid in readers:
                if any(w != tsid for w in writers):
                    self._report("read-write", addr, writers, readers)
                    break
            if psms and writers:
                self._report("psm-write", addr, writers, psms)
        self._region_start = None
        self._tsid = None
        self._cells = {}

    def _report(self, kind: str, addr: int,
                a: Dict[int, int], b: Dict[int, int]) -> None:
        if len(self.races) >= self.max_races:
            return
        tsids = tuple(sorted(set(a) | set(b))[:4])
        lines = tuple(sorted({ln for ln in list(a.values())
                              + list(b.values()) if ln}))
        self.races.append(RaceRecord(kind, addr, tsids, lines,
                                     self._region_start or 0))

    # -- reporting ----------------------------------------------------------

    def describe(self, record: RaceRecord, program=None) -> str:
        where = f"0x{record.addr:08x}"
        if program is not None:
            for sym in program.globals_table.values():
                if sym.addr <= record.addr < sym.addr + 4 * sym.n_words:
                    where = f"{sym.name}[{(record.addr - sym.addr) // 4}]"
                    break
        tsids = ", ".join(f"$={t}" for t in record.tsids)
        text = f"{record.kind} race on {where} between threads {tsids}"
        if record.lines:
            text += " (XMTC line%s %s)" % (
                "s" if len(record.lines) > 1 else "",
                ", ".join(map(str, record.lines)))
        return text

    def report(self, program=None) -> str:
        if not self.races:
            return (f"race sanitizer: no races in "
                    f"{self.regions_checked} spawn region(s)")
        lines = [f"race sanitizer: {len(self.races)} conflict(s) in "
                 f"{self.regions_checked} spawn region(s):"]
        for record in self.races:
            lines.append("  " + self.describe(record, program))
        return "\n".join(lines)
