"""The assembled XMT machine and the cycle-accurate ``Simulator`` facade.

This is the counterpart of the paper's Fig. 3: the *functional model*
(shared memory + register state + operational definitions) in the
middle, the *cycle-accurate model* (clusters of TCUs, spawn and
prefix-sum units, ICN, shared cache modules, DRAM ports) around it, an
event-scheduler engine controlling the flow of simulation, instruction
and activity counters, and the plug-in interfaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import zip_longest
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from repro.isa.decode import decode_program
from repro.isa.program import Program
from repro.isa.registers import NUM_GLOBAL_REGS, REG_SP
from repro.sim.cluster import Cluster
from repro.sim.cache import CacheModule
from repro.sim.config import XMTConfig, fpga64
from repro.sim.engine import (
    ClockDomain,
    NEVER,
    PRIO_CACHE,
    PRIO_CLUSTERS,
    PRIO_DRAM,
    PRIO_ICN,
    Scheduler,
)
from repro.sim.fabric import create_backend
from repro.sim.functional import Memory, SimulationError
from repro.sim.mtcu import MasterTCU
from repro.sim.psunit import PrefixSumUnit
from repro.sim.spawn_unit import SpawnUnit
from repro.sim.stats import Stats
from repro.sim.tcu import RUN_KEY, RUN_MIN

_TCU_ID = attrgetter("tcu_id")


class CacheBank:
    """Macro-actor over all shared-cache modules.

    Iterating 128 idle modules every cycle dominates host time for
    serial phases (the paper's Section III-D grouping argument); the
    bank keeps an *active set* of the modules that hold a package, and
    of those ticks only the ones whose *due time* has come -- a queued
    request, a response whose latency has elapsed.  A module waiting
    for its hit latency, for DRAM or for the ICN to drain it keeps its
    place in the set without being ticked: DRAM requests queue in the
    set's order, and a skipped tick would have released and dequeued
    nothing.
    """

    def __init__(self, machine, modules):
        self.machine = machine
        self.modules = modules
        self._sched = machine.scheduler
        self._active = []
        self._in_active = [False] * len(modules)
        #: per module, the earliest time its tick can do something
        #: (what its last tick returned, lowered by ``activate``)
        self._due = [NEVER] * len(modules)
        self._work = NEVER  # earliest due time over the active set

    def activate(self, module_id: int, time: int) -> None:
        """Module ``module_id`` has something to do at ``time``."""
        if not self._in_active[module_id]:
            self._in_active[module_id] = True
            self._active.append(module_id)
        if time < self._due[module_id]:
            self._due[module_id] = time
        if time < self._work:  # (else an edge by then is booked already)
            self._work = time
            self.domain.arm(time)

    def tick(self, cycle: int) -> None:
        work = NEVER
        now = self._sched.now
        due = self._due
        modules = self.modules
        active = self._active
        in_active = self._in_active
        left = False
        for module_id in active:
            at = due[module_id]
            if at <= now:
                at = due[module_id] = modules[module_id].tick(cycle)
            if at < work:
                work = at
            elif at >= NEVER:  # holds nothing else either: it leaves
                module = modules[module_id]
                if not (module.pending_misses or module.out_queue._items):
                    in_active[module_id] = False
                    left = True
        if left:
            self._active = [m for m in active if in_active[m]]
        self._work = work

    def next_work(self, now: int) -> int:
        return self._work


class ClusterBank:
    """Macro-actor over all clusters: the same rule as :class:`CacheBank`
    one level up -- nothing is visited while it has nothing to do -- as
    one tick list for every TCU of the machine.

    :attr:`awake` holds the TCUs ticked on the next edge, in ``tcu_id``
    order: cluster order, then ``local_id`` (send-port back-pressure,
    MDU/FPU arbitration, ``getvt``/``ps`` queue order, package sequence
    numbers and inbox tie-breaks all follow it).  Everyone else sleeps
    until one of two heaps names it.  :attr:`wakes` holds booked
    wake-ups ``(delivery time, tcu_id)`` (:meth:`TCU.wake_at`).
    :attr:`resumes` holds ``(domain cycle, tcu_id)``, the next real
    tick of every TCU inside a run -- cycles, not picoseconds, so a run
    spans retiming and gating exactly.  An entry whose TCU is awake by
    then, or whose run ended earlier (``run_end`` no longer matches), is
    stale and ignored.  Due entries are settled at the top of an edge
    and merged into :attr:`awake` by one sort, so :meth:`next_work` is
    a look at three heads.
    """

    def __init__(self, machine, clusters):
        self.machine = machine
        self.tcus = [tcu for cluster in clusters for tcu in cluster.tcus]
        for tcu in self.tcus:
            tcu.bank = self
        self.awake = []
        self.wakes = []
        self.resumes = []
        self._sched = machine.scheduler

    def tick(self, cycle: int) -> None:
        """One clock edge for the TCUs that have something to do.

        A TCU whose tick says "nothing but this stall until a delivery
        arrives" leaves the tick list; a delivery books its wake-up.  So
        does a TCU whose tick says "nothing but this chain of blocks'
        issue slots" (a *run*), until the cycle after the chain or a
        delivery, whichever is first.
        """
        machine = self.machine
        if not machine.parallel_active:
            return
        wakes = self.wakes
        resumes = self.resumes
        if resumes and not machine.runs_ok:
            self._end_runs(cycle)
        if (wakes and wakes[0][0] <= self._sched.now
                or resumes and resumes[0][0] <= cycle):
            self._wake_due(cycle)
        awake = self.awake
        slept = False
        for tcu in awake:
            key = tcu.tick(cycle)
            if key is not None:
                tcu.asleep_on = key
                tcu.slept_at = cycle
                if key == RUN_KEY:
                    heappush(resumes, (tcu.run_end, tcu.tcu_id))
                if tcu.inbox:  # a future-dated delivery already waits
                    heappush(wakes, (tcu.inbox[0][0], tcu.tcu_id))
                slept = True
        if slept:
            self.awake = [tcu for tcu in awake if tcu.asleep_on is None]

    def _wake_due(self, cycle: int) -> None:
        wakes = self.wakes
        resumes = self.resumes
        now = self._sched.now
        tcus = self.tcus
        woken = []
        while wakes and wakes[0][0] <= now:
            tcu = tcus[heappop(wakes)[1]]
            if tcu.asleep_on is not None:
                tcu.settle(cycle)
                tcu.asleep_on = None
                woken.append(tcu)
        while resumes and resumes[0][0] <= cycle:
            end, tcu_id = heappop(resumes)
            tcu = tcus[tcu_id]
            if tcu.asleep_on == RUN_KEY and tcu.run_end == end:
                tcu.settle_run(cycle)
                tcu.asleep_on = None
                woken.append(tcu)
        if woken:
            awake = self.awake
            awake += woken
            awake.sort(key=_TCU_ID)

    def _end_runs(self, cycle: int) -> None:
        """Runs are off (an ``issued`` listener showed up and must hear
        every instruction from this edge on): settle and wake every TCU
        inside one."""
        for tcu in self.tcus:
            if tcu.asleep_on == RUN_KEY:
                tcu.settle_run(cycle)
                tcu.asleep_on = None
        self.resumes.clear()
        self.awake = [tcu for tcu in self.tcus if tcu.asleep_on is None]

    def next_work(self, now: int) -> int:
        if not self.machine.parallel_active:
            return NEVER
        if self.awake:
            return now
        work = self.wakes[0][0] if self.wakes else NEVER
        if self.resumes:
            at = self.domain.time_of(self.resumes[0][0])
            if at < work:
                work = at
        return work

    def start_region(self, region, master_regs) -> None:
        """Broadcast arrival: every TCU starts the region awake, with
        an empty inbox and no wake-up booked."""
        self.wakes.clear()
        self.resumes.clear()
        for tcu in self.tcus:
            tcu.inbox.clear()
            tcu.start_region(region, master_regs)
        self.awake = list(self.tcus)


@dataclass
class CycleResult:
    """Outcome of a cycle-accurate run."""

    cycles: int
    time_ps: int
    instructions: int
    output: str
    memory: Dict[int, int]
    global_regs: List[int]
    stats: Stats
    program: Program

    def read_global(self, name: str, **kw):
        return self.program.read_global(name, self.memory, **kw)

    @property
    def instruction_counts(self) -> Dict[str, int]:
        return self.stats.group("instructions")


class Machine:
    """All cycle-accurate components wired to one functional model."""

    def __init__(self, program: Program, config: Optional[XMTConfig] = None,
                 plugins=(), trace=None, observability=None):
        self.program = program
        self.config = config or fpga64()
        self.config.validate()
        cfg = self.config
        program.check_stack_room(cfg.stack_top)
        self._bind_decode()

        self.scheduler = Scheduler()
        self.memory = Memory(program.data_image)
        self.global_regs: List[int] = [0] * NUM_GLOBAL_REGS
        for index, value in program.greg_init.items():
            self.global_regs[index] = value
        self.stats = Stats()
        self.output: List[str] = []
        #: the one observation attach point: every consumer (traces,
        #: events, metrics, profiler, flight recorder, accountant) is a
        #: subscriber on it; None keeps every probe site on its
        #: one-attribute-test fast path
        self.obs = observability
        self.domains: Dict[str, ClockDomain] = {}
        self.listeners_changed()
        if self.obs is not None:
            self.obs.attach(self)
        self.halted = False
        self.halt_time = 0
        self._started = False
        self.parallel_active = False
        self.last_progress = 0
        self._inbox_seq = 0

        # components -- every Fig. 1 box is a fabric backend resolved by
        # name from the registry (config strings pick implementations)
        self.master = MasterTCU(self)
        self.clusters = [Cluster(self, i) for i in range(cfg.n_clusters)]
        self.cluster_bank = ClusterBank(self, self.clusters)
        self.tcus = self.cluster_bank.tcus
        self.cache_modules = [CacheModule(self, i) for i in range(cfg.n_cache_modules)]
        self.cache_bank = CacheBank(self, self.cache_modules)
        #: address -> cache-module placement backend
        self.cache_router = create_backend("cache_layout", cfg.cache_layout, self)
        #: DRAM subsystem backend; its port list is re-exposed as
        #: ``dram_ports`` (fault injection / telemetry / power read it)
        self.dram = create_backend("dram", cfg.dram_backend, self)
        self.dram_ports = self.dram.ports
        self.send_ports = [c.send_queue for c in self.clusters] + [self.master.send_queue]
        self.icn = create_backend("icn", cfg.icn_backend, self)
        self.ps_unit = PrefixSumUnit(self)
        self.spawn_unit = SpawnUnit(self)

        self.master.core.pc = program.entry
        self.master.core.write(REG_SP, cfg.stack_top)

        # clock domains (components iterate in priority order within a tick)
        self._build_domains()
        # the network's port wake-ups arm the domain it has just joined
        self.icn.hook_ports()

        # plug-ins (a trace is a consumer like any filter plug-in)
        self.activity_plugins = []
        if trace is not None:
            self.add_plugin(trace)
        for plugin in plugins:
            self.add_plugin(plugin)

        # deferred import: resilience builds on the machine/checkpoint layer
        from repro.sim.resilience.watchdog import Watchdog

        self._watchdog = Watchdog(self)

    # -- construction ------------------------------------------------------------

    def _bind_decode(self) -> None:
        """(Re)derive the shared decode of the program: left behind by
        checkpoints (:meth:`__getstate__`) and rebuilt on restore."""
        #: the text segment and its blocks, read-only across the Master
        #: and all TCUs
        self.decoded = decode_program(self.program)
        cfg = self.config
        #: the block table processors chain runs from; None when an ALU
        #: op costs more than one issue slot (then nothing is a block)
        self.blocks = (self.decoded.blocks(cfg.branch_latency == 1)
                       if cfg.alu_latency == 1 else None)
        #: the blocks a run may start at (the rest are only chained into)
        self.run_starts = (self.blocks.run_starts(RUN_MIN)
                           if self.blocks is not None else None)

    def __getstate__(self):
        """What a checkpoint holds: everything but what only a live
        process can (whoever restores puts those back, MANUAL 4.4)."""
        state = self.__dict__.copy()
        # observation consumers and plug-ins hold open files and
        # closures.  (Package ``rec`` stamps are plain tuples and
        # stay: the restored machine just stops appending to them until
        # a recorder is subscribed again)
        state.update(obs=None, activity_plugins=[])
        # the decode holds generated functions, and is derived state:
        # ``load_bytes`` rebuilds it from the program
        state.update(decoded=None, blocks=None, run_starts=None)
        return state

    def _build_domains(self) -> None:
        cfg = self.config
        cluster_components = [self.master, self.cluster_bank,
                              self.spawn_unit, self.ps_unit]
        groups = [
            ("clusters", cfg.cluster_period, PRIO_CLUSTERS, cluster_components),
            ("cache", cfg.cache_period, PRIO_CACHE, [self.cache_bank]),
            ("dram", cfg.dram_period, PRIO_DRAM, self.dram.components()),
        ]
        if not self.icn.clocked:
            # a clockless network (e.g. the asynchronous MoT) reacts
            # whenever producers do, so it polls at the cluster rate and
            # is immune to any "icn" domain retiming
            cluster_components.append(self.icn)
        else:
            groups.insert(1, ("icn", cfg.icn_period, PRIO_ICN, [self.icn]))
        merge = cfg.merge_clock_domains
        domain_of_period: Dict[int, ClockDomain] = {}
        for name, period, priority, components in groups:
            if merge and period in domain_of_period:
                domain = domain_of_period[period]
            else:
                domain = ClockDomain(name, period, priority)
                if merge:
                    domain_of_period[period] = domain
            for comp in components:
                domain.add(comp)
                comp.domain = domain
            self.domains[name] = domain
        # clusters and cache modules live behind their bank macro-actors
        # but still need their domain for latency conversion
        for unit in self.clusters + self.tcus:
            unit.domain = self.domains["clusters"]
        for module in self.cache_modules:
            module.domain = self.domains["cache"]
        self.dram.domain = self.domains["dram"]

    def add_plugin(self, plugin) -> None:
        """Register an activity or filter plug-in (Section III-B).

        An activity plug-in (one with ``sample``) is scheduled; added
        after the machine started (e.g. re-registered on a checkpoint
        resume), at once.  Anything else -- a filter plug-in hearing
        ``committed``, a trace -- is a consumer subscribed on
        :attr:`obs`, made here if the machine had none.
        """
        if hasattr(plugin, "sample"):
            self.activity_plugins.append(plugin)
            if self._started:
                plugin.on_start(self, self.scheduler)
            return
        if self.obs is None:
            from repro.sim.observability import Observability

            self.obs = Observability()
            self.obs.attach(self)
        self.obs.subscribe(plugin)

    # -- component callbacks --------------------------------------------------------

    def note_progress(self) -> None:
        self.last_progress = self.scheduler.now

    def emit_output(self, text: str) -> None:
        self.output.append(text)

    def deliver_to_tcu(self, tcu_id: int, time: int, pkg) -> None:
        target = self.master if tcu_id < 0 else self.tcus[tcu_id]
        target.deliver(time, pkg)

    def deliver_response(self, now: int, pkg) -> None:
        """ICN return network hands a response to its destination."""
        if pkg.tcu_id < 0:
            self.master.deliver(now, pkg)
        else:
            if pkg.kind == "ro_fill":
                self.clusters[pkg.cluster_id].ro_cache.fill(pkg.addr)
            self.tcus[pkg.tcu_id].deliver(now, pkg)
        if self.obs is not None:
            self.obs.replied(pkg, now)

    # -- spawn/join orchestration -------------------------------------------------------

    def enter_parallel(self) -> None:
        self.parallel_active = True

    def release_tcus(self, region, master_regs) -> None:
        self.cluster_bank.start_region(region, master_regs)

    def listeners_changed(self) -> None:
        """Re-read the listener rule (DESIGN 1.2 invariant 4) -- nobody
        takes a run while ``issued`` has a listener -- and give every
        domain an edge to act on it.  ``Observability`` calls this
        whenever its subscriber list or its machine changes."""
        obs = self.obs
        self.runs_ok = self.blocks is not None and (
            obs is None or not obs.has_listener("issued"))
        for domain in self.domains.values():
            domain.arm(0)

    def settle(self) -> None:
        """Credit every processor that is not being ticked what it has
        skipped so far: stall cycles to a sleeper (and to ``stalled``
        listeners), executed instructions to one inside a run.  Both
        are credited lazily (on wake), so anything that reads ``stats``
        or a register file while the machine is mid-flight, retimes or
        gates a domain, or starts listening calls this first."""
        cycle = self.domains["clusters"].cycle
        self.master.settle(cycle)
        for tcu in self.tcus:
            tcu.settle(cycle)

    def occupancy(self) -> Tuple[dict, dict, dict]:
        """Queue occupancy per layer, ``(icn, caches, dram)``: the
        network's own snapshot plus its ``send_ports``, and the sums
        over the cache modules and over the DRAM ports (what telemetry
        gauges and diagnostic dumps report).  Counts add, per-slot lists
        (a banked DRAM port's ``banks``) add slot by slot; a backend may
        report ``{}``, so readers default a missing key to 0."""
        icn = dict(self.icn.occupancy())
        icn["send_ports"] = sum(len(port) for port in self.send_ports)
        caches: Dict[str, object] = {}
        dram: Dict[str, object] = {}
        for total, parts in ((caches, self.cache_modules),
                             (dram, self.dram_ports)):
            for part in parts:
                for key, value in part.occupancy().items():
                    if isinstance(value, list):
                        total[key] = [a + b for a, b in zip_longest(
                            total.get(key, ()), value, fillvalue=0)]
                    else:
                        total[key] = total.get(key, 0) + value
        return icn, caches, dram

    def finish_spawn(self, resume_time: int, region) -> None:
        """All TCUs parked: end parallel mode, resume the Master."""
        self.parallel_active = False
        for cluster in self.clusters:
            cluster.invalidate_caches()
        self.master.cache.invalidate()
        self.master.deliver(resume_time, ("resume", region.join_index + 1))
        self.stats.inc("spawn.joined")
        if self.obs is not None:
            self.obs.spawn_ended(region, resume_time)

    def halt(self, now: int) -> None:
        self.halted = True
        self.halt_time = now
        self.scheduler.stop()

    # -- DVFS hooks used by activity plug-ins --------------------------------------------

    def set_domain_scale(self, name: str, scale: float) -> None:
        """Scale a clock domain's frequency (1.0 = nominal)."""
        if name == "icn" and not self.icn.clocked:
            return  # no ICN clock to scale; that is the point of async
        base = {
            "clusters": self.config.cluster_period,
            "icn": self.config.icn_period,
            "cache": self.config.cache_period,
            "dram": self.config.dram_period,
        }[name]
        self.settle()  # a ranged ``stalled`` call never straddles a retiming
        self.domains[name].set_frequency_scale(base, scale)

    # -- running ---------------------------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        started = set()
        for domain in self.domains.values():
            if id(domain) not in started:
                domain.start(self.scheduler)
                started.add(id(domain))
        self._watchdog.arm(self.scheduler)
        for plugin in self.activity_plugins:
            plugin.on_start(self, self.scheduler)

    def _arm_guards(self, wall_limit_s: Optional[float] = None,
                    max_events: Optional[int] = None) -> None:
        """(Re)start the watchdog's wall-clock/event budgets for a run."""
        self._watchdog.begin_run(self.scheduler, wall_limit_s, max_events)
        self.scheduler.check_hook = self._watchdog.check_budgets

    def run(self, max_cycles: Optional[int] = None,
            allow_timeout: bool = False,
            wall_limit_s: Optional[float] = None,
            max_events: Optional[int] = None) -> CycleResult:
        """Run to completion.

        Raises :class:`~repro.sim.resilience.errors.SimulationStalled`
        on deadlock/event starvation and :class:`~repro.sim.resilience.
        errors.SimulationBudgetExceeded` when the cycle, wall-clock or
        event budget trips (both carry a diagnostic dump and subclass
        ``SimulationError``).
        """
        self.start()
        self._arm_guards(wall_limit_s, max_events)
        limit = max_cycles if max_cycles is not None else self.config.max_cycles
        deadline = None if limit is None else limit * self.config.cluster_period
        try:
            self.scheduler.run(until=deadline)
        except SimulationError as exc:
            if getattr(exc, "dump", None) is not None:
                # a guard's dump is taken inside the event loop, before
                # the loop adds this run's events to the scheduler's count
                exc.dump.events_processed = self.scheduler.events_processed
            raise
        if not self.halted:
            from repro.sim.resilience.diagnostics import collect
            from repro.sim.resilience.errors import (
                SimulationBudgetExceeded, SimulationStalled)

            if self.scheduler.pending == 0:
                raise SimulationStalled(
                    "stalled: event list drained but the machine never "
                    "halted", collect(self, "event list drained"))
            if not allow_timeout:
                raise SimulationBudgetExceeded(
                    f"simulation exceeded {limit} cycles without halting",
                    collect(self, "cycle budget exceeded"))
            self.halt_time = self.scheduler.now
        return self._finalize()

    def _finalize(self) -> CycleResult:
        """End-of-run bookkeeping: settle the sleepers, finish the
        plug-ins and fold the counters into a :class:`CycleResult`."""
        self.settle()  # a timed-out run can end with TCUs still asleep
        for plugin in self.activity_plugins:
            plugin.finish(self)
        cycles = self.halt_time // self.config.cluster_period
        self.stats.counters["cycles"] = cycles
        return CycleResult(
            cycles=cycles,
            time_ps=self.halt_time,
            instructions=self.stats.instruction_total(),
            output="".join(self.output),
            memory=self.memory.words,
            global_regs=list(self.global_regs),
            stats=self.stats,
            program=self.program,
        )


class Simulator:
    """User-facing facade: cycle-accurate simulation of a program.

    >>> sim = Simulator(program, fpga64())
    >>> result = sim.run()
    >>> result.cycles, result.output
    """

    def __init__(self, program: Program, config: Optional[XMTConfig] = None,
                 plugins=(), trace=None, observability=None):
        self.machine = Machine(program, config, plugins=plugins, trace=trace,
                               observability=observability)

    @property
    def config(self) -> XMTConfig:
        return self.machine.config

    @property
    def stats(self) -> Stats:
        return self.machine.stats

    def run(self, max_cycles: Optional[int] = None,
            allow_timeout: bool = False,
            wall_limit_s: Optional[float] = None,
            max_events: Optional[int] = None) -> CycleResult:
        return self.machine.run(max_cycles=max_cycles,
                                allow_timeout=allow_timeout,
                                wall_limit_s=wall_limit_s,
                                max_events=max_events)
