"""Deterministic fault injection: single faults and seeded campaigns.

Transient faults are injected at named **sites** -- the hooks live on
the components themselves (``inject_register_flip`` on the processors,
``corrupt_line`` on cache modules, ``drop/duplicate/delay_in_flight`` on
the ICN, ``inject_stall`` on DRAM ports):

==============  ========================================================
site            effect
==============  ========================================================
``tcu.reg``     flip one bit of an architectural register of a (prefer-
                ably active) TCU or the Master
``cache.line``  flip one bit of a word on a resident cache line (falls
                back to a random initialized memory word)
``icn.drop``    lose one in-flight ICN package (responses preferred --
                the classic silent-hang fault)
``icn.dup``     re-deliver a copy of an in-flight ICN package
``icn.delay``   push one in-flight ICN package's arrival time out
``dram.stall``  a DRAM port ignores all traffic for a while (timeout)
==============  ========================================================

Everything is seed-driven: a campaign with the same seed plans the same
(site, cycle, detail) sequence and -- the simulator being deterministic
-- produces the identical report run-to-run.  Injection events are
marked ``checkpoint_transient``, so checkpoints never capture a planned
fault: a run resumed from a checkpoint taken before the injection point
never sees it, which is exactly the semantics of a *transient* fault.

The injector rides the existing activity plug-in mechanism
(:meth:`~repro.sim.machine.Machine.add_plugin`): its ``on_start``
schedules the injections at exact simulated times in place of the
interval sample.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.sim.engine import Actor, PRIO_PLUGIN
from repro.sim.functional import SimulationError
from repro.sim.plugins import ActivityPlugin
from repro.sim.resilience.errors import (
    SimulationBudgetExceeded,
    SimulationStalled,
)

#: all injection-site names, in canonical order
SITES = ("tcu.reg", "cache.line", "icn.drop", "icn.dup", "icn.delay",
         "dram.stall")

#: campaign outcome classes, in report order
OUTCOMES = ("masked", "wrong-output", "crashed", "hung")


@dataclass
class FaultSpec:
    """One planned transient fault."""

    site: str
    cycle: int
    #: seed of the per-fault detail RNG (which TCU/register/bit/...)
    seed: int = 0

    def __post_init__(self):
        if self.site not in SITES:
            raise ValueError(
                f"unknown injection site {self.site!r}; "
                f"choose from {', '.join(SITES)}")
        if self.cycle < 0:
            raise ValueError("injection cycle must be >= 0")


def parse_fault_spec(text: str) -> FaultSpec:
    """Parse the CLI syntax ``site@cycle[:seed]``."""
    if "@" not in text:
        raise ValueError(
            f"bad fault spec {text!r}: expected site@cycle[:seed]")
    site, _, rest = text.partition("@")
    seed = 0
    if ":" in rest:
        rest, _, seed_text = rest.partition(":")
        seed = int(seed_text, 0)
    return FaultSpec(site.strip(), int(rest, 0), seed)


class _InjectionActor(Actor):
    """Fires one planned fault at its exact simulated time.

    Transient by design: stripped from checkpoints, so a rolled-back
    run does not replay the fault.
    """

    checkpoint_transient = True

    def __init__(self, machine, injector: "FaultInjector", spec: FaultSpec):
        self.machine = machine
        self.injector = injector
        self.spec = spec

    def notify(self, scheduler, time_ps, arg):
        if self.machine.halted:
            return
        self.injector.fire(self.machine, time_ps, self.spec)


class FaultInjector(ActivityPlugin):
    """Activity plug-in that injects a list of planned faults."""

    def __init__(self, faults: Sequence[FaultSpec]):
        super().__init__()
        self.faults = sorted(faults, key=lambda s: (s.cycle, s.site, s.seed))
        #: ``(site, cycle, description)`` per fault actually applied
        self.log: List[Tuple[str, int, str]] = []

    def on_start(self, machine, scheduler) -> None:
        """Books every planned fault instead of an interval sample."""
        period = machine.config.cluster_period
        for spec in self.faults:
            when = max(spec.cycle * period, scheduler.now)
            scheduler.schedule_at(when, _InjectionActor(machine, self, spec),
                                  PRIO_PLUGIN)

    # -- the injection dispatch ------------------------------------------------

    def fire(self, machine, now: int, spec: FaultSpec) -> str:
        rng = random.Random(spec.seed)
        description = _DISPATCH[spec.site](machine, now, rng)
        self.log.append((spec.site, spec.cycle, description))
        return description


def _inject_tcu_reg(machine, now, rng) -> str:
    processors = [machine.master] + list(machine.tcus)
    active = [p for p in processors if p.active] or processors
    proc = active[rng.randrange(len(active))]
    reg = rng.randrange(1, len(proc.core.regs))
    bit = rng.randrange(32)
    old, new = proc.inject_register_flip(reg, bit)
    name = "master" if proc.tcu_id < 0 else f"tcu{proc.tcu_id}"
    return f"{name} r{reg} bit{bit}: {old:#x} -> {new:#x}"


def _inject_cache_line(machine, now, rng) -> str:
    modules = [m for m in machine.cache_modules if m.array.occupancy()]
    if modules:
        module = modules[rng.randrange(len(modules))]
        corrupted = module.corrupt_line(rng)
        if corrupted is not None:
            addr, bit = corrupted
            return f"module{module.module_id} word {addr:#x} bit{bit}"
    # no resident lines yet: corrupt a random initialized memory word
    addrs = sorted(machine.memory.words)
    if not addrs:
        return "no-op (nothing to corrupt)"
    addr = addrs[rng.randrange(len(addrs))]
    bit = rng.randrange(32)
    old = machine.memory.load(addr)
    machine.memory.store(addr, old ^ (1 << bit))
    return f"memory word {addr:#x} bit{bit}"


def _describe_pkg(pkg) -> str:
    """Stable package description (the global ``seq`` counter differs
    between otherwise identical runs, so reports must not include it)."""
    who = "master" if pkg.tcu_id < 0 else f"tcu{pkg.tcu_id}"
    return f"{pkg.kind} {who} addr={pkg.addr:#x}"


def _inject_icn_drop(machine, now, rng) -> str:
    pkg = machine.icn.drop_in_flight(rng)
    if pkg is None:
        return "no-op (icn idle)"
    return f"dropped {_describe_pkg(pkg)}"


def _inject_icn_dup(machine, now, rng) -> str:
    pkg = machine.icn.duplicate_in_flight(rng)
    if pkg is None:
        return "no-op (icn idle)"
    return f"duplicated {_describe_pkg(pkg)}"


def _inject_icn_delay(machine, now, rng) -> str:
    extra = rng.randrange(50, 500) * machine.config.cluster_period
    pkg = machine.icn.delay_in_flight(rng, extra)
    if pkg is None:
        return "no-op (icn idle)"
    return f"delayed {_describe_pkg(pkg)} by {extra} ps"


def _inject_dram_stall(machine, now, rng) -> str:
    port = machine.dram_ports[rng.randrange(len(machine.dram_ports))]
    duration = rng.randrange(200, 2000) * machine.config.dram_period
    port.inject_stall(now, duration)
    return f"port{port.port_id} stalled for {duration} ps"


_DISPATCH: Dict[str, Callable] = {
    "tcu.reg": _inject_tcu_reg,
    "cache.line": _inject_cache_line,
    "icn.drop": _inject_icn_drop,
    "icn.dup": _inject_icn_dup,
    "icn.delay": _inject_icn_delay,
    "dram.stall": _inject_dram_stall,
}

# -- campaigns ----------------------------------------------------------------


@dataclass
class InjectionRecord:
    """Outcome of one injection run."""

    index: int
    site: str
    cycle: int
    outcome: str          # one of OUTCOMES
    detail: str = ""      # what was actually corrupted
    error: str = ""       # first line of the error, for crashed/hung

    def format(self) -> str:
        line = (f"#{self.index:03d} {self.site}@{self.cycle}: "
                f"{self.outcome}")
        if self.detail:
            line += f"  [{self.detail}]"
        if self.error:
            line += f"  ({self.error})"
        return line


@dataclass
class CampaignReport:
    """Aggregated, deterministic campaign result."""

    seed: int
    injections: int
    golden_cycles: int
    counts: Dict[str, int] = field(default_factory=dict)
    records: List[InjectionRecord] = field(default_factory=list)

    def format(self, verbose: bool = True) -> str:
        lines = [f"fault-injection campaign: {self.injections} injections, "
                 f"seed {self.seed}, golden run {self.golden_cycles} cycles"]
        lines.append("  " + "  ".join(
            f"{name}: {self.counts.get(name, 0)}" for name in OUTCOMES))
        if verbose:
            lines += ["  " + record.format() for record in self.records]
        return "\n".join(lines)


def _normalized(memory: Dict[int, int]) -> Dict[int, int]:
    """Memory comparison ignores explicit zero stores (absent == 0)."""
    return {addr: value for addr, value in memory.items() if value}


def _record_injected_run(ledger, machine, *, seed: int, wall: float,
                         fault: Optional[Dict[str, object]],
                         cycles: int, instructions: int,
                         label: str) -> None:
    """Ledger entry for one campaign run, fault spec in the manifest.

    The fault spec is an *identity* field: an injected run never
    collides with (or cache-hits as) a clean run of the same program,
    and ``xmt-compare list`` can tell the two apart.
    """
    from repro.sim.observability.ledger import build_manifest

    extra = {"fault": fault} if fault is not None else None
    manifest = build_manifest(
        machine.program, machine.config, cycles=cycles,
        instructions=instructions, wall_seconds=wall,
        seed=seed, label=label, extra=extra)
    ledger.record(manifest)


def run_campaign(machine_factory: Callable[[], "object"],
                 n_injections: int,
                 seed: int,
                 sites: Sequence[str] = SITES,
                 max_cycles: Optional[int] = None,
                 ledger: Optional[object] = None) -> CampaignReport:
    """Run a seeded fault-injection campaign.

    ``machine_factory`` must build a *fresh, identical* machine on every
    call (same program, same configuration).  The first build runs clean
    to produce the golden reference; each subsequent build gets exactly
    one planned fault and is classified as ``masked`` (completed, output
    and memory match the golden run), ``wrong-output`` (completed,
    diverged), ``crashed`` (raised a simulation error) or ``hung``
    (watchdog or budget trip).

    Identical ``seed`` -> identical plan -> identical report, because
    the simulator itself is deterministic.

    When a :class:`~repro.sim.observability.ledger.Ledger` is given,
    the golden run and every injected run are recorded with the fault
    spec and outcome embedded in the manifest.
    """
    import time as _time

    for site in sites:
        if site not in SITES:
            raise ValueError(f"unknown injection site {site!r}")
    golden_machine = machine_factory()
    start = _time.perf_counter()
    golden = golden_machine.run(max_cycles=max_cycles)
    if ledger is not None:
        _record_injected_run(
            ledger, golden_machine, seed=seed,
            wall=_time.perf_counter() - start, fault=None,
            cycles=golden.cycles, instructions=golden.instructions,
            label=f"campaign-golden seed={seed}")
    golden_memory = _normalized(golden.memory)

    limit = max_cycles
    if limit is None:
        # leave room for delay faults, but bound hung runs
        limit = max(golden.cycles * 4, golden.cycles + 20_000)

    rng = random.Random(seed)
    records: List[InjectionRecord] = []
    counts = {name: 0 for name in OUTCOMES}
    for index in range(n_injections):
        site = sites[rng.randrange(len(sites))]
        cycle = rng.randrange(1, max(2, golden.cycles))
        detail_seed = rng.getrandbits(31)
        machine = machine_factory()
        injector = FaultInjector([FaultSpec(site, cycle, detail_seed)])
        machine.add_plugin(injector)
        detail = ""
        error = ""
        start = _time.perf_counter()
        result = None
        try:
            result = machine.run(max_cycles=limit)
        except (SimulationStalled, SimulationBudgetExceeded) as exc:
            outcome = "hung"
            error = str(exc).splitlines()[0]
        except SimulationError as exc:
            outcome = "crashed"
            error = str(exc).splitlines()[0]
        else:
            same = (result.output == golden.output
                    and _normalized(result.memory) == golden_memory)
            outcome = "masked" if same else "wrong-output"
        if injector.log:
            detail = injector.log[0][2]
        counts[outcome] += 1
        records.append(InjectionRecord(index, site, cycle, outcome,
                                       detail, error))
        if ledger is not None:
            period = machine.config.cluster_period
            _record_injected_run(
                ledger, machine, seed=seed,
                wall=_time.perf_counter() - start,
                fault={"site": site, "cycle": cycle, "seed": detail_seed,
                       "outcome": outcome, "detail": detail},
                cycles=(result.cycles if result is not None
                        else machine.scheduler.now // period),
                instructions=machine.stats.instruction_total(),
                label=f"fault #{index:03d} {site}@{cycle}")
    return CampaignReport(seed=seed, injections=n_injections,
                          golden_cycles=golden.cycles,
                          counts=counts, records=records)
