"""Deterministic fault injection: planned transient faults at named sites.

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

Everything is seed-driven: a fault ``site@cycle:seed`` picks the same
victim (TCU, register, bit, package, port) every time, and -- the
simulator being deterministic -- the run ends the same way run-to-run,
which is why ``xmtsim --inject`` records its faults in the run's
manifest as part of the run's identity.  Injection events are
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
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.sim.engine import Actor, PRIO_PLUGIN
from repro.sim.plugins import ActivityPlugin

#: all injection-site names, in canonical order
SITES = ("tcu.reg", "cache.line", "icn.drop", "icn.dup", "icn.delay",
         "dram.stall")


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

    def __str__(self) -> str:
        """The canonical ``site@cycle:seed`` text, which
        :func:`parse_fault_spec` reads back."""
        return f"{self.site}@{self.cycle}:{self.seed}"


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

    Transient by design: stripped from checkpoints, so a run resumed
    from a checkpoint does not replay the fault.
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
