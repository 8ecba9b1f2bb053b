"""Phase sampling (Section III-F, "Features under Development").

"Programs with very long execution times usually consist of multiple
phases where each phase is a set of intervals that have similar behavior
[SimPoint].  An extension to the XMT system can be tested by running the
cycle-accurate simulation for a few intervals on each phase and
fast-forwarding in-between.  Fast-forwarding can be done by switching to
a fast mode that will estimate the state of the simulator if it were run
in the cycle-accurate mode."

XMT programs expose their phase structure syntactically: the repeated
unit is the spawn region (BFS rounds, scan rounds, solver iterations all
loop over spawns of the same site).  The sampler therefore works at
spawn-site granularity:

- the first ``warmup`` executions of each spawn site (text index of its
  ``spawn`` instruction) run fully cycle-accurately, and every
  ``resample_every``-th execution thereafter re-samples (phases drift);
- all other executions *fast-forward*: the region's virtual threads run
  through the shared functional model (so memory, prefix-sum registers
  and program output stay exact -- the architectural state really is
  "the state if it were run in cycle-accurate mode"), and the Master is
  stalled for the estimated duration, computed from the sampled
  cycles-per-virtual-thread of that site scaled to this execution's
  thread count.

The result is exact final state with approximate (but phase-calibrated)
cycle counts, at a large host-time speedup for spawn-loop-heavy programs
-- reproducing the SimPoint-style trade-off the paper sketches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.isa.program import Program
from repro.sim.config import XMTConfig
from repro.sim.functional import FunctionalSimulator
from repro.sim.machine import CycleResult, Machine, Simulator


@dataclass
class _SiteStats:
    sampled_runs: int = 0
    executions: int = 0
    #: per-virtual-thread cycles, exponentially averaged over samples
    cycles_per_thread: float = 0.0
    skipped: int = 0
    estimated_cycles: int = 0


class PhaseSampler:
    """Decides, per spawn execution, to measure or to fast-forward."""

    def __init__(self, warmup: int = 3, resample_every: int = 50,
                 ewma: float = 0.3):
        self.warmup = warmup
        self.resample_every = resample_every
        self.ewma = ewma
        self.sites: Dict[int, _SiteStats] = {}
        # live measurement bookkeeping
        self._measuring: Optional[int] = None
        self._start_time = 0
        self._threads = 0

    def site(self, spawn_index: int) -> _SiteStats:
        stats = self.sites.get(spawn_index)
        if stats is None:
            stats = self.sites[spawn_index] = _SiteStats()
        return stats

    # -- decision ------------------------------------------------------------

    def should_sample(self, spawn_index: int) -> bool:
        stats = self.site(spawn_index)
        stats.executions += 1
        if stats.sampled_runs < self.warmup:
            return True
        return (stats.executions % self.resample_every) == 0

    def estimate_ps(self, spawn_index: int, n_threads: int,
                    period: int) -> int:
        stats = self.site(spawn_index)
        cycles = stats.cycles_per_thread * max(0, n_threads)
        estimate = max(1, int(round(cycles)))
        stats.skipped += 1
        stats.estimated_cycles += estimate
        return estimate * period

    # -- measurement ---------------------------------------------------------------

    def begin_measure(self, spawn_index: int, now: int, n_threads: int) -> None:
        self._measuring = spawn_index
        self._start_time = now
        self._threads = n_threads

    def end_measure(self, spawn_index: int, now: int, period: int) -> None:
        if self._measuring != spawn_index:
            return
        self._measuring = None
        cycles = (now - self._start_time) / period
        stats = self.site(spawn_index)
        # the whole cost is per-thread work: the estimate is linear in
        # the thread count, through the origin
        per_thread = cycles / max(1, self._threads)
        if stats.sampled_runs <= 1:
            # overwrite (don't average) through the second sample: the
            # first execution of a site pays cold-cache costs that do
            # not represent the steady phase
            stats.cycles_per_thread = per_thread
        else:
            a = self.ewma
            stats.cycles_per_thread = (
                (1 - a) * stats.cycles_per_thread + a * per_thread)
        stats.sampled_runs += 1

    # -- reporting ------------------------------------------------------------------

    def report(self) -> str:
        lines = ["phase sampler: per-spawn-site summary"]
        for index in sorted(self.sites):
            s = self.sites[index]
            lines.append(
                f"  site @{index}: {s.executions} executions, "
                f"{s.sampled_runs} sampled, {s.skipped} fast-forwarded, "
                f"cpv={s.cycles_per_thread:.2f}")
        return "\n".join(lines)


class SampledSimulator(Simulator):
    """Cycle-accurate simulator with spawn-site phase sampling."""

    def __init__(self, program: Program, config: Optional[XMTConfig] = None,
                 sampler: Optional[PhaseSampler] = None, **kw):
        super().__init__(program, config, **kw)
        self.sampler = sampler or PhaseSampler()
        self.machine.sampler = self.sampler
        self.machine.sampler_exec = FunctionalSimulator.attached(
            program, self.machine.memory, self.machine.global_regs,
            self.machine.output)
