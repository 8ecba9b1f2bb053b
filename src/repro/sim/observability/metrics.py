"""Metrics registry: counters, gauges and histograms over the raw stats.

:class:`~repro.sim.stats.Stats` keeps flat integer counters; this layer
adds the two shapes counters cannot express --

- **gauges**: instantaneous levels with a high-water mark (queue
  occupancies in the ICN, cache modules and DRAM ports), and
- **histograms**: bucketed distributions (memory-request latency per
  cache module, computed from ``pkg.issue_time`` when the reply reaches
  its TCU)

-- plus per-spawn-region cycle rollups, and one machine-readable JSON
export (``metrics.json`` of an ``xmtsim --out`` run directory)
covering all of them alongside the plain counters, so architectural
studies diff runs without scraping text reports.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, List, Optional, Tuple

from repro.sim.observability.artifacts import schema_of

#: default geometric bucket bounds (values in *cycles*): 1, 2, 4, ...
DEFAULT_BOUNDS = tuple(2 ** k for k in range(15))


class Histogram:
    """Bucketed distribution with count/sum/min/max.

    ``bounds`` are inclusive upper bucket edges; one implicit overflow
    bucket catches everything beyond the last edge.  An observation is
    one increment on a value -> count ``tally`` (the hot probes bump it
    in place); the buckets, ``count``, ``sum``, ``min`` and ``max`` are
    derived from it when read, so memory is bounded by the number of
    distinct values observed (latencies in cycles: a few hundred).
    """

    __slots__ = ("bounds", "tally")

    def __init__(self, bounds=DEFAULT_BOUNDS):
        if list(bounds) != sorted(bounds) or not bounds:
            raise ValueError("histogram bounds must be non-empty and sorted")
        self.bounds = tuple(bounds)
        self.tally: Dict[Any, int] = {}

    def observe(self, value) -> None:
        tally = self.tally
        tally[value] = tally.get(value, 0) + 1

    @property
    def counts(self) -> List[int]:
        bounds = self.bounds
        counts = [0] * (len(bounds) + 1)
        for value, n in self.tally.items():
            counts[bisect_left(bounds, value)] += n
        return counts

    @property
    def count(self) -> int:
        return sum(self.tally.values())

    @property
    def sum(self):
        return sum(value * n for value, n in self.tally.items())

    @property
    def min(self):
        return min(self.tally) if self.tally else None

    @property
    def max(self):
        return max(self.tally) if self.tally else None

    @property
    def mean(self) -> float:
        count = self.count
        return self.sum / count if count else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {"bounds": list(self.bounds), "counts": self.counts,
                "count": self.count, "sum": self.sum,
                "min": self.min, "max": self.max,
                "mean": round(self.mean, 3)}

    def percentile(self, q: float):
        """Estimated q-th percentile (see :func:`histogram_percentile`)."""
        return histogram_percentile(self.to_dict(), q)


def histogram_percentile(hist: Dict[str, Any], q: float):
    """Estimate the q-th percentile (0..100) of an exported histogram.

    Buckets only record counts, so the estimate is the upper edge of the
    bucket holding the nearest-rank sample, clamped to the observed
    min/max (the overflow bucket reports the observed max).  Good enough
    for bottleneck reports; exact values come from the raw samples.
    """
    count = hist.get("count", 0)
    if not count:
        return 0
    bounds = hist["bounds"]
    counts = hist["counts"]
    lo = hist.get("min")
    hi = hist.get("max")
    target = max(1, min(count, int(count * q / 100.0 + 0.5)))
    seen = 0
    for i, c in enumerate(counts):
        seen += c
        if seen >= target:
            edge = bounds[i] if i < len(bounds) else hi
            if hi is not None and (edge is None or edge > hi):
                edge = hi
            if lo is not None and edge < lo:
                edge = lo
            return edge
    return hi


class Gauge:
    """An instantaneous level plus its high-water mark."""

    __slots__ = ("value", "max")

    def __init__(self):
        self.value = 0
        self.max = 0

    def set(self, value) -> None:
        self.value = value
        if value > self.max:
            self.max = value

    def to_dict(self) -> Dict[str, Any]:
        return {"value": self.value, "max": self.max}


class MetricsRegistry:
    """Named gauges/histograms/counters plus spawn-region rollups."""

    def __init__(self):
        self.histograms: Dict[str, Histogram] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.counters: Dict[str, int] = {}
        #: spawn_index -> {"src_line", "count", "cycles"}
        self.spawn_regions: Dict[int, Dict[str, int]] = {}
        #: spawn_index -> begin time of the in-flight region
        self._spawn_begin: Dict[int, int] = {}
        self._program = None
        self._period = 1
        #: what a probe updates, resolved by name on its first event
        #: (the gauges and histograms are still made then, not before):
        #: the ICN's two gauges, and per cache module, DRAM port or reply
        #: module (-1: none) its gauges or its latency histograms' tallies
        self._icn: Optional[Tuple[Gauge, Gauge]] = None
        self._cache: Dict[int, Tuple[Gauge, Gauge]] = {}
        self._dram: Dict[int, Tuple[Gauge, Gauge]] = {}
        self._latency: Dict[int, Tuple[Dict[int, int], ...]] = {}

    # -- accessors (get-or-create) ------------------------------------------

    def histogram(self, name: str, bounds=DEFAULT_BOUNDS) -> Histogram:
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram(bounds)
        return h

    def gauge(self, name: str) -> Gauge:
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge()
        return g

    # -- probes (see repro.sim.observability.core.PROBES) --------------------

    def attached(self, machine) -> None:
        self._program = machine.program
        self._period = machine.config.cluster_period

    def _gauges(self, prefix: str, *names: str) -> Tuple[Gauge, ...]:
        return tuple(self.gauge(prefix + name) for name in names)

    def icn_ticked(self, in_flight_send: int, in_flight_return: int) -> None:
        gauges = self._icn
        if gauges is None:
            gauges = self._icn = self._gauges(
                "icn.in_flight_", "send", "return")
        gauges[0].set(in_flight_send)
        gauges[1].set(in_flight_return)

    def cache_dequeued(self, module, pkg, now: int, outcome: str) -> None:
        gauges = self._cache.get(module.module_id)
        if gauges is None:
            gauges = self._cache[module.module_id] = self._gauges(
                "cache.m%02d." % module.module_id, "in_queue", "out_queue")
        gauges[0].set(len(module.in_queue))
        gauges[1].set(len(module.out_queue))

    def dram_accepted(self, port, module, line: int, now: int, ready: int,
                      writeback: bool) -> None:
        gauges = self._dram.get(port.port_id)
        if gauges is None:
            gauges = self._dram[port.port_id] = self._gauges(
                "dram.p%d." % port.port_id, "queued", "in_flight")
        gauges[0].set(len(port.queue))
        gauges[1].set(len(port._in_flight))

    def replied(self, pkg, now: int) -> None:
        latency_cycles = (now - pkg.issue_time) // self._period
        tallies = self._latency.get(pkg.module)
        if tallies is None:
            tallies = self._latency[pkg.module] = (
                self.histogram("mem.latency.all").tally,
                *([self.histogram("mem.latency.m%02d" % pkg.module).tally]
                  if pkg.module >= 0 else []))
        for tally in tallies:
            tally[latency_cycles] = tally.get(latency_cycles, 0) + 1

    def spawn_began(self, region, now: int, n_threads: int) -> None:
        self._spawn_begin[region.spawn_index] = now

    def spawn_ended(self, region, now: int) -> None:
        index = region.spawn_index
        began = self._spawn_begin.pop(index, None)
        if began is None:
            return
        row = self.spawn_regions.get(index)
        if row is None:
            row = self.spawn_regions[index] = {
                "src_line": self._program.instructions[index].src_line,
                "count": 0, "cycles": 0}
        row["count"] += 1
        row["cycles"] += (now - began) // self._period

    # -- export --------------------------------------------------------------

    def gauge_values(self) -> Dict[str, Any]:
        """Current gauge levels by name (diagnostic dumps embed them)."""
        return {name: gauge.value
                for name, gauge in sorted(self.gauges.items())}

    def to_dict(self) -> Dict[str, Any]:
        regions: List[Dict[str, Any]] = []
        for spawn_index in sorted(self.spawn_regions):
            row = self.spawn_regions[spawn_index]
            regions.append({
                "spawn_index": spawn_index,
                "src_line": row["src_line"],
                "count": row["count"],
                "cycles_total": row["cycles"],
                "cycles_mean": round(row["cycles"] / row["count"], 1)
                if row["count"] else 0,
            })
        return {
            "counters": dict(self.counters),
            "gauges": {k: g.to_dict()
                       for k, g in sorted(self.gauges.items())},
            "histograms": {k: h.to_dict()
                           for k, h in sorted(self.histograms.items())},
            "spawn_regions": regions,
        }


def export_metrics(machine) -> Dict[str, Any]:
    """The full ``metrics.json`` payload for one machine.

    Merges the machine's raw :class:`~repro.sim.stats.Stats` counters
    with the registry's gauges/histograms/rollups and the scheduler's
    own bookkeeping; the ``schema`` field versions the layout.
    """
    registry = getattr(machine.obs, "metrics", None) or MetricsRegistry()
    payload = registry.to_dict()
    payload["schema"] = schema_of("metrics")
    payload["config"] = {
        "n_tcus": machine.config.n_tcus,
        "n_clusters": machine.config.n_clusters,
        "n_cache_modules": machine.config.n_cache_modules,
        "n_dram_ports": machine.config.n_dram_ports,
    }
    machine.settle()  # a run that died mid-spawn has TCUs still asleep
    payload["stats"] = machine.stats.snapshot()
    payload["scheduler"] = machine.scheduler.metrics_snapshot()
    return payload
