"""Simulated-machine configuration.

"XMTSim is highly configurable and provides control over many parameters
including number of TCUs, the cache size, DRAM bandwidth and relative
clock frequencies of components" (Section III).  ``XMTConfig`` is that
parameter surface; :func:`fpga64` and :func:`chip1024` are the paper's
two built-in configurations (the 64-TCU Paraleap FPGA prototype used for
verification, and the envisioned 1024-TCU XMT chip used for the GPU
comparisons and for Table I).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Optional


@dataclass
class XMTConfig:
    """All knobs of the simulated XMT machine.

    Clock *periods* are integer picoseconds (1000 ps = 1 GHz).  Latencies
    are expressed in cycles of the owning component's clock domain.
    """

    name: str = "custom"

    # -- topology ---------------------------------------------------------
    n_clusters: int = 8
    tcus_per_cluster: int = 8
    n_cache_modules: int = 8
    n_dram_ports: int = 1

    # -- clock domains (periods in ps) -------------------------------------
    cluster_period: int = 1000
    icn_period: int = 1000
    cache_period: int = 1000
    dram_period: int = 4000          # DRAM controllers are slower

    # -- functional units (per cluster; TCUs have private ALU/BR/SFT) ------
    alu_latency: int = 1
    branch_latency: int = 1
    mdu_latency: int = 8
    fpu_latency: int = 4
    fpu_pipelined: bool = True
    mdu_pipelined: bool = False

    # -- TCU --------------------------------------------------------------
    prefetch_buffer_size: int = 4
    prefetch_policy: str = "fifo"    # "fifo" | "lru"
    send_queue_capacity: int = 8
    #: lightweight in-order TCUs block on loads/psm until the reply
    #: returns; prefetch buffers, non-blocking stores and RO caches are
    #: then the latency-tolerance mechanisms (Section IV-C).  False
    #: gives TCUs a scoreboard (stall-on-use) instead -- an ablation of
    #: a beefier core.
    tcu_blocking_loads: bool = True

    # -- cluster read-only cache -------------------------------------------
    ro_cache_lines: int = 32
    ro_cache_hit_latency: int = 2

    # -- interconnection network -------------------------------------------
    #: ICN backend name (see :mod:`repro.sim.fabric.registry`): "mot" =
    #: clocked mesh-of-trees; "mot-async" = GALS/asynchronous network
    #: (Section III-F, following [39]): continuous-time traversal
    #: independent of any clock, lower per-package energy; "crossbar"
    #: (single-stage, output-port serialized); "ring" (unidirectional,
    #: hop-distance latency).
    icn_backend: str = "mot"
    #: async ICN: handshake delay per tree stage (picoseconds)
    icn_async_hop_delay_ps: int = 1000
    #: async ICN: data-dependent handshake jitter (fraction of latency)
    icn_async_jitter: float = 0.2
    #: pipeline depth of one traversal; None = derive log-depth from topology
    icn_latency: Optional[int] = None
    #: packages accepted from each cluster send port per ICN cycle
    icn_width_per_cluster: int = 1
    #: responses returned toward each cluster per ICN cycle
    icn_return_width: int = 2

    # -- shared L1 cache modules ---------------------------------------------
    #: address -> cache-module placement backend: "hashed" (the paper's
    #: hashing to avoid module hotspots) or "interleaved" (low-order
    #: line-index interleave; exhibits the hotspots hashing prevents)
    cache_layout: str = "hashed"
    cache_sets: int = 64
    cache_assoc: int = 4
    cache_line_words: int = 8
    cache_hit_latency: int = 2
    #: requests a module dequeues per cache cycle (buffering/reordering
    #: of concurrent requests happens in the module input queue)
    cache_ports: int = 1

    # -- master TCU -----------------------------------------------------------
    master_cache_sets: int = 128
    master_cache_assoc: int = 4
    master_cache_hit_latency: int = 1

    # -- DRAM -------------------------------------------------------------------
    #: DRAM subsystem backend: "simple" = one queue + one accept per
    #: cycle per port (the paper's "DRAM is modeled as simple latency");
    #: "banked" = HBM-flavoured, ``dram_banks`` independent banks per
    #: port, each with its own queue and accept slot
    dram_backend: str = "simple"
    #: banks per DRAM port (used by the "banked" backend only)
    dram_banks: int = 4
    dram_latency: int = 25           # dram-domain cycles from accept to data
    dram_queue_capacity: int = 16

    # -- spawn / prefix-sum hardware -----------------------------------------
    broadcast_instructions_per_cycle: int = 8
    spawn_start_overhead: int = 4
    join_overhead: int = 4
    getvt_latency: int = 4
    ps_latency: int = 2

    # -- software conventions ---------------------------------------------------
    stack_top: int = 0x00800000

    # -- simulation control ----------------------------------------------------
    #: merge equal-period clock domains into one macro-actor (faster);
    #: disable for experiments that retime individual domains (DVFS/DTM)
    merge_clock_domains: bool = True
    max_cycles: Optional[int] = None
    #: cycles of global inactivity before declaring deadlock
    watchdog_cycles: int = 200_000

    # -- derived -----------------------------------------------------------------

    @property
    def n_tcus(self) -> int:
        return self.n_clusters * self.tcus_per_cluster

    def icn_depth(self) -> int:
        """Pipeline depth of one ICN traversal (mesh-of-trees log depth)."""
        if self.icn_latency is not None:
            return self.icn_latency
        fan_out = max(1, math.ceil(math.log2(max(2, self.n_clusters))))
        fan_in = max(1, math.ceil(math.log2(max(2, self.n_cache_modules))))
        return fan_out + fan_in

    def validate(self) -> None:
        # every count, period, width and latency feeds index or
        # wake-time arithmetic: out of range fails here, by name, not
        # as "cannot schedule into the past" from inside a tick
        for least, names in _LEAST.items():
            for name in names.split():
                value = getattr(self, name)
                if value is not None and value < least:
                    raise ValueError(
                        f"{name} must be >= {least}, got {value!r}")
        if self.prefetch_policy not in ("fifo", "lru"):
            raise ValueError("prefetch_policy must be 'fifo' or 'lru'")
        if self.cache_line_words & (self.cache_line_words - 1):
            raise ValueError("cache_line_words must be a power of two")
        # backend names resolve against the fabric registry, so a typo
        # fails here with the registered alternatives listed and a
        # runtime-registered backend is accepted like a built-in
        # (deferred import: the component modules self-register)
        from repro.sim.fabric.registry import validate_backend

        validate_backend("icn", self.icn_backend)
        validate_backend("dram", self.dram_backend)
        validate_backend("cache_layout", self.cache_layout)

    def scaled(self, **overrides) -> "XMTConfig":
        """Return a copy with overridden fields (convenience for sweeps).

        Every dict-shaped config source -- configuration files, queue
        overrides, ``--vary`` axes, recorded manifests -- lands here, so
        an unknown key or a value of the wrong type (``"four"`` clusters,
        ``true`` for a latency; an int in a float field is fine) is a
        ``ValueError`` naming the field, never a ``TypeError`` traceback
        out of :meth:`validate`.
        """
        annotations = {f.name: f.type for f in fields(self)}
        unknown = sorted(set(overrides) - set(annotations))
        if unknown:
            hint = ("; icn_style was removed: set icn_backend to 'mot' "
                    "(was sync) or 'mot-async' (was async)"
                    if "icn_style" in unknown else "")
            raise ValueError(f"unknown configuration keys: {unknown}{hint}")
        for name, value in overrides.items():
            kind = annotations[name]
            # a bool is an int to isinstance, but never a count or a period
            fits = (kind == "bool" if isinstance(value, bool)
                    else isinstance(value, _FIELD_TYPES[kind]))
            if not fits:
                raise ValueError(f"configuration field {name!r} takes "
                                 f"{kind}, got {value!r}")
        return replace(self, **overrides)


#: smallest legal value -> the numeric fields it bounds (``validate``);
#: 0 is "none" for a capacity or an overhead and "off" for the watchdog
_LEAST = {
    1: "n_clusters tcus_per_cluster n_cache_modules n_dram_ports "
       "cluster_period icn_period cache_period dram_period alu_latency "
       "branch_latency mdu_latency fpu_latency icn_async_hop_delay_ps "
       "icn_width_per_cluster icn_return_width cache_sets cache_assoc "
       "cache_line_words cache_ports master_cache_sets master_cache_assoc "
       "dram_banks broadcast_instructions_per_cycle max_cycles",
    0: "prefetch_buffer_size send_queue_capacity ro_cache_lines "
       "ro_cache_hit_latency icn_async_jitter icn_latency cache_hit_latency "
       "master_cache_hit_latency dram_latency dram_queue_capacity "
       "spawn_start_overhead join_overhead getvt_latency ps_latency "
       "stack_top watchdog_cycles",
}

#: field annotation -> the value types ``scaled`` lets into it
_FIELD_TYPES = {"int": int, "float": (int, float), "str": str, "bool": bool,
                "Optional[int]": (int, type(None))}


def fpga64(**overrides) -> XMTConfig:
    """Model of the 64-TCU Paraleap FPGA prototype (8 clusters x 8 TCUs).

    Used by the paper for simulator verification; memory latencies are
    modest because the prototype clocks everything in one domain.
    """
    cfg = XMTConfig(
        name="fpga64",
        n_clusters=8,
        tcus_per_cluster=8,
        n_cache_modules=8,
        n_dram_ports=1,
        cluster_period=1000,
        icn_period=1000,
        cache_period=1000,
        dram_period=2000,
        dram_latency=12,
        cache_sets=64,
        master_cache_sets=64,
        prefetch_buffer_size=4,
    )
    cfg = cfg.scaled(**overrides)
    cfg.validate()
    return cfg


def chip1024(**overrides) -> XMTConfig:
    """The envisioned 1024-TCU XMT chip (64 clusters x 16 TCUs).

    Shared-cache round trips land in the order of 30 cycles, matching
    the paper's Section IV-C characterization.
    """
    cfg = XMTConfig(
        name="chip1024",
        n_clusters=64,
        tcus_per_cluster=16,
        n_cache_modules=128,
        n_dram_ports=8,
        cluster_period=1000,
        icn_period=1000,
        cache_period=1000,
        dram_period=3000,
        dram_latency=40,
        cache_sets=128,
        cache_assoc=4,
        icn_return_width=2,
        prefetch_buffer_size=4,
    )
    cfg = cfg.scaled(**overrides)
    cfg.validate()
    return cfg


def tiny(**overrides) -> XMTConfig:
    """A deliberately small configuration for fast unit tests
    (2 clusters x 2 TCUs, 2 cache modules)."""
    cfg = XMTConfig(
        name="tiny",
        n_clusters=2,
        tcus_per_cluster=2,
        n_cache_modules=2,
        n_dram_ports=1,
        cache_sets=8,
        cache_assoc=2,
        master_cache_sets=8,
        dram_latency=6,
        dram_period=2000,
    )
    cfg = cfg.scaled(**overrides)
    cfg.validate()
    return cfg


#: the one table of built-in configurations: ``--config`` choices, the
#: ``base`` key of a configuration file, ``config`` on a queue line
BUILTIN_CONFIGS = {"fpga64": fpga64, "chip1024": chip1024, "tiny": tiny}


def from_file(path: str, **overrides) -> XMTConfig:
    """Load a configuration file (JSON object of XMTConfig fields).

    "The simulated XMT configuration is determined by the user typically
    via configuration files and/or command line arguments" (Section
    III-A).  A file may set ``"base": "fpga64"`` (or ``chip1024`` /
    ``tiny``) to start from a built-in configuration; every other key
    overrides one :class:`XMTConfig` field.  Keyword arguments override
    the file (the command-line layer).
    """
    import json

    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("configuration file must contain a JSON object")
    base_name = data.pop("base", None)
    data.update(overrides)
    if base_name is not None:
        builder = BUILTIN_CONFIGS.get(base_name)
        if builder is None:
            raise ValueError(f"unknown base configuration {base_name!r}")
        return builder(**data)
    cfg = XMTConfig().scaled(**data)
    cfg.validate()
    return cfg
