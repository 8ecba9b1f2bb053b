"""XMTSim-equivalent simulator: discrete-event engine, functional model,
cycle-accurate XMT machine model, statistics, plug-ins, traces and
checkpoints."""

from repro.sim.config import XMTConfig, fpga64, chip1024, from_file, tiny
from repro.sim.engine import Actor, ClockDomain, Event, Scheduler, TimedQueue
from repro.sim.fabric import Component, Port, register_backend, registered
from repro.sim.functional import FunctionalResult, FunctionalSimulator
from repro.sim.machine import CycleResult, Simulator
from repro.sim.observability import (CycleProfiler, EventStream, Ledger,
                                     MetricsRegistry, Observability,
                                     compare_runs, instrumented_run)
from repro.sim.trace import Trace

__all__ = [
    "XMTConfig",
    "fpga64",
    "chip1024",
    "tiny",
    "from_file",
    "Actor",
    "ClockDomain",
    "Event",
    "Scheduler",
    "TimedQueue",
    "Component",
    "Port",
    "register_backend",
    "registered",
    "FunctionalResult",
    "FunctionalSimulator",
    "CycleResult",
    "Simulator",
    "Trace",
    "Observability",
    "EventStream",
    "MetricsRegistry",
    "CycleProfiler",
    "Ledger",
    "compare_runs",
    "instrumented_run",
]
