"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.isa.assembler import assemble
from repro.sim.config import fpga64, tiny
from repro.sim.functional import FunctionalSimulator
from repro.sim.machine import Simulator
from repro.xmtc.compiler import CompileOptions, compile_source


@pytest.fixture
def tiny_config():
    return tiny()


@pytest.fixture
def fpga_config():
    return fpga64()


def run_asm_functional(source: str, inputs=None, max_instructions=2_000_000):
    program = assemble(source)
    _apply(program, inputs)
    return program, FunctionalSimulator(
        program, max_instructions=max_instructions).run()


def run_asm_cycle(source: str, config=None, inputs=None, max_cycles=2_000_000):
    program = assemble(source)
    _apply(program, inputs)
    sim = Simulator(program, config or tiny())
    return program, sim.run(max_cycles=max_cycles)


def run_xmtc_functional(source: str, inputs=None, options=None,
                        max_instructions=5_000_000):
    program = compile_source(source, options)
    _apply(program, inputs)
    return program, FunctionalSimulator(
        program, max_instructions=max_instructions).run()


def run_xmtc_cycle(source: str, config=None, inputs=None, options=None,
                   max_cycles=5_000_000, plugins=(), trace=None,
                   observability=None):
    program = compile_source(source, options)
    _apply(program, inputs)
    sim = Simulator(program, config or tiny(), plugins=plugins, trace=trace,
                    observability=observability)
    return program, sim.run(max_cycles=max_cycles)


def fabric_ports(machine):
    """Every port of a machine: the send ports the network drains and
    each cache module's request and return port."""
    return machine.send_ports + [
        port for module in machine.cache_modules
        for port in (module.in_queue, module.out_queue)]


def _apply(program, inputs):
    if inputs:
        for name, values in inputs.items():
            program.write_global(name, values)


def opts(**kw) -> CompileOptions:
    return CompileOptions(**kw)
