"""Dispatch-layer throughput: pre-decoded micro-ops vs per-step decode.

The execution core decodes every instruction exactly once at program
load (``repro.isa.decode``) and both pipelines dispatch through
opcode-indexed tables instead of classifying ``Instruction`` objects
with ``isinstance`` chains on every step.  These benchmarks report the
resulting hot-loop throughput in instructions per host-second and
assert the two invariants behind it: decode is amortised over the run,
and matmul still takes exactly 5933 cycles.
"""

import time

from conftest import once
from repro.isa.decode import decode_program
from repro.sim.config import fpga64, tiny
from repro.sim.functional import FunctionalSimulator
from repro.sim.machine import Simulator
from repro.workloads import programs as W
from repro.xmtc.compiler import compile_source


def _prepare(size=12):
    src, inputs, _ = W.matmul(size)
    program = compile_source(src)
    for name, values in inputs.items():
        program.write_global(name, values)
    return program


def test_decode_cost_amortized(benchmark, table):
    """Decoding is one-time work: re-decoding the whole program must be
    orders of magnitude cheaper than even one functional run of it."""
    program = _prepare()

    def run():
        t0 = time.perf_counter()
        # drop the cache entry so this measures a cold decode
        program.instructions = list(program.instructions)
        decoded = decode_program(program)
        t_decode = time.perf_counter() - t0
        t0 = time.perf_counter()
        res = FunctionalSimulator(program, max_instructions=50_000_000).run()
        t_run = time.perf_counter() - t0
        return decoded, t_decode, res, t_run

    decoded, t_decode, res, t_run = once(benchmark, run)
    table.header("One-time decode vs one functional run (matmul 12x12)")
    table.row(f"decode:  {t_decode * 1e6:9.1f} us ({len(decoded.uops)} uops)")
    table.row(f"run:     {t_run * 1e6:9.1f} us ({res.instructions} instructions)")
    table.row(f"ratio:   {t_run / t_decode:9.1f}x")
    assert t_decode * 50 < t_run, "decode must be amortized by a single run"


def test_functional_dispatch_throughput(benchmark, table):
    """Instructions per host-second through the functional engine: its
    translated blocks (``blocks(memory=True)``), compiled inside the
    stopwatch, plus the few ops stepped through ``HANDLERS``."""
    program = _prepare()

    def run():
        t0 = time.perf_counter()
        res = FunctionalSimulator(program, max_instructions=50_000_000).run()
        return res, time.perf_counter() - t0

    res, elapsed = once(benchmark, run)
    rate = res.instructions / elapsed
    benchmark.extra_info["instructions_per_second"] = round(rate)
    table.header("Functional dispatch throughput (matmul 12x12)")
    table.row(f"{res.instructions} instructions in {elapsed * 1e3:.1f} ms "
              f"= {rate / 1e3:.0f} kips")


def test_cycle_dispatch_throughput(benchmark, table):
    """Instructions per host-second through the TCU handler tables.

    This is the same workload/config as ``test_cycle_accurate_speed``
    (the ledger's trend row); reported here as a throughput so the
    dispatch cost is separated from the cycle count the workload takes.
    """
    program = _prepare()

    def run():
        t0 = time.perf_counter()
        res = Simulator(program, fpga64()).run(max_cycles=10_000_000)
        return res, time.perf_counter() - t0

    res, elapsed = once(benchmark, run)
    rate = res.instructions / elapsed
    benchmark.extra_info["instructions_per_second"] = round(rate)
    benchmark.extra_info["simulated_cycles"] = res.cycles
    table.header("Cycle-accurate dispatch throughput (matmul 12x12, fpga64)")
    table.row(f"{res.instructions} instructions / {res.cycles} cycles "
              f"in {elapsed * 1e3:.1f} ms = {rate / 1e3:.0f} kips")
    assert res.cycles == 5933, "dispatch refactors must not change timing"


def test_tiny_config_dispatch_throughput(benchmark, table):
    """Same throughput probe on the 4-TCU tiny() config: fewer TCUs per
    tick isolates per-instruction dispatch cost from tick fan-out."""
    program = _prepare(8)

    def run():
        t0 = time.perf_counter()
        res = Simulator(program, tiny()).run(max_cycles=10_000_000)
        return res, time.perf_counter() - t0

    res, elapsed = once(benchmark, run)
    rate = res.instructions / elapsed
    benchmark.extra_info["instructions_per_second"] = round(rate)
    table.header("Cycle-accurate dispatch throughput (matmul 8x8, tiny)")
    table.row(f"{res.instructions} instructions / {res.cycles} cycles "
              f"in {elapsed * 1e3:.1f} ms = {rate / 1e3:.0f} kips")
