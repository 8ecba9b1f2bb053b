"""One-stop helpers for the XMT programmer's workflow.

The paper's workflow goes PRAM algorithm -> XMTC program -> compile ->
simulate -> inspect cycle counts.  ``compile_and_run`` is that loop in
one call; inputs go in through the global-variable memory map (there is
no OS, Section III-A) and results come back through ``print`` output
and the post-run memory image.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Tuple, Union

from repro.isa.assembler import assemble
from repro.isa.program import Program
from repro.sim.config import XMTConfig, fpga64
from repro.sim.functional import FunctionalSimulator
from repro.sim.machine import CycleResult, Simulator
from repro.xmtc.compiler import CompileOptions, compile_source


@dataclass
class RunOutcome:
    """Everything a workflow iteration needs to inspect."""

    program: Program
    output: str
    cycles: int
    instructions: int
    result: object  # CycleResult or FunctionalResult

    def read_global(self, name: str, **kw):
        return self.program.read_global(name, self.result.memory, **kw)


def load_program(path: str,
                 options: Optional[CompileOptions] = None
                 ) -> Tuple[Program, Optional[str]]:
    """Read one program file: assemble ``.s``/``.asm``, compile anything
    else as XMTC.

    Returns ``(program, xmtc_source_or_None)``; raises ``OSError`` on
    read failures and ``CompileError`` on bad input.  Every command-line
    tool and the campaign engine load their programs here.
    """
    with open(path) as fh:
        text = fh.read()
    if path.endswith((".s", ".asm")):
        program = assemble(text)
        if options is not None:
            program.parallel_calls = options.parallel_calls
        return program, None
    return compile_source(text, options), text


def apply_inputs(program: Program, inputs: Optional[Mapping]) -> None:
    """Write ``inputs`` (global name -> value(s)) into the memory map."""
    for name, values in (inputs or {}).items():
        program.write_global(name, values)


def compile_and_run(source: str,
                    config: Optional[XMTConfig] = None,
                    inputs: Optional[Mapping] = None,
                    options: Optional[CompileOptions] = None,
                    plugins: Iterable = (),
                    trace=None,
                    max_cycles: Optional[int] = None) -> RunOutcome:
    """Compile XMTC source and run it cycle-accurately.

    ``inputs`` maps global-variable names to values (ints/floats or
    sequences) written into the memory map before the run.
    """
    return run_program(compile_source(source, options), config, inputs,
                       plugins, trace, max_cycles)


def run_program(program: Program,
                config: Optional[XMTConfig] = None,
                inputs: Optional[Mapping] = None,
                plugins: Iterable = (),
                trace=None,
                max_cycles: Optional[int] = None) -> RunOutcome:
    """Run an already-compiled program cycle-accurately (fresh machine)."""
    apply_inputs(program, inputs)
    sim = Simulator(program, config or fpga64(), plugins=plugins, trace=trace)
    result = sim.run(max_cycles=max_cycles)
    return RunOutcome(program=program, output=result.output,
                      cycles=result.cycles, instructions=result.instructions,
                      result=result)


def run_functional(source_or_program: Union[str, Program],
                   inputs: Optional[Mapping] = None,
                   options: Optional[CompileOptions] = None,
                   max_instructions: Optional[int] = 50_000_000) -> RunOutcome:
    """Run in the fast functional mode (serializes spawns; no cycles)."""
    if isinstance(source_or_program, Program):
        program = source_or_program
    else:
        program = compile_source(source_or_program, options)
    apply_inputs(program, inputs)
    result = FunctionalSimulator(program, max_instructions=max_instructions).run()
    return RunOutcome(program=program, output=result.output,
                      cycles=0, instructions=result.instructions,
                      result=result)
