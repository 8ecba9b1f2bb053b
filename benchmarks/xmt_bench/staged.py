"""A staged mirror of ``repro.xmtc.compiler.compile_to_asm`` +
``assemble`` + ``decode_program`` with one span per public stage call.

The shipped driver runs the stages back to back inside one function, so
the only way to time them from outside is to call them one by one.
``run.py`` checks on every program that the assembly text produced here
is byte-equal to ``compile_to_asm``'s with the same options; without
that check the spans would time a pipeline nobody ships.
"""

from __future__ import annotations

from repro.isa.assembler import assemble
from repro.isa.decode import decode_program
from repro.xmtc import ir as IR
from repro.xmtc import parser as xparser
from repro.xmtc.codegen import generate
from repro.xmtc.compiler import CompileOptions
from repro.xmtc.lowering import lower
from repro.xmtc.optimizer import OptimizerOptions, optimize_unit
from repro.xmtc.outline import (cluster_spawns, outline_spawns,
                                serialize_nested_spawns)
from repro.xmtc.postpass import run_postpass
from repro.xmtc.semantic import analyze


def _ir_size(ir_unit) -> int:
    return sum(1 for func in ir_unit.functions
               for _ in IR.walk_instrs(func.body))


def compile_staged(source: str, options, tracer, counts):
    """Compile ``source`` stage by stage under ``tracer`` spans, adding
    the exact per-stage work counts into ``counts``; returns
    ``(asm_text, program)``."""
    options = options or CompileOptions()
    with tracer.span("staged"):
        counts["xmtc.parser.source_lines"] += source.count("\n") + 1
        with tracer.span("xmtc.parser"):
            unit = xparser.parse(source)
        with tracer.span("xmtc.outline"):
            serialize_nested_spawns(unit)
            if options.cluster_factor > 1:
                cluster_spawns(unit, options.cluster_factor)
            if options.outline:
                outline_spawns(unit)
        with tracer.span("xmtc.semantic"):
            analyze(unit, allow_parallel_calls=options.parallel_calls)
        with tracer.span("xmtc.lowering"):
            ir_unit = lower(unit)
        counts["xmtc.lowering.ir_instrs"] += _ir_size(ir_unit)
        opt = OptimizerOptions(
            opt_level=options.opt_level,
            memory_fences=options.memory_fences,
            nonblocking_stores=options.nonblocking_stores,
            prefetch=options.prefetch,
            prefetch_degree=options.prefetch_degree,
            ro_cache=options.ro_cache,
        )
        with tracer.span("xmtc.optimizer"):
            report = optimize_unit(ir_unit, opt)
        counts["xmtc.optimizer.ir_instrs"] += _ir_size(ir_unit)
        counts["xmtc.optimizer.nonblocking_stores"] += report["nonblocking_stores"]
        with tracer.span("xmtc.codegen"):
            asm_text = generate(ir_unit)
        with tracer.span("xmtc.postpass"):
            asm_text, _ = run_postpass(asm_text,
                                       parallel_calls=options.parallel_calls)
        counts["xmtc.codegen.asm_lines"] += asm_text.count("\n")
        with tracer.span("isa.assembler"):
            program = assemble(asm_text)
            program.parallel_calls = options.parallel_calls
        counts["isa.assembler.instructions"] += len(program.instructions)
        with tracer.span("isa.decode"):
            decoded = decode_program(program)
        counts["isa.decode.uops"] += len(decoded.uops)
    return asm_text, program
