"""The XMTC compiler driver: source text -> optimized XMT executable.

"Our compiler translates XMTC code to an optimized XMT executable.  The
compiler consists of three consecutive passes: the pre-pass performs
source-to-source (XMTC-to-XMTC) transformations ..., the core-pass
performs the bulk of the compilation ..., and the post-pass ... takes
the assembly produced by the core-pass, verifies that it complies with
XMT semantics and links it with external data inputs." (Section IV)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.isa.assembler import assemble_lines
from repro.isa.program import Program
from repro.xmtc import parser as xparser
from repro.xmtc.lowering import lower
from repro.xmtc.optimizer import OptimizerOptions, optimize_unit
from repro.xmtc.outline import cluster_spawns, outline_spawns, serialize_nested_spawns
from repro.xmtc.postpass import AsmLine, postpass_lines, render
from repro.xmtc.semantic import analyze
from repro.xmtc.codegen import CodeGenerator


@dataclass
class CompileOptions:
    """Compiler configuration (the paper's pass/optimization switches)."""

    #: -O level: 0 = straight translation, 1 = scalar opts, 2 = +CSE
    opt_level: int = 2
    #: virtual-thread clustering factor (1 = off) -- Section IV-C
    cluster_factor: int = 1
    #: outlining of spawn blocks (pre-pass, Fig. 8).  Disabling it is
    #: supported for A/B experiments; spawn statements are then lowered
    #: in place (our nested-IR core pass stays correct either way --
    #: unlike GCC's, which is exactly why the real toolchain outlines).
    outline: bool = True
    #: memory-model fences before prefix-sums (Section IV-A);
    #: UNSAFE to disable except for the fence-cost ablation
    memory_fences: bool = True
    #: non-blocking store conversion (Section IV-C)
    nonblocking_stores: bool = True
    #: prefetch insertion into TCU prefetch buffers (Section IV-C, [8])
    prefetch: bool = True
    prefetch_degree: int = 4
    #: read-only-cache routing for provably constant global loads
    ro_cache: bool = False
    #: parallel-calls extension (paper Section IV-E's roadmap): allow
    #: function calls (and atomic malloc) inside spawn blocks; each TCU
    #: gets a private stack in shared memory and fetches callee code
    #: outside the broadcast region (the future instruction-cache XMT)
    parallel_calls: bool = False
    #: keep the intermediate products on the result for inspection
    keep_intermediates: bool = False


@dataclass
class CompileResult:
    program: Program
    asm_text: str
    optimizer_report: dict = field(default_factory=dict)
    postpass_report: object = None
    ast: object = None
    ir: object = None


def _compile(source: str, options: CompileOptions
             ) -> Tuple[CompileResult, List[str], List[AsmLine]]:
    """The pipeline, up to the post-pass's verified ``(header, body)``
    lines; the result's ``program`` and ``asm_text`` are left unset."""
    # ---- pre-pass (CIL equivalent): source-to-source ---------------------
    unit = xparser.parse(source)
    serialize_nested_spawns(unit)
    if options.cluster_factor > 1:
        cluster_spawns(unit, options.cluster_factor)
    if options.outline:
        outline_spawns(unit)

    # ---- core pass (GCC equivalent) ---------------------------------------
    analyze(unit, allow_parallel_calls=options.parallel_calls)
    ir_unit = lower(unit)
    opt = OptimizerOptions(
        opt_level=options.opt_level,
        memory_fences=options.memory_fences,
        nonblocking_stores=options.nonblocking_stores,
        prefetch=options.prefetch,
        prefetch_degree=options.prefetch_degree,
        ro_cache=options.ro_cache,
    )
    report = optimize_unit(ir_unit, opt)
    header, body = CodeGenerator(ir_unit).run()

    # ---- post-pass (SableCC equivalent) -------------------------------------
    # codegen's lines go to the post-pass as they are, never through text
    header, body, pp_report = postpass_lines(
        header, body, parallel_calls=options.parallel_calls)

    result = CompileResult(program=None, asm_text=None,
                           optimizer_report=report, postpass_report=pp_report)
    if options.keep_intermediates:
        result.ast = unit
        result.ir = ir_unit
    return result, header, body


def compile_to_asm(source: str, options: Optional[CompileOptions] = None
                   ) -> CompileResult:
    """Compile XMTC source to verified assembly text (no assembly step)."""
    result, header, body = _compile(source, options or CompileOptions())
    result.asm_text = render(header, body)
    return result


def compile_source(source: str, options: Optional[CompileOptions] = None,
                   **option_overrides) -> Program:
    """Compile XMTC source all the way to a loadable :class:`Program`."""
    if options is None:
        options = CompileOptions(**option_overrides)
    elif option_overrides:
        raise TypeError("pass either options or keyword overrides, not both")
    # the post-pass's lines go straight to the assembler, which renders
    # the text (``program.source``) as it reads them
    _, header, body = _compile(source, options)
    program = assemble_lines(header, body)
    program.parallel_calls = options.parallel_calls
    return program
