"""Post-pass tests: Fig. 9 basic-block relocation and layout verification."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.isa.assembler import assemble
from repro.sim.functional import FunctionalSimulator
from repro.xmtc.errors import CompileError
from repro.xmtc.postpass import run_postpass

HEADER = """    .data
A:  .space 64
    .text
"""

#: Fig. 9a in our dispatch style: BB2 logically belongs to the region
#: but is laid out after the join "to save a jump".
FIG9A = HEADER + """
main:
    li   $t0, 0
    li   $t1, 7
    spawn $t0, $t1
vt:
    getvt $k0
    chkid $k0
    andi $t2, $k0, 1
    bnez $t2, BB2
    la   $t3, A
    slli $t4, $k0, 2
    add  $t3, $t3, $t4
    li   $t5, 100
    sw   $t5, 0($t3)
    j    vt
    join
    halt
BB2:
    la   $t3, A
    slli $t4, $k0, 2
    add  $t3, $t3, $t4
    li   $t5, 200
    sw   $t5, 0($t3)
    j    vt
"""


class TestFig9Relocation:
    def test_misplaced_block_detected_and_fixed(self):
        fixed, report = run_postpass(FIG9A)
        assert report.relocated_blocks == 1
        # the fixed text assembles and BB2 now sits inside the region
        prog = assemble(fixed)
        region = prog.spawn_regions[0]
        bb2 = prog.labels["BB2"]
        assert region.contains(bb2)

    def test_fixed_program_executes_correctly(self):
        fixed, _ = run_postpass(FIG9A)
        prog = assemble(fixed)
        res = FunctionalSimulator(prog, max_instructions=100000).run()
        values = prog.read_global("A", res.memory, count=8)
        assert values == [100, 200] * 4

    def test_unfixed_program_would_break(self):
        """Without the post-pass, the hardware cannot execute BB2
        (it was not broadcast) -- our simulator traps, as real TCUs
        'currently don't have access to instructions that were not
        broadcast'."""
        prog = assemble(FIG9A)
        from repro.sim.functional import SimulationError

        with pytest.raises(SimulationError, match="left the spawn region"):
            FunctionalSimulator(prog, max_instructions=100000).run()

    def test_already_legal_layout_untouched(self):
        legal = HEADER + """
main:
    li   $t0, 0
    li   $t1, 3
    spawn $t0, $t1
vt:
    getvt $k0
    chkid $k0
    la   $t3, A
    sw   $k0, 0($t3)
    j    vt
    join
    halt
"""
        fixed, report = run_postpass(legal)
        assert report.relocated_blocks == 0

    def test_two_misplaced_blocks(self):
        source = HEADER + """
main:
    li   $t0, 0
    li   $t1, 3
    spawn $t0, $t1
vt:
    getvt $k0
    chkid $k0
    andi $t2, $k0, 1
    bnez $t2, ODD
    j    EVEN
    join
    halt
ODD:
    li   $t5, 1
    j    vt
EVEN:
    li   $t5, 2
    j    vt
"""
        fixed, report = run_postpass(source)
        assert report.relocated_blocks == 2
        prog = assemble(fixed)
        region = prog.spawn_regions[0]
        assert region.contains(prog.labels["ODD"])
        assert region.contains(prog.labels["EVEN"])


class TestVerification:
    def test_jal_in_region_rejected(self):
        bad = HEADER + """
main:
    li   $t0, 0
    li   $t1, 1
    spawn $t0, $t1
vt:
    getvt $k0
    chkid $k0
    jal  helper
    j    vt
    join
    halt
helper:
    jr   $ra
"""
        with pytest.raises(CompileError, match="illegal inside a spawn region"):
            run_postpass(bad)

    def test_escape_with_no_return_rejected(self):
        bad = HEADER + """
main:
    li   $t0, 0
    li   $t1, 1
    spawn $t0, $t1
vt:
    getvt $k0
    chkid $k0
    bnez $k0, escape
    j    vt
    join
escape:
    halt
"""
        with pytest.raises(CompileError, match="halt"):
            run_postpass(bad)

    def test_fallthrough_into_join_rejected(self):
        bad = HEADER + """
main:
    li   $t0, 0
    li   $t1, 1
    spawn $t0, $t1
vt:
    getvt $k0
    chkid $k0
    nop
    join
    halt
"""
        with pytest.raises(CompileError, match="falls through into the join"):
            run_postpass(bad)

    def test_undefined_label_rejected(self):
        bad = HEADER + """
main:
    li   $t0, 0
    li   $t1, 1
    spawn $t0, $t1
vt:
    getvt $k0
    chkid $k0
    j    nowhere
    join
    halt
"""
        with pytest.raises(CompileError, match="undefined label"):
            run_postpass(bad)

    def test_serial_code_unrestricted(self):
        fine = HEADER + """
main:
    jal  helper
    halt
helper:
    jr   $ra
"""
        fixed, report = run_postpass(fine)
        assert report.relocated_blocks == 0


class TestCompilerIntegration:
    def test_all_compiled_regions_verified(self):
        """Every compiler-produced program passes its own post-pass
        (the pipeline would raise otherwise)."""
        from repro.xmtc.compiler import compile_to_asm

        result = compile_to_asm("""
int A[16];
int main() {
    spawn(0, 15) {
        if ($ % 2 == 0) A[$] = 1;
        else A[$] = 2;
    }
    return 0;
}
""")
        # idempotence: re-running the post-pass changes nothing
        again, report = run_postpass(result.asm_text)
        assert report.relocated_blocks == 0


class TestLineHandoff:
    """Codegen hands the post-pass its lines and the post-pass hands the
    assembler its lines; text is parsed only behind ``run_postpass``.
    The benchmark's staged mirror goes through text, so its fidelity
    check rests on ``_parse(render(lines))`` giving the lines back."""

    @staticmethod
    def assembled_lines(monkeypatch, source, options):
        from repro.xmtc import compiler

        seen = []
        original = compiler.assemble_lines

        def spy(header, body):
            seen.append((header, body))
            return original(header, body)
        with monkeypatch.context() as patch:
            patch.setattr(compiler, "assemble_lines", spy)
            compiler.compile_source(source, options)
        (header, body), = seen
        return header, body

    @staticmethod
    def fields(body):
        return [(line.labels, line.op, line.operands, line.src_line)
                for line in body]

    def check_round_trip(self, monkeypatch, source, options):
        from repro.xmtc.postpass import _parse, render

        header, body = self.assembled_lines(monkeypatch, source, options)
        again_header, again_body = _parse(render(header, body))
        assert again_header == header
        assert self.fields(again_body) == self.fields(body)

    def test_compile_source_never_parses_text(self, monkeypatch):
        from repro.xmtc import postpass
        from repro.xmtc.compiler import compile_source

        def refuse(text):
            raise AssertionError("compile_source parsed assembly text")
        monkeypatch.setattr(postpass, "_parse", refuse)
        compile_source("""
int A[8]; int *p;
int f(int v) { int k = v; p = &k; return *p + 1; }
int main() { spawn(0, 7) { A[$] = $ * 2; } return f(A[3]); }
""")

    def test_round_trip_over_the_golden_corpus(self, monkeypatch):
        from test_compiler_golden import corpus

        for source, options in corpus().values():
            self.check_round_trip(monkeypatch, source, options)

    @given(seed=st.integers(min_value=64, max_value=100_000))
    @settings(max_examples=30, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_round_trip_over_fuzz_programs(self, monkeypatch, seed):
        from repro.xmtc.fuzz.generator import generate

        generated = generate(seed)
        self.check_round_trip(monkeypatch, generated.source,
                              generated.compile_options())
