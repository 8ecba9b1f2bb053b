"""The paper's "reason 4": extensibility for tool researchers.

"A new assembly instruction can be added via a two step process: (a)
modify the assembly language definition file of the front-end, and (b)
create a new Java class for the added instruction ... following its
application programming interface" (Section III-A).  Our recipe is the
one call: register the mnemonic with its operational definition and
functional unit, and both simulation modes execute it with the right
functional-unit timing.  Plus: determinism guarantees that make such studies repeatable.
"""

import pytest

from repro.isa import instructions as I
from repro.isa import semantics as S
from repro.isa.assembler import AssemblerError, assemble
from repro.isa.instructions import TABLE, register_instruction
from repro.sim.config import tiny
from repro.sim.functional import FunctionalSimulator
from repro.sim.machine import Simulator


@pytest.fixture(scope="module")
def clz_instruction():
    """Add ``clz`` (count leading zeros) once for this module."""
    if "clz" not in TABLE:
        register_instruction("clz", "unary",
                             lambda a: 32 - (a & 0xFFFFFFFF).bit_length(),
                             fu=I.FU_ALU)
    if "addmul" not in TABLE:
        # a fused a*b+b toy op on the (shared, slow) MDU
        register_instruction(
            "addmul", "binary",
            lambda a, b: (S.to_signed(a) * S.to_signed(b)
                          + S.to_signed(b)) & 0xFFFFFFFF,
            fu=I.FU_MDU)
    return True


PROGRAM = r"""
    .data
L:  .fmt "%d %d %d\n"
    .text
main:
    li   $t0, 0x00010000
    clz  $t1, $t0
    li   $t2, 7
    li   $t3, 5
    addmul $t4, $t2, $t3
    clz  $t5, $zero
    print L, $t1, $t4, $t5
    halt
"""


class TestAddInstruction:
    def test_assembles(self, clz_instruction):
        prog = assemble(PROGRAM)
        ops = [i.op for i in prog.instructions]
        assert "clz" in ops and "addmul" in ops

    def test_functional_mode_executes_it(self, clz_instruction):
        prog = assemble(PROGRAM)
        res = FunctionalSimulator(prog).run()
        assert res.output == "15 40 32\n"

    def test_cycle_mode_executes_it(self, clz_instruction):
        prog = assemble(PROGRAM)
        res = Simulator(prog, tiny()).run(max_cycles=100_000)
        assert res.output == "15 40 32\n"

    def test_custom_mdu_op_pays_mdu_latency(self, clz_instruction):
        """The new instruction inherits its functional unit's timing."""
        def cycles(latency):
            prog = assemble("""
                .text
            main:
                li   $t0, 3
                addmul $t0, $t0, $t0
                addmul $t0, $t0, $t0
                addmul $t0, $t0, $t0
                halt
            """)
            cfg = tiny(mdu_latency=latency)
            return Simulator(prog, cfg).run(max_cycles=100_000).cycles

        # three dependent addmuls at latency 20 vs latency 1
        assert cycles(20) > cycles(1) + 35

    def test_duplicate_registration_rejected(self, clz_instruction):
        with pytest.raises(ValueError):
            register_instruction("clz", "unary", lambda a: 0)
        with pytest.raises(ValueError):
            register_instruction("add", "binary", "{a} - {b}")

    def test_built_in_mnemonic_cannot_be_redefined(self):
        """A refused registration leaves the built-in row alone: ``lw``
        and the ``move`` pseudo-instruction assemble exactly as before."""
        source = ".text\nmain:\n lw $t0, 0($sp)\n move $t1, $t0\n halt\n"
        before = [repr(ins) for ins in assemble(source).instructions]
        with pytest.raises(ValueError, match="already defined"):
            register_instruction("lw", "binary", "{a} + {b}")
        with pytest.raises(ValueError, match="already defined"):
            register_instruction("move", "unary", "-{a}")
        assert [repr(ins) for ins in assemble(source).instructions] == before
        assert before == ["<lw $t0, 0($sp)>", "<add $t1, $t0, $zero>",
                          "<halt>"]

    def test_registration_without_a_definition_is_refused(self):
        with pytest.raises(ValueError, match="operational definition"):
            register_instruction("nosem", "binary")
        with pytest.raises(AssemblerError, match="unknown opcode 'nosem'"):
            assemble(".text\nmain:\n nosem $t0, $t1, $t2\n halt\n")

    def test_counted_in_statistics(self, clz_instruction):
        prog = assemble(PROGRAM)
        res = Simulator(prog, tiny()).run(max_cycles=100_000)
        assert res.stats.get("instructions.clz") == 2
        assert res.stats.get("instructions.addmul") == 1
        assert res.stats.get("cluster.mdu_ops", 0) == 0  # master's own MDU


class TestDeterminism:
    """Repeatable experiments: identical runs produce identical numbers."""

    def test_cycle_accurate_runs_are_bit_identical(self):
        from repro.xmtc.compiler import compile_source

        src = """
int A[64];
int total = 0;
int main() {
    spawn(0, 63) { int v = A[$]; psm(v, total); A[$] = v + 1; }
    return 0;
}
"""
        results = []
        for _ in range(2):
            prog = compile_source(src)
            prog.write_global("A", list(range(64)))
            res = Simulator(prog, tiny()).run(max_cycles=2_000_000)
            results.append((res.cycles, res.instructions,
                            tuple(sorted(res.stats.counters.items()))))
        assert results[0] == results[1]

    def test_async_jitter_runs_are_bit_identical(self):
        from repro.xmtc.compiler import compile_source

        src = "int A[32]; int main() { spawn(0,31){ A[$]=A[$]+1; } return 0; }"
        cfg = tiny(icn_backend="mot-async", icn_async_jitter=0.7)
        a = Simulator(compile_source(src), cfg).run(max_cycles=2_000_000)
        b = Simulator(compile_source(src), cfg).run(max_cycles=2_000_000)
        assert a.cycles == b.cycles
