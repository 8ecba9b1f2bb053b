"""The pre-decoded micro-op layer shared by both pipelines.

Covers the decode-once contract (one :class:`DecodedProgram` per
program, cache freshness, loud failure for unregistered instruction
classes), a table-driven opcode/disasm round-trip over *every* opcode
in the dispatch space, the ``$zero`` hard-wiring in both simulation
modes, checkpoint reconstruction of the decode cache, and a hypothesis
differential pitting the functional pipeline against the cycle-accurate
one on random straight-line + spawn programs (both consume the same
micro-ops, so any divergence is a dispatch-table bug, not a semantics
gap).
"""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import run_asm_cycle, run_asm_functional
from repro.isa import instructions as I
from repro.isa import semantics as S
from repro.isa.assembler import assemble, register_instruction
from repro.isa.decode import (
    DECODERS,
    DecodeError,
    MicroOp,
    N_OPCODES,
    OP_ALU,
    OP_ALU_IMM,
    OP_ALU_SHARED,
    OP_BRANCH,
    OP_CHKID,
    OP_FENCE,
    OP_GETG,
    OP_GETTCU,
    OP_GETVT,
    OP_HALT,
    OP_JAL,
    OP_JOIN,
    OP_JR,
    OP_JUMP,
    OP_LI,
    OP_LOAD,
    OP_LOAD_RO,
    OP_NOP,
    OP_PREFETCH,
    OP_PRINT,
    OP_PS,
    OP_PSM,
    OP_SETG,
    OP_SPAWN,
    OP_STORE,
    OP_STORE_NB,
    OP_UNARY,
    OP_UNARY_SHARED,
    OPCODE_NAMES,
    decode_instruction,
    decode_program,
)
from repro.isa.disasm import format_instruction
from repro.sim import checkpoint as CP
from repro.sim.config import tiny
from repro.sim.functional import HANDLERS, FunctionalSimulator
from repro.sim.machine import Machine, Simulator
from repro.sim.tcu import _HANDLER_NAMES


# -- the opcode space itself --------------------------------------------------


def test_opcode_space_fully_described():
    assert sorted(OPCODE_NAMES) == list(range(N_OPCODES))
    assert len(HANDLERS) == N_OPCODES
    assert all(h is not None for h in HANDLERS)
    assert len(_HANDLER_NAMES) == N_OPCODES


def test_every_instruction_class_has_a_decoder():
    """A new Instruction subclass without a decoder entry must fail this
    test, not fail silently at dispatch time."""
    abstract = {I.Instruction, I.MemAccess}
    concrete = [obj for obj in vars(I).values()
                if isinstance(obj, type)
                and issubclass(obj, I.Instruction)
                and obj not in abstract]
    missing = [cls.__name__ for cls in concrete if cls not in DECODERS]
    assert not missing, f"instruction classes without decoders: {missing}"


def test_unregistered_class_fails_loudly():
    class Mystery(I.Instruction):
        def __init__(self):
            super().__init__("mystery")

        def operand_str(self):
            return ""

    with pytest.raises(DecodeError, match="Mystery"):
        decode_instruction(Mystery())


# -- table-driven decode + disasm round-trip over every opcode ----------------

ALL_OPCODES_ASM = r"""
    .data
A:  .word 1, 2, 3, 4
L:  .fmt "%d\n"
    .text
main:
    li    $t0, 6            # li
    la    $t1, A
    add   $t2, $t0, $t0     # alu (private)
    mul   $t3, $t0, $t0     # alu_shared (MDU)
    addi  $t4, $t0, 1       # alu_imm
    neg   $t5, $t0          # unary (private)
    itof  $t6, $t0          # unary_shared (FPU)
    lw    $t7, 0($t1)       # load
    lwro  $s0, 4($t1)       # load_ro
    sw    $t2, 8($t1)       # store
    swnb  $t2, 12($t1)      # store_nb
    psm   $t4, 0($t1)       # psm
    pref  0($t1)            # prefetch
    ps    $t4, $g0          # ps
    getg  $s1, $g1          # getg
    setg  $s1, $g1          # setg
    fence                   # fence
    nop                     # nop
    print L, $t0            # print
    beq   $t0, $t0, skip    # branch
skip:
    jal   sub               # jal
    li    $s2, 0
    li    $s3, 3
    spawn $s2, $s3          # spawn
vt:
    getvt $k0               # getvt
    chkid $k0               # chkid
    gettcu $k1              # gettcu
    j     vt                # jump
    join                    # join
    halt                    # halt
sub:
    jr    $ra               # jr
"""

EXPECTED_CODES = {
    OP_LI, OP_ALU, OP_ALU_SHARED, OP_ALU_IMM, OP_UNARY, OP_UNARY_SHARED,
    OP_LOAD, OP_LOAD_RO, OP_STORE, OP_STORE_NB, OP_PSM, OP_PREFETCH,
    OP_PS, OP_GETG, OP_SETG, OP_FENCE, OP_NOP, OP_PRINT, OP_BRANCH,
    OP_JAL, OP_SPAWN, OP_GETVT, OP_CHKID, OP_GETTCU, OP_JUMP, OP_JOIN,
    OP_HALT, OP_JR,
}


def test_program_exercises_every_opcode():
    assert EXPECTED_CODES == set(range(N_OPCODES))
    program = assemble(ALL_OPCODES_ASM)
    decoded = decode_program(program)
    assert {u.code for u in decoded.uops} == EXPECTED_CODES


def test_decode_disasm_round_trip_every_opcode():
    """Table-driven: every micro-op renders back to text and re-decodes
    to an identical micro-op."""
    program = assemble(ALL_OPCODES_ASM)
    decoded = decode_program(program)
    for u in decoded.uops:
        rendered = format_instruction(u.ins)
        # the mnemonic survives the trip through the decoder
        assert rendered.split()[0] == u.op, (u, rendered)
        redecoded = decode_instruction(u.ins)
        for attr in ("code", "op", "fu", "rd", "rs", "rt", "imm", "target",
                     "reads", "wr", "is_load", "is_store", "is_mem",
                     "stat_key", "class_key"):
            assert getattr(redecoded, attr) == getattr(u, attr), \
                f"{attr} drifted for {rendered!r}"
        assert redecoded.ins is u.ins


def test_decoded_flags_consistent():
    program = assemble(ALL_OPCODES_ASM)
    for u in decode_program(program).uops:
        assert u.is_load == (u.code in (OP_LOAD, OP_LOAD_RO))
        assert u.is_store == (u.code in (OP_STORE, OP_STORE_NB))
        assert u.is_mem == (u.is_load or u.is_store
                            or u.code in (OP_PSM, OP_PREFETCH))
        assert u.reads == u.ins.reads()
        wr = u.ins.writes()
        assert u.wr == (-1 if wr is None else wr)


# -- the decode cache ---------------------------------------------------------


def test_decode_is_shared_not_repeated():
    program = assemble(ALL_OPCODES_ASM)
    first = decode_program(program)
    assert decode_program(program) is first
    machine = Machine(program, tiny())
    assert machine.decoded is first


def test_stale_decode_refreshes_on_text_change():
    program = assemble("    .text\nmain:\n    li $t0, 1\n    halt\n")
    first = decode_program(program)
    # simulate a post-pass edit: replace the text segment wholesale
    program.instructions = list(assemble(
        "    .text\nmain:\n    li $t0, 2\n    halt\n").instructions)
    second = decode_program(program)
    assert second is not first
    assert second.uops[0].imm == 2


def test_microop_pickles_by_redecoding():
    program = assemble(ALL_OPCODES_ASM)
    for u in decode_program(program).uops:
        clone = pickle.loads(pickle.dumps(u))
        assert isinstance(clone, MicroOp)
        assert (clone.code, clone.rd, clone.rs, clone.rt, clone.imm,
                clone.target) == (u.code, u.rd, u.rs, u.rt, u.imm, u.target)


def test_extension_instructions_decode():
    """The paper's two-step extension recipe reuses the ALUOp shape, so
    runtime-registered mnemonics decode with no decoder changes."""
    if "dd_testop" not in S.INT_BINOPS:
        S.register_binop("dd_testop", lambda a, b: (a + 2 * b) & 0xFFFFFFFF)
        register_instruction("dd_testop", "binary")
    program = assemble("""
        .text
    main:
        li  $t0, 5
        li  $t1, 7
        dd_testop $t2, $t0, $t1
        halt
    """)
    u = decode_program(program).uops[2]
    assert u.code == OP_ALU
    assert u.fn(5, 7) == 19
    prog, res = run_asm_functional("""
        .data
    O:  .word 0
        .text
    main:
        li  $t0, 5
        li  $t1, 7
        dd_testop $t2, $t0, $t1
        la  $t3, O
        sw  $t2, 0($t3)
        halt
    """)
    assert res.read_global(prog, "O") == 19


# -- $zero hard-wiring in both modes ------------------------------------------

ZERO_ASM = r"""
    .data
O:  .word 0, 0, 0
    .text
main:
    la    $t1, O
    li    $zero, 99          # write via li
    addi  $zero, $zero, 5    # write via alu-imm
    lw    $zero, 0($t1)      # write via load
    add   $t0, $zero, $zero  # read it back
    sw    $t0, 0($t1)
    li    $t2, 1
    mul   $zero, $t2, $t2    # write via shared FU
    add   $t3, $zero, $t2
    sw    $t3, 4($t1)
    psm   $zero, 8($t1)      # psm adds 0, old-value write is discarded
    halt
"""


def test_zero_register_ignored_functional():
    prog, res = run_asm_functional(ZERO_ASM)
    assert res.read_global(prog, "O") == [0, 1, 0]


def test_zero_register_ignored_cycle_accurate():
    prog, res = run_asm_cycle(ZERO_ASM)
    assert res.read_global("O") == [0, 1, 0]


def test_zero_register_constant_through_spawn():
    src = r"""
        .data
    A:  .space 16
        .text
    main:
        li    $t0, 0
        li    $t1, 3
        spawn $t0, $t1
    vt:
        getvt $k0
        chkid $k0
        li    $zero, 7
        la    $t2, A
        slli  $t3, $k0, 2
        add   $t2, $t2, $t3
        sw    $zero, 0($t2)
        j     vt
        join
        halt
    """
    prog_f, res_f = run_asm_functional(src)
    prog_c, res_c = run_asm_cycle(src)
    assert res_f.read_global(prog_f, "A") == [0, 0, 0, 0]
    assert res_c.read_global("A") == [0, 0, 0, 0]


# -- checkpoint: decode cache reconstructed, not pickled ----------------------

CHECKPOINT_ASM = r"""
    .data
A:  .space 64
    .text
main:
    li   $t5, 0
outer:
    li   $t0, 0
    li   $t1, 15
    spawn $t0, $t1
vt:
    getvt $k0
    chkid $k0
    la   $t2, A
    slli $t3, $k0, 2
    add  $t2, $t2, $t3
    lw   $t4, 0($t2)
    addi $t4, $t4, 1
    mul  $t4, $t4, $t4
    sw   $t4, 0($t2)
    j    vt
    join
    addi $t5, $t5, 1
    slti $t6, $t5, 4
    bnez $t6, outer
    halt
"""


class TestCheckpointDecode:
    def _reference(self):
        prog = assemble(CHECKPOINT_ASM)
        return Simulator(prog, tiny()).run(max_cycles=500_000)

    def _checkpoint_mid_spawn(self):
        """Take a checkpoint while the machine is inside a spawn region."""
        prog = assemble(CHECKPOINT_ASM)
        machine = Machine(prog, tiny())
        machine.start()
        cycle = 0
        while True:
            cycle += 40
            payload = CP.run_with_checkpoint(machine, checkpoint_cycle=cycle)
            assert payload is not None, "halted before reaching a spawn"
            probe = CP.load_bytes(payload)
            if probe.parallel_active:
                return payload
            machine = probe  # keep stepping forward from the snapshot

    def test_mid_spawn_round_trip_identical(self):
        reference = self._reference()
        payload = self._checkpoint_mid_spawn()
        restored = CP.load_bytes(payload)
        assert restored.parallel_active, "checkpoint was not mid-spawn"
        result = restored.run(max_cycles=500_000)
        assert result.cycles == reference.cycles
        assert result.output == reference.output
        assert result.read_global("A") == reference.read_global("A")
        assert result.instructions == reference.instructions

    def test_decode_cache_rebuilt_not_pickled(self):
        payload = self._checkpoint_mid_spawn()
        restored = CP.load_bytes(payload)
        # load_bytes re-decodes from the restored program: the cache is
        # derived state, shared machine-wide
        assert restored.decoded is decode_program(restored.program)
        assert len(restored.decoded.uops) == len(restored.program.instructions)
        assert all(u.ins is ins for u, ins in
                   zip(restored.decoded.uops, restored.program.instructions))

    def test_save_keeps_live_machine_decoded(self):
        prog = assemble(CHECKPOINT_ASM)
        machine = Machine(prog, tiny())
        machine.start()
        CP.save_bytes(machine)
        # saving assigns nothing: the live machine keeps its decode
        assert machine.decoded is not None
        result = machine.run(max_cycles=500_000)
        assert result.read_global("A") == self._reference().read_global("A")


# -- hypothesis differential: functional vs cycle-accurate --------------------
#
# Both pipelines execute the same micro-ops through different dispatch
# tables (module-level table in functional.py, bound-method list in
# tcu.py).  Random programs must reach the same architectural state
# through both; a divergence means one table's handler drifted from the
# other's.

_REGS = ["$t0", "$t1", "$t2", "$t3", "$s0", "$s1"]
_BINOPS = ["add", "sub", "and", "or", "xor", "slt", "sll", "srl", "mul"]


def _gen_program(rng: random.Random, with_spawn: bool) -> str:
    lines = [".data", "buf: .space 128", ".text", "main:"]
    for r in _REGS:
        lines.append(f"    li {r}, {rng.randint(-99, 99)}")
    lines.append("    la $s7, buf")
    for _ in range(rng.randint(4, 18)):
        kind = rng.random()
        a, b, c = (rng.choice(_REGS) for _ in range(3))
        if kind < 0.45:
            lines.append(f"    {rng.choice(_BINOPS)} {a}, {b}, {c}")
        elif kind < 0.6:
            lines.append(f"    addi {a}, {b}, {rng.randint(-64, 64)}")
        elif kind < 0.7:
            lines.append(f"    neg {a}, {b}")
        elif kind < 0.85:
            lines.append(f"    sw {a}, {rng.randint(0, 15) * 4}($s7)")
        else:
            lines.append(f"    lw {a}, {rng.randint(0, 15) * 4}($s7)")
    if with_spawn:
        width = rng.choice([3, 7])
        lines += [
            "    li $t8, 0",
            f"    li $t9, {width}",
            "    spawn $t8, $t9",
            "vt:",
            "    getvt $k0",
            "    chkid $k0",
            "    la $s6, buf",
            "    slli $k1, $k0, 2",
            "    add $s6, $s6, $k1",
            "    lw $t4, 0($s6)",
            "    addi $t4, $t4, 3",
            "    sw $t4, 0($s6)",
            "    j vt",
            "    join",
        ]
    lines.append("    halt")
    return "\n".join(lines) + "\n"


def _assert_modes_agree(src: str) -> None:
    res_f = FunctionalSimulator(assemble(src), max_instructions=500_000).run()
    res_c = Simulator(assemble(src), tiny()).run(max_cycles=500_000)
    assert res_f.memory == res_c.memory, src
    assert res_f.output == res_c.output, src
    assert list(res_f.global_regs) == list(res_c.global_regs), src


# derandomized: the examples are a fixed function of the test, so the
# tier-1 command passes or fails the same way on every run
@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), with_spawn=st.booleans())
def test_differential_functional_vs_cycle(seed, with_spawn):
    _assert_modes_agree(_gen_program(random.Random(seed), with_spawn))


def test_master_store_does_not_overtake_its_older_load():
    """Seed 944 of the differential test: ``lw $t3, 4($s7)`` misses and
    is still on its way to the cache module when ``sw $t2, 4($s7)``
    commits at issue.  The load must return the word as it was before
    the store (memory-model rule 1), not the stored value."""
    src = _gen_program(random.Random(944), with_spawn=False)
    assert "lw $t3, 4($s7)\n    sw $t2, 4($s7)" in src
    _assert_modes_agree(src)
    # the hazard in four instructions
    result = Simulator(assemble("""
        .data
    buf: .word 7, 0
        .text
    main:
        la   $s7, buf
        li   $t2, 31
        lw   $t3, 0($s7)
        sw   $t2, 0($s7)
        sw   $t3, 4($s7)
        halt
    """), tiny()).run(max_cycles=10_000)
    assert result.read_global("buf", count=2) == [31, 7]
