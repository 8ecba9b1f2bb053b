"""Assembler, program container and disassembler tests."""

import pytest

from repro.isa.assembler import AssemblerError, assemble
from repro.isa.disasm import format_instruction, format_program
from repro.isa.program import DATA_BASE
from repro.isa.semantics import f32_to_bits


def test_minimal_program():
    prog = assemble("""
        .text
    main:
        halt
    """)
    assert len(prog) == 1
    assert prog.entry == 0
    assert prog.instructions[0].op == "halt"


def test_entry_prefers_start():
    prog = assemble("""
        .text
    __start:
        halt
    main:
        nop
    """)
    assert prog.entry == prog.labels["__start"]


def test_missing_entry_errors():
    with pytest.raises(AssemblerError, match="__start"):
        assemble("    .text\nfoo: halt\n")


def test_data_words_and_space():
    prog = assemble("""
        .data
    A:  .word 1, -2, 0x10
    B:  .space 8
    v:  .word 42
        .text
    main: halt
    """)
    a = prog.data_labels["A"]
    assert a == DATA_BASE
    assert prog.data_image[a] == 1
    assert prog.data_image[a + 4] == 0xFFFFFFFE
    assert prog.data_image[a + 8] == 0x10
    b = prog.data_labels["B"]
    assert b == a + 12
    assert prog.data_image[b] == 0
    assert prog.data_labels["v"] == b + 8
    assert prog.globals_table["A"].n_words == 3
    assert prog.globals_table["B"].n_words == 2


def test_float_directive():
    prog = assemble("""
        .data
    F:  .float 1.5, -2.0
        .text
    main: halt
    """)
    f = prog.data_labels["F"]
    assert prog.data_image[f] == f32_to_bits(1.5)
    assert prog.data_image[f + 4] == f32_to_bits(-2.0)


def test_fmt_strings_not_in_memory():
    prog = assemble(r"""
        .data
    L0: .fmt "x=%d\n"
        .text
    main:
        print L0, $t0
        halt
    """)
    assert "L0" not in prog.data_labels
    assert prog.strings == ["x=%d\n"]
    assert prog.instructions[0].imm == 0
    assert prog.instructions[0].label == "L0"


def test_greg_directive():
    prog = assemble("""
        .data
        .greg 2, 7
        .text
    main: halt
    """)
    assert prog.greg_init == {2: 7}


def test_word_with_label_reference():
    prog = assemble("""
        .data
    A:  .word 5
    P:  .word A
        .text
    main: halt
    """)
    assert prog.data_image[prog.data_labels["P"]] == prog.data_labels["A"]


def test_register_names_and_numbers():
    prog = assemble("""
        .text
    main:
        add $t0, $s1, $31
        addi $5, $sp, -4
        halt
    """)
    ins = prog.instructions[0]
    assert (ins.rd, ins.rs, ins.rt) == (8, 17, 31)
    imm = prog.instructions[1]
    assert (imm.rd, imm.rs) == (5, 29)
    assert imm.imm == 0xFFFFFFFC


def test_pseudo_instructions():
    prog = assemble("""
        .text
    main:
        move $t0, $t1
        beqz $t0, done
        bnez $t0, done
        b done
    done:
        halt
    """)
    mv = prog.instructions[0]
    assert mv.op == "add" and mv.rt == 0
    assert prog.instructions[1].op == "beq"
    assert prog.instructions[2].op == "bne"
    assert prog.instructions[3].op == "j"


def test_branch_resolution():
    prog = assemble("""
        .text
    main:
        beq $t0, $t1, target
        nop
    target:
        halt
    """)
    assert prog.instructions[0].target == 2


def test_undefined_label_errors():
    with pytest.raises(AssemblerError, match="undefined"):
        assemble("    .text\nmain: j nowhere\n")


def test_duplicate_label_errors():
    with pytest.raises(AssemblerError, match="duplicate"):
        assemble("    .text\nmain: nop\nmain: halt\n")


def test_spawn_region_resolution():
    prog = assemble("""
        .text
    main:
        spawn $t0, $t1
        getvt $k0
        chkid $k0
        join
        halt
    """)
    assert len(prog.spawn_regions) == 1
    region = prog.spawn_regions[0]
    assert region.spawn_index == 0
    assert region.join_index == 3
    assert region.length == 2
    assert region.contains(1) and region.contains(2)
    assert not region.contains(3)
    assert prog.instructions[0].target == 3


def test_nested_spawn_rejected():
    with pytest.raises(AssemblerError, match="nested"):
        assemble("""
            .text
        main:
            spawn $t0, $t1
            spawn $t2, $t3
            join
            join
            halt
        """)


def test_join_without_spawn_rejected():
    with pytest.raises(AssemblerError, match="join without spawn"):
        assemble("    .text\nmain: join\n    halt\n")


def test_mem_operand_forms():
    prog = assemble("""
        .text
    main:
        lw $t0, 8($sp)
        sw $t0, -4($fp)
        lw $t1, ($t2)
        psm $t3, 0($t4)
        pref 16($t5)
        lwro $t6, 0($t7)
        swnb $t0, 0($t1)
        halt
    """)
    lw = prog.instructions[0]
    assert (lw.rd, lw.rs, lw.imm) == (8, 29, 8)
    assert prog.instructions[1].imm == -4
    assert prog.instructions[2].imm == 0
    assert prog.instructions[3].op == "psm"
    assert prog.instructions[5].op == "lwro"
    assert prog.instructions[6].op == "swnb"


def test_ps_family():
    prog = assemble("""
        .text
    main:
        ps   $t0, $g0
        getg $t1, $g3
        setg $t2, $g7
        halt
    """)
    assert prog.instructions[0].op == "ps"
    assert prog.instructions[1].op == "getg"
    assert prog.instructions[2].op == "setg"
    assert prog.instructions[2].imm == 7


def test_bad_global_register():
    with pytest.raises(AssemblerError):
        assemble("    .text\nmain: ps $t0, $g9\n    halt\n")


def test_comments_and_blank_lines():
    prog = assemble("""
        # full line comment
        .text
    main:   // c++ style
        nop  # trailing
        halt
    """)
    assert len(prog) == 2


def test_unknown_opcode():
    with pytest.raises(AssemblerError, match="unknown opcode"):
        assemble("    .text\nmain: frobnicate $t0\n")


def test_operand_count_checked():
    with pytest.raises(AssemblerError, match="expects 3 operands"):
        assemble("    .text\nmain: add $t0, $t1\n    halt\n")


@pytest.mark.parametrize("text, message", [
    ("main: li $t0, 4294967296", "out of range"),
    ("main: addi $t0, $zero, 8589934593", "out of range"),
    ("main: addi $t0, $zero, -2147483649", "out of range"),
    ("main: lw $t0, 4294967300($sp)", "out of range"),
    ("main: addi $t0, $zero, 0x1_0000_0001", "malformed integer"),
    (".data\nW: .word 4294967296\n.text\nmain: halt", "out of range"),
    (".data\n.greg 1, 8589934592\n.text\nmain: halt", "out of range"),
], ids=["li", "addi", "addi-negative", "offset", "underscores", "word",
        "greg"])
def test_out_of_range_literal_rejected(text, message):
    """Every immediate, offset, ``.word`` and ``.greg`` value must fit a
    32-bit field as a signed or an unsigned number; none wraps."""
    with pytest.raises(AssemblerError, match=message) as info:
        assemble(".text\n" + text + "\n halt\n")
    assert info.value.line > 0


def test_literal_range_edges_accepted():
    prog = assemble("""
        .data
    W:  .word -2147483648, 4294967295
        .greg 1, 4294967295
        .text
    main:
        li   $t0, -2147483648
        addi $t1, $t0, 4294967295
        lw   $t2, -2147483648($sp)
        halt
    """)
    assert [ins.imm for ins in prog.instructions[:3]] == [
        0x80000000, 0xFFFFFFFF, -0x80000000]
    w = prog.data_labels["W"]
    assert (prog.data_image[w], prog.data_image[w + 4]) == (
        0x80000000, 0xFFFFFFFF)
    assert prog.greg_init == {1: 0xFFFFFFFF}


def test_write_and_read_global_helpers():
    prog = assemble("""
        .data
    A:  .word 0, 0, 0
        .text
    main: halt
    """)
    prog.write_global("A", [1, -2, 3])
    mem = dict(prog.data_image)
    assert prog.read_global("A", mem) == [1, -2, 3]
    with pytest.raises(ValueError):
        prog.write_global("A", [1, 2, 3, 4])


def test_write_global_floats():
    prog = assemble("""
        .data
    F:  .space 8
        .text
    main: halt
    """)
    prog.write_global("F", [1.5, 2.5])
    addr = prog.global_addr("F")
    assert prog.data_image[addr] == f32_to_bits(1.5)


def test_disasm_roundtrip():
    source = """
        .data
    A:  .word 1
        .text
    main:
        la   $t0, A
        lw   $t1, 0($t0)
        addi $t1, $t1, 5
        beq  $t1, $zero, main
        halt
    """
    prog = assemble(source)
    text = format_program(prog)
    # the rendered text must itself assemble to the same instruction ops
    prog2 = assemble("    .data\nA: .word 1\n    .text\n" + text)
    assert [i.op for i in prog2.instructions] == [i.op for i in prog.instructions]


def test_format_instruction_labels():
    prog = assemble("    .text\nmain: nop\n    halt\n")
    assert "main" in format_instruction(prog.instructions[0], prog)
