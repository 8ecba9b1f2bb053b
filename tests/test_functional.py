"""Fast functional simulation mode (assembly level)."""

import pytest

from conftest import run_asm_functional
from repro.sim.functional import FunctionalSimulator, SimulationError
from repro.isa.assembler import assemble


def test_arithmetic_and_print():
    _, res = run_asm_functional(r"""
        .data
    L:  .fmt "%d %d %d\n"
        .text
    main:
        li   $t0, 6
        li   $t1, 7
        mul  $t2, $t0, $t1
        addi $t3, $t2, -2
        div  $t4, $t2, $t1
        print L, $t2, $t3, $t4
        halt
    """)
    assert res.output == "42 40 6\n"


def test_memory_roundtrip():
    prog, res = run_asm_functional("""
        .data
    A:  .word 10, 20, 30
        .text
    main:
        la   $t0, A
        lw   $t1, 4($t0)
        addi $t1, $t1, 1
        sw   $t1, 8($t0)
        halt
    """)
    assert res.read_global(prog, "A") == [10, 20, 21]


def test_branches_and_loop():
    _, res = run_asm_functional(r"""
        .data
    L:  .fmt "%d\n"
        .text
    main:
        li   $t0, 0
        li   $t1, 0
    loop:
        add  $t1, $t1, $t0
        addi $t0, $t0, 1
        slti $t2, $t0, 5
        bnez $t2, loop
        print L, $t1
        halt
    """)
    assert res.output == "10\n"


def test_jal_jr_call():
    _, res = run_asm_functional(r"""
        .data
    L:  .fmt "%d\n"
        .text
    main:
        li   $a0, 5
        jal  double
        print L, $v0
        halt
    double:
        add  $v0, $a0, $a0
        jr   $ra
    """)
    assert res.output == "10\n"


def test_spawn_serialization_order():
    """Functional mode grants IDs low..high in order on one context."""
    prog, res = run_asm_functional("""
        .data
    A:  .space 16
    order: .word 0
        .text
    main:
        li   $t0, 2
        li   $t1, 5
        spawn $t0, $t1
    vt:
        getvt $k0
        chkid $k0
        la   $t2, A
        addi $t3, $k0, -2
        slli $t3, $t3, 2
        add  $t2, $t2, $t3
        sw   $k0, 0($t2)
        j    vt
        join
        halt
    """)
    assert res.read_global(prog, "A") == [2, 3, 4, 5]


def test_zero_iteration_spawn():
    _, res = run_asm_functional(r"""
        .data
    L:  .fmt "done\n"
        .text
    main:
        li   $t0, 5
        li   $t1, 4
        spawn $t0, $t1
    vt:
        getvt $k0
        chkid $k0
        j    vt
        join
        print L
        halt
    """)
    assert res.output == "done\n"


def test_ps_and_greg_init():
    _, res = run_asm_functional(r"""
        .data
        .greg 0, 100
    L:  .fmt "%d %d\n"
        .text
    main:
        li   $t0, 1
        ps   $t0, $g0
        getg $t1, $g0
        print L, $t0, $t1
        halt
    """)
    assert res.output == "100 101\n"


def test_setg():
    _, res = run_asm_functional(r"""
        .data
    L:  .fmt "%d\n"
        .text
    main:
        li   $t0, 55
        setg $t0, $g2
        getg $t1, $g2
        print L, $t1
        halt
    """)
    assert res.output == "55\n"


def test_psm_atomic_semantics():
    prog, res = run_asm_functional(r"""
        .data
    v:  .word 10
    L:  .fmt "%d\n"
        .text
    main:
        la   $t0, v
        li   $t1, 5
        psm  $t1, 0($t0)
        print L, $t1
        halt
    """)
    assert res.output == "10\n"
    assert res.read_global(prog, "v") == 15


def test_instruction_counts():
    _, res = run_asm_functional("""
        .text
    main:
        nop
        nop
        li $t0, 1
        halt
    """)
    assert res.instruction_counts["nop"] == 2
    assert res.instruction_counts["li"] == 1
    assert res.instructions == 4


def test_infinite_loop_budget():
    prog = assemble("""
        .text
    main:
    loop:
        j loop
    """)
    # needs a halt to exist, but the loop never reaches it
    prog2 = assemble("""
        .text
    main:
    loop:
        j loop
        halt
    """)
    with pytest.raises(SimulationError, match="budget"):
        FunctionalSimulator(prog2, max_instructions=1000).run()


def test_trap_division_by_zero():
    prog = assemble("""
        .text
    main:
        li  $t0, 1
        li  $t1, 0
        div $t2, $t0, $t1
        halt
    """)
    with pytest.raises(SimulationError, match="division by zero"):
        FunctionalSimulator(prog).run()


def test_trap_unaligned():
    prog = assemble("""
        .text
    main:
        li  $t0, 0x1001
        lw  $t1, 0($t0)
        halt
    """)
    with pytest.raises(SimulationError, match="unaligned"):
        FunctionalSimulator(prog).run()


def test_trap_null():
    prog = assemble("""
        .text
    main:
        lw  $t1, 0($zero)
        halt
    """)
    with pytest.raises(SimulationError, match="null"):
        FunctionalSimulator(prog).run()


def test_getvt_outside_spawn_traps():
    prog = assemble("""
        .text
    main:
        getvt $t0
        halt
    """)
    with pytest.raises(SimulationError, match="getvt"):
        FunctionalSimulator(prog).run()


def test_region_escape_detected():
    prog = assemble("""
        .text
    main:
        li $t0, 0
        li $t1, 0
        spawn $t0, $t1
    vt:
        getvt $k0
        chkid $k0
        j outside
        j vt
        join
    outside:
        halt
    """)
    with pytest.raises(SimulationError, match="left the spawn region"):
        FunctionalSimulator(prog).run()


def test_zero_register_immutable():
    _, res = run_asm_functional(r"""
        .data
    L:  .fmt "%d\n"
        .text
    main:
        li   $zero, 99
        print L, $zero
        halt
    """)
    assert res.output == "0\n"


def test_missing_halt():
    prog = assemble("""
        .text
    main:
        jr $ra
    """)
    # jr $ra with ra=0 jumps to main... actually ra=0 -> pc=0 infinite loop
    with pytest.raises(SimulationError):
        FunctionalSimulator(prog, max_instructions=100).run()


@pytest.mark.parametrize("engine", ["functional", "cycle"])
def test_data_reaching_the_master_stack_is_rejected(engine):
    """Both engines refuse a data segment that ends within
    ``MIN_SERIAL_STACK`` of ``stack_top``: the serial stack used to
    overwrite the top of such a global silently (and with it saved
    return addresses)."""
    from repro.isa.program import MIN_SERIAL_STACK
    from repro.sim.config import tiny
    from repro.sim.machine import Simulator
    from repro.xmtc.compiler import compile_source

    program = compile_source("int A[64]; int B[2];\n"
                             "int main() { A[63] = B[1]; return 0; }")
    assert program.data_end == 0x1000 + 4 * 66

    def start(stack_top):
        if engine == "functional":
            return FunctionalSimulator(program, stack_top=stack_top)
        config = tiny()
        config.stack_top = stack_top
        return Simulator(program, config)

    start(program.data_end + MIN_SERIAL_STACK)        # just enough room
    with pytest.raises(ValueError) as info:
        start(program.data_end + MIN_SERIAL_STACK - 8)
    message = str(info.value)
    for part in (f"stack_top {program.data_end + MIN_SERIAL_STACK - 8:#x}",
                 f"data segment ends at {program.data_end:#x}",
                 "largest global is 'A' (256 bytes)"):
        assert part in message
