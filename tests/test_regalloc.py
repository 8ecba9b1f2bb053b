"""Register-allocation tests, including the paper's parallel spill error."""

import pytest

from conftest import opts, run_xmtc_cycle
from repro.isa.registers import CALLEE_SAVED, REG_VT
from repro.xmtc.compiler import CompileOptions, compile_source, compile_to_asm
from repro.xmtc.errors import CompileError, RegisterSpillError


def many_live_values(n, in_spawn):
    """A program keeping n independent values live simultaneously."""
    decls = "\n".join(
        f"        int v{i} = $ + {i};" if in_spawn else
        f"    int v{i} = x + {i};" for i in range(n))
    total = " + ".join(f"v{i}" for i in range(n))
    if in_spawn:
        return f"""
int OUT[64];
int main() {{
    spawn(0, 63) {{
{decls}
        OUT[$] = {total};
    }}
    return 0;
}}
"""
    return f"""
int out = 0;
int main() {{
    int x = 1;
{decls}
    out = {total};
    return 0;
}}
"""


class TestParallelSpillError:
    def test_modest_pressure_fits(self):
        compile_source(many_live_values(10, in_spawn=True))

    def test_excess_pressure_raises_spill_error(self):
        """Section IV-D: 'the compiler checks if the available registers
        suffice and produces a register spill error otherwise'."""
        with pytest.raises(RegisterSpillError, match="parallel code"):
            compile_source(many_live_values(40, in_spawn=True))

    def test_spill_error_is_compile_error(self):
        with pytest.raises(CompileError):
            compile_source(many_live_values(40, in_spawn=True))


class TestSerialSpilling:
    def test_serial_pressure_spills_to_frame(self):
        """Serial code spills instead of erroring..."""
        prog = compile_source(many_live_values(40, in_spawn=False))
        # and still computes the right answer
        from conftest import run_xmtc_cycle
        _, res = run_xmtc_cycle(many_live_values(40, in_spawn=False))
        expected = sum(1 + i for i in range(40))
        assert res.read_global("out") == expected

    def test_values_survive_calls_via_callee_saved(self):
        src = """
int noise() { return 7; }
int out = 0;
int main() {
    int a = 10;
    int b = 20;
    int c = noise();
    out = a + b + c;
    return 0;
}
"""
        _, res = run_xmtc_cycle(src)
        assert res.read_global("out") == 37

    def test_callee_saved_restored(self):
        """A function clobbering $sN must restore it for its caller."""
        src = """
int helper() {
    int x = 1;
    int y = 2;
    int z = helper2();
    return x + y + z;
}
int helper2() { return 3; }
int out = 0;
int main() {
    int keep = 100;
    int r = helper();
    out = keep + r;
    return 0;
}
"""
        _, res = run_xmtc_cycle(src)
        assert res.read_global("out") == 106

    def test_deep_recursion_stack_discipline(self):
        src = """
int sum_to(int n) {
    if (n <= 0) return 0;
    return n + sum_to(n - 1);
}
int out = 0;
int main() {
    out = sum_to(30);
    return 0;
}
"""
        _, res = run_xmtc_cycle(src)
        assert res.read_global("out") == 465


class TestPinning:
    def test_dollar_uses_vt_register(self):
        asm = compile_to_asm("""
int A[8];
int main() { spawn(0, 7) { A[$] = $; } return 0; }
""").asm_text
        assert "getvt $k0" in asm

    def test_live_in_registers_not_clobbered_by_body(self):
        """Captured values must keep their registers across VT bodies."""
        src = """
int OUT[32];
int main() {
    int base = 1000;
    int scale = 3;
    spawn(0, 31) {
        int t = $ * scale;
        OUT[$] = base + t;
    }
    return 0;
}
"""
        _, res = run_xmtc_cycle(src)
        assert res.read_global("OUT") == [1000 + i * 3 for i in range(32)]

    def test_many_captures_with_body_pressure(self):
        caps = "\n".join(f"    int c{i} = {i * 11};" for i in range(6))
        use = " + ".join(f"c{i}" for i in range(6))
        src = f"""
int OUT[16];
int main() {{
{caps}
    spawn(0, 15) {{
        int a = $ * 2;
        int b = $ + 1;
        OUT[$] = {use} + a + b;
    }}
    return 0;
}}
"""
        _, res = run_xmtc_cycle(src)
        want = [sum(i * 11 for i in range(6)) + i * 2 + i + 1 for i in range(16)]
        assert res.read_global("OUT") == want


class TestArguments:
    def test_more_than_four_args(self):
        src = """
int addup(int a, int b, int c, int d, int e, int f) {
    return a + b + c + d + e + f;
}
int out = 0;
int main() {
    out = addup(1, 2, 3, 4, 5, 6);
    return 0;
}
"""
        _, res = run_xmtc_cycle(src)
        assert res.read_global("out") == 21

    def test_nested_calls_with_stack_args(self):
        src = """
int f6(int a, int b, int c, int d, int e, int f) { return f; }
int g(int x) { return f6(x, x, x, x, x, x + 1); }
int out = 0;
int main() { out = g(5); return 0; }
"""
        _, res = run_xmtc_cycle(src)
        assert res.read_global("out") == 6


def _reference_intervals(instrs, loop_back):
    """The allocator's earlier interval builder, kept as an oracle: it
    touches every temp used, defined or live-out at every position and
    copies the live set there."""
    from repro.xmtc import ir as IR
    from repro.xmtc.analysis.dataflow import instr_uses, liveness

    uses = [instr_uses(ins) for ins in instrs]
    live = liveness(instrs, loop_back=loop_back, uses=uses)
    spans = {}

    def touch(temp, pos):
        if temp.pinned is None:
            start, end, _ = spans.get(temp.id, (pos, pos + 1, False))
            spans[temp.id] = [min(start, pos), max(end, pos + 1), temp]

    for pos, ins in enumerate(instrs):
        for t in list(uses[pos]) + list(ins.defs()) + list(live[pos]):
            touch(t, pos)
    crosses = set()
    for pos, ins in enumerate(instrs):
        spawn_calls = (isinstance(ins, IR.SpawnIR)
                       and IR.region_has_calls(ins.body))
        if isinstance(ins, IR.Call) or spawn_calls:
            for tid, (start, end, temp) in spans.items():
                if (start < pos and end > pos + 1
                        or start < pos and temp in live[pos]
                        or spawn_calls and start <= pos
                        and temp in uses[pos]):
                    crosses.add(tid)
    return {tid: (start, end, tid in crosses)
            for tid, (start, end, _) in spans.items()}


def test_block_edge_intervals_match_the_per_position_builder():
    """Intervals read off block edges equal the per-position ones,
    crossing flags included, for every region of the golden corpus."""
    import dataclasses

    from test_compiler_golden import corpus

    from repro.xmtc import ir as IR
    from repro.xmtc import regalloc

    # a call ending a spawn body: t is live across it only by the call's
    # live-out set (the dispatch loop's back edge), its interval ending
    # at the call
    t, x = IR.Temp(0), IR.Temp(1)
    edge = [IR.Bin(x, "add", t, IR.Const(1)), IR.Mov(t, IR.Const(1)),
            IR.Call(None, "f", [])]
    intervals, _ = regalloc._build_intervals(edge, True)
    assert (intervals[0].start, intervals[0].end) == (0, 3)
    assert intervals[0].crosses_call
    assert _reference_intervals(edge, True)[0] == (0, 3, True)

    regions = 0
    for source, options in corpus().values():
        options = dataclasses.replace(options or CompileOptions(),
                                      keep_intermediates=True)
        for func in compile_to_asm(source, options).ir.functions:
            for instrs, loop_back in [(func.body, False)] + [
                    (ins.body, True) for ins in func.body
                    if isinstance(ins, IR.SpawnIR)]:
                intervals, _ = regalloc._build_intervals(instrs, loop_back)
                got = {tid: (iv.start, iv.end, iv.crosses_call)
                       for tid, iv in intervals.items()}
                assert got == _reference_intervals(instrs, loop_back)
                regions += 1
    assert regions > 300        # 396 serial regions and spawn bodies
