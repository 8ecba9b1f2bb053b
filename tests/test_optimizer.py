"""Optimizer-pass tests: each pass on constructed IR and through the
full pipeline (assembly inspection + semantics preservation)."""

import pytest

from conftest import opts, run_xmtc_cycle
from repro.xmtc import ir as IR
from repro.xmtc.analysis.cfg import split_blocks
from repro.xmtc.analysis.dataflow import liveness, spawn_live_ins
from repro.xmtc.compiler import CompileOptions, compile_to_asm
from repro.xmtc.optimizer import constant_folding, copy_propagation, cse, dead_code


def make_func():
    return IR.IRFunc("test")


def asm_of(source, **kw):
    return compile_to_asm(source, CompileOptions(**kw)).asm_text


def asm_ops(asm):
    ops = []
    for line in asm.splitlines():
        text = line.strip()
        if text and not text.endswith(":") and not text.startswith("."):
            ops.append(text.split()[0])
    return ops


class TestConstantFolding:
    def test_binop_folds(self):
        f = make_func()
        t = f.new_temp()
        f.body = [IR.Bin(t, "add", IR.Const(2), IR.Const(3))]
        constant_folding.run(f)
        assert isinstance(f.body[0], IR.Mov)
        assert f.body[0].src == IR.Const(5)

    def test_mul_by_power_of_two_becomes_shift(self):
        f = make_func()
        a, t = f.new_temp(), f.new_temp()
        f.body = [IR.Bin(t, "mul", a, IR.Const(8))]
        constant_folding.run(f)
        assert f.body[0].op == "sll"
        assert f.body[0].b == IR.Const(3)

    def test_add_zero_elided(self):
        f = make_func()
        a, t = f.new_temp(), f.new_temp()
        f.body = [IR.Bin(t, "add", a, IR.Const(0))]
        constant_folding.run(f)
        assert isinstance(f.body[0], IR.Mov)

    def test_div_by_zero_left_for_runtime(self):
        f = make_func()
        t = f.new_temp()
        f.body = [IR.Bin(t, "div", IR.Const(1), IR.Const(0))]
        constant_folding.run(f)
        assert isinstance(f.body[0], IR.Bin)

    def test_constant_condjump_resolved(self):
        f = make_func()
        f.body = [
            IR.CondJump("lt", IR.Const(1), IR.Const(2), "L1"),
            IR.CondJump("gt", IR.Const(1), IR.Const(2), "L2"),
            IR.Label("L1"),
            IR.Label("L2"),
        ]
        constant_folding.run(f)
        assert isinstance(f.body[0], IR.Jump)
        assert isinstance(f.body[1], IR.Label)  # never-taken branch dropped

    def test_x_minus_x(self):
        f = make_func()
        a, t = f.new_temp(), f.new_temp()
        f.body = [IR.Bin(t, "sub", a, a)]
        constant_folding.run(f)
        assert f.body[0].src == IR.Const(0)

    def test_sub_const_becomes_addi_in_asm(self):
        asm = asm_of("int g = 0; int main() { int x = g; g = x - 3; return 0; }")
        assert "addi" in asm and ", -3" in asm


class TestCopyPropagation:
    def test_copy_propagated(self):
        f = make_func()
        a, b, c = f.new_temp(), f.new_temp(), f.new_temp()
        f.body = [
            IR.Mov(b, a),
            IR.Bin(c, "add", b, IR.Const(1)),
        ]
        copy_propagation.run(f)
        assert f.body[1].a is a

    def test_const_propagated(self):
        f = make_func()
        a, b = f.new_temp(), f.new_temp()
        f.body = [
            IR.Mov(a, IR.Const(7)),
            IR.Bin(b, "add", a, IR.Const(1)),
        ]
        copy_propagation.run(f)
        constant_folding.run(f)
        assert f.body[1].src == IR.Const(8)

    def test_kill_on_redefine(self):
        f = make_func()
        a, b, c = f.new_temp("a"), f.new_temp("b"), f.new_temp("c")
        f.body = [
            IR.Mov(b, a),
            IR.Mov(a, IR.Const(9)),   # invalidates b -> a
            IR.Bin(c, "add", b, IR.Const(0)),
        ]
        copy_propagation.run(f)
        assert f.body[2].a is b  # must NOT have become a

    def test_label_clears_env(self):
        f = make_func()
        a, b, c = f.new_temp(), f.new_temp(), f.new_temp()
        f.body = [
            IR.Mov(b, a),
            IR.Label("L"),
            IR.Bin(c, "add", b, IR.Const(0)),
        ]
        copy_propagation.run(f)
        assert f.body[2].a is b

    def test_stale_index_entry_never_kills(self):
        # the kill index still lists b as a copy of a after b was
        # redefined as a copy of c; redefining a must not forget b -> c
        f = make_func()
        a, b, c, d = (f.new_temp() for _ in range(4))
        f.body = [
            IR.Mov(b, a),
            IR.Mov(b, c),
            IR.Mov(a, IR.Const(9)),
            IR.Bin(d, "add", b, IR.Const(1)),
        ]
        copy_propagation.run(f)
        assert f.body[3].a is c


class TestCSE:
    def test_common_binop_dedupe(self):
        f = make_func()
        a, b = f.new_temp(), f.new_temp()
        x, y = f.new_temp(), f.new_temp()
        f.body = [
            IR.Bin(x, "add", a, b),
            IR.Bin(y, "add", a, b),
        ]
        f.body = cse.cse_region(f.body)
        assert isinstance(f.body[1], IR.Mov)

    def test_commutative_matching(self):
        f = make_func()
        a, b, x, y = (f.new_temp() for _ in range(4))
        f.body = [
            IR.Bin(x, "add", a, b),
            IR.Bin(y, "add", b, a),
        ]
        f.body = cse.cse_region(f.body)
        assert isinstance(f.body[1], IR.Mov)

    def test_redundant_load_eliminated(self):
        f = make_func()
        addr, x, y = f.new_temp(), f.new_temp(), f.new_temp()
        f.body = [
            IR.Load(x, addr),
            IR.Load(y, addr),
        ]
        f.body = cse.cse_region(f.body)
        assert isinstance(f.body[1], IR.Mov)

    def test_store_kills_loads(self):
        f = make_func()
        addr, x, y, v = (f.new_temp() for _ in range(4))
        f.body = [
            IR.Load(x, addr),
            IR.Store(v, addr),
            IR.Load(y, addr),
        ]
        f.body = cse.cse_region(f.body)
        assert isinstance(f.body[2], IR.Load)

    def test_psm_is_memory_barrier(self):
        """Memory-model rule: no load motion across prefix-sums."""
        f = make_func()
        addr, x, y, t = (f.new_temp() for _ in range(4))
        f.body = [
            IR.Load(x, addr),
            IR.PsmIR(t, addr),
            IR.Load(y, addr),
        ]
        f.body = cse.cse_region(f.body)
        assert isinstance(f.body[2], IR.Load)

    def test_ps_is_memory_barrier(self):
        f = make_func()
        addr, x, y, t = (f.new_temp() for _ in range(4))
        f.body = [
            IR.Load(x, addr),
            IR.PsIR(t, 0, "ps"),
            IR.Load(y, addr),
        ]
        f.body = cse.cse_region(f.body)
        assert isinstance(f.body[2], IR.Load)

    def test_volatile_load_never_deduped(self):
        f = make_func()
        addr, x, y = (f.new_temp() for _ in range(3))
        f.body = [
            IR.Load(x, addr, volatile=True),
            IR.Load(y, addr, volatile=True),
        ]
        f.body = cse.cse_region(f.body)
        assert all(isinstance(i, IR.Load) for i in f.body)

    def test_operand_redefinition_kills_expr(self):
        f = make_func()
        a, b, x, y = (f.new_temp() for _ in range(4))
        f.body = [
            IR.Bin(x, "add", a, b),
            IR.Mov(a, IR.Const(1)),
            IR.Bin(y, "add", a, b),
        ]
        f.body = cse.cse_region(f.body)
        assert isinstance(f.body[2], IR.Bin)

    def test_stale_index_entry_never_kills(self):
        # a + b was first held by x; after a's redefinition it is held
        # by y, and redefining x must not forget that
        f = make_func()
        a, b, x, y, z = (f.new_temp() for _ in range(5))
        f.body = [
            IR.Bin(x, "add", a, b),
            IR.Mov(a, IR.Const(1)),
            IR.Bin(y, "add", a, b),
            IR.Mov(x, IR.Const(7)),
            IR.Bin(z, "add", a, b),
        ]
        f.body = cse.cse_region(f.body)
        assert isinstance(f.body[4], IR.Mov) and f.body[4].src is y


class TestDeadCode:
    def test_dead_arith_removed(self):
        f = make_func()
        a, dead = f.new_temp(), f.new_temp()
        f.body = [
            IR.Bin(dead, "add", IR.Const(1), IR.Const(2)),
            IR.Ret(a),
        ]
        dead_code.run(f)
        assert all(not isinstance(i, IR.Bin) for i in f.body)

    def test_store_never_removed(self):
        f = make_func()
        addr, v = f.new_temp(), f.new_temp()
        f.body = [
            IR.Store(v, addr),
            IR.Ret(None),
        ]
        dead_code.run(f)
        assert isinstance(f.body[0], IR.Store)

    def test_volatile_load_never_removed(self):
        f = make_func()
        addr, x = f.new_temp(), f.new_temp()
        f.body = [
            IR.Load(x, addr, volatile=True),
            IR.Ret(None),
        ]
        dead_code.run(f)
        assert isinstance(f.body[0], IR.Load)

    def test_unreachable_after_jump_removed(self):
        f = make_func()
        t = f.new_temp()
        f.body = [
            IR.Jump("end"),
            IR.Bin(t, "add", IR.Const(1), IR.Const(1)),
            IR.Label("end"),
            IR.Ret(None),
        ]
        dead_code.run(f)
        assert not any(isinstance(i, IR.Bin) for i in f.body)

    def test_loop_carried_value_stays(self):
        """A value used around the loop back edge must not be deleted."""
        f = make_func()
        i, cond = f.new_temp("i"), f.new_temp("c")
        f.body = [
            IR.Mov(i, IR.Const(0)),
            IR.Label("loop"),
            IR.Bin(i, "add", i, IR.Const(1)),
            IR.Bin(cond, "slt", i, IR.Const(10)),
            IR.CondJump("ne", cond, IR.Const(0), "loop"),
            IR.Ret(i),
        ]
        dead_code.run(f)
        assert sum(isinstance(x, IR.Bin) for x in f.body) == 2

    def test_spawn_body_loopback_liveness(self):
        """A temp live across virtual threads (carried over the dispatch
        loop) must be kept alive in a spawn body."""
        f = make_func()
        dollar = f.new_temp("vt", pinned=26)
        acc, addr = f.new_temp("acc"), f.new_temp("addr")
        body = [
            IR.Bin(acc, "add", acc, dollar),   # accumulates across VTs
            IR.Store(acc, addr),
        ]
        f.body = [IR.SpawnIR(IR.Const(0), IR.Const(3), body, dollar)]
        dead_code.run(f)
        assert isinstance(f.body[0].body[0], IR.Bin)


class TestXMTSpecificPasses:
    def test_nonblocking_conversion_parallel_only(self):
        asm = asm_of("""
int A[8];
int s = 0;
int main() {
    spawn(0, 7) { A[$] = $; }
    s = 1;
    return 0;
}
""")
        lines = asm.splitlines()
        spawn_i = next(i for i, l in enumerate(lines) if "spawn" in l)
        join_i = next(i for i, l in enumerate(lines) if "join" in l.strip())
        region = "\n".join(lines[spawn_i:join_i])
        assert "swnb" in region

    def test_nonblocking_can_be_disabled(self):
        asm = asm_of("""
int A[8];
int main() { spawn(0, 7) { A[$] = $; } return 0; }
""", nonblocking_stores=False)
        assert "swnb" not in asm

    def test_volatile_store_stays_blocking(self):
        asm = asm_of("""
volatile int flag = 0;
int main() { spawn(0, 1) { flag = 1; } return 0; }
""")
        lines = [l.strip() for l in asm.splitlines()]
        stores = [l for l in lines if l.startswith(("sw", "swnb"))]
        assert any(l.startswith("sw ") for l in stores)

    def test_prefetch_insertion(self):
        asm = asm_of("""
int A[64];
int B[64];
int C[64];
int main() {
    spawn(0, 63) { C[$] = A[$] + B[$]; }
    return 0;
}
""")
        assert "pref" in asm

    def test_prefetch_can_be_disabled(self):
        asm = asm_of("""
int A[64];
int B[64];
int main() { spawn(0, 63) { B[$] = A[$]; } return 0; }
""", prefetch=False)
        assert "pref" not in asm

    def test_prefetch_preserves_semantics(self):
        src = """
int A[32];
int B[32];
int C[32];
int main() {
    spawn(0, 31) { C[$] = A[$] * 2 + B[31 - $]; }
    return 0;
}
"""
        data_a = list(range(32))
        data_b = [x * 7 for x in range(32)]
        want = [data_a[i] * 2 + data_b[31 - i] for i in range(32)]
        for pf in (True, False):
            _, res = run_xmtc_cycle(src, inputs={"A": data_a, "B": data_b},
                                    options=opts(prefetch=pf))
            assert res.read_global("C") == want

    def test_ro_cache_routing(self):
        asm = asm_of("""
int LUT[16];
int OUT[16];
int main() {
    spawn(0, 15) { OUT[$] = LUT[$]; }
    return 0;
}
""", ro_cache=True, prefetch=False)
        assert "lwro" in asm
        # the written array must NOT go through the RO cache
        for line in asm.splitlines():
            if "lwro" in line:
                pass
        # loads of OUT do not exist; stores use sw/swnb
        assert "lwro" in asm

    def test_ro_cache_not_applied_to_written_globals(self):
        asm = asm_of("""
int A[16];
int main() {
    spawn(0, 15) { A[$] = A[$] + 1; }
    return 0;
}
""", ro_cache=True, prefetch=False)
        assert "lwro" not in asm

    def test_ro_cache_semantics(self):
        src = """
int LUT[16];
int OUT[16];
int main() {
    spawn(0, 15) { OUT[$] = LUT[15 - $] * 2; }
    return 0;
}
"""
        data = [x * 3 for x in range(16)]
        want = [data[15 - i] * 2 for i in range(16)]
        _, res = run_xmtc_cycle(src, inputs={"LUT": data},
                                options=opts(ro_cache=True))
        assert res.read_global("OUT") == want
        assert res.stats.get("ro_cache.hit") + res.stats.get("ro_cache.miss") > 0


class TestOptLevels:
    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_all_levels_same_semantics(self, level):
        src = """
int A[16];
int out = 0;
int main() {
    int acc = 0;
    for (int i = 0; i < 16; i++) {
        int t = A[i] * 4 / 2;
        acc += t + 0;
    }
    out = acc;
    return 0;
}
"""
        data = list(range(16))
        _, res = run_xmtc_cycle(src, inputs={"A": data},
                                options=opts(opt_level=level))
        assert res.read_global("out") == sum(x * 2 for x in data)

    def test_o2_emits_fewer_instructions_than_o0(self):
        src = """
int A[16];
int out = 0;
int main() {
    int acc = 0;
    for (int i = 0; i < 16; i++) {
        acc += A[i] * 2 + A[i] * 2;
    }
    out = acc;
    return 0;
}
"""
        o0 = asm_ops(asm_of(src, opt_level=0))
        o2 = asm_ops(asm_of(src, opt_level=2))
        assert len(o2) < len(o0)


class TestCFGHelpers:
    def test_split_blocks(self):
        f = make_func()
        t = f.new_temp()
        instrs = [
            IR.Mov(t, IR.Const(0)),
            IR.Label("L"),
            IR.Bin(t, "add", t, IR.Const(1)),
            IR.CondJump("lt", t, IR.Const(5), "L"),
            IR.Ret(t),
        ]
        blocks, labels = split_blocks(instrs)
        assert len(blocks) == 3
        assert labels["L"] == 1
        assert blocks[1].succs == [1, 2]

    def test_spawn_live_ins(self):
        f = make_func()
        dollar = f.new_temp("vt", pinned=26)
        outer = f.new_temp("outer")
        inner = f.new_temp("inner")
        body = [
            IR.Bin(inner, "add", dollar, outer),
            IR.Store(inner, outer),
        ]
        spawn = IR.SpawnIR(IR.Const(0), IR.Const(1), body, dollar)
        live = spawn_live_ins(spawn)
        assert outer in live
        assert inner not in live
        assert dollar not in live
