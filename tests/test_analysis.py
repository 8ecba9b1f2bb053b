"""Unit tests for the shared static-analysis layer
(`repro.xmtc.analysis`): the worklist dataflow engine and its standard
problems (liveness, reaching definitions), per-function side-effect
summaries, spawn-body value classification, and diagnostic plumbing."""

from repro.xmtc import ir as IR
from repro.xmtc.analysis.cfg import split_blocks
from repro.xmtc.analysis.classify import (
    DOLLAR,
    UNIFORM,
    classify_body,
)
from repro.xmtc.analysis.dataflow import (
    block_def_positions,
    liveness,
    reaching_definitions,
    region_live_in,
    spawn_live_ins,
)
from repro.xmtc.analysis.diagnostics import (
    Diagnostic,
    apply_suppressions,
    has_errors,
    sort_diagnostics,
    suppressions,
)
from repro.xmtc.analysis.summaries import compute_summaries
from repro.xmtc.compiler import CompileOptions, compile_to_asm


def T(i, hint=""):
    return IR.Temp(i, hint)


def compiled_ir(source, **opts):
    options = CompileOptions(keep_intermediates=True, **opts)
    return compile_to_asm(source, options).ir


def find_spawn(unit):
    for func in unit.functions:
        for ins in func.body:
            if isinstance(ins, IR.SpawnIR):
                return ins
    raise AssertionError("no SpawnIR in unit")


# --------------------------------------------------------------------- CFG

class TestCFG:
    def test_straight_line_is_one_block(self):
        t = T(0)
        instrs = [IR.Mov(t, IR.Const(1)), IR.Ret(t)]
        blocks, _ = split_blocks(instrs)
        assert len(blocks) == 1
        assert (blocks[0].start, blocks[0].end) == (0, 2)

    def test_diamond_edges(self):
        c, t = T(0), T(1)
        instrs = [
            IR.CondJump("eq", c, IR.Const(0), "skip"),   # b0
            IR.Mov(t, IR.Const(1)),                      # b1
            IR.Jump("end"),
            IR.Label("skip"),                            # b2
            IR.Mov(t, IR.Const(2)),
            IR.Label("end"),                             # b3
            IR.Ret(t),
        ]
        blocks, _ = split_blocks(instrs)
        assert len(blocks) == 4
        assert sorted(blocks[0].succs) == [1, 2]
        assert blocks[1].succs == [3] and blocks[2].succs == [3]
        assert blocks[3].succs == []


# ---------------------------------------------------------------- liveness

class TestLiveness:
    def test_straight_line(self):
        t0, t1 = T(0), T(1)
        instrs = [IR.Mov(t0, IR.Const(1)),
                  IR.Bin(t1, "+", t0, IR.Const(2)),
                  IR.Ret(t1)]
        out = liveness(instrs)
        assert out[0] == {t0}
        assert out[1] == {t1}
        assert out[2] == set()

    def test_branch_kills_on_both_arms(self):
        c, t = T(0), T(1)
        instrs = [
            IR.CondJump("eq", c, IR.Const(0), "skip"),
            IR.Mov(t, IR.Const(1)),
            IR.Jump("end"),
            IR.Label("skip"),
            IR.Mov(t, IR.Const(2)),
            IR.Label("end"),
            IR.Ret(t),
        ]
        out = liveness(instrs)
        # t is defined on both arms, so nothing is live across the branch
        assert out[0] == set()
        assert out[1] == {t}

    def test_loop_back_keeps_broadcast_values_live(self):
        # the dispatch loop re-enters the region: a value consumed at
        # the top must stay live through the bottom for the next thread
        d, m, t1, t2 = T(0, "dollar"), T(1), T(2), T(3)
        body = [IR.Bin(t1, "+", d, m), IR.Mov(t2, t1)]
        assert m not in liveness(body)[1]
        assert m in liveness(body, loop_back=True)[1]

    def test_region_live_in_excludes_region_defined(self):
        a, b, c = T(0), T(1), T(2)
        body = [IR.Mov(a, IR.Const(0)), IR.Bin(b, "+", a, c)]
        assert region_live_in(body, loop_back=True) == {c}

    def test_seed_live_out(self):
        t0, t1 = T(0), T(1)
        instrs = [IR.Mov(t0, IR.Const(1))]
        assert liveness(instrs, seed_live_out={t1})[0] == {t1}


class TestSpawnLiveIns:
    def test_precise_set(self):
        d, m, h, t1, t2 = T(0, "dollar"), T(1), T(2), T(3), T(4)
        body = [IR.Bin(t1, "+", d, m), IR.Mov(t2, t1)]
        spawn = IR.SpawnIR(IR.Const(0), h, body, d)
        live = spawn_live_ins(spawn)
        assert m in live          # broadcast from the master
        assert h in live          # the spawn hardware reads the bound
        assert d not in live      # provided per-thread by the hardware
        assert t1 not in live and t2 not in live   # body-local

    def test_defined_before_use_not_live_in(self):
        # the old region_uses approximation reported every used temp;
        # real liveness knows t is produced inside the body
        d, t = T(0, "dollar"), T(1)
        body = [IR.Mov(t, d), IR.Mov(t, t)]
        spawn = IR.SpawnIR(IR.Const(0), IR.Const(3), body, d)
        assert spawn_live_ins(spawn) == set()

    def test_nested_spawn_contributes_inner_live_ins(self):
        d_in, d_out, m = T(0, "dollar"), T(1, "dollar"), T(2)
        t = T(3)
        inner = IR.SpawnIR(IR.Const(0), IR.Const(1),
                           [IR.Bin(t, "+", d_in, m)], d_in)
        outer_body = [inner]
        live = region_live_in(outer_body, loop_back=True)
        assert m in live and d_in not in live


class TestAnalysisWork:
    """Timing-free guard that each region's liveness is solved once per
    request: exact ``_liveness_blocks`` call counts, so a nested spawn
    recomputed per enclosing walk, or spawn live-ins recomputed per
    interval by the allocator, fails here rather than slowing the
    ``compile_corpus`` benchmark."""

    SOURCE = """
    int A[64]; int B[64];
    int twice(int v) { return v + v; }
    int main() {
        int k = 3;
        spawn(0, 63) { A[$] = twice($) + k; }
        spawn(0, 63) { B[$] = A[63 - $] * k; }
        return 0;
    }
    """

    @staticmethod
    def count_calls(monkeypatch):
        """Count every caller: the solver is patched in each loaded
        module that holds it, including those that import it by name."""
        import sys

        import repro.xmtc.compiler  # noqa: F401 -- load every caller
        from repro.xmtc.analysis import dataflow

        calls = [0]
        original = dataflow._liveness_blocks

        def counted(*args):
            calls[0] += 1
            return original(*args)
        holders = [module for name, module in list(sys.modules.items())
                   if name.startswith("repro.")
                   and getattr(module, "_liveness_blocks", None) is original]
        assert len(holders) >= 3    # dataflow, dead_code, regalloc
        for module in holders:
            monkeypatch.setattr(module, "_liveness_blocks", counted)
        return calls

    def test_nested_spawn_is_solved_once(self, monkeypatch):
        d_in, d_out, m, t = T(0, "dollar"), T(1, "dollar"), T(2), T(3)
        inner = IR.SpawnIR(IR.Const(0), IR.Const(1),
                           [IR.Bin(t, "+", d_in, m)], d_in)
        outer = IR.SpawnIR(IR.Const(0), IR.Const(1), [inner], d_out)
        calls = self.count_calls(monkeypatch)
        liveness([outer, IR.Ret(None)])
        # the region, the body, the inner body (5 when every walk
        # recomputed the spawn's uses)
        assert calls[0] == 3

    def test_compile_work_count(self, monkeypatch):
        from repro.xmtc.compiler import compile_source

        calls = self.count_calls(monkeypatch)
        compile_source(self.SOURCE, parallel_calls=True)
        # 26 when each spawn's live-ins were recomputed per use, 17
        # when DCE re-solved each body per round and the allocator
        # solved each body twice (live-ins, then intervals)
        assert calls[0] == 15


# ------------------------------------------------------- reaching definitions

class TestReachingDefinitions:
    def test_straight_line_last_def_wins(self):
        t = T(0)
        instrs = [IR.Mov(t, IR.Const(1)), IR.Mov(t, IR.Const(2)),
                  IR.Ret(t)]
        reach = reaching_definitions(instrs)
        assert reach[2][t.id] == {1}

    def test_merge_keeps_both_and_external(self):
        c, t = T(0), T(1)
        instrs = [
            IR.CondJump("eq", c, IR.Const(0), "end"),
            IR.Mov(t, IR.Const(1)),
            IR.Label("end"),
            IR.Ret(t),
        ]
        reach = reaching_definitions(instrs)
        # at the Ret, t is either the Mov at 1 or undefined (-1: the
        # fallthrough around the definition)
        assert reach[3][t.id] == {1, -1}

    def test_block_def_positions(self):
        t0, t1 = T(0), T(1)
        instrs = [IR.Mov(t0, IR.Const(1)), IR.Mov(t1, IR.Const(2)),
                  IR.Mov(t0, IR.Const(3))]
        def_pos, multi = block_def_positions(instrs, 0, 3)
        assert def_pos[t0.id] == 2 and def_pos[t1.id] == 1
        assert multi == {t0.id}


# ---------------------------------------------------------------- summaries

SUMMARY_SRC = """
int A[8];
int B[8];
int total;
int main() {
    int i;
    spawn(0, 7) {
        B[$] = A[$] + 1;
    }
    for (i = 0; i < 8; i++) total = total + B[i];
    return 0;
}
"""

POINTER_SRC = """
int A[8];
int B[8];
int main() {
    spawn(0, 7) {
        int *p;
        p = &B[0] + $;
        *p = A[$];
    }
    return 0;
}
"""

CALL_SRC = """
int A[8];
int B[8];
int bump(int i) {
    B[i] = A[i] + 1;
    return 0;
}
int main() {
    int k;
    spawn(0, 7) {
        int r;
        r = bump($);
    }
    k = bump(0);
    return 0;
}
"""


class TestSummaries:
    def test_parallel_writes_tracked_by_origin(self):
        s = compute_summaries(compiled_ir(SUMMARY_SRC))
        written = s.written_origins_parallel()
        assert "g:B" in written
        assert "g:total" not in written      # serial-only write
        assert s.unknown_parallel_store() is None

    def test_unknown_pointer_store_has_site(self):
        s = compute_summaries(compiled_ir(POINTER_SRC))
        site = s.unknown_parallel_store()
        assert site is not None
        assert site.function and site.line > 0

    def test_call_effects_propagate_into_parallel_context(self):
        s = compute_summaries(compiled_ir(CALL_SRC, parallel_calls=True))
        assert "bump" in s.parallel_functions
        # bump is also called serially from main
        assert "bump" in s.serially_executed()
        assert "g:B" in s.written_origins_parallel()

    def test_main_is_serial_and_outlined_body_is_not(self):
        s = compute_summaries(compiled_ir(SUMMARY_SRC))
        serial = s.serially_executed()
        assert "main" in serial
        assert not (s.parallel_functions & serial)


# ----------------------------------------------------------- classification

CLASSIFY_SRC = """
int A[8];
int B[8];
int x;
int main() {
    spawn(0, 7) {
        B[$] = A[$];
        if ($ == 2) {
            x = 1;
        }
    }
    return 0;
}
"""


class TestClassify:
    def _stores(self, spawn):
        return {ins.origin: (pos, ins)
                for pos, ins in enumerate(spawn.body)
                if isinstance(ins, IR.Store)}

    def test_dollar_indexed_store_is_private(self):
        spawn = find_spawn(compiled_ir(CLASSIFY_SRC))
        info = classify_body(spawn)
        _, store_b = self._stores(spawn)["g:B"]
        assert info.is_private_addr(store_b.addr)
        assert info.operand_flags(store_b.addr) == DOLLAR

    def test_uniform_store_guarded_by_deq(self):
        spawn = find_spawn(compiled_ir(CLASSIFY_SRC))
        info = classify_body(spawn)
        pos_x, store_x = self._stores(spawn)["g:x"]
        assert info.operand_flags(store_x.addr) == UNIFORM
        assert ("deq", 2) in info.guards_at(pos_x)

    def test_unguarded_store_has_no_deq_fact(self):
        spawn = find_spawn(compiled_ir(CLASSIFY_SRC))
        info = classify_body(spawn)
        pos_b, _ = self._stores(spawn)["g:B"]
        assert not any(g[0] == "deq" for g in info.guards_at(pos_b))


# ---------------------------------------------------------------- diagnostics

class TestDiagnostics:
    def test_format_and_json(self):
        d = Diagnostic(check="race.write-write", severity="error",
                       message="boom", line=7, function="main",
                       hint="fix it", source_file="prog.c")
        text = d.format()
        assert text.startswith("prog.c:7: error: [race.write-write] boom")
        assert "[in main]" in text and "(hint: fix it)" in text
        j = d.to_json()
        assert j["check"] == "race.write-write" and j["line"] == 7

    def test_sort_errors_first(self):
        diags = [Diagnostic("b", "note", "n", line=1),
                 Diagnostic("a", "warning", "w", line=1),
                 Diagnostic("c", "error", "e", line=9)]
        assert [d.severity for d in sort_diagnostics(diags)] == \
            ["error", "warning", "note"]
        assert has_errors(diags)

    def test_suppression_covers_own_and_next_line(self):
        src = "int x;\n// xmtc-lint: allow(race.write-write)\nx = 1;\n"
        allowed = suppressions(src)
        assert allowed[2] == ["race.write-write"]
        assert allowed[3] == ["race.write-write"]
        assert 1 not in allowed

    def test_apply_suppressions_star_and_named(self):
        src = "a; // xmtc-lint: allow(*)\nb;\nc;\n"
        diags = [Diagnostic("race.write-write", "error", "m", line=1),
                 Diagnostic("race.write-write", "error", "m", line=2),
                 Diagnostic("race.write-write", "error", "m", line=3)]
        kept = apply_suppressions(diags, src)
        assert [d.line for d in kept] == [3]
