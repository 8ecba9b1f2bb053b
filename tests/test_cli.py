"""CLI tests: the xmtcc and xmtsim entry points."""

import pytest

from repro.toolchain.cli import xmtcc_main, xmtsim_main

SRC = """
int A[8];
int total = 0;
int main() {
    spawn(0, 7) { int v = A[$]; psm(v, total); }
    printf("t=%d\\n", total);
    return 0;
}
"""


@pytest.fixture
def src_file(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(SRC)
    return str(path)


class TestXmtcc:
    def test_compile_to_stdout(self, src_file, capsys):
        assert xmtcc_main([src_file]) == 0
        out = capsys.readouterr().out
        assert ".text" in out and "spawn" in out and "psm" in out

    def test_compile_to_file(self, src_file, tmp_path):
        out = str(tmp_path / "prog.s")
        assert xmtcc_main([src_file, "-o", out]) == 0
        text = open(out).read()
        assert "getvt $k0" in text

    def test_opt_flags_change_output(self, src_file, capsys):
        xmtcc_main([src_file, "--no-fences"])
        no_fences = capsys.readouterr().out
        xmtcc_main([src_file])
        fenced = capsys.readouterr().out
        assert "fence" in fenced and "fence" not in no_fences

    def test_compile_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.c"
        bad.write_text("int main() { return $; }")
        assert xmtcc_main([str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert xmtcc_main(["/nonexistent.c"]) == 2

    def test_dump_ir(self, src_file, capsys):
        assert xmtcc_main([src_file, "--dump-ir"]) == 0
        err = capsys.readouterr().err
        assert "func main" in err


class TestXmtsim:
    def test_run_xmtc_source(self, src_file, capsys):
        rc = xmtsim_main([src_file, "--config", "tiny",
                          "--set", "A", "1,2,3,4,5,6,7,8"])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out == "t=36\n"
        assert "cycles" in captured.err

    def test_run_assembly_two_step(self, src_file, tmp_path, capsys):
        asm = str(tmp_path / "prog.s")
        xmtcc_main([src_file, "-o", asm])
        capsys.readouterr()
        rc = xmtsim_main([asm, "--config", "tiny",
                          "--set", "A", "1,1,1,1,1,1,1,1"])
        assert rc == 0
        assert capsys.readouterr().out == "t=8\n"

    def test_functional_mode(self, src_file, capsys):
        rc = xmtsim_main([src_file, "--mode", "functional",
                          "--set", "A", "2,2,2,2,2,2,2,2"])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out == "t=16\n"
        assert "functional" in captured.err

    def test_print_global(self, src_file, capsys):
        rc = xmtsim_main([src_file, "--config", "tiny",
                          "--set", "A", "9,0,0,0,0,0,0,0",
                          "--print-global", "total"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "total = 9" in out

    def test_stats_flag(self, src_file, capsys):
        rc = xmtsim_main([src_file, "--config", "tiny", "--stats"])
        assert rc == 0
        assert "instructions." in capsys.readouterr().err

    def test_trace_flag(self, src_file, capsys):
        rc = xmtsim_main([src_file, "--config", "tiny",
                          "--trace", "functional", "--trace-limit", "10"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "master" in err

    def test_bad_global(self, src_file, capsys):
        assert xmtsim_main([src_file, "--set", "nope", "1"]) == 2

    def test_parallel_calls_flag(self, tmp_path, capsys):
        prog = tmp_path / "pc.c"
        prog.write_text("""
int twice(int x) { return x * 2; }
int A[8];
int main() {
    spawn(0, 7) { A[$] = twice($); }
    return 0;
}
""")
        # rejected without the flag...
        assert xmtsim_main([str(prog), "--config", "tiny"]) == 1
        capsys.readouterr()
        # ...accepted with it
        rc = xmtsim_main([str(prog), "--config", "tiny", "--parallel-calls",
                          "--print-global", "A"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "A = [0, 2, 4, 6, 8, 10, 12, 14]" in captured.out

    def test_hex_and_float_values(self, tmp_path, capsys):
        prog = tmp_path / "f.c"
        prog.write_text("""
float X[2];
int flags = 0;
int main() { printf("%f %d\\n", X[1], flags); return 0; }
""")
        rc = xmtsim_main([str(prog), "--config", "tiny",
                          "--set", "X", "1.5,2.5",
                          "--set", "flags", "0xFF"])
        assert rc == 0
        assert capsys.readouterr().out == "2.500000 255\n"


SPIN_ASM = """
    .text
main:
spin:
    j spin
    halt
"""

SPAWN_ASM = """
    .data
A:  .space 64
    .text
main:
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
    sw   $t4, 0($t2)
    j    vt
    join
    halt
"""


class TestExitCodeMatrix:
    """The documented xmtsim exit codes, end to end: 0 = ok,
    1 = compile/runtime error, 2 = bad input, 3 = stalled,
    4 = budget exceeded."""

    @pytest.fixture
    def spin_file(self, tmp_path):
        path = tmp_path / "spin.s"
        path.write_text(SPIN_ASM)
        return str(path)

    def test_exit_0_success(self, src_file, capsys):
        assert xmtsim_main([src_file, "--config", "tiny"]) == 0

    def test_exit_1_compile_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.c"
        bad.write_text("int main() { return $; }")
        assert xmtsim_main([str(bad), "--config", "tiny"]) == 1
        assert "compile error" in capsys.readouterr().err

    def test_exit_2_bad_input(self, capsys):
        assert xmtsim_main(["/nonexistent.s", "--config", "tiny"]) == 2

    def test_exit_2_bad_global(self, src_file, capsys):
        assert xmtsim_main([src_file, "--set", "missing", "1"]) == 2

    def test_exit_3_stalled(self, tmp_path, capsys):
        prog = tmp_path / "spawn.s"
        prog.write_text(SPAWN_ASM)
        rc = xmtsim_main([str(prog), "--config", "tiny",
                          "--watchdog", "5"])
        assert rc == 3
        assert "stalled" in capsys.readouterr().err

    def test_exit_4_budget_exceeded(self, spin_file, capsys):
        rc = xmtsim_main([spin_file, "--config", "tiny",
                          "--max-cycles", "2000"])
        assert rc == 4
        assert "budget exceeded" in capsys.readouterr().err
