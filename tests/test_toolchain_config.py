"""Toolchain driver and machine-configuration tests."""

import pytest

from repro.isa.assembler import assemble
from repro.sim.config import _LEAST, XMTConfig, chip1024, fpga64, tiny
from repro.sim.machine import Machine
from repro.toolchain.driver import compile_and_run, run_functional, run_program
from repro.xmtc.compiler import CompileOptions, compile_source


class TestConfig:
    def test_presets_validate(self):
        for preset in (fpga64(), chip1024(), tiny()):
            preset.validate()

    def test_fpga64_topology(self):
        cfg = fpga64()
        assert cfg.n_tcus == 64
        assert cfg.n_clusters == 8

    def test_chip1024_topology(self):
        cfg = chip1024()
        assert cfg.n_tcus == 1024
        assert cfg.n_clusters == 64
        assert cfg.n_cache_modules == 128

    def test_icn_depth_grows_with_size(self):
        assert chip1024().icn_depth() > fpga64().icn_depth()

    def test_icn_depth_override(self):
        cfg = tiny(icn_latency=3)
        assert cfg.icn_depth() == 3

    def test_scaled_copy(self):
        cfg = fpga64()
        bigger = cfg.scaled(tcus_per_cluster=16)
        assert bigger.n_tcus == 128
        assert cfg.n_tcus == 64  # original untouched

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            XMTConfig(n_clusters=0).validate()
        with pytest.raises(ValueError):
            XMTConfig(cluster_period=0).validate()
        with pytest.raises(ValueError):
            XMTConfig(prefetch_policy="rand").validate()
        with pytest.raises(ValueError):
            XMTConfig(cache_line_words=3).validate()

    def test_cache_set_counts_must_be_powers_of_two(self):
        """A tag array picks a set with a mask, so a set count that is no
        power of two is rejected by ``validate``, naming the field, before
        any mode runs (it was an unnamed error from inside the machine's
        construction, and no error at all in functional mode)."""
        for name in ("cache_sets", "master_cache_sets"):
            fpga64().scaled(**{name: 64}).validate()
            with pytest.raises(ValueError, match=(
                    f"^{name} must be a power of two, got 96$")):
                fpga64().scaled(**{name: 96}).validate()
            with pytest.raises(ValueError, match=f"^{name} must be"):
                tiny(**{name: 3})

    @pytest.mark.parametrize("name, least", [
        (name, least) for least, names in _LEAST.items()
        for name in names.split()])
    def test_range_checked_before_any_arithmetic(self, name, least):
        """Every latency, capacity, width, period and count is range
        checked at construction: one below its minimum is a
        ``ValueError`` naming the field, the minimum itself is legal."""
        tiny(**{name: least})
        with pytest.raises(ValueError, match=f"{name} must be >= {least}"):
            tiny(**{name: least - 1})
        with pytest.raises(ValueError, match=name):
            Machine(assemble(".text\nmain:\n    halt\n"),
                    XMTConfig(**{name: least - 1}))

    def test_every_numeric_field_is_range_checked(self):
        from dataclasses import fields
        checked = set(" ".join(_LEAST.values()).split())
        numeric = {f.name for f in fields(XMTConfig)
                   if f.type in ("int", "float", "Optional[int]")}
        assert numeric == checked

    def test_preset_overrides(self):
        cfg = fpga64(dram_latency=99)
        assert cfg.dram_latency == 99


SRC = """
int A[8];
int total = 0;
int main() {
    spawn(0, 7) { int v = A[$]; psm(v, total); }
    printf("t=%d\\n", total);
    return 0;
}
"""


class TestConfigFile:
    def test_load_with_base(self, tmp_path):
        from repro.sim.config import from_file

        path = tmp_path / "m.json"
        path.write_text('{"base": "fpga64", "dram_latency": 77, '
                        '"prefetch_policy": "lru"}')
        cfg = from_file(str(path))
        assert cfg.n_tcus == 64
        assert cfg.dram_latency == 77
        assert cfg.prefetch_policy == "lru"

    def test_load_standalone(self, tmp_path):
        from repro.sim.config import from_file

        path = tmp_path / "m.json"
        path.write_text('{"n_clusters": 2, "tcus_per_cluster": 3, '
                        '"n_cache_modules": 2}')
        cfg = from_file(str(path))
        assert cfg.n_tcus == 6

    def test_keyword_overrides_file(self, tmp_path):
        from repro.sim.config import from_file

        path = tmp_path / "m.json"
        path.write_text('{"base": "tiny", "dram_latency": 5}')
        cfg = from_file(str(path), dram_latency=9)
        assert cfg.dram_latency == 9

    def test_unknown_key_rejected(self, tmp_path):
        from repro.sim.config import from_file

        path = tmp_path / "m.json"
        path.write_text('{"dram_latencyy": 5}')
        with pytest.raises(ValueError, match="unknown configuration keys"):
            from_file(str(path))

    @pytest.mark.parametrize("field,value", [
        ("n_clusters", "four"),        # str into an int field
        ("icn_async_jitter", "lots"),  # str into a float field
        ("dram_latency", True),        # bool into a numeric field
        ("icn_backend", 3),            # number into a str field
        ("fpu_pipelined", 1),          # int into a bool field
        ("cache_sets", 2.5),           # float into an int field
    ])
    def test_scaled_rejects_wrong_type_naming_the_field(self, field, value):
        from repro.sim.config import tiny

        with pytest.raises(ValueError, match=f"'{field}' takes"):
            tiny().scaled(**{field: value})

    def test_scaled_keeps_what_fits(self, tmp_path):
        from repro.sim.config import from_file, tiny

        cfg = tiny().scaled(icn_async_jitter=1, icn_latency=None,
                            fpu_pipelined=False, icn_backend="ring")
        assert (cfg.icn_async_jitter, cfg.icn_latency) == (1, None)
        # a file is one more dict-shaped source: same check, same message
        path = tmp_path / "m.json"
        path.write_text('{"base": "tiny", "n_clusters": "four"}')
        with pytest.raises(ValueError, match="'n_clusters' takes int"):
            from_file(str(path))

    def test_cli_config_file(self, tmp_path, capsys):
        from repro.toolchain.cli import xmtsim_main

        cfg = tmp_path / "m.json"
        cfg.write_text('{"base": "tiny", "dram_latency": 3}')
        prog = tmp_path / "p.c"
        prog.write_text('int main() { printf("hi\\n"); return 0; }')
        rc = xmtsim_main([str(prog), "--config-file", str(cfg)])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out == "hi\n"
        assert "m.json" in captured.err


class TestDriver:
    def test_compile_and_run(self):
        out = compile_and_run(SRC, tiny(), inputs={"A": [1] * 8})
        assert out.output == "t=8\n"
        assert out.cycles > 0
        assert out.read_global("total") == 8

    def test_run_functional(self):
        out = run_functional(SRC, inputs={"A": list(range(8))})
        assert out.output == "t=28\n"
        assert out.cycles == 0

    def test_run_program_reuses_compiled_binary(self):
        program = compile_source(SRC)
        a = run_program(program, tiny(), inputs={"A": [2] * 8})
        b = run_program(program, tiny(), inputs={"A": [3] * 8})
        assert a.output == "t=16\n"
        assert b.output == "t=24\n"

    def test_options_forwarding(self):
        out = compile_and_run(SRC, tiny(), inputs={"A": [1] * 8},
                              options=CompileOptions(opt_level=0))
        assert out.output == "t=8\n"

    def test_unknown_global_input(self):
        with pytest.raises(KeyError):
            compile_and_run(SRC, tiny(), inputs={"nope": 1})

    def test_functional_accepts_program(self):
        program = compile_source(SRC)
        out = run_functional(program, inputs={"A": [5] * 8})
        assert out.output == "t=40\n"


class TestPublicAPI:
    def test_top_level_imports(self):
        import repro

        assert callable(repro.compile_xmtc)
        assert callable(repro.assemble)
        prog = repro.compile_xmtc("int main() { return 0; }")
        sim = repro.Simulator(prog, repro.fpga64())
        res = sim.run(max_cycles=100_000)
        assert res.cycles > 0

    def test_compile_xmtc_kwargs(self):
        import repro

        prog = repro.compile_xmtc(
            "int A[4]; int main() { spawn(0,3){ A[$]=$; } return 0; }",
            cluster_factor=2)
        assert len(prog.spawn_regions) == 1
