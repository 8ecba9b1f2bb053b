"""Asynchronous-interconnect extension tests (Section III-F / ref [39])."""

import pytest

from conftest import run_xmtc_cycle
from repro.sim.config import tiny
from repro.sim.icn import AsyncInterconnect
from repro.sim.machine import Machine, Simulator
from repro.xmtc.compiler import compile_source

SRC = """
int A[64];
int B[64];
int total = 0;
int main() {
    spawn(0, 63) {
        B[$] = A[$] * 2;
        int v = B[$];
        psm(v, total);
    }
    return 0;
}
"""


def run(backend, **overrides):
    program = compile_source(SRC)
    program.write_global("A", list(range(64)))
    cfg = tiny(icn_backend=backend, **overrides)
    res = Simulator(program, cfg).run(max_cycles=5_000_000)
    assert res.read_global("B") == [i * 2 for i in range(64)]
    assert res.read_global("total") == sum(i * 2 for i in range(64))
    return res


class TestAsyncICN:
    def test_selected_by_config(self):
        program = compile_source("int main() { return 0; }")
        machine = Machine(program, tiny(icn_backend="mot-async"))
        assert isinstance(machine.icn, AsyncInterconnect)

    def test_bad_style_rejected(self):
        with pytest.raises(ValueError):
            tiny(icn_backend="quantum")

    def test_results_correct_under_jitter(self):
        run("mot-async", icn_async_jitter=0.5)

    def test_zero_jitter_deterministic_latency(self):
        a = run("mot-async", icn_async_jitter=0.0)
        b = run("mot-async", icn_async_jitter=0.0)
        assert a.cycles == b.cycles

    def test_jitter_is_deterministic_across_runs(self):
        a = run("mot-async", icn_async_jitter=0.3)
        b = run("mot-async", icn_async_jitter=0.3)
        assert a.cycles == b.cycles

    def test_async_latency_immune_to_icn_clock(self):
        """The headline property: slowing the ICN clock domain (power
        saving) hurts the synchronous network but not the asynchronous
        one."""
        sync_fast = run("mot", merge_clock_domains=False).cycles
        sync_slow = run("mot", merge_clock_domains=False,
                        icn_period=4000).cycles
        async_fast = run("mot-async", merge_clock_domains=False,
                         icn_async_jitter=0.0).cycles
        async_slow = run("mot-async", merge_clock_domains=False,
                         icn_async_jitter=0.0, icn_period=4000).cycles
        assert sync_slow > sync_fast * 1.3
        # async traversal is clock-independent; only the injection
        # polling granularity changes slightly
        assert async_slow < async_fast * 1.15

    def test_memory_model_rule1_survives_jitter(self):
        """Same-TCU same-address ordering must hold despite jitter:
        store then load to the same word sees the new value."""
        src = """
int A[64];
int bad = 0;
int main() {
    spawn(0, 63) {
        A[$] = $ + 5;
        int v = A[$];
        if (v != $ + 5) bad = 1;
    }
    return 0;
}
"""
        program = compile_source(src)
        cfg = tiny(icn_backend="mot-async", icn_async_jitter=0.9)
        res = Simulator(program, cfg).run(max_cycles=5_000_000)
        assert res.read_global("bad") == 0
        assert res.read_global("A") == [i + 5 for i in range(64)]

    def test_fig7_invariant_under_async(self):
        from repro.workloads import programs as W

        source, _, _ = W.litmus_psm_ordered()
        _, res = run_xmtc_cycle(source,
                                config=tiny(icn_backend="mot-async",
                                            icn_async_jitter=0.6))
        pair = (res.read_global("seen_x"), res.read_global("seen_y"))
        assert pair != (0, 1)

    def test_energy_factor_feeds_power_model(self):
        from repro.power import PowerThermalPlugin

        program = compile_source(SRC)
        program.write_global("A", list(range(64)))

        def icn_energy(backend):
            plug = PowerThermalPlugin(interval_cycles=200)
            cfg = tiny(icn_backend=backend)
            Simulator(program, cfg, plugins=[plug]).run(max_cycles=5_000_000)
            return sum(pm.get("icn", 0.0) for pm in plug.power_maps)

        assert icn_energy("mot-async") < icn_energy("mot")
