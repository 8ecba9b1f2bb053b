"""Configuration-space robustness: one kernel, many machine shapes.

The paper's "highly configurable" claim means odd corners must work:
single-cluster machines, single-TCU clusters, non-power-of-two module
counts, single-word cache lines, disabled prefetch buffers, asynchronous
interconnects, extreme clock ratios.  Every configuration must produce
the same (correct) result; only the cycle counts may differ.
"""

import pytest

from repro.sim.config import XMTConfig, tiny
from repro.sim.machine import Simulator
from repro.xmtc.compiler import compile_source

N = 96

SRC = f"""
int A[{N}];
int B[{N}];
int total = 0;
psBaseReg int slots = 0;
int OUT[{N}];
int main() {{
    spawn(0, {N - 1}) {{
        int v = A[$] * 2 + 1;
        B[$] = v;
        psm(v, total);
        if ($ % 3 == 0) {{
            int idx = 1;
            ps(idx, slots);
            OUT[idx] = $;
        }}
    }}
    printf("%d\\n", total);
    return 0;
}}
"""

DATA = [(i * 5) % 23 for i in range(N)]
EXPECTED_B = [v * 2 + 1 for v in DATA]
EXPECTED_TOTAL = sum(EXPECTED_B)
EXPECTED_OUT = sorted(i for i in range(N) if i % 3 == 0)

ZOO = {
    "baseline": dict(),
    "one_cluster": dict(n_clusters=1),
    "one_tcu_per_cluster": dict(tcus_per_cluster=1),
    "single_tcu_machine": dict(n_clusters=1, tcus_per_cluster=1),
    "many_small_clusters": dict(n_clusters=8, tcus_per_cluster=1),
    "three_cache_modules": dict(n_cache_modules=3),
    "seven_cache_modules": dict(n_cache_modules=7),
    "one_cache_module": dict(n_cache_modules=1),
    "single_word_lines": dict(cache_line_words=1),
    "fat_lines": dict(cache_line_words=16),
    "direct_mapped": dict(cache_assoc=1),
    "no_prefetch_buffers": dict(prefetch_buffer_size=0),
    "lru_prefetch": dict(prefetch_policy="lru"),
    "deep_icn": dict(icn_latency=25),
    "shallow_icn": dict(icn_latency=1),
    "wide_icn": dict(icn_width_per_cluster=4, icn_return_width=4),
    "async_icn": dict(icn_backend="mot-async"),
    "async_icn_jittery": dict(icn_backend="mot-async", icn_async_jitter=0.8),
    "slow_dram": dict(dram_period=9000, dram_latency=80),
    "fast_dram": dict(dram_period=1000, dram_latency=1),
    "two_dram_ports": dict(n_dram_ports=2),
    "slow_clusters": dict(cluster_period=3000, merge_clock_domains=False),
    "slow_icn_clock": dict(icn_period=5000, merge_clock_domains=False),
    "tiny_send_queues": dict(send_queue_capacity=1),
    "tiny_caches": dict(cache_sets=2, cache_assoc=1),
    "scoreboard_tcus": dict(tcu_blocking_loads=False),
    "pipelined_mdu": dict(mdu_pipelined=True),
    "slow_fpu_mdu": dict(mdu_latency=30, fpu_latency=20),
}


@pytest.fixture(scope="module")
def program():
    return compile_source(SRC)


@pytest.mark.parametrize("name", sorted(ZOO))
def test_zoo_configuration(program, name):
    config = tiny(**ZOO[name])
    prog = compile_source(SRC)  # fresh program (memory map is mutated)
    prog.write_global("A", DATA)
    res = Simulator(prog, config).run(max_cycles=30_000_000)
    assert res.output == f"{EXPECTED_TOTAL}\n", name
    assert res.read_global("B") == EXPECTED_B, name
    assert res.read_global("total") == EXPECTED_TOTAL, name
    got_out = sorted(res.read_global("OUT", count=len(EXPECTED_OUT) + 1)[1:])
    assert got_out == EXPECTED_OUT, name
    assert res.global_regs[0] == len(EXPECTED_OUT), name


def test_zoo_cycle_counts_differ():
    """Sanity that the zoo actually exercises different timing."""
    cycles = {}
    for name in ("baseline", "slow_dram", "deep_icn", "single_tcu_machine"):
        prog = compile_source(SRC)
        prog.write_global("A", DATA)
        res = Simulator(prog, tiny(**ZOO[name])).run(max_cycles=30_000_000)
        cycles[name] = res.cycles
    assert cycles["slow_dram"] > cycles["baseline"]
    assert cycles["deep_icn"] > cycles["baseline"]
    assert cycles["single_tcu_machine"] > cycles["baseline"]
