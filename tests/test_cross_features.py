"""Cross-feature interaction tests: the extensions composed.

Each extension is tested on its own elsewhere; real users combine them.
These tests run one workload under feature *combinations* (parallel
calls x async ICN x clustering x read-only cache x prefetch x
checkpointing) and demand exact results everywhere.
"""

from repro.sim import checkpoint as CP
from repro.sim.config import tiny
from repro.sim.machine import Machine, Simulator
from repro.xmtc.compiler import CompileOptions, compile_source

SRC = """
int bump(int x) { return x * 2 + 1; }
int A[32];
int total = 0;
int main() {
    for (int r = 0; r < 6; r++) {
        spawn(0, 31) {
            int v = bump(A[$]);
            A[$] = v;
            int one = 1;
            psm(one, total);
        }
    }
    return 0;
}
"""


def expected_a():
    values = list(range(32))
    for _ in range(6):
        values = [v * 2 + 1 for v in values]
    return values


def make_program():
    prog = compile_source(SRC, CompileOptions(parallel_calls=True))
    prog.write_global("A", list(range(32)))
    return prog


def check(res):
    assert res.read_global("A") == expected_a()
    assert res.read_global("total") == 6 * 32


class TestCombinations:
    def test_parallel_calls_on_async_icn(self):
        res = Simulator(make_program(),
                        tiny(icn_backend="mot-async", icn_async_jitter=0.5)).run(
            max_cycles=20_000_000)
        check(res)

    def test_parallel_calls_with_clustering(self):
        prog = compile_source(SRC, CompileOptions(parallel_calls=True,
                                                  cluster_factor=4))
        prog.write_global("A", list(range(32)))
        res = Simulator(prog, tiny()).run(max_cycles=20_000_000)
        check(res)

    def test_checkpoint_mid_parallel_calls_run(self):
        reference = Simulator(make_program(), tiny()).run(
            max_cycles=20_000_000)
        machine = Machine(make_program(), tiny())
        payload = CP.run_with_checkpoint(machine, checkpoint_cycle=400)
        assert payload is not None
        restored = CP.load_bytes(payload)
        res = restored.run(max_cycles=20_000_000)
        check(res)
        assert res.cycles == reference.cycles

    def test_everything_at_once(self):
        prog = compile_source(SRC, CompileOptions(parallel_calls=True,
                                                  cluster_factor=2,
                                                  ro_cache=True))
        prog.write_global("A", list(range(32)))
        cfg = tiny(icn_backend="mot-async", icn_async_jitter=0.3,
                   prefetch_policy="lru")
        res = Simulator(prog, cfg).run(max_cycles=20_000_000)
        check(res)
