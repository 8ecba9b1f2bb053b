"""Phase-sampling tests (Section III-F extension)."""

import json
import time

import pytest

from repro.sim.config import tiny
from repro.sim.machine import Simulator
from repro.sim.sampling import PhaseSampler, SampledSimulator
from repro.xmtc.compiler import compile_source

from test_sleep_wake import GOLDEN_CYCLES, sampled_row

#: a spawn-loop program: many executions of the same spawn site
LOOPY = """
int A[64];
int rounds = 0;
int main() {
    for (int r = 0; r < 40; r++) {
        spawn(0, 63) { A[$] = A[$] + 1; }
        rounds++;
    }
    return 0;
}
"""


def reference():
    program = compile_source(LOOPY)
    return Simulator(program, tiny()).run(max_cycles=10_000_000)


def sampled(warmup=3, resample_every=100):
    program = compile_source(LOOPY)
    sampler = PhaseSampler(warmup=warmup, resample_every=resample_every)
    sim = SampledSimulator(program, tiny(), sampler=sampler)
    return sim.run(max_cycles=10_000_000), sampler


class TestPhaseSampling:
    def test_architectural_state_exact(self):
        ref = reference()
        got, sampler = sampled()
        assert got.read_global("A") == ref.read_global("A") == [40] * 64
        assert got.read_global("rounds") == 40

    def test_sites_are_fast_forwarded(self):
        got, sampler = sampled(warmup=3, resample_every=100)
        site = next(iter(sampler.sites.values()))
        assert site.executions == 40
        assert site.sampled_runs == 3
        assert site.skipped == 37
        assert got.stats.get("spawn.fast_forwarded") == 37
        assert got.stats.get("spawn.count") == 3

    def test_cycle_estimate_close_to_reference(self):
        """The point of the feature: estimated cycles track reality."""
        ref = reference()
        got, _ = sampled()
        error = abs(got.cycles - ref.cycles) / ref.cycles
        assert error < 0.15, f"estimate off by {error * 100:.1f}%"

    def test_resampling_happens(self):
        got, sampler = sampled(warmup=1, resample_every=10)
        site = next(iter(sampler.sites.values()))
        assert site.sampled_runs > 1

    def test_instruction_counts_include_fast_forwarded_work(self):
        ref = reference()
        got, _ = sampled()
        # fast-forwarded regions execute functionally: their loads and
        # stores are still counted (dispatch-loop overheads differ)
        assert got.stats.get("instructions.lw") >= \
            0.9 * ref.stats.get("instructions.lw")

    def test_fast_forwarded_counts_are_exact(self):
        """The Master empties ``executor.instruction_counts`` before a
        fast-forwarded region and merges it after; the executor credits
        its blocks when the region ends, so the hand-off is whole: every
        per-mnemonic counter of the three-spawn program equals the
        recorded one (taken before the engine ran translated blocks)."""
        with open(GOLDEN_CYCLES) as fh:
            golden = json.load(fh)["three_spawns"]["sampled"]
        assert golden["spawn.fast_forwarded"] == 15
        assert sampled_row() == golden

    def test_heterogeneous_sites_tracked_separately(self):
        src = """
int A[64];
int B[256];
int main() {
    for (int r = 0; r < 12; r++) {
        spawn(0, 63) { A[$] = A[$] + 1; }
        spawn(0, 255) { B[$] = B[$] + 2; }
    }
    return 0;
}
"""
        program = compile_source(src)
        sampler = PhaseSampler(warmup=2, resample_every=100)
        sim = SampledSimulator(program, tiny(), sampler=sampler)
        res = sim.run(max_cycles=20_000_000)
        assert res.read_global("A") == [12] * 64
        assert res.read_global("B") == [24] * 256
        assert len(sampler.sites) == 2
        # the big site must have learned a bigger estimate than the
        # small one (scaled by thread count at estimate time)
        report = sampler.report()
        assert "2 sampled" in report

    def test_report_text(self):
        _, sampler = sampled()
        text = sampler.report()
        assert "fast-forwarded" in text

    def test_output_preserved(self):
        src = """
int main() {
    for (int r = 0; r < 6; r++) {
        spawn(0, 3) { if ($ == 0) printf("r"); }
    }
    printf("\\n");
    return 0;
}
"""
        program = compile_source(src)
        sim = SampledSimulator(program, tiny(),
                               sampler=PhaseSampler(warmup=1))
        res = sim.run(max_cycles=10_000_000)
        assert res.output == "r" * 6 + "\n"
