"""Plug-in interface tests (Section III-B): filter plug-ins, activity
plug-ins, runtime DVFS."""

import pytest

from conftest import run_xmtc_cycle
from repro.sim.config import tiny
from repro.sim.plugins import (
    ActivityRecorder,
    FrequencyController,
    HotMemoryFilter,
    InstructionHistogramFilter,
)
from repro.sim.stats import IntervalSeries, Stats, diff_snapshots

SRC = """
int A[64];
int hot = 0;
int main() {
    spawn(0, 63) {
        int one = 1;
        psm(one, hot);
        A[$] = one;
    }
    return 0;
}
"""


class TestHotMemoryFilter:
    def test_hottest_location_is_the_psm_target(self):
        filt = HotMemoryFilter(top=3)
        prog, res = run_xmtc_cycle(SRC, plugins=[filt])
        hottest_addr, count = filt.hottest()[0]
        assert hottest_addr == prog.global_addr("hot")
        assert count == 64

    def test_report_names_symbol(self):
        filt = HotMemoryFilter(top=2)
        prog, res = run_xmtc_cycle(SRC, plugins=[filt])
        text = filt.report(prog)
        assert "hot[0]" in text

    def test_bottleneck_mapped_to_xmtc_source_line(self):
        """Section III-B: the hot-memory plug-in refers the bottleneck
        back to the XMTC line that caused it (through the compiler's
        source-line markers)."""
        filt = HotMemoryFilter(top=3)
        prog, res = run_xmtc_cycle(SRC, plugins=[filt])
        lines = dict(filt.hottest_lines())
        psm_line = next(i for i, text in enumerate(SRC.splitlines(), 1)
                        if "psm" in text)
        assert lines.get(psm_line, 0) >= 64
        text = filt.report(prog, source=SRC)
        assert f"line {psm_line}" in text
        assert "psm(one, hot)" in text

    def test_src_lines_survive_the_whole_toolchain(self):
        from repro.xmtc.compiler import compile_source

        prog = compile_source(SRC)
        user_ops = [i for i in prog.instructions
                    if i.op in ("lw", "swnb", "psm")]
        assert user_ops
        # user memory operations carry their XMTC line (prologue saves
        # and other compiler-generated code legitimately carry 0)
        assert all(i.src_line > 0 for i in user_ops)


class TestInstructionHistogram:
    def test_kinds_counted(self):
        filt = InstructionHistogramFilter()
        _, res = run_xmtc_cycle(SRC, plugins=[filt])
        assert filt.by_kind.get("psm") == 64
        assert filt.by_kind.get("store_nb", 0) + filt.by_kind.get("store", 0) > 0


class TestActivityRecorder:
    def test_snapshots_recorded_over_time(self):
        rec = ActivityRecorder(interval_cycles=100)
        _, res = run_xmtc_cycle(SRC, plugins=[rec])
        assert len(rec.series) >= 2
        # cumulative counters are monotone
        series = rec.series.series("icn.send")
        assert all(v >= 0 for v in series)
        assert sum(series) == res.stats.get("icn.send")

    def test_key_filtering(self):
        rec = ActivityRecorder(interval_cycles=100, keys=["cache"])
        _, res = run_xmtc_cycle(SRC, plugins=[rec])
        for snap in rec.series.snapshots:
            assert all(k.startswith("cache") for k in snap)

    @pytest.mark.parametrize("interval", [0, -10])
    def test_interval_below_one_is_refused(self, interval):
        """A zero interval used to sample forever at one instant (the
        run never returned); a negative one failed deep in the
        scheduler.  Both are refused where the plug-in is made."""
        from repro.sim.observability import TelemetrySampler

        for make in (lambda: ActivityRecorder(interval_cycles=interval),
                     lambda: TelemetrySampler(every_cycles=interval)):
            with pytest.raises(ValueError,
                               match=r"^(ActivityRecorder|TelemetrySampler): "
                                     r"the sampling interval must be at "
                                     rf"least 1 cycle, got {interval}$"):
                make()


class TestFrequencyController:
    def test_policy_can_retime_domains(self):
        decisions = []

        def policy(machine, time, delta):
            if not decisions:
                decisions.append(time)
                return {"dram": 0.5}
            return {}

        ctrl = FrequencyController(policy, interval_cycles=50)
        cfg = tiny(merge_clock_domains=False)
        _, res = run_xmtc_cycle(SRC, config=cfg, plugins=[ctrl])
        assert decisions, "policy never sampled"
        assert ctrl.decisions[0][1] == {"dram": 0.5}

    def test_throttling_slows_execution(self):
        """Halving the cluster clock must increase wall-clock (ps) time."""
        def throttle(machine, time, delta):
            return {"clusters": 0.25}

        cfg = tiny(merge_clock_domains=False)
        _, fast = run_xmtc_cycle(SRC, config=cfg)
        ctrl = FrequencyController(throttle, interval_cycles=20)
        _, slow = run_xmtc_cycle(SRC, config=cfg, plugins=[ctrl])
        assert slow.time_ps > fast.time_ps


class TestStatsHelpers:
    def test_diff_snapshots(self):
        a = {"x": 1, "y": 5}
        b = {"x": 4, "y": 5, "z": 2}
        assert diff_snapshots(a, b) == {"x": 3, "z": 2}

    def test_group_and_total(self):
        stats = Stats()
        stats.inc("cache.hit", 3)
        stats.inc("cache.miss")
        stats.inc("icn.send", 9)
        assert stats.group("cache") == {"hit": 3, "miss": 1}
        assert stats.total("cache") == 4

    def test_report_format(self):
        stats = Stats()
        stats.inc("a.b", 2)
        assert "a.b" in stats.report()
        assert stats.report(prefixes=["zzz"]) == ""

    def test_interval_series_deltas(self):
        series = IntervalSeries()
        series.record(0, {"k": 2})
        series.record(10, {"k": 5})
        series.record(20, {"k": 5})
        assert series.series("k") == [2, 3, 0]
