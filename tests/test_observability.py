"""End-to-end observability layer: span tracing, metrics, profiler."""

import json
import os

import pytest

from repro.sim.checkpoint import save_bytes
from repro.sim.config import tiny
from repro.sim.machine import Machine, Simulator
from repro.sim.observability import (
    CycleProfiler,
    EventStream,
    Gauge,
    Histogram,
    MetricsRegistry,
    Observability,
    artifact_json,
    chrome_trace,
    export_metrics,
    load_artifact,
    read_jsonl,
    render_profile,
)
from repro.sim.resilience.diagnostics import collect
from repro.sim.stats import IntervalSeries, diff_snapshots
from repro.sim.trace import LEVEL_CYCLE, LEVEL_FUNCTIONAL, Trace
from repro.xmtc.compiler import compile_source

SRC = """
int A[32];
int B[32];
int main() {
    spawn(0, 31) {
        B[$] = A[$] + 1;
    }
    return 0;
}
"""
SPAWN_LINE = 5   # "spawn(0, 31) {"
BODY_LINE = 6    # "B[$] = A[$] + 1;"


@pytest.fixture(scope="module")
def events_file(tmp_path_factory):
    return str(tmp_path_factory.mktemp("events") / "events.jsonl")


@pytest.fixture(scope="module")
def full_run(events_file):
    """One fully instrumented cycle run shared by the read-only tests;
    its events are kept and streamed to ``events_file``."""
    program = compile_source(SRC)
    obs = Observability(events=EventStream(stream_to=events_file),
                        metrics=MetricsRegistry(),
                        profiler=CycleProfiler(program, source=SRC))
    sim = Simulator(program, tiny(), observability=obs)
    result = sim.run(max_cycles=2_000_000)
    obs.events.close()
    return program, sim.machine, obs, result


class TestSpanTracing:
    def test_package_lifecycle_categories(self, full_run):
        _, _, obs, _ = full_run
        cats = {e.cat for e in obs.events.iter_events()}
        # issue -> ICN -> cache -> DRAM -> reply, plus spawn regions
        assert {"instr", "icn", "cache", "dram", "mem", "spawn"} <= cats

    def test_spawn_begin_end_paired(self, full_run):
        _, _, obs, _ = full_run
        spans = [e for e in obs.events.iter_events() if e.cat == "spawn"]
        begins = [e for e in spans if e.ph == "B"]
        ends = [e for e in spans if e.ph == "E"]
        assert len(begins) == len(ends) == 1
        assert begins[0].name == f"spawn@line{SPAWN_LINE}"
        assert begins[0].args["threads"] == 32
        assert ends[0].ts > begins[0].ts

    def test_reply_spans_cover_memory_latency(self, full_run):
        _, _, obs, _ = full_run
        replies = [e for e in obs.events.iter_events() if e.cat == "mem"]
        assert replies
        for e in replies:
            assert e.ph == "X"
            assert e.dur == e.args["latency_ps"] > 0

    def test_jsonl_roundtrip(self, full_run, events_file):
        _, _, obs, _ = full_run
        parsed = read_jsonl(events_file, strict=True)
        assert parsed == [e.to_dict() for e in obs.events.iter_events()]
        assert all({"name", "cat", "ph", "ts", "track"} <= set(p)
                   for p in parsed)

    def test_chrome_trace_valid(self, full_run, events_file):
        payload = chrome_trace(read_jsonl(events_file))
        events = payload["traceEvents"]
        names = {e["args"]["name"] for e in events
                 if e.get("name") == "thread_name"}
        # per-TCU tracks plus per-module tracks
        assert len(names) >= 2
        assert any(n.startswith("tcu") for n in names)
        assert any(n.startswith("cache") for n in names)
        data_events = [e for e in events if e["ph"] != "M"]
        assert len({e["tid"] for e in data_events}) >= 2
        for e in data_events:
            assert e["ph"] in ("B", "E", "X", "i")
            if e["ph"] == "X":
                assert e["dur"] >= 0
            if e["ph"] == "i":
                assert e["s"] == "t"

    def test_ring_only_mode_keeps_tail(self):
        program = compile_source(SRC)
        obs = Observability(events=EventStream(retain=False, recent=16))
        Simulator(program, tiny(),
                  observability=obs).run(max_cycles=2_000_000)
        assert obs.events.events is None
        assert len(obs.events.recent) == 16
        assert obs.events.emitted > 16


class TestTraceRenderer:
    """The text Trace rides the observability hook stream (filters and
    all) while the structured events see everything."""

    def _run(self, **trace_kw):
        program = compile_source(SRC)
        trace = Trace(**trace_kw)
        obs = Observability(events=EventStream())
        obs.subscribe(trace)
        Simulator(program, tiny(),
                  observability=obs).run(max_cycles=2_000_000)
        return trace, obs

    def test_cycle_level_tcu_op_limit_combo(self):
        trace, obs = self._run(level=LEVEL_CYCLE, tcus={0},
                               ops={"lw", "sw", "swnb"}, limit=10)
        body = [r for r in trace.records if "truncated" not in r]
        assert body
        assert all("tcu0000" in r for r in body)
        assert len(body) <= 10
        # the structured stream is unfiltered: it saw every TCU
        tracks = {e.track for e in obs.events.iter_events()}
        assert {"tcu0000", "tcu0001"} <= tracks

    def test_functional_level_filters(self):
        trace, _ = self._run(level=LEVEL_FUNCTIONAL, tcus={-1},
                             ops={"spawn"})
        assert trace.records
        assert all("master" in r and "spawn" in r for r in trace.records)

    def test_truncation_marker_emitted_once(self):
        trace, _ = self._run(level=LEVEL_FUNCTIONAL, limit=5)
        assert trace.truncated
        markers = [r for r in trace.records if "truncated" in r]
        assert len(markers) == 1
        assert trace.records[-1] is markers[0]
        assert f"limit={trace.limit}" in markers[0]


class TestHistogram:
    def test_bucket_edges_inclusive_upper(self):
        h = Histogram(bounds=(1, 2, 4))
        for value in (0, 1, 2, 3, 4, 5, 100):
            h.observe(value)
        # bounds are inclusive upper edges; last bucket is overflow
        assert h.counts == [2, 1, 2, 2]
        assert h.count == 7
        assert h.sum == 115
        assert (h.min, h.max) == (0, 100)

    def test_mean_and_dict(self):
        h = Histogram(bounds=(10,))
        assert h.mean == 0.0
        h.observe(4)
        h.observe(8)
        d = h.to_dict()
        assert d["counts"] == [2, 0]
        assert d["mean"] == 6.0

    def test_default_bounds_are_geometric(self):
        h = Histogram()
        h.observe(1)
        h.observe(16384)   # last bound, still in-range
        h.observe(16385)   # overflow
        assert h.counts[-1] == 1
        assert h.counts[-2] == 1

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(4, 2))
        with pytest.raises(ValueError):
            Histogram(bounds=())

    def test_gauge_high_water(self):
        g = Gauge()
        g.set(7)
        g.set(3)
        assert (g.value, g.max) == (3, 7)


class TestMetrics:
    def test_latency_histograms_nonzero(self, full_run):
        _, _, obs, _ = full_run
        hists = obs.metrics.histograms
        assert hists["mem.latency.all"].count > 0
        per_module = [h for name, h in hists.items()
                      if name.startswith("mem.latency.m")]
        assert per_module
        assert (sum(h.count for h in per_module)
                <= hists["mem.latency.all"].count)

    def test_queue_gauges_cover_icn_cache_dram(self, full_run):
        _, _, obs, _ = full_run
        gauges = obs.metrics.gauge_values()
        assert "icn.in_flight_send" in gauges
        assert "cache.m00.in_queue" in gauges
        assert "dram.p0.queued" in gauges
        assert any(g.max > 0 for g in obs.metrics.gauges.values())

    def test_spawn_region_rollup(self, full_run):
        _, _, obs, result = full_run
        regions = obs.metrics.to_dict()["spawn_regions"]
        assert len(regions) == 1
        row = regions[0]
        assert row["src_line"] == SPAWN_LINE
        assert row["count"] == 1
        assert 0 < row["cycles_total"] <= result.cycles

    def test_export_payload(self, full_run, tmp_path):
        _, machine, _, result = full_run
        payload = export_metrics(machine)
        assert payload["schema"] == "xmtsim-metrics/1"
        assert payload["config"]["n_tcus"] == machine.config.n_tcus
        assert payload["stats"]["spawn.joined"] == 1
        assert payload["scheduler"]["events_processed"] > 0
        # the whole payload is JSON-serializable
        json.dumps(payload)


class TestProfiler:
    def test_top_line_is_real_source(self, full_run):
        _, _, obs, _ = full_run
        data = obs.profiler.to_data()
        top = data["lines"][0]
        assert 1 <= top["line"] <= len(SRC.splitlines())
        assert top["line"] == BODY_LINE
        assert top["cycles"] == top["issues"] + top["stalls"]

    def test_totals_conserved(self, full_run):
        _, _, obs, result = full_run
        data = obs.profiler.to_data()
        assert data["total_issues"] == result.instructions
        assert data["total_cycles"] == (data["total_issues"]
                                        + data["total_stalls"])
        assert sum(data["stall_causes"].values()) == data["total_stalls"]

    def test_spawn_site_cumulative(self, full_run):
        _, _, obs, _ = full_run
        data = obs.profiler.to_data()
        assert len(data["spawn_sites"]) == 1
        site = data["spawn_sites"][0]
        assert site["line"] == SPAWN_LINE
        assert site["cum_cycles"] >= site["flat_cycles"]
        # the region dominates this program
        assert site["cum_cycles"] > data["total_cycles"] // 4

    def test_render_quotes_source(self, full_run):
        _, _, obs, _ = full_run
        text = render_profile(obs.profiler.to_data(), top=5)
        assert "cycle profile:" in text
        assert "B[$] = A[$] + 1;" in text
        assert "spawn sites" in text

    def test_write_load_roundtrip(self, full_run, tmp_path):
        _, _, obs, _ = full_run
        path = tmp_path / "prof.json"
        path.write_text(artifact_json(obs.profiler.to_data()))
        data = load_artifact(str(path), "profile")
        assert data["schema"] == "xmt-prof/1"
        assert data["lines"] == obs.profiler.to_data()["lines"]

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"schema": "something-else/9"}')
        with pytest.raises(ValueError, match="bogus.json: expected schema "
                                             "'xmt-prof/1'"):
            load_artifact(str(path), "profile")


class TestIntervalSeriesIncremental:
    def test_deltas_match_pairwise_recompute(self):
        series = IntervalSeries()
        snaps = [{"a": 1}, {"a": 4, "b": 2}, {"a": 4, "b": 7, "c": 1}]
        for t, snap in enumerate(snaps):
            series.record(t * 100, dict(snap))
        expected = [diff_snapshots(prev, cur) for prev, cur in
                    zip([{}] + snaps[:-1], snaps)]
        assert series.deltas() == expected
        assert series.series("a") == [1, 3, 0]
        assert series.series("c") == [0, 0, 1]

    def test_deltas_returns_copy(self):
        series = IntervalSeries()
        series.record(0, {"a": 1})
        series.deltas().append({"bogus": 1})
        assert series.deltas() == [{"a": 1}]


class TestDiagnosticsIntegration:
    def test_dump_embeds_events_and_gauges(self, full_run):
        _, machine, _, _ = full_run
        dump = collect(machine, "test")
        assert dump.recent_events
        assert len(dump.recent_events) <= 64
        assert "icn.in_flight_send" in dump.gauges
        text = dump.format()
        assert "gauges:" in text
        assert "trace events" in text

    def test_dump_without_observability_stays_quiet(self):
        program = compile_source(SRC)
        machine = Machine(program, tiny())
        machine.run(max_cycles=2_000_000)
        dump = collect(machine, "test")
        assert dump.recent_events == []
        assert dump.gauges == {}
        assert "gauges:" not in dump.format()


class TestCheckpointDetach:
    def test_obs_detached_from_snapshot_kept_on_original(self):
        from repro.sim.checkpoint import load_bytes

        program = compile_source(SRC)
        obs = Observability(events=EventStream())
        machine = Machine(program, tiny(), observability=obs)
        machine.run(max_cycles=2_000_000)
        restored = load_bytes(save_bytes(machine))
        assert restored.obs is None
        assert machine.obs is obs


class TestCommandLine:
    @pytest.fixture()
    def src_file(self, tmp_path):
        path = tmp_path / "prog.c"
        path.write_text(SRC)
        return str(path)

    def test_xmtsim_writes_all_artifacts(self, src_file, tmp_path, capsys):
        from repro.toolchain.cli import xmt_prof_main, xmtsim_main

        run = tmp_path / "run"
        rc = xmtsim_main([src_file, "--config", "tiny", "--profile",
                          "--out", str(run),
                          "--observe", "metrics,profile,events"])
        assert rc == 0
        assert "cycle profile:" in capsys.readouterr().err
        assert sorted(os.listdir(run)) == [
            "events.jsonl", "manifest.json", "metrics.json", "profile.json"]
        assert xmt_prof_main(["chrome", str(run)]) == 0
        chrome = json.loads(capsys.readouterr().out)
        tids = {e["tid"] for e in chrome["traceEvents"] if e["ph"] != "M"}
        assert len(tids) >= 2
        # the toolchain's own reader: a format drift fails where the
        # file is produced
        payload = load_artifact(str(run / "metrics.json"), "metrics")
        assert payload["histograms"]["mem.latency.all"]["count"] > 0
        data = load_artifact(str(run / "profile.json"), "profile")
        assert data["lines"][0]["line"] == BODY_LINE

    def test_xmt_prof_report(self, src_file, tmp_path, capsys):
        from repro.toolchain.cli import xmt_prof_main, xmtsim_main

        run = tmp_path / "run"
        assert xmtsim_main([src_file, "--config", "tiny",
                            "--out", str(run)]) == 0
        capsys.readouterr()
        # the run directory, or the profile.json inside it
        for operand in (run, run / "profile.json"):
            assert xmt_prof_main(["report", str(operand), "--top", "3"]) == 0
            out = capsys.readouterr().out
            assert "cycle profile:" in out
            assert "B[$] = A[$] + 1;" in out

    def test_xmt_prof_rejects_non_profile(self, tmp_path, capsys):
        from repro.toolchain.cli import xmt_prof_main

        path = tmp_path / "nope.json"
        path.write_text("{}")
        assert xmt_prof_main(["report", str(path)]) == 2

    def test_observability_requires_cycle_mode(self, src_file):
        from repro.toolchain.cli import xmtsim_main

        rc = xmtsim_main([src_file, "--mode", "functional", "--profile"])
        assert rc == 2
