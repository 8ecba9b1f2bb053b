"""Live telemetry: sampler frames, sinks, campaign streams, monitors.

The load-bearing properties locked in here:

- **zero perturbation**: cycle counts with telemetry enabled are
  bit-identical to a bare run (the sampler is an activity plug-in, in
  the non-perturbing plug-in priority slot);
- **frames telescope**: per-interval deltas sum to the final totals,
  so any consumer can integrate the stream without the final frame;
- **checkpoint transparency**: sampler events are stripped from
  snapshots (no file handles inside a checkpoint) and a restored
  machine runs to the reference cycle count;
- **the stream is the campaign**: aggregating a campaign telemetry
  stream reproduces the ``summary.json`` outcome counts exactly, and
  a hung worker (no frames) is warned about and killed as a diagnosed
  ``WorkerStalled`` timeout -- distinguishable from a slow one.
"""

import io
import json
import os
import re
import subprocess
import sys

import pytest

from repro.sim import checkpoint as CP
from repro.sim.campaign import CampaignEngine, RunRequest, grid_requests
from repro.sim.campaign.requests import RunBudgets, PreparedRun
from repro.sim.campaign.worker import run_attempt
from repro.sim.config import tiny
from repro.sim.machine import Machine, Simulator
from repro.sim.observability import (
    Ledger,
    Observability,
    load_artifact,
    load_run,
    read_jsonl,
    schema_of,
)
from repro.sim.observability.aggregate import (
    fold_stream,
    percentile,
    render_top,
    top_report,
)
from repro.sim.observability.telemetry import JsonlSink, TelemetrySampler
from repro.toolchain.cli import xmt_top_main, xmtsim_main
from repro.xmtc.compiler import compile_source

SRC_ROOT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")
VECADD = os.path.join(os.path.dirname(SRC_ROOT), "benchmarks", "baselines",
                      "vecadd", "program.c")

SCHEMA_TELEMETRY = schema_of("telemetry")
SCHEMA_CAMPAIGN_TELEMETRY = schema_of("campaign-telemetry")


def read_frames(path):
    """Only the sampler's frames of a (possibly multiplexed) stream."""
    return [r for r in read_jsonl(path)
            if r.get("schema") == SCHEMA_TELEMETRY]


SRC = """
int A[8];
int total = 0;
int main() {
    spawn(0, 7) { int v = A[$]; psm(v, total); }
    printf("t=%d\\n", total);
    return 0;
}
"""

SPAWN_SRC = """
int A[32];
int B[32];
int main() {
    spawn(0, 31) { B[$] = A[$] + 1; }
    return 0;
}
"""

#: a spawn that keeps ``xmtsim --config tiny`` busy for a good part of
#: a second of host time, so a watcher sees it before it ends
LONG_SRC = """
int A[4096];
int B[4096];
int main() {
    spawn(0, 4095) { B[$] = A[$] + $; }
    return 0;
}
"""

@pytest.fixture
def src_file(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(SRC)
    return str(path)


def _instrumented_sim(every_cycles=20, sinks=None, eta_cycles=None):
    program = compile_source(SPAWN_SRC)
    sim = Simulator(program, tiny(), observability=Observability())
    sampler = TelemetrySampler(every_cycles=every_cycles,
                               sinks=list(sinks or []),
                               eta_cycles=eta_cycles)
    sampler.attach(sim.machine)
    sampler.arm()
    return sim, sampler


class TestSampler:
    def test_frames_round_trip_and_telescope(self, tmp_path):
        out = tmp_path / "telemetry.jsonl"
        sim, sampler = _instrumented_sim(sinks=[JsonlSink(str(out))],
                                         eta_cycles=100_000)
        result = sim.run(max_cycles=100_000)
        sampler.close()

        frames = read_frames(str(out))
        assert frames, "no frames emitted"
        assert all(f["schema"] == SCHEMA_TELEMETRY for f in frames)
        assert frames[0]["kind"] == "heartbeat"
        assert frames[-1]["kind"] == "final"
        assert [f["seq"] for f in frames] == list(range(len(frames)))

        # interval deltas telescope to the totals
        assert sum(f["interval"]["cycles"] for f in frames) == result.cycles
        assert frames[-1]["cycle"] == result.cycles
        assert (sum(f["interval"]["instructions"] for f in frames)
                == result.instructions)
        # gauge deltas telescope too (gauges start and end at zero)
        for name in frames[-1]["gauges"]:
            assert sum(f["interval"]["gauges"][name] for f in frames) == \
                frames[-1]["gauges"][name]

        # the spawn region is visible from the stream while in flight
        assert any(f["active_spawns"] for f in frames)
        # an ETA appears once the run is moving
        assert any(f["eta_seconds"] is not None for f in frames[1:-1])
        assert frames[-1]["halted"] is True

    def test_cycles_bit_identical_with_telemetry(self):
        program = compile_source(SPAWN_SRC)
        bare = Simulator(program, tiny()).run(max_cycles=100_000)
        sim, sampler = _instrumented_sim(every_cycles=5,
                                         sinks=[JsonlSink(io.StringIO())])
        instrumented = sim.run(max_cycles=100_000)
        sampler.close()
        assert instrumented.cycles == bare.cycles
        assert instrumented.instructions == bare.instructions

    def test_meta_merged_into_every_frame(self):
        buf = io.StringIO()
        program = compile_source(SPAWN_SRC)
        sim = Simulator(program, tiny())
        sampler = TelemetrySampler(every_cycles=50,
                                   sinks=[JsonlSink(buf)],
                                   meta={"label": "m1", "attempt": 3})
        sampler.attach(sim.machine)
        sampler.arm()
        sim.run(max_cycles=100_000)
        sampler.close()
        frames = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert all(f["label"] == "m1" and f["attempt"] == 3 for f in frames)

    def test_checkpoint_strips_sampler_and_replays_identically(self):
        program = compile_source(SPAWN_SRC)
        reference = Simulator(program, tiny()).run(max_cycles=100_000)

        machine = Machine(program, tiny())
        machine.obs = Observability()
        machine.obs.attach(machine)
        sampler = TelemetrySampler(every_cycles=10,
                                   sinks=[JsonlSink(io.StringIO())])
        sampler.attach(machine)
        sampler.arm()
        payload = CP.run_with_checkpoint(machine, checkpoint_cycle=60)
        assert payload is not None
        restored = CP.load_bytes(payload)
        pending = [e.actor for e in restored.scheduler._heap
                   if not e.cancelled]
        assert not any(isinstance(a, TelemetrySampler) for a in pending)
        result = restored.run(max_cycles=100_000)
        assert result.cycles == reference.cycles

    def test_read_stream_skips_torn_tail(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        path.write_text('{"schema": "xmtsim-telemetry/1", "kind": "frame"}\n'
                        '{"schema": "xmtsim-telem')
        records = read_jsonl(str(path))
        assert len(records) == 1
        with pytest.raises(ValueError, match=r"stream\.jsonl:2: "):
            read_jsonl(str(path), strict=True)


class TestXmtsimCli:
    def test_telemetry_out_and_identical_cycles(self, src_file, tmp_path,
                                                capsys):
        def run(extra):
            code = xmtsim_main(
                [src_file, "--config", "tiny",
                 "--set", "A", "1,2,3,4,5,6,7,8"] + extra)
            assert code == 0
            return capsys.readouterr().err

        bare = run([])
        instrumented = run(["--out", str(tmp_path / "run"), "--observe",
                            "telemetry", "--telemetry-every", "40"])
        # same "[tiny] N cycles" line with and without telemetry
        assert [l for l in bare.splitlines() if l.startswith("[tiny]")] == \
            [l for l in instrumented.splitlines() if l.startswith("[tiny]")]
        frames = read_frames(str(tmp_path / "run" / "telemetry.jsonl"))
        assert frames[-1]["kind"] == "final"
        cycles_line = [l for l in bare.splitlines()
                       if l.startswith("[tiny]")][0]
        assert str(frames[-1]["cycle"]) in cycles_line

    def test_stream_ends_at_the_stall(self, tmp_path, capsys):
        """A run the watchdog stops still closes its stream: one
        ``final`` frame, at the cycle where the dump says it died; and
        its directory is still a run, whose manifest alone says so."""
        run = str(tmp_path / "run")
        code = xmtsim_main(
            [VECADD, "--config", "tiny", "--out", run,
             "--observe", "telemetry,lifecycle",
             "--watchdog", "5",
             "--telemetry-every", "200"])
        err = capsys.readouterr().err
        assert code == 3
        assert "(~cycle 1445)  instructions: 1939" in err
        frames = read_frames(os.path.join(run, "telemetry.jsonl"))
        assert [f["seq"] for f in frames] == list(range(len(frames)))
        assert [f["kind"] for f in frames].count("final") == 1
        assert frames[-1]["kind"] == "final"
        assert frames[-1]["cycle"] == 1445
        record = load_run(run)
        assert record.manifest["ended"] == "stalled"
        assert (record.cycles, record.manifest["instructions"]) == (1445, 1939)
        assert f"xmtsim: wrote partial run {record.run_id} to {run}" in err
        assert sorted(os.listdir(run)) == [
            "lifecycle.jsonl", "manifest.json", "telemetry.jsonl"]

    def test_telemetry_requires_cycle_mode(self, src_file, tmp_path,
                                           capsys):
        code = xmtsim_main([src_file, "--mode", "functional",
                            "--out", str(tmp_path / "run"),
                            "--observe", "telemetry"])
        assert code == 2
        assert "--mode cycle" in capsys.readouterr().err


class TestWorkerTelemetry:
    def test_budget_trip_embeds_last_frame(self, src_file, tmp_path):
        request = RunRequest(program=src_file, config="tiny",
                             inputs={"A": [1, 2, 3, 4, 5, 6, 7, 8]})
        program = compile_source(SRC)
        prepared = PreparedRun.prepare(request, program, SRC)
        telemetry_path = str(tmp_path / "attempt.telemetry.jsonl")
        payload = run_attempt(prepared, RunBudgets(max_cycles=60), 1,
                              isolate=False,
                              telemetry_sink=JsonlSink(telemetry_path),
                              telemetry_every=10)
        assert payload["status"] == "timeout"
        frame = payload["last_telemetry"]
        assert frame["schema"] == SCHEMA_TELEMETRY
        assert frame["cycle"] <= 60
        assert "last telemetry: cycle" in payload["dump_summary"]
        # the sink captured the final frame even though the run died
        assert read_frames(telemetry_path)[-1]["kind"] == "final"


class TestCampaignTelemetry:
    GRID = [("dram_latency", [6, 10])]
    INPUTS = {"A": [1, 2, 3, 4, 5, 6, 7, 8]}

    def _engine(self, src_file, tmp_path, **kwargs):
        requests = grid_requests(src_file, self.GRID, config="tiny",
                                 inputs=dict(self.INPUTS))
        kwargs.setdefault("ledger", Ledger(str(tmp_path / "ledger")))
        kwargs.setdefault("telemetry_path",
                          str(tmp_path / "telemetry.jsonl"))
        kwargs.setdefault("telemetry_every", 50)
        return CampaignEngine(requests, **kwargs)

    def test_stream_reproduces_summary_counts(self, src_file, tmp_path):
        engine = self._engine(src_file, tmp_path, workers=2)
        result = engine.run()
        assert result.counts["ok"] == 2

        records = read_jsonl(str(tmp_path / "telemetry.jsonl"))
        kinds = [r.get("kind") for r in records
                 if r.get("schema") == SCHEMA_CAMPAIGN_TELEMETRY]
        assert kinds[0] == "campaign-start"
        assert kinds[-1] == "campaign-end"
        assert kinds.count("outcome") == 2

        summary_path = os.path.join(
            engine.ledger.campaign_dir(result.campaign_id), "summary.json")
        with open(summary_path) as fh:
            summary = json.load(fh)
        report = top_report(fold_stream(records))
        for status, count in summary["counts"].items():
            assert report["counts"].get(status, 0) == count
        # worker frames made it up the pipes, each naming its attempt
        frames = [r for r in records
                  if r.get("schema") == SCHEMA_TELEMETRY]
        assert frames and all(
            r["fingerprint"] and r["attempt"] == 1 and r["worker_pid"]
            for r in frames)
        # and each run's closing frame is in the stream before its outcome
        for outcome in result.outcomes:
            mine = [r.get("kind") for r in records
                    if r.get("fingerprint") == outcome.fingerprint]
            assert mine.index("final") < mine.index("outcome")

    def test_serial_mode_streams_too(self, src_file, tmp_path):
        engine = self._engine(src_file, tmp_path, serial=True)
        result = engine.run()
        assert result.counts["ok"] == 2
        records = read_jsonl(str(tmp_path / "telemetry.jsonl"))
        assert any(r.get("schema") == SCHEMA_TELEMETRY for r in records)
        assert top_report(fold_stream(records))["counts"]["ok"] == 2

    def test_resume_index_fast_path(self, src_file, tmp_path):
        engine = self._engine(src_file, tmp_path, workers=2)
        result = engine.run()
        assert result.counts["ok"] == 2
        ledger = engine.ledger
        assert os.path.exists(ledger.index_path)
        entries = [json.loads(line) for line in open(ledger.index_path)]
        assert len(entries) == 2
        assert all(e["fingerprint"] and e["run_id"] for e in entries)

        # resume through the index: zero simulations
        again = self._engine(src_file, tmp_path, workers=2,
                             ledger=ledger,
                             telemetry_path=str(tmp_path / "t2.jsonl"))
        result2 = again.run()
        assert result2.counts["cached"] == 2
        assert result2.attempts_total == 0

    def test_legacy_ledger_without_index_still_dedups(self, src_file,
                                                      tmp_path):
        """A ledger without an index is indexed on first resume and
        dedups identically."""
        engine = self._engine(src_file, tmp_path, workers=2)
        engine.run()
        ledger = engine.ledger
        indexed = ledger.load_index()
        assert len(indexed) == 2
        os.unlink(ledger.index_path)          # a pre-index ledger

        again = self._engine(src_file, tmp_path, serial=True,
                             ledger=Ledger(ledger.root),
                             telemetry_path=str(tmp_path / "t2.jsonl"))
        result = again.run()
        assert result.counts["cached"] == 2
        assert result.attempts_total == 0
        assert os.path.exists(ledger.index_path)
        assert ledger.load_index() == indexed


class TestAggregation:
    STREAM = [
        {"schema": SCHEMA_CAMPAIGN_TELEMETRY, "kind": "campaign-start",
         "campaign_id": "cafe12345678", "runs": 2},
        {"schema": SCHEMA_TELEMETRY, "kind": "heartbeat", "label": "a",
         "cycle": 0, "instructions": 0, "wall_seconds": 0.0,
         "interval": {"cycles": 0, "ipc": 0.0}, "attempt": 1},
        {"schema": SCHEMA_TELEMETRY, "kind": "frame", "label": "a",
         "cycle": 100, "instructions": 80, "wall_seconds": 0.5,
         "interval": {"cycles": 100, "ipc": 0.8}, "eta_seconds": 1.5,
         "attempt": 1},
        {"schema": SCHEMA_CAMPAIGN_TELEMETRY, "kind": "outcome",
         "index": 0, "label": "a", "fingerprint": "f" * 16,
         "status": "ok", "attempts": 1, "cycles": 200,
         "instructions": 160, "wall_seconds": 1.0,
         "overrides": {"dram_latency": 6}},
        {"schema": SCHEMA_CAMPAIGN_TELEMETRY, "kind": "outcome",
         "index": 1, "label": "b", "fingerprint": "e" * 16,
         "status": "failed", "attempts": 3, "error_type": "XMTCError",
         "overrides": {"dram_latency": 10}},
        {"schema": SCHEMA_CAMPAIGN_TELEMETRY, "kind": "campaign-end",
         "campaign_id": "cafe12345678",
         "counts": {"ok": 1, "failed": 1}},
    ]

    def test_fold_stream_states(self):
        summary = fold_stream(self.STREAM)
        assert summary.campaign_id == "cafe12345678"
        assert summary.finished is True
        assert summary.rows["a"].state == "ok"
        assert summary.rows["a"].cycle == 200
        assert summary.rows["b"].state == "failed"
        # incremental folding matches one-shot folding
        partial = fold_stream(self.STREAM[:3])
        assert partial.rows["a"].state == "running"
        assert partial.rows["a"].cycle == 100
        full = fold_stream(self.STREAM[3:], partial)
        assert full.rows["a"].state == "ok"

    def test_render_top_golden(self):
        text = render_top(fold_stream(self.STREAM), "text")
        assert text.splitlines()[:5] == [
            "campaign cafe12345678: 2/2 runs seen",
            "run  state   att  cycles  vs first  instr    ipc  wall_s  "
            "eta_s  hot  run id",
            "a    ok        1     200     first    160  0.800    0.50     "
            "--   --      --",
            "b    failed    3      --        --     --     --      --     "
            "--   --      --",
            "-- failed: 1  ok: 1  [stream ended]",
        ]
        markdown = render_top(fold_stream(self.STREAM), "markdown")
        assert markdown.splitlines()[0].startswith("| run | state |")
        payload = json.loads(render_top(fold_stream(self.STREAM), "json"))
        assert payload["schema"] == "xmt-top-report/2"
        assert len(payload["rows"]) == 2

    def test_campaign_report_golden(self):
        summary = fold_stream(self.STREAM)
        report = top_report(summary)
        assert report["campaign_id"] == "cafe12345678"
        assert report["counts"] == {"ok": 1, "failed": 1}
        assert report["retry_histogram"] == {"1": 1, "3": 1}
        axis = report["axes"]["dram_latency"]
        assert axis["dram_latency=6"]["cycles_p50"] == 200
        text = render_top(summary, "text")
        assert "2 runs -- failed: 1  ok: 1" in text
        assert "attempts histogram: 1x: 1  3x: 1" in text

    def test_killed_campaign_still_counts_its_outcomes(self):
        """Counts come from the ``outcome`` records: a stream cut before
        ``campaign-end`` reports the runs that finished."""
        killed = self.STREAM[:-1]
        report = top_report(fold_stream(killed))
        assert report["finished"] is False
        assert report["counts"] == {"ok": 1, "failed": 1}
        assert "2 runs -- failed: 1  ok: 1" in render_top(
            fold_stream(killed), "text")
        # a single-run stream has no campaign section
        frames = [r for r in self.STREAM
                  if r["schema"] == SCHEMA_TELEMETRY]
        single = render_top(fold_stream(frames), "text")
        assert "campaign report" not in single

    def test_repeated_label_is_another_run(self):
        """Outcomes are keyed by request index: a second run under the
        same label counts, a repeated record of one run does not."""
        outcome = self.STREAM[3]
        again = dict(outcome, index=1)
        report = top_report(fold_stream(
            [self.STREAM[0], outcome, again, dict(again)]))
        assert report["counts"] == {"ok": 2}
        assert [row["key"] for row in report["rows"]] == ["a", "a#1"]

    def test_percentile_nearest_rank(self):
        assert percentile([], 50) is None
        assert percentile([3], 95) == 3
        assert percentile([1, 2, 3, 4], 50) == 2
        assert percentile(list(range(1, 101)), 95) == 95


class TestMonitorClis:
    def _stream_file(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        path.write_text("\n".join(
            json.dumps(r) for r in TestAggregation.STREAM) + "\n")
        return str(path)

    def test_top_report(self, tmp_path, capsys):
        assert xmt_top_main(["report", self._stream_file(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "campaign cafe12345678" in out
        assert "[stream ended]" in out

    def test_top_report_json(self, tmp_path, capsys):
        assert xmt_top_main(["report", self._stream_file(tmp_path),
                             "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["finished"] is True

    def test_top_report_missing_stream(self, tmp_path, capsys):
        assert xmt_top_main(["report",
                             str(tmp_path / "nope.jsonl")]) == 2
        assert "xmt-top" in capsys.readouterr().err

    def test_top_watch_follow_plain(self, tmp_path, capsys):
        code = xmt_top_main(["watch", "--follow",
                             self._stream_file(tmp_path),
                             "--plain", "--interval", "0.05"])
        assert code == 0
        out = capsys.readouterr().out
        assert "[stream ended]" in out
        # the live table keeps its columns; the campaign section and
        # the report-only columns are the offline report's
        assert "vs first" not in out and "run id" not in out
        assert "campaign report" not in out

    def test_top_watch_follows_a_live_run(self, tmp_path, capsys):
        """The watcher starts before ``xmtsim`` (in a subprocess) has
        written its ``final`` frame -- before its run directory even
        exists --, shows the run while it goes, and exits 0 on ``final``
        showing the cycle count ``xmtsim`` printed."""
        program = tmp_path / "long.c"
        program.write_text(LONG_SRC)
        run = tmp_path / "run"
        stream = run / "telemetry.jsonl"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [SRC_ROOT] + [p for p in os.environ.get("PYTHONPATH", "")
                          .split(os.pathsep) if p]))
        producer = subprocess.Popen(
            [sys.executable, "-c",
             "import sys; from repro.toolchain.cli import xmtsim_main; "
             "sys.exit(xmtsim_main(sys.argv[1:]))",
             str(program), "--config", "tiny", "--out", str(run),
             "--observe", "telemetry", "--telemetry-every", "500"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True)
        try:
            assert not stream.exists() or '"final"' not in stream.read_text()
            code = xmt_top_main(["watch", "--follow", str(stream),
                                 "--plain", "--interval", "0.05",
                                 "--max-updates", "1200"])  # <= 60 s
            _, err = producer.communicate(timeout=60)
        finally:
            producer.kill()
            producer.wait()
        assert producer.returncode == 0, err
        assert code == 0
        cycles = re.search(r"\[tiny\] (\d+) cycles,", err).group(1)
        snapshots = capsys.readouterr().out.strip().split("\n\n")
        assert re.search(r"\brunning\b", snapshots[0])
        assert re.search(rf"\bdone\b.*\b{cycles}\b", snapshots[-1])

    def test_campaign_report_cli(self, tmp_path, capsys):
        """A campaign's report is ``xmt-top report`` of its stream."""
        code = xmt_top_main(["report", self._stream_file(tmp_path)])
        assert code == 0
        assert "campaign report cafe12345678" in capsys.readouterr().out
        # the JSON output is a top-report artifact its reader accepts
        code = xmt_top_main(["report", self._stream_file(tmp_path),
                             "--format", "json"])
        assert code == 0
        path = tmp_path / "top-report.json"
        path.write_text(capsys.readouterr().out)
        report = load_artifact(str(path), "top-report")
        assert report["campaign_id"] == "cafe12345678"
        assert report["counts"] == {"ok": 1, "failed": 1}

    def test_campaign_report_needs_input(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert xmt_top_main(["report", str(empty)]) == 2
        assert "no telemetry records" in capsys.readouterr().err


class TestDiagnosticsEmbedding:
    def test_dump_embeds_last_frame(self):
        from repro.sim.resilience.errors import SimulationBudgetExceeded

        program = compile_source(SPAWN_SRC)
        sim = Simulator(program, tiny(), observability=Observability())
        sampler = TelemetrySampler(every_cycles=10,
                                   sinks=[JsonlSink(io.StringIO())])
        sampler.attach(sim.machine)
        sampler.arm()
        with pytest.raises(SimulationBudgetExceeded) as info:
            sim.run(max_cycles=50)
        dump = info.value.dump
        assert dump is not None
        assert dump.last_telemetry is not None
        assert dump.last_telemetry["cycle"] <= 50
        assert "last telemetry" in dump.summary()
        assert "last telemetry frame" in dump.format()
