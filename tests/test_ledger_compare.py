"""Experiment ledger + differential observability (`xmt-compare`)."""

import json
import os
import re
from pathlib import Path

import pytest

from repro.sim.config import tiny
from repro.sim.machine import Simulator
from repro.sim.observability import (
    EventStream,
    Ledger,
    Observability,
    SchemaError,
    build_manifest,
    check_regressions,
    chrome_trace,
    compare_runs,
    flatten_metrics,
    instrumented_run,
    load_artifact,
    load_run,
    render_comparison,
    schema_of,
    write_run_dir,
)
from repro.sim.observability.aggregate import (fold_stream, render_top,
                                              top_report)
from repro.sim.observability.artifacts import read_jsonl
from repro.sim.observability.ledger import manifest_run_id
from repro.toolchain.cli import (
    xmt_campaign_main,
    xmt_compare_main,
    xmt_explain_main,
    xmt_prof_main,
    xmt_top_main,
    xmtsim_main,
)
from repro.toolchain.driver import load_program
from repro.xmtc.compiler import CompileOptions, compile_source

SRC = """
int A[64];
int B[64];
int C[64];
int main() {
    int i;
    for (i = 0; i < 64; i++) { A[i] = i; B[i] = 2 * i; }
    spawn(0, 63) {
        C[$] = A[$] + B[$];
    }
    printf("%d\\n", C[63]);
    return 0;
}
"""

SLOW = dict(dram_latency=30, dram_period=4000)


@pytest.fixture(scope="module")
def program():
    return compile_source(SRC)


@pytest.fixture(scope="module")
def run_fast(program):
    return instrumented_run(program, tiny(), source=SRC, label="fast")


@pytest.fixture(scope="module")
def run_slow(program):
    return instrumented_run(program, tiny(**SLOW), source=SRC,
                            label="slow")


@pytest.fixture(scope="module")
def src_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("prog") / "vecadd.c"
    path.write_text(SRC)
    return str(path)


class TestManifest:
    def test_schema_and_fields(self, run_fast):
        m = run_fast.manifest
        assert m["schema"] == "xmtsim-run/1"
        assert m["cycles"] == run_fast.result.cycles
        assert m["config"]["name"] == "tiny"
        assert len(m["program"]["sha256"]) == 64
        assert len(m["config_sha256"]) == 64
        assert m["program"]["source_sha256"] is not None
        assert m["toolchain_version"]
        assert m["wall_seconds"] >= 0

    def test_run_id_is_content_addressed(self, program):
        a = instrumented_run(program, tiny(), source=SRC, label="x")
        b = instrumented_run(program, tiny(), source=SRC, label="x")
        # identical inputs -> identical id, despite differing wall time
        assert a.manifest["run_id"] == b.manifest["run_id"]
        assert a.manifest["wall_seconds"] != b.manifest["wall_seconds"] \
            or True  # wall times may rarely tie; the id equality matters

    def test_run_id_depends_on_config_and_label(self, run_fast, run_slow):
        assert run_fast.manifest["run_id"] != run_slow.manifest["run_id"]
        assert run_fast.manifest["config_sha256"] != \
            run_slow.manifest["config_sha256"]

    def test_wall_time_excluded_from_identity(self, run_fast):
        tweaked = dict(run_fast.manifest, wall_seconds=999.0,
                       created_unix=0.0, git_revision="deadbeef")
        assert manifest_run_id(tweaked) == run_fast.manifest["run_id"]

    def test_git_revision_is_read_once_per_directory(self, tmp_path,
                                                     monkeypatch):
        """Git is asked once per process, about the directory of the
        imported package: a run started elsewhere records the same
        revision."""
        import subprocess

        import repro
        from repro.sim.observability import ledger

        calls = []

        def fake_run(argv, cwd=None, **kw):
            calls.append(cwd)
            return subprocess.CompletedProcess(argv, 0, f"rev-{len(calls)}\n")

        monkeypatch.setattr(ledger.subprocess, "run", fake_run)
        ledger.git_revision.cache_clear()
        try:
            monkeypatch.chdir(tmp_path)
            assert ledger.git_revision() == "rev-1"
            monkeypatch.chdir(os.path.dirname(__file__))
            assert ledger.git_revision() == "rev-1"
        finally:
            ledger.git_revision.cache_clear()
        assert calls == [os.path.dirname(os.path.realpath(repro.__file__))]


class TestLedger:
    def test_record_list_load(self, tmp_path, run_fast, run_slow):
        ledger = Ledger(str(tmp_path))
        rec1 = ledger.record_artifacts(run_fast)
        rec2 = ledger.record_artifacts(run_slow)
        ids = {r.run_id for r in ledger.list_runs()}
        assert ids == {rec1.run_id, rec2.run_id}
        loaded = ledger.load(rec1.run_id)
        assert loaded.manifest == rec1.manifest
        assert loaded.payload("metrics")["schema"] == "xmtsim-metrics/1"
        assert loaded.payload("profile")["schema"] == "xmt-prof/1"
        assert loaded.payload("accounting") is None  # none recorded

    def test_load_by_prefix(self, tmp_path, run_fast):
        ledger = Ledger(str(tmp_path))
        rec = ledger.record_artifacts(run_fast)
        assert ledger.load(rec.run_id[:6]).run_id == rec.run_id
        with pytest.raises(KeyError):
            ledger.load("zzzzzz")

    def test_record_is_idempotent(self, tmp_path, run_fast):
        ledger = Ledger(str(tmp_path))
        ledger.record_artifacts(run_fast)
        ledger.record_artifacts(run_fast)
        assert len(ledger.list_runs()) == 1

    def test_query_config(self, tmp_path, run_fast, run_slow):
        ledger = Ledger(str(tmp_path))
        ledger.record_artifacts(run_fast)
        ledger.record_artifacts(run_slow)
        slow = ledger.query_config(dram_latency=30)
        assert [r.label for r in slow] == ["slow"]
        assert ledger.query_config(dram_latency=30, n_clusters=99) == []

    def test_load_run_from_dir_and_manifest(self, tmp_path, run_fast):
        ledger = Ledger(str(tmp_path))
        rec = ledger.record_artifacts(run_fast)
        by_dir = load_run(rec.path)
        by_file = load_run(os.path.join(rec.path, "manifest.json"))
        assert by_dir.run_id == by_file.run_id == rec.run_id
        assert by_file.payload("metrics") is not None


class TestCompare:
    def test_self_compare_is_clean(self, run_fast):
        rec = run_fast.as_record()
        cmp = compare_runs(rec, rec)
        assert cmp["cycles"]["a"] == cmp["cycles"]["b"]
        assert cmp["metric_deltas"] == []
        assert cmp["line_deltas"] == []
        assert cmp["config_changes"] == []
        assert check_regressions(rec, rec) == []

    def test_config_diff_produces_deltas(self, run_fast, run_slow):
        """Acceptance criterion: two runs under different XMTConfigs
        name at least one metric delta and one per-line profile delta."""
        cmp = compare_runs(run_fast.as_record(), run_slow.as_record())
        assert cmp["cycles"]["b"] != cmp["cycles"]["a"]
        assert cmp["metric_deltas"], "expected metric deltas"
        assert cmp["line_deltas"], "expected per-line profile deltas"
        changed = {d["field"]: (d["a"], d["b"])
                   for d in cmp["config_changes"]}
        assert changed["dram_latency"] == (6, 30)
        statuses = {d["status"] for d in cmp["line_deltas"]}
        assert statuses <= {"regressed", "improved", "new", "vanished"}

    def test_line_deltas_sorted_by_magnitude(self, run_fast, run_slow):
        cmp = compare_runs(run_fast.as_record(), run_slow.as_record())
        mags = [abs(d["delta"]) for d in cmp["line_deltas"]]
        assert mags == sorted(mags, reverse=True)

    def test_gate_detects_regression(self, run_fast, run_slow):
        fast, slow = run_fast.as_record(), run_slow.as_record()
        failures = check_regressions(fast, slow, threshold=0.01)
        assert [f.metric for f in failures] == ["cycles"]
        assert "REGRESSION" in failures[0].format()
        # the reverse direction (slow baseline, fast fresh) passes
        assert check_regressions(slow, fast, threshold=0.01) == []

    def test_gate_extra_metric(self, run_fast, run_slow):
        fast, slow = run_fast.as_record(), run_slow.as_record()
        failures = check_regressions(
            fast, slow, metrics=["cycles", "stats.tcu.stall.drain"],
            threshold=0.01)
        assert {f.metric for f in failures} == \
            {"cycles", "stats.tcu.stall.drain"}
        # an unchanged metric gates too: it is read from both runs'
        # whole metric space, not from the delta rows
        assert check_regressions(fast, fast, ["stats.cycles"], 0) == []
        with pytest.raises(KeyError, match="not a metric of either run"):
            check_regressions(fast, slow, ["stats.no_such_metric"])

    def test_flatten_metrics_space(self, run_fast):
        flat = flatten_metrics(run_fast.metrics)
        assert any(k.startswith("stats.") for k in flat)
        assert any(k.startswith("gauge.") for k in flat)
        assert "hist.mem.latency.all.mean" in flat
        assert all(isinstance(v, (int, float)) for v in flat.values())

    def test_renderers(self, run_fast, run_slow):
        cmp = compare_runs(run_fast.as_record(), run_slow.as_record())
        text = render_comparison(cmp, "text")
        assert "cycles:" in text and "config changes" in text
        md = render_comparison(cmp, "markdown")
        assert "| metric |" in md and "| line |" in md
        payload = json.loads(render_comparison(cmp, "json"))
        assert payload == cmp
        assert payload["schema"] == "xmt-compare/1"
        assert payload["cycles"]["delta"] == \
            cmp["cycles"]["b"] - cmp["cycles"]["a"]
        with pytest.raises(ValueError):
            render_comparison(cmp, "html")

    def test_spawn_deltas(self, run_fast, run_slow):
        cmp = compare_runs(run_fast.as_record(), run_slow.as_record())
        # one spawn site in SRC; rollup delta only appears if totals move
        for d in cmp["spawn_deltas"]:
            assert d["src_line"] > 0 and d["delta"] != 0

    def test_sweep_table(self, run_fast, run_slow):
        """A sweep's table is the ``xmt-top`` report of its outcomes:
        cycles, the delta against request 0, the run ids."""
        summary = fold_stream([{
            "schema": schema_of("campaign-telemetry"), "kind": "outcome",
            "index": index, "label": f"dram_latency={latency}",
            "status": "ok", "attempts": 1, "run_id": run.manifest["run_id"],
            "cycles": run.manifest["cycles"],
            "overrides": {"dram_latency": latency}}
            for index, (latency, run) in enumerate(
                ((6, run_fast), (30, run_slow)))])
        text = render_top(summary)
        assert "vs first" in text and "first" in text
        assert run_slow.manifest["run_id"] in text
        md = render_top(summary, "markdown")
        assert md.startswith("| run | state |")
        rows = json.loads(render_top(summary, "json"))["rows"]
        assert [row["key"] for row in rows] == ["dram_latency=6",
                                                "dram_latency=30"]
        assert rows[0]["rel"] == 0.0
        assert rows[1]["rel"] == pytest.approx(
            run_slow.manifest["cycles"] / run_fast.manifest["cycles"] - 1)


class TestSchemaStability:
    """The three public payload schemas load via the one public loader
    and reject foreign payloads with a named error, not a KeyError
    (every corruption of every artifact: ``tests/test_artifacts.py``)."""

    def test_round_trip_via_ledger_files(self, tmp_path, run_fast):
        rec = Ledger(str(tmp_path)).record_artifacts(run_fast)
        manifest, metrics, profile = (
            load_artifact(os.path.join(rec.path, f"{name}.json"), name)
            for name in ("manifest", "metrics", "profile"))
        assert manifest["schema"] == "xmtsim-run/1"
        assert metrics["schema"] == "xmtsim-metrics/1"
        assert profile["schema"] == "xmt-prof/1"
        assert manifest["cycles"] == run_fast.result.cycles
        assert profile["total_cycles"] > 0

    def test_compare_rejects_mismatched_schema(self, run_fast):
        rec = run_fast.as_record()
        stale = run_fast.as_record()
        stale.manifest = dict(stale.manifest, schema="xmtsim-run/0")
        with pytest.raises(SchemaError, match="xmtsim-run/1"):
            compare_runs(rec, stale)

    def test_compare_rejects_mismatched_profile_schema(self, run_fast):
        rec_a = run_fast.as_record()
        rec_b = run_fast.as_record()
        rec_b.payloads["profile"] = dict(rec_b.payloads["profile"],
                                         schema="xmt-prof/99")
        with pytest.raises(SchemaError, match="xmt-prof/1"):
            compare_runs(rec_a, rec_b)


class TestStreamingTraceSink:
    def test_stream_to_file_bounded_memory(self, tmp_path, program):
        path = tmp_path / "trace.jsonl"
        events = EventStream(retain=False, stream_to=str(path),
                             flush_every=16)
        obs = Observability(events=events)
        Simulator(program, tiny(), observability=obs).run(
            max_cycles=2_000_000)
        events.close()
        assert events.events is None  # nothing accumulated in memory
        lines = path.read_text().splitlines()
        assert len(lines) == events.emitted > 100
        cats = {json.loads(line)["cat"] for line in lines}
        assert {"instr", "mem", "spawn"} <= cats

    def test_stream_to_open_file_object(self, tmp_path, program):
        path = tmp_path / "trace.jsonl"
        with open(path, "w") as fh:
            events = EventStream(retain=False, stream_to=fh)
            obs = Observability(events=events)
            Simulator(program, tiny(), observability=obs).run(
                max_cycles=2_000_000)
            events.close()  # flushes; caller-owned fh stays open
            assert not fh.closed
        assert len(path.read_text().splitlines()) == events.emitted

    def test_streaming_with_retain_keeps_both(self, tmp_path):
        path = tmp_path / "t.jsonl"
        events = EventStream(retain=True, stream_to=str(path))
        events.instant("x", "test", 0, "trk")
        events.close()
        assert len(events.events) == 1
        assert len(path.read_text().splitlines()) == 1


class TestCLI:
    def test_xmtsim_ledger_flag(self, tmp_path, src_path, capsys):
        ledger_dir = str(tmp_path / "ledger")
        rc = xmtsim_main([src_path, "--config", "tiny",
                          "--ledger", ledger_dir,
                          "--run-label", "cli-run"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "recorded run" in err
        records = Ledger(ledger_dir).list_runs()
        assert len(records) == 1
        assert records[0].label == "cli-run"
        assert records[0].payload("metrics") is not None
        assert records[0].payload("profile") is not None

    def test_xmtsim_ledger_requires_cycle_mode(self, src_path, tmp_path,
                                               capsys):
        rc = xmtsim_main([src_path, "--mode", "functional",
                          "--ledger", str(tmp_path / "l")])
        assert rc == 2

    def test_out_directory_is_the_ledger_entry(self, tmp_path, src_path,
                                               capsys):
        """One run written both ways: ``--out D`` holds what the ledger
        entry holds, under the same run id, plus the three streams, and
        every reader takes the directory."""
        out, ledger_dir = tmp_path / "run", str(tmp_path / "ledger")
        assert xmtsim_main(
            [src_path, "--config", "tiny", "--out", str(out), "--observe",
             "metrics,profile,accounting,lifecycle,events,telemetry",
             "--ledger", ledger_dir, "--telemetry-every", "100"]) == 0
        manifest = load_artifact(str(out / "manifest.json"), "manifest")
        entry, = Ledger(ledger_dir).list_runs()
        assert manifest["run_id"] == entry.run_id
        recorded = sorted(os.listdir(entry.path))
        assert recorded == ["accounting.json", "lifecycle.json",
                            "manifest.json", "metrics.json", "profile.json"]
        assert sorted(os.listdir(out)) == sorted(
            recorded + ["events.jsonl", "lifecycle.jsonl", "telemetry.jsonl"])

        def masked(path):  # the manifest's host-clock fields
            text = path.read_text()
            for key in ("wall_seconds", "created_unix"):
                text = re.sub(rf'"{key}": [0-9.e+-]+', f'"{key}": 0', text)
            return text

        for name in recorded:
            assert masked(out / name) == masked(Path(entry.path) / name), \
                name
        for name in ("events.jsonl", "lifecycle.jsonl", "telemetry.jsonl"):
            assert read_jsonl(str(out / name), strict=True), name
        capsys.readouterr()
        assert xmt_explain_main(["report", str(out), "--assert-exact"]) == 0
        assert xmt_prof_main(["report", str(out)]) == 0
        assert xmt_compare_main(["diff", str(out), entry.path]) == 0

    def test_xmtsim_out_streams_events(self, tmp_path, src_path, capsys):
        out = tmp_path / "run"
        rc = xmtsim_main([src_path, "--config", "tiny", "--out", str(out),
                          "--observe", "events"])
        assert rc == 0
        assert "wrote run " in capsys.readouterr().err
        # only what was asked for, next to the manifest
        assert sorted(os.listdir(out)) == ["events.jsonl", "manifest.json"]
        with open(out / "events.jsonl") as fh:
            first = json.loads(fh.readline())
        assert {"name", "cat", "ph", "ts", "track"} <= set(first)

    def test_budget_trip_leaves_a_partial_run(self, tmp_path, src_path,
                                              capsys):
        """A run stopped by its budget writes its manifest alone into
        ``--out`` (cycles where it stopped, ``ended: budget``) and
        records nothing in ``--ledger``: campaign dedup would take a
        partial run for an answer."""
        out, ledger_dir = str(tmp_path / "run"), str(tmp_path / "ledger")
        assert xmtsim_main([src_path, "--config", "tiny", "--out", out,
                            "--ledger", ledger_dir,
                            "--max-cycles", "300"]) == 4
        err = capsys.readouterr().err
        record = load_run(out)
        assert record.manifest["ended"] == "budget"
        assert f"(~cycle {record.cycles}):" in err
        assert f"{record.manifest['instructions']} instructions," in err
        assert sorted(os.listdir(out)) == ["manifest.json"]
        assert Ledger(ledger_dir).list_runs() == []
        assert "ended" not in instrumented_run(
            compile_source(SRC), tiny(), out=str(tmp_path / "whole")
        ).manifest

    def test_xmt_prof_chrome_exports_the_event_stream(self, tmp_path,
                                                      src_path, capsys):
        out = tmp_path / "run"
        assert xmtsim_main([src_path, "--config", "tiny", "--out", str(out),
                            "--observe", "events"]) == 0
        capsys.readouterr()
        assert xmt_prof_main(["chrome", str(out)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == chrome_trace(read_jsonl(str(out / "events.jsonl")))
        assert "traceEvents" in payload

    def test_xmt_prof_chrome_needs_the_event_stream(self, tmp_path,
                                                    src_path, capsys):
        out = tmp_path / "run"
        assert xmtsim_main([src_path, "--config", "tiny",
                            "--out", str(out)]) == 0
        capsys.readouterr()
        assert xmt_prof_main(["chrome", str(out)]) == 2
        assert "events.jsonl" in capsys.readouterr().err

    @pytest.fixture()
    def two_runs(self, tmp_path, src_path):
        ledger_dir = str(tmp_path / "ledger")
        assert xmtsim_main([src_path, "--config", "tiny",
                            "--ledger", ledger_dir]) == 0
        config = tmp_path / "slow.json"
        config.write_text(json.dumps({"base": "tiny", **SLOW}))
        assert xmtsim_main([src_path, "--config-file", str(config),
                            "--ledger", ledger_dir]) == 0
        ids = [r.run_id for r in Ledger(ledger_dir).list_runs()]
        assert len(ids) == 2
        return ledger_dir, ids

    def test_compare_list(self, two_runs, capsys):
        ledger_dir, ids = two_runs
        assert xmt_compare_main(["list", "--ledger", ledger_dir]) == 0
        out = capsys.readouterr().out
        for run_id in ids:
            assert run_id in out

    def test_compare_diff(self, two_runs, capsys):
        ledger_dir, ids = two_runs
        rc = xmt_compare_main(["diff", ids[0], ids[1],
                               "--ledger", ledger_dir])
        assert rc == 0
        out = capsys.readouterr().out
        assert "config changes" in out
        assert "dram_latency" in out
        assert "regressed" in out or "improved" in out

    def test_compare_diff_json(self, two_runs, capsys):
        ledger_dir, ids = two_runs
        rc = xmt_compare_main(["diff", ids[0], ids[1], "--ledger",
                               ledger_dir, "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metric_deltas"]
        assert payload["line_deltas"]

    def test_stopped_and_injected_runs_are_named(self, tmp_path, src_path,
                                                 capsys):
        """``list`` and ``diff`` name a run that did not complete clean:
        its ``fault`` and its ``ended`` follow its id; a completed clean
        run prints as it always did."""
        ledger_dir, clean, stopped = (str(tmp_path / name)
                                      for name in ("ledger", "A", "R"))
        assert xmtsim_main([src_path, "--config", "tiny", "--out", clean,
                            "--ledger", ledger_dir]) == 0
        assert xmtsim_main([src_path, "--config", "tiny", "--inject",
                            "dram.stall@20:5", "--ledger", ledger_dir]) == 0
        assert xmtsim_main([src_path, "--config", "tiny", "--event-budget",
                            "100", "--out", stopped]) == 4
        capsys.readouterr()
        assert xmt_compare_main(["list", "--ledger", ledger_dir]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert sorted(row.endswith(" [injected dram.stall@20:5]")
                      for row in rows) == [False, True]
        assert xmt_compare_main(["diff", stopped, clean]) == 0
        title = capsys.readouterr().out.splitlines()[0]
        assert re.search(r" \[budget\] -> \w+$", title), title
        manifest = json.loads(Path(stopped, "manifest.json").read_text())
        assert manifest["ended"] == "budget" and "fault" not in manifest

    def test_compare_diff_unknown_run(self, two_runs, capsys):
        ledger_dir, _ = two_runs
        rc = xmt_compare_main(["diff", "nope", "alsonope",
                               "--ledger", ledger_dir])
        assert rc == 2
        assert "no run" in capsys.readouterr().err

    def test_compare_diff_schema_mismatch_is_clear(self, two_runs,
                                                   tmp_path, capsys):
        ledger_dir, ids = two_runs
        run_dir = os.path.join(ledger_dir, "runs", ids[0])
        stale = json.load(open(os.path.join(run_dir, "manifest.json")))
        stale["schema"] = "xmtsim-run/0"
        stale_path = tmp_path / "stale" / "manifest.json"
        stale_path.parent.mkdir()
        stale_path.write_text(json.dumps(stale))
        rc = xmt_compare_main(["diff", str(stale_path), run_dir])
        assert rc == 2
        err = capsys.readouterr().err
        assert "schema" in err and "KeyError" not in err

    def test_compare_sweep(self, tmp_path, src_path, capsys):
        """A sweep is ``xmt-campaign --vary``; ``xmt-top report`` prints
        its table."""
        ledger_dir = str(tmp_path / "ledger")
        stream = str(tmp_path / "stream.jsonl")
        rc = xmt_campaign_main(
            [src_path, "--config", "tiny", "--vary", "dram_latency=6,30",
             "--serial", "--ledger", ledger_dir, "--telemetry-out", stream])
        assert rc == 0
        assert xmt_top_main(["report", stream]) == 0
        out = capsys.readouterr().out
        assert "dram_latency=30" in out and "first" in out
        records = Ledger(ledger_dir).list_runs()
        assert {r.config_value("dram_latency") for r in records} == {6, 30}

    def test_compare_sweep_bad_vary(self, src_path, capsys):
        rc = xmt_campaign_main([src_path, "--vary", "garbage"])
        assert rc == 2
        assert "--vary" in capsys.readouterr().err


    @pytest.fixture()
    def baseline_dir(self, tmp_path, src_path):
        path = str(tmp_path / "baseline")
        rc = xmt_compare_main(["check", src_path, "--baseline", path,
                               "--config", "tiny", "--update-baseline"])
        assert rc == 0
        return path

    def test_check_self_compare_passes(self, baseline_dir, src_path,
                                       capsys):
        """Acceptance criterion: check exits 0 on self-compare ..."""
        rc = xmt_compare_main(["check", src_path,
                               "--baseline", baseline_dir])
        assert rc == 0
        assert "OK within" in capsys.readouterr().err

    def test_check_regression_fails(self, baseline_dir, src_path,
                                    tmp_path, capsys):
        """... and non-zero under a tightened threshold against a run
        whose config regressed it."""
        config = tmp_path / "slow.json"
        config.write_text(json.dumps({"base": "tiny", **SLOW}))
        rc = xmt_compare_main(["check", src_path,
                               "--baseline", baseline_dir,
                               "--config-file", str(config),
                               "--threshold", "0.02"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "REGRESSION cycles" in err

    def test_check_uses_baseline_config_by_default(self, baseline_dir,
                                                   src_path, capsys):
        # no --config given: the fresh run inherits the baseline's
        # recorded tiny config rather than defaulting to fpga64
        rc = xmt_compare_main(["check", src_path,
                               "--baseline", baseline_dir,
                               "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config_changes"] == []

    def test_check_warns_on_program_drift(self, baseline_dir, tmp_path,
                                          capsys):
        other = tmp_path / "other.c"
        other.write_text(SRC.replace("A[$] + B[$]", "A[$] - B[$]"))
        rc = xmt_compare_main(["check", str(other),
                               "--baseline", baseline_dir])
        assert "differs from the baseline" in capsys.readouterr().err
        assert rc in (0, 1)

    def test_shipped_baselines_self_check(self, capsys):
        """The committed CI baselines gate their own programs at the
        CI threshold (guards against stale baselines landing)."""
        root = os.path.join(os.path.dirname(__file__), "..",
                            "benchmarks", "baselines")
        for workload in ("vecadd", "compact"):
            base = os.path.join(root, workload)
            rc = xmt_compare_main(
                ["check", os.path.join(base, "program.c"),
                 "--baseline", base, "--threshold", "0.02"])
            assert rc == 0, f"{workload}: {capsys.readouterr()}"


class TestGridCampaignReport:
    """One grid command, one outcome record, one report: a real
    ``xmt-campaign --vary`` run's ``xmt-top report`` agrees with the
    ledger it wrote, and ledgers of earlier grid runs keep answering."""

    GRID = ["--config", "tiny", "--vary", "dram_latency=6,30", "--serial"]

    def test_report_matches_ledger_and_summary(self, tmp_path, src_path,
                                               capsys):
        ledger_dir = str(tmp_path / "ledger")
        stream = str(tmp_path / "stream.jsonl")
        assert xmt_campaign_main([src_path, *self.GRID, "--ledger",
                                  ledger_dir, "--telemetry-out",
                                  stream]) == 0
        capsys.readouterr()
        assert xmt_top_main(["report", stream, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        manifests = {r.run_id: r.manifest["cycles"]
                     for r in Ledger(ledger_dir).list_runs()}
        assert {row["run_id"]: row["cycle"]
                for row in report["rows"]} == manifests
        summary, = [r for r in read_jsonl(stream)
                    if r.get("kind") == "campaign-start"]
        summary_path = os.path.join(ledger_dir, "campaigns",
                                    summary["campaign_id"], "summary.json")
        counts = load_artifact(summary_path, "campaign-summary")["counts"]
        assert report["counts"] == {status: n for status, n
                                    in counts.items() if n}

    def test_identical_requests_are_counted_as_two_runs(self, tmp_path,
                                                       src_path, capsys):
        """Two identical unlabelled queue lines are two runs, in
        ``summary.json`` and in the report alike."""
        queue = tmp_path / "queue.jsonl"
        line = json.dumps({"program": src_path, "config": "tiny"})
        queue.write_text(line + "\n" + line + "\n")
        ledger_dir = str(tmp_path / "ledger")
        stream = str(tmp_path / "stream.jsonl")
        assert xmt_campaign_main(["--queue", str(queue), "--serial",
                                  "--ledger", ledger_dir,
                                  "--telemetry-out", stream]) == 0
        capsys.readouterr()
        records = read_jsonl(stream)
        report = top_report(fold_stream(records))
        start, = [r for r in records if r.get("kind") == "campaign-start"]
        counts = load_artifact(
            os.path.join(ledger_dir, "campaigns", start["campaign_id"],
                         "summary.json"), "campaign-summary")["counts"]
        assert sum(counts.values()) == 2
        assert report["counts"] == {status: n for status, n
                                    in counts.items() if n}
        assert report["overall"]["runs"] == 2
        assert sorted(row["index"] for row in report["rows"]) == [0, 1]

    def test_ledger_of_an_earlier_sweep_is_all_cached(self, tmp_path,
                                                      src_path, capsys):
        """The manifests an ``xmt-compare`` sweep of the same grid
        recorded (labels ``dram_latency=V``, no index file yet) answer
        every request of the grid campaign."""
        ledger_dir = str(tmp_path / "ledger")
        program, source = load_program(src_path, CompileOptions())
        for latency in (6, 30):
            artifacts = instrumented_run(
                program, tiny(dram_latency=latency), source=source,
                program_path=src_path, label=f"dram_latency={latency}")
            manifest = artifacts.manifest
            write_run_dir(os.path.join(ledger_dir, "runs",
                                       manifest["run_id"]),
                          manifest, artifacts.payloads())
        assert xmt_campaign_main([src_path, *self.GRID, "--ledger",
                                  ledger_dir]) == 0
        out = capsys.readouterr().out
        assert "cached: 2" in out and "cache-hit ratio: 100%" in out
