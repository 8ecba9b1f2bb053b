"""Flight recorder, top-down cycle accounting and xmt-explain.

The contract under test: the recorder is *strictly* zero-overhead on
the simulated machine (cycle counts bit-identical on/off, including
across a mid-spawn checkpoint round-trip), bounded in host memory under
saturating workloads, and the accounting is exhaustive and exclusive --
every RUNNING-processor cycle attributed to exactly one category, with
the per-TCU totals summing to ``cycles x n_processors`` exactly.
"""

from __future__ import annotations

import json
import os

import pytest

from conftest import run_xmtc_cycle
from repro.sim import checkpoint as CP
from repro.sim.config import tiny
from repro.sim.machine import Machine
from repro.sim.observability import (
    CycleAccountant,
    FlightRecorder,
    Ledger,
    Observability,
    build_explain,
    compare_runs,
    diff_accounting,
    export_accounting,
    instrumented_run,
    read_jsonl,
    render_comparison,
    render_explain,
    responsible_layer,
)
from repro.sim.observability.lifecycle import ST_DONE
from repro.xmtc.compiler import compile_source

MEMORY_SRC = """
int A[256]; int B[256]; int SUM[256];
int main() {
    spawn(0, 255) {
        SUM[$] = A[$] * 3 + B[255 - $];
    }
    spawn(0, 255) {
        B[$] = SUM[$] + A[$];
    }
    return 0;
}
"""

COMPUTE_SRC = """
int OUT[64];
int main() {
    spawn(0, 63) {
        int a = $ + 1;
        for (int k = 0; k < 30; k++) {
            a = a * 3 + k;
        }
        OUT[$] = a;
    }
    return 0;
}
"""


def _instrumented_obs(**recorder_kw):
    return Observability(lifecycle=FlightRecorder(**recorder_kw),
                         accounting=CycleAccountant())


class TestZeroOverhead:
    def test_cycles_bit_identical_recorder_on_off(self, tiny_config):
        _, bare = run_xmtc_cycle(MEMORY_SRC, tiny_config)
        _, recorded = run_xmtc_cycle(MEMORY_SRC, tiny(),
                                     observability=_instrumented_obs())
        assert recorded.cycles == bare.cycles
        assert recorded.instructions == bare.instructions
        assert recorded.read_global("B") == bare.read_global("B")

    def test_checkpoint_mid_spawn_round_trip(self):
        """Checkpointing with the recorder attached, restoring, and
        finishing must land on the exact bare-run cycle count -- both
        for the original machine (recorder still attached) and the
        restored one (recorder detached by the pickle)."""
        program = compile_source(MEMORY_SRC)
        reference_machine = Machine(program, tiny())
        reference = reference_machine.run(max_cycles=2_000_000)

        program2 = compile_source(MEMORY_SRC)
        machine = Machine(program2, tiny(),
                          observability=_instrumented_obs())
        # land the checkpoint inside the first spawn region
        payload = CP.run_with_checkpoint(machine, checkpoint_cycle=120)
        assert payload is not None, "run finished before the checkpoint"
        assert machine.parallel_active, "checkpoint missed the spawn"

        restored = CP.load_bytes(payload)
        assert restored.obs is None  # left behind by Machine.__getstate__
        restored_result = restored.run(max_cycles=2_000_000)
        assert restored_result.cycles == reference.cycles

        original_result = machine.run(max_cycles=2_000_000)
        assert original_result.cycles == reference.cycles
        assert machine.obs.lifecycle is not None  # still subscribed + counting
        assert machine.obs.lifecycle.completed > 0

    def test_recorder_reattach_after_restore(self):
        """A fresh recorder attached to a restored machine (whose
        in-flight packages carry pickled rec stamps) completes the run
        at the reference cycle count without errors."""
        program = compile_source(MEMORY_SRC)
        reference = Machine(program, tiny()).run(max_cycles=2_000_000)

        program2 = compile_source(MEMORY_SRC)
        machine = Machine(program2, tiny(),
                          observability=_instrumented_obs())
        payload = CP.run_with_checkpoint(machine, checkpoint_cycle=120)
        restored = CP.load_bytes(payload)
        recorder = FlightRecorder()
        restored.obs = Observability(lifecycle=recorder)
        restored.obs.attach(restored)
        result = restored.run(max_cycles=2_000_000)
        assert result.cycles == reference.cycles
        # requests issued after the restore complete through the hooks
        assert recorder.completed > 0
        assert recorder.dropped == 0


class TestAccountingExact:
    def test_attributed_cycles_sum_exactly(self, tiny_config):
        obs = _instrumented_obs()
        _, result = run_xmtc_cycle(MEMORY_SRC, tiny_config,
                                   observability=obs)
        payload = export_accounting(obs.machine, obs.accounting,
                                    cycles=result.cycles)
        assert payload["exact"] is True
        assert payload["cycles"] == result.cycles
        n = payload["n_processors"]
        assert payload["total_cycles"] == result.cycles * n
        flat = payload["machine"]["flat"]
        assert sum(flat.values()) == payload["total_cycles"]
        assert payload["attributed_cycles"] <= payload["total_cycles"]
        # memory stalls must be split by layer, not lumped
        assert any(cat.startswith("mem.") for cat in flat)
        assert flat.get("retiring", 0) > 0

    def test_compute_bound_vs_memory_bound_profiles(self, tiny_config):
        obs_mem = _instrumented_obs()
        run_xmtc_cycle(MEMORY_SRC, tiny_config, observability=obs_mem)
        mem = export_accounting(obs_mem.machine, obs_mem.accounting)

        obs_cpu = _instrumented_obs()
        run_xmtc_cycle(COMPUTE_SRC, tiny(), observability=obs_cpu)
        cpu = export_accounting(obs_cpu.machine, obs_cpu.accounting)

        def mem_share(acct):
            flat = acct["machine"]["flat"]
            memory = sum(v for k, v in flat.items()
                         if k.startswith("mem.")
                         or k == "scoreboard_raw")
            return memory / acct["total_cycles"]

        assert mem_share(mem) > mem_share(cpu)

    def test_spawn_region_rollup_covered(self, tiny_config):
        obs = _instrumented_obs()
        _, result = run_xmtc_cycle(MEMORY_SRC, tiny_config,
                                   observability=obs)
        payload = export_accounting(obs.machine, obs.accounting,
                                    cycles=result.cycles)
        regions = payload["spawn_regions"]
        # the two spawn sites roll up separately (keyed by spawn PC)
        parallel = [r for r in regions if r["spawn_index"] >= 0]
        assert len(parallel) >= 2
        def deep_sum(tree):
            return sum(deep_sum(v) if isinstance(v, dict) else v
                       for v in tree.values())

        for region in regions:
            assert region["cycles"] == deep_sum(region["categories"])


class TestBoundedMemory:
    def test_reservoir_capped_under_saturation(self, tiny_config):
        recorder = FlightRecorder(capacity=16, interval_cap=32)
        obs = Observability(lifecycle=recorder,
                            accounting=CycleAccountant())
        run_xmtc_cycle(MEMORY_SRC, tiny_config, observability=obs)
        assert recorder.completed > 16  # actually saturated the cap
        assert len(recorder.reservoir) == 16
        for layer, vals in recorder._interval.items():
            assert len(vals) <= 32, layer
        # every lifecycle retired: no leak in the outstanding index
        # (a retired record waits there for its processor's next send)
        assert all(rec[-1][0] == ST_DONE
                   for lst in recorder._outstanding.values() for rec in lst)
        assert max(map(len, recorder._outstanding.values())) <= 2
        assert not recorder._dram_inflight
        assert recorder.dropped == 0

    def test_sample_every_thins_the_stream(self, tiny_config, tmp_path):
        path = str(tmp_path / "life.jsonl")
        recorder = FlightRecorder(sample_every=4)
        recorder.stream_to(path)
        obs = Observability(lifecycle=recorder)
        run_xmtc_cycle(MEMORY_SRC, tiny_config, observability=obs)
        recorder.close()
        records = read_jsonl(path)
        assert recorder.completed // 4 - 1 <= len(records) \
            <= recorder.completed // 4 + 1
        assert recorder.sampled == len(records)

    def test_deterministic_reservoir(self, tiny_config):
        """The reservoir's replacement policy is a fixed LCG, so two
        identical runs keep the same packages (seq numbers ride a
        process-global counter; compare them relative to the base)."""
        def sample_seqs():
            recorder = FlightRecorder(capacity=8)
            obs = Observability(lifecycle=recorder)
            run_xmtc_cycle(MEMORY_SRC, tiny(), observability=obs)
            base = min(s["seq"] for s in recorder.reservoir)
            return [s["seq"] - base for s in recorder.reservoir]

        assert sample_seqs() == sample_seqs()


class TestHopDecomposition:
    def test_hops_telescope_to_latency(self, tiny_config):
        recorder = FlightRecorder(capacity=512)
        obs = Observability(lifecycle=recorder)
        run_xmtc_cycle(MEMORY_SRC, tiny_config, observability=obs)
        assert recorder.reservoir
        outcomes = set()
        for sample in recorder.reservoir:
            assert sum(sample["hops"].values()) == sample["latency"], \
                sample
            assert all(v >= 0 for v in sample["hops"].values()), sample
            outcomes.add(sample["outcome"])
            assert "sq" in sample["depths"]
        # the workload exercises hits, misses and MSHR merges
        assert "miss" in outcomes

    def test_torn_tail_jsonl_tolerated(self, tiny_config, tmp_path):
        path = str(tmp_path / "life.jsonl")
        recorder = FlightRecorder()
        recorder.stream_to(path)
        obs = Observability(lifecycle=recorder)
        run_xmtc_cycle(MEMORY_SRC, tiny_config, observability=obs)
        recorder.close()
        whole = read_jsonl(path)
        assert len(whole) == recorder.sampled
        # SIGKILL mid-write: chop the last line in half
        with open(path) as fh:
            text = fh.read()
        torn = text[:text.rindex("\n", 0, len(text) - 1) + 20]
        with open(path, "w") as fh:
            fh.write(torn)
        survivors = read_jsonl(path)
        assert len(survivors) == len(whole) - 1
        assert survivors == whole[:-1]


class TestExplain:
    def _artifacts(self, label="run", config=None):
        program = compile_source(MEMORY_SRC)
        return instrumented_run(program, config or tiny(), label=label,
                                accounting=True)

    def test_report_renders_all_formats(self):
        artifacts = self._artifacts()
        report = build_explain(artifacts.accounting,
                               lifecycle=artifacts.extras["lifecycle"],
                               metrics=artifacts.metrics,
                               manifest=artifacts.manifest)
        assert report["kind"] == "report"
        assert report["bottleneck"] is not None
        text = render_explain(report, "text")
        assert "top-down cycle accounting" in text
        assert "hop latencies" in text
        md = render_explain(report, "markdown")
        assert md.startswith("## xmt-explain")
        parsed = json.loads(render_explain(report, "json"))
        assert parsed["schema"] == "xmt-explain/1"

    def test_diff_names_responsible_layer(self):
        fast = self._artifacts(label="fast")
        slow_cfg = tiny()
        slow_cfg.dram_latency = slow_cfg.dram_latency * 4
        slow = self._artifacts(label="slow", config=slow_cfg)
        assert slow.manifest["cycles"] > fast.manifest["cycles"]
        rows = diff_accounting(fast.accounting, slow.accounting)
        responsible = responsible_layer(rows)
        assert responsible is not None
        assert responsible["category"].startswith(("mem.",
                                                   "scoreboard_raw"))

    def test_compare_runs_gains_layer_table(self, tmp_path):
        ledger = Ledger(str(tmp_path / "ledger"))
        rec_a = ledger.record_artifacts(self._artifacts(label="a"))
        slow_cfg = tiny()
        slow_cfg.dram_latency = slow_cfg.dram_latency * 4
        rec_b = ledger.record_artifacts(
            self._artifacts(label="b", config=slow_cfg))
        comparison = compare_runs(rec_a, rec_b, threshold=0.0)
        assert comparison["accounting_deltas"]
        assert comparison["responsible"] is not None
        text = render_comparison(comparison, "text")
        assert "layer attribution" in text
        assert "layer responsible" in text
        # the flight recorder's hops, one row per hop of either run
        hops = {row["hop"]: row for row in comparison["hop_deltas"]}
        assert hops["dram_service"]["layer"] == "dram"
        assert hops["dram_service"]["mean_b"] > hops["dram_service"]["mean_a"]
        assert "hop latency movement (mean cycles)" in text
        payload = json.loads(render_comparison(comparison, "json"))
        assert payload["accounting_deltas"]
        assert payload["hop_deltas"] == comparison["hop_deltas"]
        assert payload["responsible"]["category"] == \
            comparison["responsible"]["category"]

    def test_explain_cli_report_and_diff(self, tmp_path, capsys):
        from repro.toolchain.cli import xmt_compare_main, xmt_explain_main

        ledger = Ledger(str(tmp_path / "ledger"))
        rec = ledger.record_artifacts(self._artifacts(label="cli"))
        rc = xmt_explain_main(["report", rec.path, "--assert-exact"])
        out = capsys.readouterr()
        assert rc == 0
        assert "top-down cycle accounting" in out.out
        assert "exact" in out.err

        rec2 = ledger.record_artifacts(
            self._artifacts(label="cli2", config=tiny(dram_latency=24)))
        rc = xmt_compare_main(["diff", rec.path, rec2.path,
                               "--format", "markdown"])
        out = capsys.readouterr()
        assert rc == 0
        assert "### layer attribution" in out.out
        assert "layer responsible: " in out.out
        assert "### hop latency movement (mean cycles)" in out.out

    def test_explain_cli_rejects_junk(self, tmp_path, capsys):
        from repro.toolchain.cli import xmt_explain_main

        junk = tmp_path / "junk.json"
        junk.write_text('{"schema": "other/1"}')
        assert xmt_explain_main(["report", str(junk)]) == 2
        assert xmt_explain_main(["report", "no-such-run"]) == 2
        capsys.readouterr()


class TestLedgerAndTelemetrySatellites:
    def test_power_profile_is_non_identity_artifact(self, tmp_path):
        from repro.power.dtm import PowerThermalPlugin

        ledger = Ledger(str(tmp_path / "ledger"))
        program = compile_source(COMPUTE_SRC)
        plain = ledger.record_artifacts(
            instrumented_run(program, tiny(), label="x"))
        program2 = compile_source(COMPUTE_SRC)
        powered_artifacts = instrumented_run(
            program2, tiny(), label="x",
            power=PowerThermalPlugin(interval_cycles=50))
        powered = ledger.record_artifacts(powered_artifacts)
        # identical identity: the power artifact rides along, dedup
        # still collapses the two runs onto one run directory
        assert powered.run_id == plain.run_id
        payload = ledger.load(powered.run_id).payload("power")
        assert payload["schema"] == "xmt-power/1"
        assert payload["samples"] > 0
        assert payload["history"][0]["power_w"] > 0
        assert payload["peak_temperature"] > 0

    def test_telemetry_frames_carry_hop_percentiles(self, tmp_path):
        from repro.sim.observability import JsonlSink, TelemetrySampler

        path = str(tmp_path / "tel.jsonl")
        program = compile_source(MEMORY_SRC)
        machine = Machine(program, tiny(),
                          observability=_instrumented_obs())
        sampler = TelemetrySampler(every_cycles=50,
                                   sinks=[JsonlSink(path)])
        sampler.attach(machine)
        sampler.arm()
        machine.run(max_cycles=2_000_000)
        sampler.close()
        frames = [json.loads(line) for line in open(path)]
        hop_frames = [f for f in frames if "hops" in f]
        assert hop_frames
        for frame in hop_frames:
            for layer, row in frame["hops"].items():
                assert set(row) == {"p50", "p95", "count"}
                assert row["p95"] >= row["p50"] >= 0

    def test_xmt_top_shows_hot_layer(self):
        from repro.sim.observability import fold_stream, render_top

        frames = [{"schema": "xmtsim-telemetry/1", "kind": "frame",
                   "label": "r", "cycle": 100,
                   "hops": {"dram": {"p50": 2, "p95": 40, "count": 9},
                            "icn": {"p50": 1, "p95": 3, "count": 9}}},
                  {"schema": "xmtsim-telemetry/1", "kind": "final",
                   "label": "r", "cycle": 200}]
        summary = fold_stream(frames)
        assert summary.rows["r"].hot_layer == "dram"
        assert "hot" in render_top(summary, "text")
