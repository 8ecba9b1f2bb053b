"""Component fabric: registry validation and backend equivalence.

The contract under test, per layer:

* **Registry** -- every Fig. 1 box is a named backend; unknown names
  fail ``XMTConfig.validate`` with the registered alternatives listed,
  and a backend registered at runtime is accepted like a built-in.
* **Defaults** -- the fabric refactor is bit-transparent: the default
  backends reproduce the committed CI baselines at threshold 0.
* **Alternates** -- every shipped alternate (crossbar/ring ICN, banked
  DRAM, interleaved cache layout, the async ICN style) is functionally
  equivalent on race-free programs: identical program output and
  identical final memory, only cycle counts may move.  Programs the
  linter annotates as racy are exempt from bit-equality -- a different
  timing model legitimately picks a different outcome from the allowed
  set -- but must still run to completion on every backend.
* **Observability** -- cycle accounting stays exhaustive-and-exclusive
  (``exact``) on every backend, checkpoints round-trip mid-spawn on
  every backend combination, and backend names ride sweeps/campaign
  grids as string-valued axes.
"""

from __future__ import annotations

import glob
import json
import os

import pytest

from conftest import fabric_ports, run_xmtc_cycle
from test_sleep_wake import (
    BACKENDS,
    PLAIN,
    assert_same,
    cycles_where,
    fingerprint,
    paused_at,
)
from repro.sim import checkpoint as CP
from repro.sim.cache import HashedLayout, InterleavedLayout
from repro.sim.campaign.requests import RunRequest
from repro.sim.config import from_file, tiny
from repro.sim.dram import BankedDRAM, BankedDRAMPort, SimpleDRAM
from repro.sim.fabric import (
    Port,
    register_backend,
    registered,
    validate_backend,
)
from repro.sim.fabric import registry as fabric_registry
from repro.sim.icn import (
    AsyncInterconnect,
    CrossbarInterconnect,
    Interconnect,
    RingInterconnect,
)
from repro.sim.machine import Machine
from repro.sim.observability import (
    CycleAccountant,
    FlightRecorder,
    Observability,
    export_accounting,
)
from repro.sim.observability.ledger import config_fingerprint
from repro.xmtc.analysis.linter import collect_litmus_cases
from repro.xmtc.compiler import compile_source

ROOT = os.path.join(os.path.dirname(__file__), "..")
BASELINES = os.path.join(ROOT, "benchmarks", "baselines")
LITMUS_DIR = os.path.join(ROOT, "examples", "litmus")

#: every shipped non-default backend selection, as config overrides
ALTERNATES = [
    pytest.param({"icn_backend": "crossbar"}, id="crossbar"),
    pytest.param({"icn_backend": "ring"}, id="ring"),
    pytest.param({"dram_backend": "banked"}, id="banked-dram"),
    pytest.param({"cache_layout": "interleaved"}, id="interleaved"),
    pytest.param({"icn_backend": "mot-async"}, id="async"),
    pytest.param({"icn_backend": "ring", "dram_backend": "banked"},
                 id="ring+banked"),
]

# long two-spawn workload: cycle 120 reliably lands inside the first
# spawn region on every backend (backend timing shifts the window, so
# the checkpoint test needs a wide one)
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


def _baseline_source(workload: str) -> str:
    with open(os.path.join(BASELINES, workload, "program.c")) as fh:
        return fh.read()


def _functional(result):
    """The functional outcome of a run: everything but timing."""
    return (result.output, result.memory, result.global_regs)


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert {"mot", "mot-async", "crossbar", "ring"} <= \
            set(registered("icn"))
        assert {"simple", "banked"} <= set(registered("dram"))
        assert {"hashed", "interleaved"} <= set(registered("cache_layout"))

    def test_unknown_backend_lists_alternatives(self):
        # the error names the registered backends so a typo is
        # self-diagnosing from the traceback alone
        with pytest.raises(ValueError, match="crossbar"):
            tiny(icn_backend="warp")
        with pytest.raises(ValueError, match="banked"):
            tiny(dram_backend="hbm3")
        with pytest.raises(ValueError, match="hashed"):
            tiny(cache_layout="striped")
        with pytest.raises(ValueError, match="unknown icn backend"):
            validate_backend("icn", "warp")

    def test_removed_icn_style_names_icn_backend(self, tmp_path):
        # one way to select a backend: every dict-shaped config source
        # that still says icn_style gets a ValueError pointing at
        # icn_backend, never a TypeError out of the dataclass
        assert tiny().icn_backend == "mot"
        with pytest.raises(ValueError, match="icn_backend"):
            tiny(icn_style="async")
        path = tmp_path / "cfg.json"
        path.write_text('{"base": "tiny", "icn_style": "async"}')
        with pytest.raises(ValueError, match="icn_backend"):
            from_file(str(path))
        path.write_text('{"icn_style": "sync"}')
        with pytest.raises(ValueError, match="icn_backend"):
            from_file(str(path))
        request = RunRequest(program="p.c", config="tiny",
                             overrides={"icn_style": "async"})
        with pytest.raises(ValueError, match="icn_backend"):
            request.resolve_config()

    def test_machine_builds_selected_backends(self):
        program = compile_source(MEMORY_SRC)
        picks = [
            (tiny(), Interconnect, SimpleDRAM, HashedLayout),
            (tiny(icn_backend="mot-async"), AsyncInterconnect, SimpleDRAM,
             HashedLayout),
            (tiny(icn_backend="crossbar"), CrossbarInterconnect,
             SimpleDRAM, HashedLayout),
            (tiny(icn_backend="ring", dram_backend="banked",
                  cache_layout="interleaved"), RingInterconnect,
             BankedDRAM, InterleavedLayout),
        ]
        for cfg, icn_cls, dram_cls, layout_cls in picks:
            m = Machine(program, cfg)
            assert type(m.icn) is icn_cls
            assert type(m.dram) is dram_cls
            assert type(m.cache_router) is layout_cls
        banked = Machine(program, tiny(dram_backend="banked"))
        assert all(isinstance(p, BankedDRAMPort) for p in banked.dram.ports)

    def test_runtime_registered_backend_accepted(self):
        @register_backend("icn", "test-dummy")
        class DummyICN(Interconnect):
            pass

        try:
            cfg = tiny(icn_backend="test-dummy")  # validates
            m = Machine(compile_source(MEMORY_SRC), cfg)
            assert type(m.icn) is DummyICN
            result = m.run(max_cycles=2_000_000)
            assert result.cycles > 0
        finally:
            del fabric_registry._REGISTRY["icn"]["test-dummy"]
        with pytest.raises(ValueError):
            tiny(icn_backend="test-dummy")

    def test_port_is_a_timed_queue_with_identity(self):
        port = Port(capacity=2)
        fired = []
        port.on_push = lambda time: fired.append(True)
        assert port.push(0, "pkg")
        assert fired == [True]
        assert len(port) == 1


class TestDefaultBitIdentity:
    def test_shipped_baselines_at_threshold_zero(self, tmp_path, capsys):
        """The refactor is bit-transparent: default backends reproduce
        the committed baselines with zero tolerance -- observed, with
        the flight recorder and cycle accounting attached (its runs
        explain exactly), and unobserved, where processors take runs."""
        from repro.toolchain.cli import (
            xmt_compare_main,
            xmt_explain_main,
            xmtsim_main,
        )

        ledger = str(tmp_path / "ledger")
        for workload in ("vecadd", "compact"):
            base = os.path.join(BASELINES, workload)
            program = os.path.join(base, "program.c")
            check = ["check", program, "--baseline", base, "--threshold", "0"]
            assert xmt_compare_main(check) == 0, \
                f"{workload}: {capsys.readouterr()}"
            assert xmt_compare_main(
                check + ["--recorder", "--ledger", ledger]) == 0, \
                f"{workload} --recorder: {capsys.readouterr()}"
            capsys.readouterr()
            with open(os.path.join(base, "manifest.json")) as fh:
                cycles = json.load(fh)["cycles"]
            assert xmtsim_main([program, "--config", "tiny"]) == 0
            err = capsys.readouterr().err
            assert f"] {cycles} cycles," in err, f"{workload}: {err}"
        runs = sorted(glob.glob(os.path.join(ledger, "runs", "*")))
        assert len(runs) == 2
        for run in runs:
            assert xmt_explain_main(["report", run, "--assert-exact"]) == 0, \
                capsys.readouterr()
            assert "exact: " in capsys.readouterr().err
        assert xmt_compare_main(["diff", *runs]) == 0, capsys.readouterr()
        assert "layer responsible: " in capsys.readouterr().out

    def test_backend_names_are_run_identity(self):
        """Ledger manifests treat backend selections as identity: two
        configs differing only in a backend name fingerprint apart."""
        base = config_fingerprint(tiny())
        for overrides in ({"icn_backend": "crossbar"},
                          {"dram_backend": "banked"},
                          {"cache_layout": "interleaved"}):
            alt = config_fingerprint(tiny(**overrides))
            assert alt["config_sha256"] != base["config_sha256"]
            assert alt["config"] != base["config"]


class TestBackendEquivalence:
    @pytest.mark.parametrize("overrides", ALTERNATES)
    @pytest.mark.parametrize("workload", ["vecadd", "compact"])
    def test_baseline_workloads_functionally_identical(self, workload,
                                                       overrides):
        source = _baseline_source(workload)
        _, ref = run_xmtc_cycle(source, tiny())
        _, alt = run_xmtc_cycle(source, tiny(**overrides))
        assert _functional(alt) == _functional(ref)
        assert alt.instructions == ref.instructions

    # default-backend litmus outcomes, shared across backend params
    _litmus_refs: dict = {}

    @pytest.mark.parametrize("overrides", ALTERNATES)
    def test_litmus_corpus(self, overrides):
        """Race-free litmus programs are bit-equal on every backend;
        racy ones (annotated ``race.*``) may legitimately resolve
        differently under a different timing model but must still
        complete."""
        cases = collect_litmus_cases(LITMUS_DIR)
        assert cases, "litmus corpus missing"
        checked_clean = 0
        for name, source, options, expected in cases:
            racy = any(check.startswith("race.") for check in expected)
            if name not in self._litmus_refs:
                _, ref = run_xmtc_cycle(source, tiny(), options=options)
                self._litmus_refs[name] = _functional(ref)
            _, alt = run_xmtc_cycle(source, tiny(**overrides),
                                    options=options)
            assert alt.cycles > 0, name
            if not racy:
                assert _functional(alt) == self._litmus_refs[name], name
                checked_clean += 1
        assert checked_clean >= 10  # the corpus is mostly race-free

    @pytest.mark.parametrize("overrides", ALTERNATES)
    def test_accounting_exact_on_every_backend(self, overrides):
        """Lifecycle stages are stamped at fabric port boundaries, so
        top-down accounting stays exhaustive-and-exclusive no matter
        which backend carries the traffic."""
        obs = Observability(lifecycle=FlightRecorder(),
                            accounting=CycleAccountant())
        _, result = run_xmtc_cycle(MEMORY_SRC, tiny(**overrides),
                                   observability=obs)
        payload = export_accounting(obs.machine, obs.accounting,
                                    cycles=result.cycles)
        assert payload["exact"] is True
        flat = payload["machine"]["flat"]
        assert sum(flat.values()) == payload["total_cycles"]
        # the memory-stall split still names the fabric layers
        assert any(cat.startswith("mem.") for cat in flat)

    @pytest.mark.parametrize("overrides", ALTERNATES)
    def test_explain_report_assert_exact(self, overrides, tmp_path,
                                         capsys):
        from repro.sim.observability import Ledger, instrumented_run
        from repro.toolchain.cli import xmt_explain_main

        program = compile_source(MEMORY_SRC)
        artifacts = instrumented_run(program, tiny(**overrides),
                                     label="fabric", accounting=True)
        rec = Ledger(str(tmp_path / "ledger")).record_artifacts(artifacts)
        assert xmt_explain_main(["report", rec.path,
                                 "--assert-exact"]) == 0
        capsys.readouterr()


def _mid_flight(machine: Machine) -> bool:
    """Inside a spawn, with TCUs asleep and packages sitting in ports:
    whoever drains those ports must be woken by their hooks."""
    return (machine.parallel_active
            and any(tcu.asleep_on is not None for tcu in machine.tcus)
            and any(len(port) for port in fabric_ports(machine)))


class TestCheckpointOnAlternates:
    @pytest.mark.parametrize("overrides", BACKENDS)
    def test_mid_spawn_round_trip(self, overrides):
        """Checkpoint/restore has nothing backend-specific in it: the
        port hooks ride the snapshot, so the restored machine *and* the
        one it was taken from finish like the uninterrupted run."""
        program = compile_source(MEMORY_SRC)
        reference = Machine(program, tiny(**overrides))
        expected = fingerprint(reference,
                               reference.run(max_cycles=2_000_000))
        cycle, = cycles_where(program, lambda: tiny(**overrides),
                              _mid_flight, n=1)
        machine, payload = paused_at(program, tiny(**overrides), PLAIN,
                                     cycle)
        assert _mid_flight(machine)
        restored = CP.load_bytes(payload)
        for module in restored.cache_modules:
            assert module.in_queue.on_push == module.wake
        for finisher in (restored, machine):
            got = fingerprint(finisher, finisher.run(max_cycles=2_000_000))
            assert_same(got, expected)


class TestStringSweepAxes:
    def test_grid_requests_label_string_axes(self):
        from repro.sim.campaign.requests import grid_requests

        requests = grid_requests(
            "p.c", [("icn_backend", ["mot", "crossbar", "ring"]),
                    ("tcus_per_cluster", [2, 4])], config="tiny")
        assert len(requests) == 6
        labels = [r.label for r in requests]
        assert "icn_backend=mot,tcus_per_cluster=2" in labels
        assert "icn_backend=ring,tcus_per_cluster=4" in labels
        ring = [r for r in requests if "ring" in r.label][0]
        assert ring.overrides["icn_backend"] == "ring"
        assert ring.resolve_config().icn_backend == "ring"

    def test_sweep_cli_renders_backend_labels(self, tmp_path, capsys):
        from repro.toolchain.cli import xmt_campaign_main, xmt_top_main

        program = os.path.join(BASELINES, "vecadd", "program.c")
        stream = str(tmp_path / "stream.jsonl")
        rc = xmt_campaign_main(
            [program, "--config", "tiny",
             "--vary", "icn_backend=mot,mot-async,crossbar,ring", "--serial",
             "--ledger", str(tmp_path / "ledger"), "--telemetry-out",
             stream])
        assert rc == 0
        assert xmt_top_main(["report", stream]) == 0
        out = capsys.readouterr().out
        # string values label the runs and the axis rows
        for value in ("mot", "mot-async", "crossbar", "ring"):
            assert f"icn_backend={value} " in out
        assert "first" in out  # the first grid point anchors the deltas

    def test_campaign_aggregate_handles_string_axes(self):
        from repro.sim.observability import schema_of
        from repro.sim.observability.aggregate import (
            fold_stream,
            render_top,
            top_report,
        )

        records = []
        for index, (backend, cycles) in enumerate(
                (("mot", 1497), ("crossbar", 1460), ("ring", 1517))):
            records.append({
                "schema": schema_of("campaign-telemetry"),
                "kind": "outcome",
                "index": index,
                "label": f"icn_backend={backend}",
                "status": "ok",
                "overrides": {"icn_backend": backend},
                "cycles": cycles,
                "wall_seconds": 0.1,
            })
        summary = fold_stream(records)
        axis = top_report(summary)["axes"]["icn_backend"]
        assert set(axis) == {"icn_backend=mot", "icn_backend=crossbar",
                             "icn_backend=ring"}
        assert axis["icn_backend=crossbar"]["cycles_p50"] == 1460
        rendered = render_top(summary, "text")
        assert "icn_backend=crossbar" in rendered
