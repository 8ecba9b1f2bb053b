"""The fault-tolerant campaign engine: requests, dedup, kills, CLI.

The load-bearing properties locked in here:

- **killed == serial**: a campaign whose workers are SIGKILLed
  mid-simulation (by the ``killer`` fixture, from inside the worker)
  still completes every run, with cycle counts bit-identical to serial
  execution of the same grid (the simulator is deterministic and the
  supervisor loses nothing) -- and a campaign whose *supervisor* is
  SIGKILLed leaves no worker and no temp file behind and resumes from
  the ledger;
- **resume-by-dedup**: re-invoking a completed campaign performs zero
  new simulations -- every request is a ledger cache hit;
- **graceful degradation**: a permanently failing run becomes a typed
  outcome and the partial-results exit code, never a hang or traceback.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.sim.campaign import (
    CampaignEngine,
    RunRequest,
    dump_queue,
    fingerprint_of_manifest,
    grid_requests,
    load_queue,
)
from repro.sim.campaign import engine as campaign_engine
from repro.sim.engine import PRIO_PLUGIN, CallbackActor, Scheduler
from repro.sim.observability import Ledger
from repro.sim.observability.artifacts import read_jsonl
from repro.toolchain.cli import xmt_campaign_main, xmt_top_main

SRC = """
int A[8];
int total = 0;
int main() {
    spawn(0, 7) { int v = A[$]; psm(v, total); }
    printf("t=%d\\n", total);
    return 0;
}
"""

SPIN_ASM = """
    .text
main:
spin:
    j spin
    halt
"""

GRID = [("dram_latency", [6, 10, 14, 18]), ("icn_return_width", [1, 2])]

INPUTS = {"A": [1, 2, 3, 4, 5, 6, 7, 8]}


def _outcome_records(stream: str) -> list:
    """The ``outcome`` records of a campaign's telemetry stream."""
    return [record for record in read_jsonl(stream)
            if record.get("kind") == "outcome"]


@pytest.fixture
def src_file(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(SRC)
    return str(path)


@pytest.fixture
def spin_file(tmp_path):
    path = tmp_path / "spin.s"
    path.write_text(SPIN_ASM)
    return str(path)


def _grid8(src_file):
    return grid_requests(src_file, GRID, config="tiny", inputs=dict(INPUTS))


@pytest.fixture
def killer(monkeypatch):
    """``killer(pairs)``: every forked attempt whose ``(label, attempt)``
    is in ``pairs`` SIGKILLs itself once its own ``Scheduler`` has
    passed cycle 40 -- mid-simulation, the hard case.  The patch sits
    on the name the engine's process target calls, so it rides the
    fork; the supervisor process never runs it."""
    def arm(pairs):
        real = campaign_engine.run_attempt

        def run_attempt(prepared, budgets, attempt, **kwargs):
            if (prepared.request.label, attempt) in pairs:
                at = 40 * prepared.config.cluster_period
                suicide = CallbackActor(
                    lambda *_: os.kill(os.getpid(), signal.SIGKILL))
                real_run = Scheduler.run

                def run(scheduler, *args, **kw):
                    scheduler.schedule_at(at, suicide, PRIO_PLUGIN)
                    return real_run(scheduler, *args, **kw)

                Scheduler.run = run  # this process is the worker: no undo
            return real(prepared, budgets, attempt, **kwargs)

        monkeypatch.setattr(campaign_engine, "run_attempt", run_attempt)
    return arm


class TestRequests:
    def test_grid_expansion_stable_order(self, src_file):
        requests = _grid8(src_file)
        assert len(requests) == 8
        assert [r.index for r in requests] == list(range(8))
        assert requests[0].label == "dram_latency=6,icn_return_width=1"
        assert requests[-1].label == "dram_latency=18,icn_return_width=2"
        # same grid -> same requests, position by position
        again = _grid8(src_file)
        assert [r.label for r in again] == [r.label for r in requests]

    def test_fingerprint_matches_manifest(self, src_file):
        """The dedup key derived from a request equals the one derived
        from the manifest its run records -- the resume contract."""
        requests = _grid8(src_file)[:1]
        engine = CampaignEngine(requests, serial=True)
        result = engine.run()
        outcome = result.outcomes[0]
        assert outcome.status == "ok"
        assert fingerprint_of_manifest(outcome.record.manifest) == \
            outcome.fingerprint

    def test_fingerprint_sensitive_to_inputs(self, src_file):
        base = RunRequest(program=src_file, config="tiny", label="x")
        changed = RunRequest(program=src_file, config="tiny", label="x",
                             inputs={"A": [9, 9, 9, 9, 9, 9, 9, 9]})
        r1 = CampaignEngine([base], serial=True).prepare()[0]
        r2 = CampaignEngine([changed], serial=True).prepare()[0]
        assert r1.fingerprint != r2.fingerprint

    def test_queue_roundtrip(self, src_file, tmp_path):
        requests = _grid8(src_file)
        path = str(tmp_path / "queue.jsonl")
        dump_queue(requests, path)
        loaded = load_queue(path)
        assert [r.label for r in loaded] == [r.label for r in requests]
        assert loaded[3].overrides == requests[3].overrides

    def test_queue_bad_line_reports_lineno(self, tmp_path):
        path = tmp_path / "queue.jsonl"
        path.write_text('{"program": "a.c"}\n{"nope": 1}\n')
        with pytest.raises(ValueError, match=r":2:"):
            load_queue(str(path))

    def test_queue_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "queue.jsonl"
        path.write_text('{"program": "a.c", "retries": 5}\n')
        with pytest.raises(ValueError, match="unknown field"):
            load_queue(str(path))

    def test_unknown_config_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown config preset"):
            RunRequest(program="a.c", config="mega")


class TestSerialEngine:
    def test_all_ok_and_recorded(self, src_file, tmp_path):
        ledger = Ledger(str(tmp_path / "ledger"))
        result = CampaignEngine(_grid8(src_file), ledger=ledger,
                                serial=True).run()
        assert result.ok
        assert result.counts["ok"] == 8
        assert len(ledger.list_runs()) == 8
        # outcomes come back in request order with real cycle counts
        assert [o.index for o in result.outcomes] == list(range(8))
        assert all(o.cycles > 0 for o in result.outcomes)

    def test_results_file_streams_jsonl(self, src_file, tmp_path):
        """Outcomes stream into the telemetry JSONL, one ``outcome``
        record per run."""
        stream = str(tmp_path / "stream.jsonl")
        result = CampaignEngine(_grid8(src_file), serial=True,
                                telemetry_path=stream).run()
        lines = _outcome_records(stream)
        assert len(lines) == 8
        assert all(line["schema"] == "xmt-campaign-telemetry/1"
                   for line in lines)
        assert ({line["label"] for line in lines}
                == {o.label for o in result.outcomes})

    def test_resume_by_dedup_zero_new_work(self, src_file, tmp_path):
        ledger = Ledger(str(tmp_path / "ledger"))
        first = CampaignEngine(_grid8(src_file), ledger=ledger,
                               serial=True).run()
        assert first.counts["ok"] == 8

        again = CampaignEngine(_grid8(src_file), ledger=ledger,
                               serial=True).run()
        assert again.counts["cached"] == 8
        assert again.attempts_total == 0          # zero new simulations
        assert again.cache_hit_ratio == 1.0
        assert again.campaign_id == first.campaign_id
        # and the results are the same runs, bit for bit
        assert ({(o.label, o.run_id, o.cycles) for o in again.outcomes}
                == {(o.label, o.run_id, o.cycles) for o in first.outcomes})

    def test_plain_xmtsim_run_is_a_cache_hit(self, src_file, tmp_path):
        """Dedup is against the *ledger*, not against past campaigns: a
        run recorded by plain ``xmtsim --ledger`` answers a matching
        campaign request too."""
        from repro.toolchain.cli import xmtsim_main

        ledger_dir = str(tmp_path / "ledger")
        assert xmtsim_main([src_file, "--config", "tiny",
                            "--ledger", ledger_dir,
                            "--run-label", "solo"]) == 0
        request = RunRequest(program=src_file, config="tiny", label="solo")
        result = CampaignEngine([request],
                                ledger=Ledger(ledger_dir)).run()
        assert result.counts["cached"] == 1

    def test_injected_xmtsim_run_never_answers_a_clean_request(
            self, src_file, tmp_path, capsys):
        """An ``xmtsim --inject`` run records its faults in the
        manifest, and they are part of its fingerprint: the clean
        request of the same program runs fresh instead of being
        answered with the injected run's cycles."""
        from repro.toolchain.cli import xmtsim_main

        ledger_dir = str(tmp_path / "ledger")
        assert xmtsim_main([src_file, "--config", "tiny",
                            "--inject", "dram.stall@20:5",
                            "--ledger", ledger_dir]) == 0
        (injected,) = Ledger(ledger_dir).list_runs()
        assert injected.manifest["fault"] == ["dram.stall@20:5"]
        clean = CampaignEngine([RunRequest(program=src_file,
                                           config="tiny")]).run()
        assert injected.cycles > clean.outcomes[0].cycles
        capsys.readouterr()

        assert xmt_campaign_main([src_file, "--config", "tiny",
                                  "--ledger", ledger_dir, "--serial"]) == 0
        captured = capsys.readouterr()
        progress = f"xmt-campaign: 0: {clean.outcomes[0].cycles} cycles ("
        assert progress in captured.err and "(cached)" not in captured.err
        assert "ok: 1  cached: 0" in captured.out


class TestPoolEngine:
    def test_killed_campaign_bit_identical_to_serial(self, src_file,
                                                     tmp_path, killer):
        """8 runs, 2 workers, four workers SIGKILLed mid-simulation (one
        run twice): everything completes, every death is retried and
        attributed, and every cycle count equals serial."""
        serial = CampaignEngine(_grid8(src_file), serial=True).run()
        assert serial.counts["ok"] == 8
        serial_cycles = {o.label: o.cycles for o in serial.outcomes}

        requests = _grid8(src_file)
        twice, once_a, once_b = (requests[i].label for i in (1, 4, 7))
        killer({(twice, 1), (twice, 2), (once_a, 1), (once_b, 1)})
        ledger = Ledger(str(tmp_path / "ledger"))
        result = CampaignEngine(requests, ledger=ledger, workers=2,
                                max_retries=3).run()
        assert result.counts["ok"] == 8
        assert result.workers_died == 4
        assert result.attempts_total == 12
        by_label = {o.label: o for o in result.outcomes}
        assert {label: o.attempts for label, o in by_label.items()
                if o.attempts > 1} == {twice: 3, once_a: 2, once_b: 2}
        # every attempt had a worker of its own, named in the outcome
        assert all(len(set(o.worker_pids)) == o.attempts
                   for o in result.outcomes)
        assert len(by_label[twice].worker_pids) == 3
        assert {o.label: o.cycles for o in result.outcomes} == serial_cycles
        # the ledger holds exactly the 8 runs, no attempt duplicates
        assert len(ledger.list_runs()) == 8

    def test_worker_death_is_retried_and_attributed(self, src_file,
                                                    tmp_path, killer):
        first, second = _grid8(src_file)[:2]
        killer({(first.label, 1)})
        ledger = Ledger(str(tmp_path / "ledger"))
        result = CampaignEngine([first, second], ledger=ledger, workers=2,
                                max_retries=2).run()
        assert result.ok
        assert result.workers_died == 1
        killed, spared = result.outcomes
        assert (killed.attempts, spared.attempts) == (2, 1)
        log = read_jsonl(os.path.join(
            ledger.campaign_dir(result.campaign_id), "attempts.jsonl"))
        died, = [e for e in log if e["event"] == "worker-died"]
        assert died["label"] == first.label
        assert died["worker_pid"] == killed.worker_pids[0]
        assert "exit code -9" in died["error"]

    def test_run_that_always_dies_gives_up_alone(self, src_file, killer):
        """A request whose worker dies on every attempt ends ``gave-up``
        and costs the request beside it nothing."""
        doomed, healthy = _grid8(src_file)[:2]
        killer({(doomed.label, n) for n in (1, 2, 3)})
        result = CampaignEngine([doomed, healthy], workers=2,
                                max_retries=2).run()
        assert result.exit_code() == 5
        gave_up, neighbour = result.outcomes
        assert gave_up.status == "gave-up"
        assert gave_up.error_type == "WorkerDied"
        assert gave_up.attempts == 3
        assert len(gave_up.worker_pids) == 3
        assert (neighbour.status, neighbour.attempts) == ("ok", 1)
        assert f"{doomed.label}: gave-up after 3 attempts" in result.format()

    def test_identical_requests_share_nothing(self, src_file, tmp_path):
        """Four copies of one request are four runs in flight: per-attempt
        state is keyed by request index, not by fingerprint."""
        def four(name, **kwargs):
            stream = str(tmp_path / name)
            requests = [RunRequest(program=src_file, config="tiny",
                                   label="same", inputs=dict(INPUTS))
                        for _ in range(4)]
            result = CampaignEngine(requests, telemetry_path=stream,
                                    telemetry_every=5, **kwargs).run()
            assert result.counts["ok"] == 4
            return result, read_jsonl(stream, strict=True)

        def frames(records):
            return [r for r in records
                    if r["schema"] == "xmtsim-telemetry/1"]

        _, serial_records = four("serial.jsonl", serial=True)
        result, records = four("forked.jsonl", workers=4, max_retries=0)
        assert all(len(o.worker_pids) == 1 for o in result.outcomes)
        assert len({o.worker_pids[0] for o in result.outcomes}) == 4
        assert sum(r["kind"] == "final" for r in frames(records)) == 4
        assert len(frames(records)) == len(frames(serial_records))

    def test_permanently_failing_run_degrades_gracefully(self, src_file,
                                                         spin_file):
        requests = [
            RunRequest(program=src_file, config="tiny", label="good",
                       inputs=dict(INPUTS)),
            RunRequest(program=spin_file, config="tiny", label="spinner",
                       max_cycles=2000),
        ]
        result = CampaignEngine(requests, workers=2, max_retries=1).run()
        assert not result.ok
        assert result.exit_code() == 5
        by_label = {o.label: o for o in result.outcomes}
        assert by_label["good"].status == "ok"
        spinner = by_label["spinner"]
        assert spinner.status == "timeout"
        assert spinner.attempts == 2              # 1 + max_retries
        assert spinner.error_type == "SimulationBudgetExceeded"
        # the report names the run, its attempts and the typed failure
        report = result.format()
        assert "spinner: timeout after 2 attempts" in report
        assert "SimulationBudgetExceeded" in report

    def test_attempt_deadline_kills_hung_worker(self, spin_file):
        """A worker that hangs past the supervisor-side deadline (here:
        an unbounded spin with no cycle budget) is SIGKILLed and the
        run ends as a typed timeout -- the campaign never hangs."""
        request = RunRequest(program=spin_file, config="tiny",
                             label="hang")
        result = CampaignEngine([request], workers=1, serial=False,
                                max_retries=0,
                                attempt_deadline_s=1.0).run()
        outcome = result.outcomes[0]
        assert outcome.status == "timeout"
        assert outcome.error_type == "WorkerDeadline"
        assert result.exit_code() == 5


class TestCampaignCLI:
    def _argv(self, src_file, tmp_path, *extra):
        return [src_file, "--config", "tiny",
                "--vary", "dram_latency=6,10,14,18",
                "--vary", "icn_return_width=1,2",
                "--set", "A", "1,2,3,4,5,6,7,8",
                "--ledger", str(tmp_path / "ledger"), *extra]

    def test_grid_campaign_with_chaos(self, src_file, tmp_path, capsys,
                                      killer):
        killer({("dram_latency=6,icn_return_width=2", 1),
                ("dram_latency=14,icn_return_width=1", 1)})
        rc = xmt_campaign_main(self._argv(
            src_file, tmp_path, "--workers", "2", "--max-retries", "3",
            "--telemetry-out", str(tmp_path / "stream.jsonl")))
        captured = capsys.readouterr()
        assert rc == 0
        assert "ok: 8" in captured.out
        assert "workers died: 2" in captured.out
        assert len(_outcome_records(str(tmp_path / "stream.jsonl"))) == 8

    def test_resume_is_all_cache_hits(self, src_file, tmp_path, capsys):
        assert xmt_campaign_main(self._argv(
            src_file, tmp_path, "--serial", "--quiet")) == 0
        capsys.readouterr()
        rc = xmt_campaign_main(self._argv(src_file, tmp_path,
                                          "--workers", "2"))
        captured = capsys.readouterr()
        assert rc == 0
        assert "cached: 8" in captured.out
        assert "cache-hit ratio: 100%" in captured.out

    def test_queue_mode(self, src_file, tmp_path, capsys):
        queue = tmp_path / "queue.jsonl"
        queue.write_text(
            json.dumps({"program": os.path.basename(src_file),
                        "config": "tiny", "label": "q0"}) + "\n"
            + "# comment line\n"
            + json.dumps({"program": os.path.basename(src_file),
                          "config": "tiny", "label": "q1",
                          "overrides": {"dram_latency": 30}}) + "\n")
        rc = xmt_campaign_main(["--queue", str(queue), "--serial"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "ok: 2" in captured.out

    def test_bad_queue_exits_2(self, tmp_path, capsys):
        queue = tmp_path / "queue.jsonl"
        queue.write_text("not json\n")
        assert xmt_campaign_main(["--queue", str(queue)]) == 2
        assert "error" in capsys.readouterr().err

    def test_program_and_queue_mutually_exclusive(self, src_file,
                                                  tmp_path, capsys):
        queue = tmp_path / "q.jsonl"
        queue.write_text('{"program": "x.c"}\n')
        assert xmt_campaign_main([src_file, "--queue", str(queue)]) == 2
        assert xmt_campaign_main([]) == 2

    def test_partial_exit_code_and_report(self, spin_file, capsys):
        rc = xmt_campaign_main([spin_file, "--config", "tiny",
                                "--serial", "--max-cycles", "2000",
                                "--max-retries", "1"])
        captured = capsys.readouterr()
        assert rc == 5
        assert "timeout" in captured.out
        assert "SimulationBudgetExceeded" in captured.out


def _stat(pid):
    """``(state, parent pid)`` of ``pid`` from Linux ``/proc``, or
    ``None`` once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state, parent = fh.read().rsplit(")", 1)[1].split()[:2]
    except OSError:
        return None
    return state, int(parent)


def _children(pid):
    return [int(entry) for entry in os.listdir("/proc")
            if entry.isdigit() and (_stat(entry) or ("", 0))[1] == pid]


def _running(pid):
    """Is ``pid`` a live process (not gone, not a zombie)?"""
    return (_stat(pid) or ("Z", 0))[0] != "Z"


@pytest.mark.skipif(not os.path.isdir("/proc/self"),
                    reason="finds the driver's workers through /proc")
class TestSupervisorKilled:
    """EXPERIMENTS.md's recipe, run for real: ``kill -9`` the driver
    mid-campaign, re-run the identical command."""

    def test_kill_leaves_nothing_behind_and_rerun_resumes(self, src_file,
                                                          tmp_path):
        stream = tmp_path / "stream.jsonl"
        ledger = str(tmp_path / "ledger")
        scratch = tmp_path / "tmpdir"
        scratch.mkdir()
        src_root = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ, TMPDIR=str(scratch),
                   PYTHONPATH=os.path.abspath(src_root))
        command = [
            sys.executable, "-c",
            "import sys; from repro.toolchain.cli import xmt_campaign_main;"
            " sys.exit(xmt_campaign_main())",
            src_file, "--config", "fpga64",
            "--vary", "dram_latency=6,10,14,18,22,26",
            "--vary", "icn_return_width=1,2",
            "--vary", "prefetch_buffer_size=2,4",
            "--set", "A", "1,2,3,4,5,6,7,8", "--workers", "2",
            "--ledger", ledger, "--telemetry-out", str(stream), "--quiet"]

        driver = subprocess.Popen(command, env=env,
                                  stdout=subprocess.DEVNULL)
        try:
            give_up = time.monotonic() + 60
            while not (stream.exists()
                       and _outcome_records(str(stream))):
                assert driver.poll() is None, "campaign ended before the kill"
                assert time.monotonic() < give_up
                time.sleep(0.005)
            workers = _children(driver.pid)
        finally:
            driver.kill()
            driver.wait(timeout=30)
        seen = len(_outcome_records(str(stream)))
        assert 1 <= seen < 24

        # no orphan simulates on for no one, no temp directory is left
        give_up = time.monotonic() + 2
        while any(map(_running, workers)) and time.monotonic() < give_up:
            time.sleep(0.02)
        assert not any(map(_running, workers))
        assert os.listdir(scratch) == []

        again = subprocess.run(command, env=env, capture_output=True,
                               text=True, timeout=120)
        assert again.returncode == 0, again.stderr
        outcomes = _outcome_records(str(stream))
        assert len(outcomes) == 24
        cached = sum(o["status"] == "cached" for o in outcomes)
        assert cached >= seen
        assert cached + sum(o["status"] == "ok" for o in outcomes) == 24
        assert len(Ledger(ledger).list_runs()) == 24


class TestSweepThinClient:
    """A config sweep is a grid campaign (``xmt-campaign --vary``), its
    table ``xmt-top report`` over the campaign's stream."""

    def test_sweep_with_workers_matches_serial(self, src_file, tmp_path,
                                               capsys):
        argv = [src_file, "--config", "tiny", "--vary", "dram_latency=6,30",
                "--set", "A", "1,2,3,4,5,6,7,8", "--quiet"]
        streams = {}
        for mode in (["--workers", "2"], ["--serial"]):
            streams[mode[0]] = str(tmp_path / f"{mode[0][2:]}.jsonl")
            assert xmt_campaign_main(
                argv + mode + ["--ledger", str(tmp_path / mode[0][2:]),
                               "--telemetry-out", streams[mode[0]]]) == 0
        capsys.readouterr()
        cycles = {mode: {r["label"]: r["cycles"]
                         for r in _outcome_records(path)}
                  for mode, path in streams.items()}
        assert cycles["--workers"] == cycles["--serial"]
        assert set(cycles["--serial"]) == {"dram_latency=6",
                                           "dram_latency=30"}
        runs = Ledger(str(tmp_path / "workers")).list_runs()
        assert {r.config_value("dram_latency") for r in runs} == {6, 30}
        assert xmt_top_main(["report", streams["--workers"]]) == 0
        out = capsys.readouterr().out
        assert "vs first" in out and "dram_latency=30" in out

    def test_sweep_cache_hits_on_rerun(self, src_file, tmp_path, capsys):
        argv = [src_file, "--config", "tiny", "--vary", "dram_latency=6,30",
                "--serial", "--ledger", str(tmp_path / "ledger")]
        assert xmt_campaign_main(argv) == 0
        capsys.readouterr()
        assert xmt_campaign_main(argv) == 0
        assert "(cached)" in capsys.readouterr().err


# ---------------------------------------------------- dynamic sanitizing

RACY_SRC = """
int sum;
int main() {
    spawn(0, 7) { sum = $; }
    printf("s=%d\\n", sum);
    return 0;
}
"""


class TestSanitize:
    @pytest.fixture
    def racy_file(self, tmp_path):
        path = tmp_path / "racy.c"
        path.write_text(RACY_SRC)
        return str(path)

    def test_off_by_default(self, src_file):
        engine = CampaignEngine([RunRequest(program=src_file)], serial=True)
        outcome = engine.run().outcomes[0]
        assert outcome.status == "ok"
        assert outcome.sanitizer is None
        assert "sanitizer" not in outcome.to_json()

    def test_racy_program_findings_recorded(self, racy_file, tmp_path):
        ledger = Ledger(str(tmp_path / "ledger"))
        engine = CampaignEngine([RunRequest(program=racy_file)],
                                serial=True, sanitize=True, ledger=ledger)
        outcome = engine.run().outcomes[0]
        assert outcome.status == "ok"
        assert outcome.sanitizer is not None
        assert not outcome.sanitizer["clean"]
        assert "write-write" in outcome.sanitizer["kinds"]
        assert outcome.sanitizer["findings"]
        # the verdict rides along in the recorded manifest (non-identity
        # field) and in the typed outcome JSON
        assert outcome.record.manifest["sanitizer"]["races"] >= 1
        assert outcome.to_json()["sanitizer"]["kinds"] == ["write-write"]

    def test_clean_program_records_clean(self, src_file):
        engine = CampaignEngine(
            [RunRequest(program=src_file,
                        inputs={"A": [1, 2, 3, 4, 5, 6, 7, 8]})],
            serial=True, sanitize=True)
        outcome = engine.run().outcomes[0]
        assert outcome.status == "ok"
        assert outcome.sanitizer == {"clean": True, "races": 0,
                                     "kinds": [], "findings": []}

    def test_pool_workers_sanitize_too(self, racy_file):
        engine = CampaignEngine([RunRequest(program=racy_file)],
                                workers=2, sanitize=True)
        outcome = engine.run().outcomes[0]
        assert outcome.status == "ok"
        assert outcome.sanitizer is not None
        assert not outcome.sanitizer["clean"]

    def test_cli_flag(self, racy_file, capsys):
        assert xmt_campaign_main([racy_file, "--serial", "--sanitize"]) == 0
        assert "RACES: 1 [write-write]" in capsys.readouterr().err
