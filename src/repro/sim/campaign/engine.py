"""The fault-tolerant campaign supervisor.

``CampaignEngine`` takes a list of run requests and drives them to a
complete, typed result set no matter what the individual runs do:

- **dedup before work**: every request reduces to a fingerprint
  (:mod:`~repro.sim.campaign.requests`) that is also derivable from a
  recorded ledger manifest, so any request the ledger already answers
  is a ``cached`` outcome with zero simulation -- which is also the
  resume story: re-invoking a killed campaign skips everything that
  finished before the kill;
- **supervised workers**: each attempt is a separate forked process
  that publishes its verdict by atomically renaming a result file into
  place; the supervisor polls for worker exit, so a crash, a SIGKILL or
  a hang past the parent-side deadline all look the same -- a dead
  worker with no verdict -- and are rescheduled with exponential
  backoff up to ``max_retries``;
- **single-writer ledger**: only the supervisor records manifests, so
  no worker death can corrupt the ledger;
- **typed outcomes, streamed**: every run ends as exactly one of
  ``ok | cached | failed | timeout | gave-up``, appended to a JSONL
  results file the moment it is known (tailing the file shows campaign
  progress live; a killed campaign leaves a valid prefix);
- **graceful degradation**: permanently failing runs become ``failed``/
  ``timeout``/``gave-up`` outcomes in an otherwise complete campaign,
  never a hang or a crash of the campaign itself.

Because the simulator is deterministic, a chaos campaign (workers
SIGKILLed at random, see :mod:`~repro.sim.campaign.chaos`) produces
cycle counts bit-identical to a serial run of the same grid -- the
property ``tests/test_campaign.py`` locks in.
"""

from __future__ import annotations

import heapq
import json
import os
import shutil
import signal
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.sim.campaign.chaos import ChaosMonkey
from repro.sim.campaign.requests import PreparedRun, RunBudgets, RunRequest
from repro.sim.campaign.worker import run_attempt, worker_entry
from repro.sim.config import XMTConfig
from repro.sim.observability.artifacts import (
    RUN_PAYLOADS,
    JsonlTail,
    artifact_json,
    canonical_json,
    load_artifact,
    read_jsonl,
    schema_of,
)
from repro.sim.observability.ledger import (
    Ledger,
    RunRecord,
    load_run,
    sha256_text,
)
from repro.sim.observability.telemetry import JsonlSink

#: every run ends as exactly one of these
OUTCOME_STATUSES = ("ok", "cached", "failed", "timeout", "gave-up")

#: campaigns with any non-ok outcome exit with this (matches xmtsim's
#: partial-result code: some results exist, some are missing)
EXIT_PARTIAL = 5


@dataclass
class RunOutcome:
    """Final, typed verdict for one campaign request."""

    index: int
    label: str
    fingerprint: str
    status: str                        # one of OUTCOME_STATUSES
    attempts: int
    run_id: str = ""
    cycles: Optional[int] = None
    instructions: Optional[int] = None
    error_type: str = ""
    error: str = ""
    dump_summary: Optional[str] = None
    worker_pids: List[int] = field(default_factory=list)
    #: the recorded (or cache-hit) ledger entry, when the run succeeded
    record: Optional[RunRecord] = None
    output: str = ""
    #: dynamic race-sanitizer findings (``--sanitize`` runs only)
    sanitizer: Optional[Dict[str, Any]] = None
    #: host wall seconds of the recorded run (aggregation recipes)
    wall_seconds: Optional[float] = None
    #: the request's config overrides: the sweep coordinates
    #: ``xmt-campaign report`` groups its percentiles by
    overrides: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        data = {
            "schema": schema_of("campaign-result"),
            "index": self.index,
            "label": self.label,
            "fingerprint": self.fingerprint,
            "status": self.status,
            "attempts": self.attempts,
            "run_id": self.run_id,
            "cycles": self.cycles,
            "instructions": self.instructions,
        }
        if self.wall_seconds is not None:
            data["wall_seconds"] = self.wall_seconds
        if self.overrides:
            data["overrides"] = self.overrides
        if self.error_type:
            data["error_type"] = self.error_type
            data["error"] = self.error
        if self.dump_summary:
            data["dump_summary"] = self.dump_summary
        if self.worker_pids:
            data["worker_pids"] = self.worker_pids
        if self.sanitizer is not None:
            data["sanitizer"] = self.sanitizer
        return data


@dataclass
class CampaignResult:
    """Everything a finished campaign knows about itself."""

    campaign_id: str
    outcomes: List[RunOutcome]
    workers: int
    serial: bool
    wall_seconds: float
    attempts_total: int
    retries_total: int
    workers_died: int
    chaos_kills: int
    results_path: Optional[str] = None

    @property
    def counts(self) -> Dict[str, int]:
        counts = {name: 0 for name in OUTCOME_STATUSES}
        for outcome in self.outcomes:
            counts[outcome.status] += 1
        return counts

    @property
    def ok(self) -> bool:
        bad = set(OUTCOME_STATUSES) - {"ok", "cached"}
        return not any(o.status in bad for o in self.outcomes)

    @property
    def cache_hit_ratio(self) -> float:
        if not self.outcomes:
            return 0.0
        hits = sum(1 for o in self.outcomes if o.status == "cached")
        return hits / len(self.outcomes)

    @property
    def executed(self) -> int:
        """Simulations actually performed (attempts that ran to a
        verdict or died; cache hits cost zero)."""
        return self.attempts_total

    def exit_code(self) -> int:
        return 0 if self.ok else EXIT_PARTIAL

    def format(self) -> str:
        counts = self.counts
        n = len(self.outcomes)
        mode = "serial" if self.serial else f"{self.workers} workers"
        lines = [f"campaign {self.campaign_id}: {n} runs, {mode}, "
                 f"{self.wall_seconds:.2f} s wall"]
        lines.append("  " + "  ".join(
            f"{name}: {counts[name]}" for name in OUTCOME_STATUSES))
        throughput = (self.attempts_total / self.wall_seconds
                      if self.wall_seconds > 0 else 0.0)
        lines.append(
            f"  attempts: {self.attempts_total} "
            f"(retries: {self.retries_total}, workers died: "
            f"{self.workers_died}), cache-hit ratio: "
            f"{100.0 * self.cache_hit_ratio:.0f}%, "
            f"throughput: {throughput:.2f} attempts/s")
        if self.chaos_kills:
            lines.append(f"  chaos: {self.chaos_kills} workers SIGKILLed")
        failures = [o for o in self.outcomes
                    if o.status not in ("ok", "cached")]
        if failures:
            lines.append("failures:")
            for o in failures:
                what = f"{o.error_type}: {o.error}" if o.error_type \
                    else "worker died"
                lines.append(f"  {o.label or o.fingerprint}: {o.status} "
                             f"after {o.attempts} attempt"
                             f"{'s' if o.attempts != 1 else ''} ({what})")
        return "\n".join(lines)

    def to_summary(self) -> Dict[str, Any]:
        return {
            "schema": schema_of("campaign-summary"),
            "campaign_id": self.campaign_id,
            "runs": len(self.outcomes),
            "counts": self.counts,
            "workers": self.workers,
            "serial": self.serial,
            "wall_seconds": round(self.wall_seconds, 3),
            "attempts_total": self.attempts_total,
            "retries_total": self.retries_total,
            "workers_died": self.workers_died,
            "chaos_kills": self.chaos_kills,
            "cache_hit_ratio": round(self.cache_hit_ratio, 4),
        }


def campaign_id_for(prepared: Sequence[PreparedRun]) -> str:
    """Content address of the request set (invariant under resume)."""
    return sha256_text(canonical_json(
        [p.fingerprint for p in prepared]))[:12]


class _Attempt:
    """Supervisor-side state of one in-flight worker."""

    def __init__(self, prepared: PreparedRun, attempt: int, process,
                 result_path: str, deadline: Optional[float],
                 kill_at: Optional[float],
                 telemetry_path: Optional[str] = None,
                 started: float = 0.0):
        self.prepared = prepared
        self.attempt = attempt
        self.process = process
        self.result_path = result_path
        self.deadline = deadline
        self.kill_at = kill_at
        self.deadline_killed = False
        self.chaos_killed = False
        # -- worker telemetry tailing + no-progress stall detection
        self.telemetry_path = telemetry_path
        self.telemetry_fh = None
        self.telemetry_tail = JsonlTail()
        self.last_seen = started        # last heartbeat/frame (monotonic)
        self.stall_warned = False
        self.stall_killed = False
        self.hung = False               # no heartbeat at time of death


class CampaignEngine:
    """Drives a request list to a complete set of typed outcomes."""

    def __init__(self, requests: Sequence[RunRequest], *,
                 ledger: Optional[Ledger] = None,
                 results_path: Optional[str] = None,
                 base_config: Optional[XMTConfig] = None,
                 compile_options=None,
                 workers: int = 2,
                 serial: bool = False,
                 max_retries: int = 2,
                 backoff_s: float = 0.25,
                 backoff_cap_s: float = 4.0,
                 wall_budget_s: Optional[float] = None,
                 event_budget: Optional[int] = None,
                 max_cycles: Optional[int] = None,
                 attempt_deadline_s: Optional[float] = None,
                 sanitize: bool = False,
                 chaos: Optional[ChaosMonkey] = None,
                 on_outcome: Optional[Callable[[RunOutcome], None]] = None,
                 telemetry_path: Optional[str] = None,
                 telemetry_every: int = 2000,
                 stall_warn_s: Optional[float] = None,
                 stall_kill_s: Optional[float] = None):
        self.requests = list(requests)
        self.ledger = ledger
        self.results_path = results_path
        self.base_config = base_config
        self.compile_options = compile_options
        self.workers = max(1, workers)
        # serial must be explicit: a single *supervised* worker is still
        # a process pool (attempt deadlines need an out-of-process kill)
        self.serial = bool(serial)
        self.max_retries = max(0, max_retries)
        self.backoff_s = backoff_s
        self.backoff_cap_s = backoff_cap_s
        self.budgets = RunBudgets(max_cycles=max_cycles,
                                  wall_limit_s=wall_budget_s,
                                  max_events=event_budget)
        # parent-side hard deadline per attempt: a worker hanging past
        # its own watchdog budget (or with no budget set) still dies
        if attempt_deadline_s is not None:
            self.attempt_deadline_s: Optional[float] = attempt_deadline_s
        elif wall_budget_s is not None:
            self.attempt_deadline_s = wall_budget_s * 3.0 + 10.0
        else:
            self.attempt_deadline_s = None
        self.sanitize = bool(sanitize)
        self.chaos = chaos
        self.on_outcome = on_outcome
        #: per-campaign telemetry stream: worker frames multiplexed with
        #: engine records (campaign-start/outcome/stall-warning/...)
        self.telemetry_path = telemetry_path
        self.telemetry_every = max(1, telemetry_every)
        #: no-progress stall detection thresholds (seconds without a
        #: worker heartbeat/frame): warn, then SIGKILL -- alongside the
        #: wall-clock attempt deadline, which fires even with progress
        self.stall_warn_s = stall_warn_s
        self.stall_kill_s = stall_kill_s

        #: keyed by request index (unique even if two requests collide
        #: on fingerprint), so no outcome can shadow another
        self._outcomes: Dict[int, RunOutcome] = {}
        self._attempts_total = 0
        self._workers_died = 0
        self._results_sink = None
        self._attempts_log_fh = None
        self._telemetry_sink = None

    @property
    def _worker_telemetry(self) -> bool:
        """Do workers publish per-attempt telemetry files?  Needed for
        the campaign stream and for stall detection."""
        return (self.telemetry_path is not None
                or self.stall_warn_s is not None
                or self.stall_kill_s is not None)

    # -- preparation ---------------------------------------------------------

    def prepare(self) -> List[PreparedRun]:
        """Load programs, resolve configs, fingerprint every request.

        Raises (``OSError``/``ValueError``/``CompileError``/...) on
        malformed requests -- bad input is a campaign-level error, not a
        per-run failure.
        """
        # deferred: the toolchain package sits above repro.sim
        from repro.toolchain.driver import load_program

        programs: Dict[str, Any] = {}
        prepared: List[PreparedRun] = []
        for position, request in enumerate(self.requests):
            request.index = position
            if request.program not in programs:
                # compile/assemble once per distinct path
                programs[request.program] = load_program(
                    request.program, self.compile_options)
            program, source = programs[request.program]
            try:
                prepared.append(PreparedRun.prepare(
                    request, program, source, self.base_config))
            except ValueError as exc:
                # an unknown config-override field, a value of the wrong
                # type: say which request carried it
                raise ValueError(
                    f"request {request.label or position}: {exc}") from None
        return prepared

    def _dedup_index(self, wanted) -> Dict[str, RunRecord]:
        """Fingerprint -> record for the ``wanted`` requests the ledger
        answers.

        The ledger's ``index.jsonl`` maps fingerprints to run ids
        directly (:meth:`Ledger.load_index` builds it first for a
        ledger that has none), so resume loads only the manifests it
        will actually cache-hit (O(requests), not O(runs)).  Unreadable
        entries simply never produce cache hits.
        """
        index: Dict[str, RunRecord] = {}
        if self.ledger is None:
            return index
        mapping = self.ledger.load_index()
        for fingerprint in wanted:
            run_id = mapping.get(fingerprint)
            if not run_id:
                continue
            run_dir = os.path.join(self.ledger.runs_dir, run_id)
            try:
                record = load_run(run_dir)
            except (OSError, ValueError):
                continue  # stale index entry: no cache hit
            if record.manifest.get("fault"):
                continue  # injected runs never answer clean requests
            index[fingerprint] = record
        return index

    # -- result/attempt streaming --------------------------------------------

    def _open_streams(self, campaign_id: str) -> None:
        if self.results_path:
            self._results_sink = JsonlSink(self.results_path)
        if self.telemetry_path:
            self._telemetry_sink = JsonlSink(self.telemetry_path)
        if self.ledger is not None:
            log_path = os.path.join(self.ledger.campaign_dir(campaign_id),
                                    "attempts.jsonl")
            self._attempts_log_fh = open(log_path, "a")

    def _close_streams(self) -> None:
        for stream in (self._results_sink, self._attempts_log_fh,
                       self._telemetry_sink):
            if stream is not None:
                stream.close()
        self._results_sink = None
        self._attempts_log_fh = None
        self._telemetry_sink = None

    def _emit_telemetry(self, record: Dict[str, Any]) -> None:
        """Append one engine-side record to the campaign stream."""
        if self._telemetry_sink is None:
            return
        record = dict(record, schema=schema_of("campaign-telemetry"),
                      unix_time=round(time.time(), 3))
        self._telemetry_sink.write_line(json.dumps(record))

    def _mux_telemetry(self, frames: List[Dict[str, Any]],
                       prepared: PreparedRun) -> None:
        """Re-emit a worker's telemetry frames into the campaign
        stream, enveloped with the run identity."""
        if self._telemetry_sink is None:
            return
        for frame in frames:
            frame.setdefault("label", prepared.request.label or None)
            frame.setdefault("fingerprint", prepared.fingerprint)
            self._telemetry_sink.write_line(json.dumps(frame))

    def _log_attempt(self, prepared: PreparedRun, attempt: int,
                     event: str, *, worker_pid: Optional[int] = None,
                     error: str = "", backoff_s: float = 0.0,
                     hung: Optional[bool] = None) -> None:
        if self._attempts_log_fh is None:
            return
        line = {"fingerprint": prepared.fingerprint,
                "label": prepared.request.label,
                "attempt": attempt, "event": event,
                "unix_time": round(time.time(), 3)}
        if worker_pid is not None:
            line["worker_pid"] = worker_pid
        if error:
            line["error"] = error
        if backoff_s:
            line["backoff_s"] = round(backoff_s, 4)
        if hung is not None:
            # hung = no heartbeat at death vs slow = heartbeats flowing
            line["hung"] = hung
        self._attempts_log_fh.write(json.dumps(line) + "\n")
        self._attempts_log_fh.flush()

    def _finalize(self, prepared: PreparedRun, status: str, attempts: int,
                  *, payload: Optional[Dict[str, Any]] = None,
                  record: Optional[RunRecord] = None,
                  error_type: str = "", error: str = "",
                  dump_summary: Optional[str] = None,
                  worker_pids: Optional[List[int]] = None) -> RunOutcome:
        run_id = ""
        cycles = instructions = None
        output = ""
        sanitizer = None
        if payload is not None and payload.get("status") == "ok":
            sanitizer = payload.get("sanitizer")
            manifest = payload["manifest"]
            output = payload.get("output", "")
            payloads = {name: payload[name] for name in RUN_PAYLOADS
                        if payload.get(name) is not None}
            if self.ledger is not None:
                record = self.ledger.record(manifest, payloads)
            else:
                record = RunRecord(run_id=manifest["run_id"],
                                   manifest=manifest, payloads=payloads)
        wall_seconds = None
        if record is not None:
            run_id = record.run_id
            cycles = record.manifest.get("cycles")
            instructions = record.manifest.get("instructions")
            wall_seconds = record.manifest.get("wall_seconds")
            if sanitizer is None:
                sanitizer = record.manifest.get("sanitizer")
        outcome = RunOutcome(
            index=prepared.request.index,
            label=prepared.request.label,
            fingerprint=prepared.fingerprint,
            status=status, attempts=attempts, run_id=run_id,
            cycles=cycles, instructions=instructions,
            error_type=error_type, error=error,
            dump_summary=dump_summary,
            worker_pids=worker_pids or [], record=record, output=output,
            sanitizer=sanitizer, wall_seconds=wall_seconds,
            overrides=dict(prepared.request.overrides))
        self._outcomes[prepared.request.index] = outcome
        if self._results_sink is not None:
            self._results_sink.write_line(json.dumps(outcome.to_json()))
        # mirror the outcome into the telemetry stream so the stream
        # alone reproduces the campaign's outcome counts exactly
        self._emit_telemetry(dict(outcome.to_json(), kind="outcome"))
        if self.on_outcome is not None:
            self.on_outcome(outcome)
        return outcome

    # -- execution -----------------------------------------------------------

    def run(self) -> CampaignResult:
        started = time.perf_counter()
        prepared = self.prepare()
        campaign_id = campaign_id_for(prepared)
        dedup = self._dedup_index({p.fingerprint for p in prepared})
        self._open_streams(campaign_id)
        self._emit_telemetry({
            "kind": "campaign-start", "campaign_id": campaign_id,
            "runs": len(prepared),
            "workers": 1 if self.serial else self.workers,
            "serial": self.serial})
        try:
            fresh: List[PreparedRun] = []
            for prep in prepared:
                hit = dedup.get(prep.fingerprint)
                if hit is not None:
                    self._finalize(prep, "cached", 0, record=hit)
                else:
                    fresh.append(prep)
            if fresh:
                if self.serial or not self._fork_available():
                    self._run_serial(fresh)
                else:
                    self._run_pool(fresh)
            counts = {name: 0 for name in OUTCOME_STATUSES}
            for outcome in self._outcomes.values():
                counts[outcome.status] += 1
            self._emit_telemetry({
                "kind": "campaign-end", "campaign_id": campaign_id,
                "counts": counts,
                "wall_seconds": round(time.perf_counter() - started, 3)})
        finally:
            self._close_streams()
        outcomes = sorted(self._outcomes.values(), key=lambda o: o.index)
        retries = sum(max(0, o.attempts - 1) for o in outcomes)
        result = CampaignResult(
            campaign_id=campaign_id,
            outcomes=outcomes,
            workers=1 if self.serial else self.workers,
            serial=self.serial,
            wall_seconds=time.perf_counter() - started,
            attempts_total=self._attempts_total,
            retries_total=retries,
            workers_died=self._workers_died,
            chaos_kills=(self.chaos.kills_delivered if self.chaos else 0),
            results_path=self.results_path)
        if self.ledger is not None:
            summary_path = os.path.join(
                self.ledger.campaign_dir(campaign_id), "summary.json")
            with open(summary_path, "w") as fh:
                fh.write(artifact_json(result.to_summary()))
        return result

    @staticmethod
    def _fork_available() -> bool:
        import multiprocessing
        return "fork" in multiprocessing.get_all_start_methods()

    def _backoff(self, attempt: int) -> float:
        return min(self.backoff_s * (2 ** (attempt - 1)), self.backoff_cap_s)

    # serial mode: same classification, no processes -- the golden
    # reference for the chaos test and the default for small sweeps
    def _run_serial(self, fresh: List[PreparedRun]) -> None:
        for prep in fresh:
            attempts = 0
            while True:
                attempts += 1
                self._attempts_total += 1
                telemetry_path = None
                if self.telemetry_path:
                    fd, telemetry_path = tempfile.mkstemp(
                        prefix="xmt-run-", suffix=".telemetry.jsonl")
                    os.close(fd)
                try:
                    payload = run_attempt(
                        prep, self.budgets, attempts,
                        isolate=False, sanitize=self.sanitize,
                        telemetry_path=telemetry_path,
                        telemetry_every=self.telemetry_every)
                finally:
                    if telemetry_path is not None:
                        try:
                            self._mux_telemetry(read_jsonl(telemetry_path),
                                                prep)
                        except OSError:
                            pass
                        try:
                            os.unlink(telemetry_path)
                        except OSError:
                            pass
                status = payload["status"]
                self._log_attempt(prep, attempts, status,
                                  worker_pid=payload.get("worker_pid"),
                                  error=payload.get("error", ""))
                if status == "ok":
                    self._finalize(prep, "ok", attempts, payload=payload)
                    break
                if attempts > self.max_retries:
                    self._finalize(
                        prep, status, attempts,
                        error_type=payload.get("error_type", ""),
                        error=payload.get("error", ""),
                        dump_summary=payload.get("dump_summary"))
                    break
                # deterministic failures recur; retrying in-process is
                # cheap insurance against host-side flakiness only
                time.sleep(self._backoff(attempts))

    def _run_pool(self, fresh: List[PreparedRun]) -> None:
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        workdir = tempfile.mkdtemp(prefix="xmt-campaign-")
        pending: List[PreparedRun] = list(fresh)
        retry_heap: List[tuple] = []  # (not_before, seq, prepared, attempt)
        running: Dict[int, _Attempt] = {}
        pids: Dict[str, List[int]] = {p.fingerprint: [] for p in fresh}
        seq = 0
        try:
            while pending or retry_heap or running:
                now = time.monotonic()
                # spawn: due retries first (they are older), then fresh
                while len(running) < self.workers:
                    item = None
                    if retry_heap and retry_heap[0][0] <= now:
                        _, _, prep, attempt = heapq.heappop(retry_heap)
                        item = (prep, attempt)
                    elif pending:
                        item = (pending.pop(0), 1)
                    if item is None:
                        break
                    prep, attempt = item
                    self._spawn(ctx, workdir, running, prep, attempt, now)
                # tail worker telemetry into the campaign stream and
                # enforce chaos kills, stall kills, parent deadlines
                for att in running.values():
                    self._pump_telemetry(att, now)
                    self._check_stall(att, now)
                    alive = att.process.is_alive()
                    if (att.kill_at is not None and now >= att.kill_at
                            and alive):
                        os.kill(att.process.pid, signal.SIGKILL)
                        att.chaos_killed = True
                        att.kill_at = None
                        if self.chaos is not None:
                            self.chaos.record_delivery()
                    if (att.deadline is not None and now >= att.deadline
                            and att.process.is_alive()):
                        os.kill(att.process.pid, signal.SIGKILL)
                        att.deadline_killed = True
                        att.deadline = None
                # reap finished workers
                for pid in list(running):
                    att = running[pid]
                    if att.process.is_alive():
                        continue
                    att.process.join()
                    del running[pid]
                    pids[att.prepared.fingerprint].append(pid)
                    self._settle(att, retry_heap, pids, seq)
                    seq += 1
                time.sleep(0.004)
        finally:
            for att in running.values():
                if att.process.is_alive():
                    att.process.terminate()
                att.process.join()
            shutil.rmtree(workdir, ignore_errors=True)

    def _spawn(self, ctx, workdir: str, running: Dict[int, "_Attempt"],
               prep: PreparedRun, attempt: int, now: float) -> None:
        result_path = os.path.join(
            workdir, f"{prep.fingerprint}.{attempt}.json")
        telemetry_path = None
        if self._worker_telemetry:
            telemetry_path = os.path.join(
                workdir, f"{prep.fingerprint}.{attempt}.telemetry.jsonl")
        process = ctx.Process(
            target=worker_entry,
            args=(prep, self.budgets, attempt, result_path, self.sanitize,
                  telemetry_path, self.telemetry_every),
            daemon=True)
        process.start()
        self._attempts_total += 1
        deadline = (now + self.attempt_deadline_s
                    if self.attempt_deadline_s is not None else None)
        kill_at = None
        if self.chaos is not None:
            retries_left = self.max_retries - (attempt - 1)
            kill_at = self.chaos.plan_kill(prep.fingerprint, now,
                                           retries_left)
        running[process.pid] = _Attempt(prep, attempt, process,
                                        result_path, deadline, kill_at,
                                        telemetry_path=telemetry_path,
                                        started=now)
        self._log_attempt(prep, attempt, "spawned",
                          worker_pid=process.pid)

    def _pump_telemetry(self, att: "_Attempt", now: float) -> None:
        """Drain new frames from a worker's telemetry file into the
        campaign stream; any complete frame counts as a heartbeat."""
        if att.telemetry_path is None:
            return
        if att.telemetry_fh is None:
            try:
                att.telemetry_fh = open(att.telemetry_path, "rb")
            except OSError:
                return  # worker has not created its sink yet
        try:
            frames = att.telemetry_tail.feed(att.telemetry_fh.read())
        except OSError:
            return
        if frames:
            self._mux_telemetry(frames, att.prepared)
            att.last_seen = now
            att.stall_warned = False
            att.hung = False

    def _check_stall(self, att: "_Attempt", now: float) -> None:
        """No-progress detection: a live sim emits frames as cycles
        advance, so a silent worker is hung, not slow.  Warn once past
        ``stall_warn_s`` without a frame, SIGKILL past ``stall_kill_s``
        (the wall-clock attempt deadline still applies independently)."""
        if att.telemetry_path is None or not att.process.is_alive():
            return
        gap = now - att.last_seen
        if (self.stall_warn_s is not None and gap >= self.stall_warn_s
                and not att.stall_warned):
            att.stall_warned = True
            att.hung = True
            self._log_attempt(
                att.prepared, att.attempt, "heartbeat-gap",
                worker_pid=att.process.pid,
                error=f"no telemetry for {gap:.1f} s", hung=True)
            self._emit_telemetry({
                "kind": "stall-warning",
                "fingerprint": att.prepared.fingerprint,
                "label": att.prepared.request.label or None,
                "attempt": att.attempt,
                "worker_pid": att.process.pid,
                "gap_s": round(gap, 3)})
        if (self.stall_kill_s is not None and gap >= self.stall_kill_s
                and not att.stall_killed):
            os.kill(att.process.pid, signal.SIGKILL)
            att.stall_killed = True
            att.hung = True

    def _settle(self, att: "_Attempt", retry_heap: List[tuple],
                pids: Dict[str, List[int]], seq: int) -> None:
        """Classify a reaped worker and either finalize or reschedule."""
        prep = att.prepared
        self._pump_telemetry(att, time.monotonic())
        if att.telemetry_fh is not None:
            att.telemetry_fh.close()
            att.telemetry_fh = None
        payload: Optional[Dict[str, Any]] = None
        if os.path.exists(att.result_path):
            try:
                payload = load_artifact(att.result_path, "campaign-attempt")
            except (OSError, ValueError):
                payload = None  # impossible with atomic rename, but safe

        if payload is not None and payload.get("status") == "ok":
            self._log_attempt(prep, att.attempt, "ok",
                              worker_pid=att.process.pid)
            self._finalize(prep, "ok", att.attempt, payload=payload,
                           worker_pids=pids[prep.fingerprint])
            return

        # hung vs slow matters for post-mortems: only meaningful when
        # the worker was publishing telemetry at all
        hung = att.hung if att.telemetry_path is not None else None
        if payload is not None:
            status = payload.get("status", "failed")
            error_type = payload.get("error_type", "")
            error = payload.get("error", "")
            dump_summary = payload.get("dump_summary")
        elif att.stall_killed:
            status = "timeout"
            error_type = "WorkerStalled"
            error = (f"worker pid {att.process.pid} made no telemetry "
                     f"progress for {self.stall_kill_s} s (hung, not "
                     f"slow) and was killed")
            dump_summary = None
        elif att.deadline_killed:
            status = "timeout"
            error_type = "WorkerDeadline"
            error = (f"worker pid {att.process.pid} exceeded the "
                     f"per-attempt deadline and was killed")
            if hung is not None:
                error += (" while hung (no telemetry heartbeat)" if hung
                          else " while still making progress (slow)")
            dump_summary = None
        else:
            status = "failed"
            error_type = "WorkerDied"
            error = (f"worker pid {att.process.pid} died without a "
                     f"verdict (exit code {att.process.exitcode})")
            dump_summary = None
            self._workers_died += 1

        self._log_attempt(prep, att.attempt,
                          "worker-died" if payload is None else status,
                          worker_pid=att.process.pid, error=error,
                          hung=hung)

        if att.attempt <= self.max_retries:
            backoff = self._backoff(att.attempt)
            heapq.heappush(retry_heap,
                           (time.monotonic() + backoff, seq, prep,
                            att.attempt + 1))
            self._log_attempt(prep, att.attempt, "rescheduled",
                              backoff_s=backoff)
            return

        # retry budget exhausted: degrade gracefully to a typed outcome.
        # A deadline/stall kill is a *diagnosed* timeout; only a death
        # with no verdict and no diagnosis ends as "gave-up".
        if payload is not None or att.deadline_killed or att.stall_killed:
            final = status
        else:
            final = "gave-up"
        self._finalize(prep, final, att.attempt,
                       error_type=error_type, error=error,
                       dump_summary=dump_summary,
                       worker_pids=pids[prep.fingerprint])
