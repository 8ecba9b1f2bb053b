"""The fault-tolerant campaign supervisor.

``CampaignEngine`` takes a list of run requests and drives them to a
complete, typed result set no matter what the individual runs do:

- **dedup before work**: every request reduces to a fingerprint
  (:mod:`~repro.sim.campaign.requests`) that is also derivable from a
  recorded ledger manifest, so any request the ledger already answers
  is a ``cached`` outcome with zero simulation -- which is also the
  resume story: re-invoking a killed campaign skips everything that
  finished before the kill;
- **supervised workers, one loop**: requests wait in a queue as
  ``(request, attempt)``; each attempt is a separate forked process
  holding the write end of a one-way pipe, up which it sends telemetry
  frames and then its verdict.  The supervisor sleeps on every pipe at
  once (``multiprocessing.connection.wait``) until the nearest attempt
  deadline, so a verdict, a frame and a death (end of file: a crash, a
  SIGKILL) wake it, and a hang is killed when the deadline passes; an
  attempt with no ``ok`` verdict goes back to the queue's tail, up to
  ``max_retries`` times.  Serial mode is the same loop running each
  attempt in place.  Everything per attempt is keyed by the request's
  index, never by its fingerprint: two identical requests are two runs
  in flight that share nothing;
- **single writer**: only the supervisor records manifests and writes
  the campaign's files (attempts log, summary, telemetry stream), so no
  worker death can corrupt any of them -- and a worker whose supervisor
  died gets ``BrokenPipeError`` on its next send;
- **typed outcomes, streamed**: every run ends as exactly one of
  ``ok | cached | failed | timeout | gave-up``, appended to the
  telemetry stream as an ``outcome`` record the moment it is known
  (tailing the stream shows campaign progress live; a killed campaign
  leaves a valid prefix);
- **graceful degradation**: permanently failing runs become ``failed``/
  ``timeout``/``gave-up`` outcomes in an otherwise complete campaign,
  never a hang or a crash of the campaign itself.

Because the simulator is deterministic, a campaign whose workers are
SIGKILLed mid-simulation produces cycle counts bit-identical to a
serial run of the same grid -- the property ``tests/test_campaign.py``
locks in with a killer of its own.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, wait
from types import SimpleNamespace
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.sim.campaign.requests import PreparedRun, RunBudgets, RunRequest
from repro.sim.campaign.worker import run_attempt
from repro.sim.config import XMTConfig
from repro.sim.observability.artifacts import (
    RUN_PAYLOADS,
    artifact_json,
    canonical_json,
    schema_of,
)
from repro.sim.observability.ledger import (
    Ledger,
    RunRecord,
    fingerprint_of_manifest,
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
    #: the request's config overrides: the grid coordinates
    #: ``xmt-top report`` groups its percentiles by
    overrides: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        """The fields of this run's ``outcome`` record in the stream."""
        data = {
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
            "cache_hit_ratio": round(self.cache_hit_ratio, 4),
        }


def campaign_id_for(prepared: Sequence[PreparedRun]) -> str:
    """Content address of the request set (invariant under resume)."""
    return sha256_text(canonical_json(
        [p.fingerprint for p in prepared]))[:12]


class CampaignEngine:
    """Drives a request list to a complete set of typed outcomes."""

    def __init__(self, requests: Sequence[RunRequest], *,
                 ledger: Optional[Ledger] = None,
                 base_config: Optional[XMTConfig] = None,
                 compile_options=None,
                 workers: int = 2,
                 serial: bool = False,
                 max_retries: int = 2,
                 wall_budget_s: Optional[float] = None,
                 event_budget: Optional[int] = None,
                 max_cycles: Optional[int] = None,
                 attempt_deadline_s: Optional[float] = None,
                 sanitize: bool = False,
                 on_outcome: Optional[Callable[[RunOutcome], None]] = None,
                 telemetry_path: Optional[str] = None,
                 telemetry_every: int = 2000):
        self.requests = list(requests)
        self.ledger = ledger
        self.base_config = base_config
        self.compile_options = compile_options
        self.workers = max(1, workers)
        # serial must be explicit: a single *supervised* worker is still
        # a fork (attempt deadlines need an out-of-process kill)
        self.serial = bool(serial)
        #: how workers are forked; ``None`` runs every attempt in place
        #: (``serial``, or a platform that cannot fork)
        self._fork = (
            multiprocessing.get_context("fork")
            if not serial
            and "fork" in multiprocessing.get_all_start_methods() else None)
        self.max_retries = max(0, max_retries)
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
        self.on_outcome = on_outcome
        #: per-campaign telemetry stream: worker frames interleaved with
        #: engine records (campaign-start/outcome/campaign-end)
        self.telemetry_path = telemetry_path
        self.telemetry_every = telemetry_every

        #: keyed by request index (unique even if two requests collide
        #: on fingerprint), so no outcome can shadow another
        self._outcomes: Dict[int, RunOutcome] = {}
        #: request index -> pid of every worker forked for it
        self._pids: Dict[int, List[int]] = {}
        self._attempts_total = 0
        self._workers_died = 0
        self._attempts_log_fh = None
        self._telemetry_sink = None

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
        will actually cache-hit (O(requests), not O(runs)).  An entry
        whose run is unreadable, or whose manifest reduces to another
        fingerprint (a stale index line, an older ledger's injected
        run), never produces a cache hit.
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
                continue
            if fingerprint_of_manifest(record.manifest) != fingerprint:
                continue
            index[fingerprint] = record
        return index

    # -- outcome/attempt streaming -------------------------------------------

    def _open_streams(self, campaign_id: str) -> None:
        if self.telemetry_path:
            self._telemetry_sink = JsonlSink(self.telemetry_path)
        if self.ledger is not None:
            log_path = os.path.join(self.ledger.campaign_dir(campaign_id),
                                    "attempts.jsonl")
            self._attempts_log_fh = open(log_path, "a")

    def _close_streams(self) -> None:
        for stream in (self._attempts_log_fh, self._telemetry_sink):
            if stream is not None:
                stream.close()
        self._attempts_log_fh = None
        self._telemetry_sink = None

    def _emit_telemetry(self, record: Dict[str, Any]) -> None:
        """Append one engine-side record to the campaign stream."""
        if self._telemetry_sink is None:
            return
        record = dict(record, schema=schema_of("campaign-telemetry"),
                      unix_time=round(time.time(), 3))
        self._telemetry_sink.write_line(json.dumps(record))

    def _log_attempt(self, prepared: PreparedRun, attempt: int,
                     event: str, *, worker_pid: Optional[int] = None,
                     error: str = "") -> None:
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
        # the stream alone reproduces the campaign's outcome counts
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
            self._execute(fresh)
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
            workers_died=self._workers_died)
        if self.ledger is not None:
            summary_path = os.path.join(
                self.ledger.campaign_dir(campaign_id), "summary.json")
            with open(summary_path, "w") as fh:
                fh.write(artifact_json(result.to_summary()))
        return result

    def _execute(self, fresh: List[PreparedRun]) -> None:
        """Drive ``fresh`` to outcomes: one loop for serial and forked
        mode.  An attempt run in place is settled inside :meth:`_start`;
        forked ones are slept on, all at once, until a pipe has
        something to say or the nearest attempt deadline passes."""
        queue: Deque[Tuple[PreparedRun, int]] = deque(
            (prep, 1) for prep in fresh)
        #: read end of a live worker's pipe ->
        #: (request, attempt number, process, deadline or None)
        running: Dict[Connection, tuple] = {}
        slots = self.workers if self._fork is not None else 1
        try:
            while queue or running:
                while queue and len(running) < slots:
                    self._start(*queue.popleft(), queue, running)
                if not running:
                    continue  # in place: settled (or requeued) already
                deadlines = [deadline for *_, deadline in running.values()
                             if deadline is not None]
                timeout = (max(0.0, min(deadlines) - time.monotonic())
                           if deadlines else None)
                for pipe in wait(list(running), timeout):
                    try:
                        message = pipe.recv()
                    except (EOFError, OSError):
                        message = None  # died, at worst mid-send
                    if isinstance(message, str):
                        self._telemetry_sink.write_line(message)
                    else:
                        self._settle(*self._reap(pipe, running), message,
                                     queue)
                now = time.monotonic()
                for pipe, (_, _, process, deadline) in list(running.items()):
                    if deadline is not None and now >= deadline:
                        process.kill()
                        self._settle(*self._reap(pipe, running), None,
                                     queue, past_deadline=True)
        finally:
            for pipe, (_, _, process, _) in list(running.items()):
                process.kill()
                self._reap(pipe, running)

    @staticmethod
    def _reap(pipe: Connection, running: Dict[Connection, tuple]):
        """Take a worker that has sent its verdict, died or been killed
        out of ``running``."""
        prep, attempt, process, _ = running.pop(pipe)
        pipe.close()
        process.join()
        return prep, attempt, process

    def _start(self, prep: PreparedRun, attempt: int, queue: deque,
               running: Dict[Connection, tuple]) -> None:
        """Start one attempt: in a forked worker that reports up a pipe,
        or in place (settled before this returns)."""
        self._attempts_total += 1
        if self._fork is None:
            verdict = run_attempt(
                prep, self.budgets, attempt, isolate=False,
                sanitize=self.sanitize, telemetry_sink=self._telemetry_sink,
                telemetry_every=self.telemetry_every)
            self._settle(prep, attempt, None, verdict, queue)
            return
        receiver, sender = self._fork.Pipe(duplex=False)
        process = self._fork.Process(
            target=_forked_attempt,
            args=(sender, [receiver, *running], prep, self.budgets, attempt,
                  self.sanitize, self._telemetry_sink is not None,
                  self.telemetry_every),
            daemon=True)
        process.start()
        # the worker now holds the only write end: its death is our EOF
        sender.close()
        deadline = (time.monotonic() + self.attempt_deadline_s
                    if self.attempt_deadline_s is not None else None)
        running[receiver] = (prep, attempt, process, deadline)
        self._pids.setdefault(prep.request.index, []).append(process.pid)
        self._log_attempt(prep, attempt, "spawned", worker_pid=process.pid)

    def _settle(self, prep: PreparedRun, attempt: int, process,
                verdict: Optional[Dict[str, Any]], queue: deque,
                past_deadline: bool = False) -> None:
        """Classify a finished attempt -- ``verdict`` is what the worker
        said, ``None`` if it died or was killed first; ``process`` is
        ``None`` for an attempt run in place -- and either finalize the
        run or put its next attempt at the queue's tail."""
        pid = process.pid if process is not None else os.getpid()
        pids = self._pids.get(prep.request.index)
        if verdict is not None and verdict["status"] == "ok":
            self._log_attempt(prep, attempt, "ok", worker_pid=pid)
            self._finalize(prep, "ok", attempt, payload=verdict,
                           worker_pids=pids)
            return

        dump_summary = None
        if verdict is not None:
            status = verdict["status"]
            error_type = verdict.get("error_type", "")
            error = verdict.get("error", "")
            dump_summary = verdict.get("dump_summary")
        elif past_deadline:
            status = "timeout"
            error_type = "WorkerDeadline"
            error = (f"worker pid {pid} exceeded the per-attempt "
                     f"deadline and was killed")
        else:
            status = "failed"
            error_type = "WorkerDied"
            error = (f"worker pid {pid} died without a verdict "
                     f"(exit code {process.exitcode})")
            self._workers_died += 1
        self._log_attempt(prep, attempt,
                          "worker-died" if verdict is None else status,
                          worker_pid=pid, error=error)

        if attempt <= self.max_retries:
            # the queue's tail is the delay: whatever is already waiting
            # runs first, and a local fork has nothing to back off from
            queue.append((prep, attempt + 1))
            self._log_attempt(prep, attempt, "rescheduled")
            return

        # retry budget exhausted: degrade gracefully to a typed outcome.
        # A deadline kill is a *diagnosed* timeout; only a death with no
        # verdict and no diagnosis ends as "gave-up".
        final = status if verdict is not None or past_deadline else "gave-up"
        self._finalize(prep, final, attempt,
                       error_type=error_type, error=error,
                       dump_summary=dump_summary, worker_pids=pids)


def _forked_attempt(pipe: Connection, inherited: List[Connection],
                    prepared: PreparedRun, budgets: RunBudgets, attempt: int,
                    sanitize: bool, stream: bool,
                    telemetry_every: int) -> None:
    """Process target: frames (strings), then the verdict (a dict), up
    ``pipe``.  The read ends the fork copied -- this pipe's and every
    running neighbour's -- are closed first, so that once the supervisor
    is gone nobody holds one and the next send is a ``BrokenPipeError``:
    an orphaned worker dies instead of simulating for no one."""
    for end in inherited:
        end.close()
    sink = SimpleNamespace(write_line=pipe.send) if stream else None
    pipe.send(run_attempt(prepared, budgets, attempt, sanitize=sanitize,
                          telemetry_sink=sink,
                          telemetry_every=telemetry_every))
