"""One campaign attempt, executed in a (usually forked) worker process.

The worker contract is deliberately minimal so that no failure mode can
corrupt shared state:

- the worker receives a :class:`~repro.sim.campaign.requests.PreparedRun`
  by fork inheritance (nothing is pickled, no queue is shared);
- it runs the simulation with watchdog-enforced budgets and classifies
  the outcome into a typed payload (``ok | failed | timeout``);
- it reports by **atomically renaming a result file into place** --
  a half-written file can never be observed, and a worker SIGKILLed at
  any instant simply leaves no result, which the supervisor detects via
  the process exit status and reschedules.

The ledger is never touched from a worker: the supervisor is the single
writer, so a dying worker cannot leave a truncated manifest behind.
"""

from __future__ import annotations

import copy
import json
import os
from typing import Any, Dict, Optional

from repro.sim.campaign.requests import PreparedRun, RunBudgets
from repro.sim.observability.artifacts import atomic_write, schema_of


def _sanitize_pass(program) -> Dict[str, Any]:
    """Run the program once under the functional simulator with the
    dynamic :class:`~repro.sim.plugins.RaceSanitizer` attached and
    summarize the findings.  The caller owns ``program`` (inputs
    already applied); the run is independent of the cycle-accurate
    measurement run and never perturbs its results."""
    from repro.sim.functional import FunctionalSimulator
    from repro.sim.plugins import RaceSanitizer

    sanitizer = RaceSanitizer()
    FunctionalSimulator(program, sanitizer=sanitizer).run()
    return {
        "clean": sanitizer.clean,
        "races": len(sanitizer.races),
        "kinds": sorted({r.kind for r in sanitizer.races}),
        "findings": [
            {"kind": r.kind, "addr": r.addr, "tsids": list(r.tsids),
             "lines": list(r.lines)}
            for r in sanitizer.races
        ],
    }


def run_attempt(prepared: PreparedRun, budgets: RunBudgets, attempt: int,
                *, isolate: bool = True, sanitize: bool = False,
                telemetry_path: Optional[str] = None,
                telemetry_every: int = 2000) -> Dict[str, Any]:
    """Execute one attempt and classify its outcome.

    ``isolate=True`` means we own our copy of the program (a forked
    child); serial in-process callers pass ``False`` so per-request
    inputs are applied to a deep copy instead of mutating the shared
    ``Program`` object.  ``sanitize=True`` additionally runs the
    dynamic race sanitizer and attaches its findings to the payload and
    (as a non-identity field) the manifest.

    ``telemetry_path`` makes the attempt publish telemetry frames (an
    immediate heartbeat, then one frame every ``telemetry_every``
    cycles) to that JSONL file -- the supervisor tails it for the
    per-campaign stream and no-progress stall detection.  The file is
    written incrementally, so a SIGKILLed worker leaves a valid prefix.
    """
    import time

    from repro.sim.functional import SimulationError
    from repro.sim.observability.ledger import instrumented_run
    from repro.sim.resilience.errors import SimulationBudgetExceeded

    request = prepared.request
    program = prepared.program
    if request.inputs and not isolate:
        program = copy.deepcopy(program)
    telemetry = None
    if telemetry_path is not None:
        from repro.sim.observability.telemetry import (
            JsonlSink,
            TelemetrySampler,
        )

        telemetry = TelemetrySampler(
            every_cycles=telemetry_every,
            sinks=[JsonlSink(telemetry_path)],
            meta={"label": request.label or None,
                  "fingerprint": prepared.fingerprint,
                  "attempt": attempt,
                  "worker_pid": os.getpid()})
    try:
        if request.inputs:
            for name, values in request.inputs.items():
                program.write_global(name, values)
        artifacts = instrumented_run(
            program, prepared.config,
            source=prepared.source,
            program_path=request.program,
            seed=request.seed,
            label=request.label or None,
            max_cycles=(request.max_cycles if request.max_cycles is not None
                        else budgets.max_cycles),
            wall_limit_s=budgets.wall_limit_s,
            max_events=budgets.max_events,
            inputs=request.inputs or None,
            telemetry=telemetry)
        sanitizer_summary = _sanitize_pass(program) if sanitize else None
    except SimulationBudgetExceeded as exc:
        return _failure_payload("timeout", exc, attempt, telemetry)
    except Exception as exc:
        # compile errors, bad globals, simulation errors, stalls: all
        # are per-run failures the supervisor decides how to retry
        return _failure_payload("failed", exc, attempt, telemetry)
    finally:
        if telemetry is not None:
            telemetry.close()
    manifest = dict(artifacts.manifest)
    manifest["campaign"] = {"attempt": attempt, "worker_pid": os.getpid()}
    if sanitizer_summary is not None:
        # run_id is content-addressed over identity fields only, so the
        # sanitizer verdict rides along without changing the identity
        manifest["sanitizer"] = sanitizer_summary
    payload = {
        "schema": schema_of("campaign-attempt"),
        "status": "ok",
        "attempt": attempt,
        "worker_pid": os.getpid(),
        "manifest": manifest,
        **artifacts.payloads(),
        "output": getattr(artifacts.result, "output", "") or "",
    }
    if sanitizer_summary is not None:
        payload["sanitizer"] = sanitizer_summary
    return payload


def _failure_payload(status: str, exc: BaseException, attempt: int,
                     telemetry=None) -> Dict[str, Any]:
    dump = getattr(exc, "dump", None)
    dump_summary: Optional[str] = None
    if dump is not None:
        dump.worker_pid = os.getpid()
        dump.attempt = attempt
        if telemetry is not None and dump.last_telemetry is None:
            dump.last_telemetry = telemetry.last_frame
        dump_summary = dump.summary()
    message = str(exc).splitlines()[0] if str(exc) else ""
    payload = {
        "schema": schema_of("campaign-attempt"),
        "status": status,
        "attempt": attempt,
        "worker_pid": os.getpid(),
        "error_type": type(exc).__name__,
        "error": message,
        "dump_summary": dump_summary,
    }
    if telemetry is not None and telemetry.last_frame is not None:
        # progress at the time of death, for post-mortems even when the
        # exception carried no diagnostic dump
        payload["last_telemetry"] = telemetry.last_frame
    return payload


def worker_entry(prepared: PreparedRun, budgets: RunBudgets, attempt: int,
                 result_path: str, sanitize: bool = False,
                 telemetry_path: Optional[str] = None,
                 telemetry_every: int = 2000) -> None:
    """Process target: run one attempt and publish the verdict."""
    payload = run_attempt(prepared, budgets, attempt, isolate=True,
                          sanitize=sanitize,
                          telemetry_path=telemetry_path,
                          telemetry_every=telemetry_every)
    atomic_write(result_path, json.dumps(payload) + "\n")
