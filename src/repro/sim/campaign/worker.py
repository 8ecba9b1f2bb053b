"""One campaign attempt: run the simulation, classify what happened.

:func:`run_attempt` is everything a worker does, and it touches nothing
shared: it gets a :class:`~repro.sim.campaign.requests.PreparedRun`
(by fork inheritance when the supervisor forked it -- nothing is
pickled on the way in), runs the simulation under the watchdog-enforced
budgets and returns a typed verdict (``ok | failed | timeout``) as a
dict.  How the verdict and the telemetry frames reach the supervisor
is the supervisor's business (:mod:`~repro.sim.campaign.engine`: up a
pipe, or nowhere at all in serial mode); a worker SIGKILLed at any
instant simply never returns one.

The ledger and every campaign file are never touched from here: the
supervisor is the single writer, so a dying worker cannot leave a
truncated manifest behind.
"""

from __future__ import annotations

import copy
import os
from typing import Any, Dict, Optional

from repro.sim.campaign.requests import PreparedRun, RunBudgets


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
                telemetry_sink=None,
                telemetry_every: int = 2000) -> Dict[str, Any]:
    """Execute one attempt and classify its outcome.

    ``isolate=True`` means we own our copy of the program (a forked
    child); serial in-process callers pass ``False`` so per-request
    inputs are applied to a deep copy instead of mutating the shared
    ``Program`` object.  ``sanitize=True`` additionally runs the
    dynamic race sanitizer and attaches its findings to the payload and
    (as a non-identity field) the manifest.

    ``telemetry_sink`` (anything with ``write_line(str)``; the caller
    owns and closes it) makes the attempt publish telemetry frames: one
    as the run starts, one every ``telemetry_every`` cycles, and a
    ``final`` one however the run ends.
    """
    from repro.sim.functional import SimulationError
    from repro.sim.observability.ledger import instrumented_run
    from repro.sim.resilience.errors import SimulationBudgetExceeded

    request = prepared.request
    program = prepared.program
    if request.inputs and not isolate:
        program = copy.deepcopy(program)
    telemetry = None
    if telemetry_sink is not None:
        from repro.sim.observability.telemetry import TelemetrySampler

        telemetry = TelemetrySampler(
            every_cycles=telemetry_every,
            sinks=[telemetry_sink],
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
    manifest = dict(artifacts.manifest)
    manifest["campaign"] = {"attempt": attempt, "worker_pid": os.getpid()}
    if sanitizer_summary is not None:
        # run_id is content-addressed over identity fields only, so the
        # sanitizer verdict rides along without changing the identity
        manifest["sanitizer"] = sanitizer_summary
    payload = {
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
