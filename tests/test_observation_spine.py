"""The observation spine: golden artifacts and probe closure.

The files under ``tests/golden/observability/`` pin what one fully
observed run of each committed baseline program writes -- structured
events (the JSONL stream, and the Chrome trace ``xmt-prof chrome``
exports from it), metrics, profile, cycle accounting,
the flight recorder's summary, the cycle-level text trace and the
telemetry frames.  A refactor of the observation path must reproduce
them exactly.  The rest of the module holds the contract of
``machine.obs`` itself: every probe fires, a mistyped consumer method
is rejected, and a consumer written here -- touching neither
``core.py`` nor any component -- sees what ``Stats`` counts.

Regenerate (only when a schema change is intended)::

    PYTHONPATH=src python tests/test_observation_spine.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from collections import Counter

import pytest

from repro.sim import checkpoint as CP
from repro.sim import packages
from repro.sim.config import tiny
from repro.sim.machine import Machine, Simulator
from repro.sim.observability import (
    PROBES,
    CycleAccountant,
    CycleProfiler,
    EventStream,
    FlightRecorder,
    JsonlSink,
    MetricsRegistry,
    Observability,
    TelemetrySampler,
    artifact_json,
    export_accounting,
    export_metrics,
)
from repro.sim.trace import LEVEL_CYCLE, Trace
from repro.toolchain.cli import xmt_prof_main
from repro.xmtc.compiler import compile_source

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden", "observability")
PROGRAMS = ("vecadd", "compact")


def _chrome_export(events_jsonl: str) -> str:
    """What ``xmt-prof chrome RUN`` prints for a run directory holding
    ``events_jsonl`` as its event stream."""
    with tempfile.TemporaryDirectory() as run_dir:
        with open(os.path.join(run_dir, "events.jsonl"), "w") as fh:
            fh.write(events_jsonl)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert xmt_prof_main(["chrome", run_dir]) == 0
    return out.getvalue()


def _mask_host_clock(frame: dict) -> dict:
    """Telemetry frames carry host wall-clock readings; zero them."""
    frame["wall_seconds"] = 0
    frame["interval"]["wall_seconds"] = 0
    frame["interval"]["cycles_per_host_s"] = 0
    return frame


def _baseline_source(name: str) -> str:
    path = os.path.join(ROOT, "benchmarks", "baselines", name, "program.c")
    with open(path) as fh:
        return fh.read()


def _probe_counter():
    """A consumer that hears every probe in the table, and its counts."""
    fired = Counter()
    methods = {probe: lambda self, *args, _probe=probe: fired.update([_probe])
               for probe in PROBES}
    return type("ProbeCounter", (), methods)(), fired


def observed_run(name: str):
    """Run one baseline program on ``tiny`` with every consumer on.

    Returns ``(result, fired, artifacts)``: the probe call counts and a
    map from golden file name to text.
    """
    source = _baseline_source(name)
    program = compile_source(source)
    # package sequence numbers are process-global and appear in events
    # and lifecycle samples: number this run's packages from 1, as in
    # the fresh interpreter that wrote the golden files
    packages._SEQ = 0
    recorder = FlightRecorder()
    events = io.StringIO()
    obs = Observability(events=EventStream(stream_to=events),
                        metrics=MetricsRegistry(),
                        profiler=CycleProfiler(program, source=source),
                        accounting=CycleAccountant(), lifecycle=recorder)
    counter, fired = _probe_counter()
    obs.subscribe(counter)
    trace = Trace(level=LEVEL_CYCLE)
    sim = Simulator(program, tiny(), trace=trace, observability=obs)
    frames = io.StringIO()
    sampler = TelemetrySampler(every_cycles=100, sinks=[JsonlSink(frames)])
    sampler.attach(sim.machine)
    sampler.arm()
    result = sim.run(max_cycles=1_000_000)
    sampler.close()
    machine = sim.machine

    telemetry = "".join(
        json.dumps(_mask_host_clock(json.loads(line)), sort_keys=True) + "\n"
        for line in frames.getvalue().splitlines())
    obs.events.close()
    artifacts = {
        f"{name}.events.jsonl": events.getvalue(),
        f"{name}.chrome.json": _chrome_export(events.getvalue()),
        f"{name}.metrics.json": artifact_json(export_metrics(machine)),
        f"{name}.profile.json": artifact_json(obs.profiler.to_data()),
        f"{name}.accounting.json": artifact_json(
            export_accounting(machine, obs.accounting, cycles=result.cycles)),
        f"{name}.lifecycle.json": artifact_json(recorder.to_data()),
        f"{name}.trace.txt": trace.text() + "\n",
        f"{name}.telemetry.jsonl": telemetry,
    }
    return result, fired, artifacts


@pytest.fixture(scope="module", params=PROGRAMS)
def observed(request):
    return request.param, observed_run(request.param)


def test_artifacts_match_golden_bytes(observed):
    name, (_, _, artifacts) = observed
    for filename, text in artifacts.items():
        with open(os.path.join(GOLDEN, filename)) as fh:
            same = text == fh.read()  # no megabyte diff in the report
        assert same, f"{filename} drifted from its golden"


def test_full_observation_leaves_cycles_alone(observed):
    name, (result, _, _) = observed
    with open(os.path.join(ROOT, "benchmarks", "baselines", name,
                           "manifest.json")) as fh:
        assert result.cycles == json.load(fh)["cycles"]


def test_every_probe_fires(observed):
    name, (_, fired, _) = observed
    assert set(fired) == set(PROBES)


def test_near_miss_method_name_is_rejected():
    class Typo:
        def isued(self, proc, uop):
            pass

    with pytest.raises(ValueError) as info:
        Observability().subscribe(Typo())
    message = str(info.value)
    assert "isued" in message and "'issued'" in message
    assert all(probe in message for probe in PROBES)

    class Deaf:
        def write(self, fh):
            pass

    with pytest.raises(ValueError, match="defines no probe"):
        Observability().subscribe(Deaf())


@pytest.mark.parametrize("method, accepted", [
    (lambda self, proc, cause: None, False),            # the old arity
    (lambda self, proc, cause, first, last, more: None, False),
    (lambda self, proc, cause, first: None, False),
    (lambda self, proc, cause, first, last: None, True),
    (lambda self, proc, cause, first, last, more=0: None, True),
    (lambda self, *args: None, True),
    (lambda self, proc, *rest: None, True),
], ids=["old-arity", "too-many-required", "too-few", "exact",
        "defaulted-extra", "star-args", "partly-starred"])
def test_wrong_arity_fails_at_subscribe(method, accepted):
    """A consumer that cannot take a probe's arguments is rejected when
    it subscribes, with the signature list -- not by a ``TypeError``
    from inside a tick or a settle."""
    consumer = type("Consumer", (), {"stalled": method})()
    obs = Observability()
    if accepted:
        obs.subscribe(consumer)
        assert obs.has_listener("stalled")
        return
    with pytest.raises(ValueError) as info:
        obs.subscribe(consumer)
    message = str(info.value)
    assert "Consumer.stalled cannot be called as " \
        "stalled(proc, cause, first, last)" in message
    assert all(probe in message for probe in PROBES)


class StallCounter:
    """A complete ``stalled`` consumer: a call covers the clusters-
    domain cycles ``first`` to ``last``, one when the processor was
    ticked, many when it slept through them."""

    def __init__(self):
        self.cycles = Counter()

    def stalled(self, proc, cause, first, last):
        self.cycles[f"{proc.kind}.stall.{cause}"] += last - first + 1


def test_ranged_stall_consumer_agrees_with_stats():
    program = compile_source(_baseline_source("compact"))
    obs = Observability()
    mine = StallCounter()
    obs.subscribe(mine)
    result = Simulator(program, tiny(), observability=obs).run(
        max_cycles=1_000_000)
    assert mine.cycles == {key: value
                           for key, value in result.stats.counters.items()
                           if ".stall." in key}
    assert mine.cycles["tcu.stall.memory"] > 0


class IssueReplyCounter:
    """A complete consumer: ten lines, no help from the simulator."""

    def __init__(self):
        self.issues = self.replies = 0

    def issued(self, proc, uop):
        self.issues += 1

    def replied(self, pkg, now):
        self.replies += 1


def test_user_consumer_agrees_with_stats():
    program = compile_source(_baseline_source("compact"))
    obs = Observability()
    mine = IssueReplyCounter()
    obs.subscribe(mine)
    result = Simulator(program, tiny(), observability=obs).run(
        max_cycles=1_000_000)
    assert mine.issues == result.instructions > 0
    assert mine.replies == result.stats.counters["icn.return"] > 0


def test_resubscribe_after_mid_spawn_restore_is_exact():
    """Checkpoint inside a spawn, restore, hand the same consumers to
    the restored machine: identical cycles, accounting still exact."""
    program = compile_source(_baseline_source("vecadd"))
    reference = Machine(program, tiny()).run(max_cycles=1_000_000)

    accountant = CycleAccountant()
    obs = Observability(accounting=accountant, lifecycle=FlightRecorder())
    machine = Machine(program, tiny(), observability=obs)
    payload = CP.run_with_checkpoint(machine, checkpoint_cycle=1100)
    assert payload is not None and machine.parallel_active

    restored = CP.load_bytes(payload)
    assert restored.obs is None
    restored.obs = obs
    obs.attach(restored)
    result = restored.run(max_cycles=1_000_000)
    assert result.cycles == reference.cycles
    accounting = export_accounting(restored, accountant,
                                   cycles=result.cycles)
    assert accounting["exact"]
    assert accounting["attributed_cycles"] == \
        result.cycles * accounting["n_processors"]


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for program_name in PROGRAMS:
        for filename, text in observed_run(program_name)[2].items():
            with open(os.path.join(GOLDEN, filename), "w") as fh:
                fh.write(text)
            print(f"wrote {filename} ({len(text)} bytes)")
