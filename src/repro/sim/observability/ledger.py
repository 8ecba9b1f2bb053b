"""The experiment ledger: versioned, diffable records of simulator runs.

A single instrumented run produces rich telemetry (metrics, profiles,
traces) but answers no architectural question by itself -- the paper's
methodology is *re-running* workloads across simulator configurations
and comparing.  The ledger is the missing bookkeeping layer: every run
emits a **run manifest** (schema ``xmtsim-run/1``) pinning down what
exactly was simulated --

- the program (assembly hash, plus the XMTC source hash when compiled
  on the fly),
- the fully resolved :class:`~repro.sim.config.XMTConfig` as a dict and
  its content hash,
- the seed (when a seeded component is involved), the repository git
  revision, the toolchain version,
- the outcome: cycle count, instruction count, host wall seconds

-- and the manifest is bundled with the run's metrics
(``xmtsim-metrics/1``) and cycle-profile (``xmt-prof/1``) exports into
a **content-addressed ledger directory**::

    <ledger>/runs/<run_id>/manifest.json
                           metrics.json
                           profile.json

``run_id`` is a truncated SHA-256 over the deterministic identity of
the run (program hash, config hash, seed, label, cycle count), so
re-recording a bit-identical run is idempotent and two runs that differ
in any input land in different directories.  ``xmtsim --ledger DIR``
records into a ledger from the command line;
:class:`Ledger`/:func:`instrumented_run` are the Python API; the
``xmt-compare`` tool (:mod:`~repro.sim.observability.compare`) diffs
what the ledger accumulates.
"""

from __future__ import annotations

import functools
import hashlib
import os
import subprocess
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.sim.observability.artifacts import (
    artifact_json,
    atomic_write,
    canonical_json,
    load_artifact,
    read_jsonl,
    run_file,
    schema_of,
)

#: manifest fields excluded from the content address (host-dependent
#: or informational -- two runs differing only here are the same run).
#: ``campaign`` carries attempt/worker bookkeeping: the same run executed
#: by a different worker or on a retry is still the same run.
_NON_IDENTITY_FIELDS = ("wall_seconds", "created_unix", "git_revision",
                       "run_id", "campaign")


def sha256_text(text: str) -> str:
    """Hex SHA-256 of a text blob (program sources, canonical JSON)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def program_sha256(program) -> str:
    """Content hash of what actually runs: the assembly text."""
    asm_text = getattr(program, "source", None) or "\n".join(
        repr(ins) for ins in program.instructions)
    return sha256_text(asm_text)


def config_fingerprint(config) -> Dict[str, Any]:
    """``(dict, hash)`` of a fully resolved :class:`XMTConfig`."""
    d = asdict(config)
    return {"config": d, "config_sha256": sha256_text(canonical_json(d))}


@functools.lru_cache(maxsize=None)
def git_revision() -> Optional[str]:
    """The git commit of the checkout the ``repro`` package was
    imported from, or ``None`` outside a repository.

    Asked about the package's directory, not the working directory (a
    run started elsewhere still names the code that ran), and once per
    process: every manifest carries it, and each ``git rev-parse`` is a
    process start.
    """
    import repro
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], timeout=10,
            cwd=os.path.dirname(os.path.realpath(repro.__file__)),
            capture_output=True, text=True)
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def toolchain_version() -> str:
    try:
        from repro import __version__
        return __version__
    except ImportError:  # pragma: no cover - package always importable
        return "unknown"


def build_manifest(program, config, *, cycles: int, instructions: int,
                   wall_seconds: float, source: Optional[str] = None,
                   program_path: Optional[str] = None,
                   seed: Optional[int] = None,
                   label: Optional[str] = None,
                   inputs: Optional[Dict[str, Any]] = None,
                   extra: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Assemble one ``xmtsim-run/1`` manifest (including its run id).

    ``source`` is the XMTC text when the program was compiled on the
    fly (its hash identifies the *input*; the assembly hash identifies
    what actually ran, so a compiler change shows up as a new program
    hash under an unchanged source hash).

    ``inputs`` records global-memory initialisation (``--set`` values);
    it is part of the run identity because the assembly hash does not
    cover the data image.  ``extra`` merges additional identity fields
    into the manifest -- both are omitted when empty so pre-existing
    run ids stay stable.
    """
    manifest: Dict[str, Any] = {
        "schema": schema_of("manifest"),
        "label": label,
        "program": {
            "path": program_path,
            "sha256": program_sha256(program),
            "source_sha256": (sha256_text(source)
                              if source is not None else None),
            "n_instructions": len(program.instructions),
        },
        "seed": seed,
        "cycles": cycles,
        "instructions": instructions,
        "wall_seconds": round(wall_seconds, 4),
        "git_revision": git_revision(),
        "toolchain_version": toolchain_version(),
        "created_unix": round(time.time(), 3),
    }
    if inputs:
        manifest["inputs"] = inputs
    if extra:
        manifest.update(extra)
    manifest.update(config_fingerprint(config))
    manifest["run_id"] = manifest_run_id(manifest)
    return manifest


def manifest_run_id(manifest: Dict[str, Any]) -> str:
    """Content address: hash of the deterministic manifest fields."""
    identity = {k: v for k, v in manifest.items()
                if k not in _NON_IDENTITY_FIELDS}
    return sha256_text(canonical_json(identity))[:12]


def request_fingerprint(*, program_sha: str, source_sha: Optional[str],
                        config_sha: str, seed: Optional[int],
                        label: Optional[str],
                        inputs: Dict[str, Any]) -> str:
    """The dedup key both run requests and manifests reduce to.

    Unlike ``run_id`` it excludes the outcome (cycle counts), so it is
    computable *before* a run -- which is what campaign dedup/resume
    needs.  Re-exported by :mod:`repro.sim.campaign.requests`.
    """
    identity = {
        "program_sha256": program_sha,
        "source_sha256": source_sha,
        "config_sha256": config_sha,
        "seed": seed,
        "label": label or None,
        "inputs": inputs or {},
    }
    return sha256_text(canonical_json(identity))[:16]


def fingerprint_of_manifest(manifest: Dict[str, Any]) -> str:
    """Fingerprint of an already recorded ``xmtsim-run/1`` manifest."""
    program = manifest.get("program") or {}
    return request_fingerprint(
        program_sha=program.get("sha256") or "",
        source_sha=program.get("source_sha256"),
        config_sha=manifest.get("config_sha256") or "",
        seed=manifest.get("seed"),
        label=manifest.get("label"),
        inputs=manifest.get("inputs") or {})


@dataclass
class RunRecord:
    """One ledger entry: the manifest plus lazily loaded payloads."""

    run_id: str
    manifest: Dict[str, Any]
    path: Optional[str] = None
    #: what the run recorded next to its manifest, by artifact name
    #: (``metrics``, ``profile``, ``accounting``, ``lifecycle``,
    #: ``power``): given for a fresh run, else filled from ``path``
    payloads: Dict[str, Dict[str, Any]] = field(default_factory=dict,
                                                repr=False)

    @property
    def cycles(self) -> int:
        return self.manifest["cycles"]

    @property
    def label(self) -> str:
        return self.manifest.get("label") or self.run_id

    def config_value(self, key: str) -> Any:
        return self.manifest["config"].get(key)

    def payload(self, name: str) -> Optional[Dict[str, Any]]:
        """The run's artifact ``name``, loaded from the run directory
        (and checked against its schema) on first use; ``None`` if the
        run did not record one."""
        if name not in self.payloads and self.path is not None:
            path = run_file(self.path, name)
            if os.path.exists(path):
                self.payloads[name] = load_artifact(path, name)
        return self.payloads.get(name)


def load_run(path: str) -> RunRecord:
    """Load a run record from a run directory or a manifest.json path.

    Accepts what ``xmt-compare`` users point at: the run directory the
    ledger created, or the ``manifest.json`` inside it (a committed
    baseline is just such a directory under version control).
    """
    if os.path.isdir(path):
        manifest_path = run_file(path, "manifest")
    else:
        manifest_path = path
        path = os.path.dirname(path) or "."
    manifest = load_artifact(manifest_path, "manifest")
    return RunRecord(run_id=manifest.get("run_id") or
                     manifest_run_id(manifest),
                     manifest=manifest, path=path)


def write_run_dir(run_dir: str, manifest: Dict[str, Any],
                  payloads: Optional[Dict[str, Dict[str, Any]]] = None
                  ) -> RunRecord:
    """Write one run-record directory: the manifest plus ``payloads``,
    artifact name -> payload (:meth:`RunArtifacts.payloads`), each
    under the file name the artifact table gives it.

    The primitive under :meth:`Ledger.record`; also used directly by
    ``xmt-compare check --update-baseline`` to refresh a committed
    baseline directory in place.  No payload enters the manifest, so
    they are non-identity by construction.
    """
    run_id = manifest.get("run_id") or manifest_run_id(manifest)
    manifest = dict(manifest, run_id=run_id)
    payloads = dict(payloads or {})
    os.makedirs(run_dir, exist_ok=True)
    for name, payload in [("manifest", manifest), *payloads.items()]:
        with open(run_file(run_dir, name), "w") as fh:
            fh.write(artifact_json(payload))
    return RunRecord(run_id=run_id, manifest=manifest, path=run_dir,
                     payloads=payloads)


class Ledger:
    """A directory of recorded runs, addressed by content hash."""

    def __init__(self, root: str):
        self.root = root

    @property
    def runs_dir(self) -> str:
        return os.path.join(self.root, "runs")

    def _run_dir(self, run_id: str) -> str:
        return os.path.join(self.runs_dir, run_id)

    @property
    def campaigns_dir(self) -> str:
        return os.path.join(self.root, "campaigns")

    def campaign_dir(self, campaign_id: str) -> str:
        """Per-campaign scratch area (attempt log, summary); created on
        first use so a read-only ledger stays untouched."""
        path = os.path.join(self.campaigns_dir, campaign_id)
        os.makedirs(path, exist_ok=True)
        return path

    @property
    def index_path(self) -> str:
        """The compact dedup index: one ``(fingerprint, run_id)`` JSON
        line per recorded run, appended on :meth:`record`.  Lets
        campaign resume skip loading every full manifest (O(runs) at
        startup)."""
        return os.path.join(self.root, "index.jsonl")

    # -- writing -------------------------------------------------------------

    def record(self, manifest: Dict[str, Any],
               payloads: Optional[Dict[str, Dict[str, Any]]] = None
               ) -> RunRecord:
        """Persist one run (see :func:`write_run_dir`); returns its
        record.  Idempotent: recording a bit-identical run rewrites the
        same directory."""
        run_id = manifest.get("run_id") or manifest_run_id(manifest)
        record = write_run_dir(self._run_dir(run_id), manifest, payloads)
        self._index_add(record.manifest)
        return record

    @staticmethod
    def _index_line(manifest: Dict[str, Any]) -> Dict[str, Any]:
        return {"fingerprint": fingerprint_of_manifest(manifest),
                "run_id": manifest.get("run_id") or manifest_run_id(manifest)}

    def _index_add(self, manifest: Dict[str, Any]) -> None:
        if not os.path.exists(self.index_path):
            # ledger predates the index (or is brand new): backfill a
            # complete one so the fast path covers historical runs too
            self.rebuild_index()
            return
        with open(self.index_path, "a") as fh:
            fh.write(canonical_json(self._index_line(manifest)) + "\n")

    def rebuild_index(self) -> int:
        """(Re)write ``index.jsonl`` from every readable run directory;
        returns the number of entries.  Atomic: readers never observe a
        truncated index."""
        lines = []
        if os.path.isdir(self.runs_dir):
            for run_id in sorted(os.listdir(self.runs_dir)):
                try:
                    manifest = load_artifact(
                        run_file(self._run_dir(run_id), "manifest"),
                        "manifest")
                except (OSError, ValueError):
                    continue
                lines.append(canonical_json(self._index_line(manifest)))
        os.makedirs(self.root, exist_ok=True)
        atomic_write(self.index_path,
                     "".join(line + "\n" for line in lines))
        return len(lines)

    def load_index(self) -> Dict[str, str]:
        """``fingerprint -> run_id`` from ``index.jsonl`` (last entry
        wins on duplicates).  A ledger without an index -- one written
        before the index existed -- gets it rebuilt first."""
        if not os.path.exists(self.index_path):
            self.rebuild_index()
        return {entry["fingerprint"]: entry["run_id"]
                for entry in read_jsonl(self.index_path)
                if entry.get("fingerprint") and entry.get("run_id")}

    def record_artifacts(self, artifacts: "RunArtifacts") -> RunRecord:
        return self.record(artifacts.manifest, artifacts.payloads())

    # -- reading -------------------------------------------------------------

    def list_runs(self) -> List[RunRecord]:
        """All recorded runs, oldest first."""
        if not os.path.isdir(self.runs_dir):
            return []
        records = []
        for run_id in sorted(os.listdir(self.runs_dir)):
            if os.path.exists(run_file(self._run_dir(run_id), "manifest")):
                records.append(load_run(self._run_dir(run_id)))
        records.sort(key=lambda r: r.manifest.get("created_unix") or 0)
        return records

    def load(self, run_id: str) -> RunRecord:
        """Load one run by id or unambiguous id prefix."""
        exact = self._run_dir(run_id)
        if os.path.isdir(exact):
            return load_run(exact)
        matches = ([d for d in sorted(os.listdir(self.runs_dir))
                    if d.startswith(run_id)]
                   if os.path.isdir(self.runs_dir) else [])
        if not matches:
            raise KeyError(f"no run {run_id!r} in ledger {self.root}")
        if len(matches) > 1:
            raise KeyError(f"ambiguous run id prefix {run_id!r}: "
                           f"{', '.join(matches)}")
        return load_run(self._run_dir(matches[0]))

    def query(self, predicate: Callable[[Dict[str, Any]], bool]
              ) -> List[RunRecord]:
        """Runs whose manifest satisfies ``predicate``."""
        return [r for r in self.list_runs() if predicate(r.manifest)]

    def query_config(self, **fields: Any) -> List[RunRecord]:
        """Runs whose resolved config matches every given field value,
        e.g. ``ledger.query_config(n_clusters=8, dram_latency=25)``."""
        return self.query(
            lambda m: all(m["config"].get(k) == v
                          for k, v in fields.items()))


@dataclass
class RunArtifacts:
    """Everything one instrumented run produced, pre-persistence."""

    manifest: Dict[str, Any]
    #: ``None`` when the run had no metrics registry / no profiler
    metrics: Optional[Dict[str, Any]]
    profile: Optional[Dict[str, Any]]
    result: Any  # the CycleResult
    #: ``xmt-accounting/1`` payload when cycle accounting was enabled
    accounting: Optional[Dict[str, Any]] = None
    #: extra artifacts recorded as ``<name>.json`` (``lifecycle``,
    #: ``power``, ...); never part of the manifest / run identity
    extras: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def payloads(self) -> Dict[str, Dict[str, Any]]:
        """Everything but the manifest that was produced, by artifact
        name: what :func:`write_run_dir` writes next to it."""
        named = {"metrics": self.metrics, "profile": self.profile,
                 "accounting": self.accounting, **self.extras}
        return {name: payload for name, payload in named.items()
                if payload is not None}

    def as_record(self) -> RunRecord:
        return RunRecord(run_id=self.manifest["run_id"],
                         manifest=self.manifest, payloads=self.payloads())


def power_profile_payload(plugin) -> Dict[str, Any]:
    """Serialize a :class:`~repro.power.dtm.PowerThermalPlugin`'s
    activity/power history as a ledger artifact (``xmt-power/1``).

    Recorded via ``instrumented_run(power=...)`` so power phases line up
    with cycle-accounting phases through the shared ``run_id``.
    """
    history = [{"time_ps": t, "power_w": round(p, 4),
                "max_temp_c": round(temp, 3), "scale": s}
               for t, p, temp, s in plugin.history]
    payload: Dict[str, Any] = {
        "schema": schema_of("power"),
        "interval_cycles": getattr(plugin, "interval_cycles",
                                   getattr(plugin, "interval", None)),
        "samples": len(history),
        "history": history,
        "peak_temperature": round(plugin.peak_temperature(), 3),
        "throttled_fraction": round(plugin.throttled_fraction(), 4),
    }
    if plugin.power_maps:
        payload["final_power_map"] = {
            k: round(v, 4) for k, v in plugin.power_maps[-1].items()}
    return payload


def collect_artifacts(machine, result, wall_seconds: float,
                      **manifest_fields) -> RunArtifacts:
    """Fold a finished machine into ledger-ready artifacts.

    The one place a run becomes files-to-be: the manifest (``result``
    supplies ``cycles``/``instructions``; ``manifest_fields`` are
    :func:`build_manifest`'s keywords -- source, program_path, seed,
    label, inputs, extra) plus one export per consumer subscribed on
    ``machine.obs`` -- metrics, profile, accounting, the lifecycle
    summary (none of them when nobody observed the run).
    :func:`instrumented_run` ends here.
    """
    from repro.sim.observability.lifecycle import export_accounting
    from repro.sim.observability.metrics import export_metrics

    metrics, profiler, accounting, lifecycle = (
        getattr(machine.obs, name, None)
        for name in ("metrics", "profiler", "accounting", "lifecycle"))
    return RunArtifacts(
        manifest=build_manifest(
            machine.program, machine.config, cycles=result.cycles,
            instructions=result.instructions, wall_seconds=wall_seconds,
            **manifest_fields),
        metrics=export_metrics(machine) if metrics is not None else None,
        profile=profiler.to_data() if profiler is not None else None,
        result=result,
        accounting=(export_accounting(machine, accounting,
                                      cycles=result.cycles)
                    if accounting is not None else None),
        extras=({"lifecycle": lifecycle.to_data()}
                if lifecycle is not None else {}))


#: what :func:`instrumented_run` can ``observe``: the artifacts of a run
#: directory besides its manifest, except telemetry (a sampler the
#: caller builds and passes as ``telemetry``)
OBSERVABLE = ("metrics", "profile", "accounting", "lifecycle", "events")


def instrumented_run(program, config, *,
                     observe: Sequence[str] = ("metrics", "profile"),
                     out: Optional[str] = None,
                     source: Optional[str] = None,
                     program_path: Optional[str] = None,
                     seed: Optional[int] = None,
                     label: Optional[str] = None,
                     max_cycles: Optional[int] = None,
                     wall_limit_s: Optional[float] = None,
                     max_events: Optional[int] = None,
                     inputs: Optional[Dict[str, Any]] = None,
                     telemetry=None, accounting: bool = False,
                     recorder=None, power=None, plugins=(),
                     trace=None) -> RunArtifacts:
    """Build, run and record one cycle-accurate run of ``program``
    under ``config``: the one way a recorded cycle run is made, behind
    ``xmtsim``, ``xmt-compare check``, the campaign workers and the
    benchmark.

    ``observe`` names the consumers to subscribe, from
    :data:`OBSERVABLE`; an empty one is a plain run, whose artifacts
    are the manifest alone.  ``out`` is a run directory: the ``events``
    and ``lifecycle`` streams are written there live (``events`` needs
    it), and the manifest and payloads when the run ends.  A run the
    watchdog or a budget stops leaves the manifest alone there, with
    the cycle it stopped at and an ``ended`` identity field
    (``"stalled"`` or ``"budget"``; a completed run has none), before
    the exception propagates.
    ``wall_limit_s``/``max_events`` are enforced by the watchdog
    (raising ``SimulationBudgetExceeded``), giving campaign workers
    hard per-run budgets.  ``telemetry`` takes an un-attached
    :class:`~repro.sim.observability.telemetry.TelemetrySampler`: it is
    armed on the machine for the duration of the run and emits its
    final frame even when the run dies on a budget -- the caller owns
    (and closes) its sinks.  ``plugins`` and ``trace`` go to the
    :class:`~repro.sim.machine.Simulator` as they are.

    ``accounting=True`` is ``"accounting"`` in ``observe``: it arms a
    :class:`~repro.sim.observability.lifecycle.CycleAccountant` and a
    default :class:`~repro.sim.observability.lifecycle.FlightRecorder`
    (so memory stalls split by layer) and fills
    :attr:`RunArtifacts.accounting`/``extras["lifecycle"]``; so does
    ``"lifecycle"`` without the accountant.  Pass ``recorder`` to
    control sampling, or alone for lifecycles without accounting.
    ``power`` takes a :class:`~repro.power.dtm.PowerThermalPlugin`; its
    profile is recorded as the non-identity ``power`` artifact.
    """
    from repro.sim.machine import Simulator
    from repro.sim.observability.core import Observability
    from repro.sim.observability.events import EventStream
    from repro.sim.observability.lifecycle import (
        CycleAccountant, FlightRecorder)
    from repro.sim.observability.metrics import MetricsRegistry
    from repro.sim.observability.profiler import CycleProfiler
    from repro.sim.resilience.errors import (SimulationBudgetExceeded,
                                             SimulationStalled)

    names = set(observe) | ({"accounting"} if accounting else set())
    unknown = sorted(names.difference(OBSERVABLE))
    if unknown:
        raise ValueError(f"cannot observe {', '.join(unknown)} (choose "
                         f"from {', '.join(OBSERVABLE)})")
    if "events" in names and out is None:
        raise ValueError("the events stream needs an out directory")
    if out is not None:
        os.makedirs(out, exist_ok=True)
    if recorder is None and names & {"accounting", "lifecycle"}:
        recorder = FlightRecorder()
    if power is not None:
        plugins = (*plugins, power)
    streams = []  # what this run writes live, closed however it ends
    start = time.perf_counter()
    try:
        if "lifecycle" in names and out is not None:
            recorder.stream_to(run_file(out, "lifecycle-stream"))
            streams.append(recorder)
        events = None
        if "events" in names:
            events = EventStream(retain=False,
                                 stream_to=run_file(out, "events"))
            streams.append(events)
        obs = None
        if names or recorder is not None:
            obs = Observability(
                events=events,
                metrics=MetricsRegistry() if "metrics" in names else None,
                profiler=(CycleProfiler(program, source=source)
                          if "profile" in names else None),
                accounting=(CycleAccountant() if "accounting" in names
                            else None),
                lifecycle=recorder)
        sim = Simulator(program, config, plugins=plugins, trace=trace,
                        observability=obs)
        if telemetry is not None:
            if telemetry.eta_cycles is None:
                telemetry.eta_cycles = max_cycles
            telemetry.attach(sim.machine)
            telemetry.arm()
        try:
            result = sim.run(max_cycles=max_cycles,
                             wall_limit_s=wall_limit_s, max_events=max_events)
        except (SimulationStalled, SimulationBudgetExceeded) as exc:
            if out is not None:
                # a stopped run is still a run: its manifest says how far
                # it got and how it ended, beside the streams it wrote
                ended = ("stalled" if isinstance(exc, SimulationStalled)
                         else "budget")
                machine = sim.machine
                machine.settle()
                write_run_dir(out, build_manifest(
                    machine.program, machine.config,
                    cycles=(machine.scheduler.now
                            // machine.config.cluster_period),
                    instructions=machine.stats.instruction_total(),
                    wall_seconds=time.perf_counter() - start, source=source,
                    program_path=program_path, seed=seed, label=label,
                    inputs=inputs, extra={"ended": ended}))
            raise
    finally:
        if telemetry is not None:
            telemetry.finish()
        for stream in streams:
            stream.close()
    artifacts = collect_artifacts(
        sim.machine, result, time.perf_counter() - start, source=source,
        program_path=program_path, seed=seed, label=label, inputs=inputs)
    if power is not None:
        artifacts.extras["power"] = power_profile_payload(power)
    if out is not None:
        write_run_dir(out, artifacts.manifest, artifacts.payloads())
    return artifacts
