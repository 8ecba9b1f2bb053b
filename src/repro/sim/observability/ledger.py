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
- the seed (when a seeded component such as a fault campaign is
  involved), the repository git revision, the toolchain version,
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

import hashlib
import json
import os
import subprocess
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional

SCHEMA_RUN = "xmtsim-run/1"

#: manifest fields excluded from the content address (host-dependent
#: or informational -- two runs differing only here are the same run).
#: ``campaign`` carries attempt/worker bookkeeping: the same run executed
#: by a different worker or on a retry is still the same run.
_NON_IDENTITY_FIELDS = ("wall_seconds", "created_unix", "git_revision",
                       "run_id", "campaign")


def sha256_text(text: str) -> str:
    """Hex SHA-256 of a text blob (program sources, canonical JSON)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical_json(payload: Any) -> str:
    """Deterministic JSON used for every content hash in the ledger."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


_canonical = canonical_json


def artifact_json(payload: Any) -> str:
    """The on-disk text of every ``*.json`` run artifact (the goldens
    under ``tests/golden/observability`` pin it byte for byte)."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def program_sha256(program) -> str:
    """Content hash of what actually runs: the assembly text."""
    asm_text = getattr(program, "source", None) or "\n".join(
        repr(ins) for ins in program.instructions)
    return sha256_text(asm_text)


def config_fingerprint(config) -> Dict[str, Any]:
    """``(dict, hash)`` of a fully resolved :class:`XMTConfig`."""
    d = asdict(config)
    return {"config": d, "config_sha256": sha256_text(_canonical(d))}


def git_revision(cwd: Optional[str] = None) -> Optional[str]:
    """Current git commit hash, or ``None`` outside a repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=cwd, timeout=10,
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
    into the manifest (e.g. the fault spec of an injected run) -- both
    are omitted when empty so pre-existing run ids stay stable.
    """
    manifest: Dict[str, Any] = {
        "schema": SCHEMA_RUN,
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
    return sha256_text(_canonical(identity))[:12]


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


def load_manifest(path: str) -> Dict[str, Any]:
    """Load a manifest file, checking the ``xmtsim-run/1`` schema."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or data.get("schema") != SCHEMA_RUN:
        got = data.get("schema") if isinstance(data, dict) else type(data)
        raise ValueError(f"{path}: not an xmtsim run manifest "
                         f"(schema={got!r}, expected {SCHEMA_RUN!r})")
    return data


@dataclass
class RunRecord:
    """One ledger entry: the manifest plus lazily loaded payloads."""

    run_id: str
    manifest: Dict[str, Any]
    path: Optional[str] = None
    #: in-memory payloads (set for fresh runs not yet on disk)
    _metrics: Optional[Dict[str, Any]] = field(default=None, repr=False)
    _profile: Optional[Dict[str, Any]] = field(default=None, repr=False)
    _accounting: Optional[Dict[str, Any]] = field(default=None, repr=False)
    _lifecycle: Optional[Dict[str, Any]] = field(default=None, repr=False)

    @property
    def cycles(self) -> int:
        return self.manifest["cycles"]

    @property
    def label(self) -> str:
        return self.manifest.get("label") or self.run_id

    def config_value(self, key: str) -> Any:
        return self.manifest["config"].get(key)

    def _payload(self, name: str, loader) -> Optional[Dict[str, Any]]:
        """``<name>.json`` of the run directory, loaded (and schema-
        checked by ``loader``) on first use; ``None`` if not recorded."""
        if getattr(self, "_" + name) is None and self.path is not None:
            p = os.path.join(self.path, f"{name}.json")
            if os.path.exists(p):
                setattr(self, "_" + name, loader(p))
        return getattr(self, "_" + name)

    def metrics(self) -> Optional[Dict[str, Any]]:
        """The run's ``xmtsim-metrics/1`` payload, if recorded."""
        from repro.sim.observability.metrics import load_metrics
        return self._payload("metrics", load_metrics)

    def profile(self) -> Optional[Dict[str, Any]]:
        """The run's ``xmt-prof/1`` payload, if recorded."""
        from repro.sim.observability.profiler import load_profile
        return self._payload("profile", load_profile)

    def accounting(self) -> Optional[Dict[str, Any]]:
        """The run's ``xmt-accounting/1`` payload, if recorded."""
        from repro.sim.observability.lifecycle import load_accounting
        return self._payload("accounting", load_accounting)

    def lifecycle(self) -> Optional[Dict[str, Any]]:
        """The run's ``xmt-lifecycle/1`` summary, if recorded."""
        from repro.sim.observability.lifecycle import load_lifecycle
        return self._payload("lifecycle", load_lifecycle)

    def artifact(self, name: str) -> Optional[Dict[str, Any]]:
        """Any extra JSON artifact in the run directory (``power``,
        ...); extras never enter the manifest, so they cannot perturb
        the run id."""
        if self.path is None:
            return None
        p = os.path.join(self.path, f"{name}.json")
        if not os.path.exists(p):
            return None
        with open(p) as fh:
            return json.load(fh)


def load_run(path: str) -> RunRecord:
    """Load a run record from a run directory or a manifest.json path.

    Accepts what ``xmt-compare`` users point at: the run directory the
    ledger created, or the ``manifest.json`` inside it (a committed
    baseline is just such a directory under version control).
    """
    if os.path.isdir(path):
        manifest_path = os.path.join(path, "manifest.json")
    else:
        manifest_path = path
        path = os.path.dirname(path) or "."
    manifest = load_manifest(manifest_path)
    return RunRecord(run_id=manifest.get("run_id") or
                     manifest_run_id(manifest),
                     manifest=manifest, path=path)


def write_run_dir(run_dir: str, manifest: Dict[str, Any],
                  metrics: Optional[Dict[str, Any]] = None,
                  profile: Optional[Dict[str, Any]] = None,
                  accounting: Optional[Dict[str, Any]] = None,
                  extras: Optional[Dict[str, Dict[str, Any]]] = None
                  ) -> RunRecord:
    """Write one run-record directory (manifest + optional payloads).

    The primitive under :meth:`Ledger.record`; also used directly by
    ``xmt-compare check --update-baseline`` to refresh a committed
    baseline directory in place.  ``extras`` maps artifact names to
    payloads written as ``<name>.json`` next to the manifest (e.g.
    ``lifecycle``, ``power``); none of the optional payloads enter the
    manifest, so they are non-identity by construction.
    """
    run_id = manifest.get("run_id") or manifest_run_id(manifest)
    manifest = dict(manifest, run_id=run_id)
    os.makedirs(run_dir, exist_ok=True)
    payloads = [("manifest.json", manifest)]
    if metrics is not None:
        payloads.append(("metrics.json", metrics))
    if profile is not None:
        payloads.append(("profile.json", profile))
    if accounting is not None:
        payloads.append(("accounting.json", accounting))
    for name, payload in (extras or {}).items():
        payloads.append((f"{name}.json", payload))
    for name, payload in payloads:
        with open(os.path.join(run_dir, name), "w") as fh:
            fh.write(artifact_json(payload))
    return RunRecord(run_id=run_id, manifest=manifest, path=run_dir,
                     _metrics=metrics, _profile=profile,
                     _accounting=accounting,
                     _lifecycle=(extras or {}).get("lifecycle"))


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
        startup); readers fall back to a full scan when absent."""
        return os.path.join(self.root, "index.jsonl")

    # -- writing -------------------------------------------------------------

    def record(self, manifest: Dict[str, Any],
               metrics: Optional[Dict[str, Any]] = None,
               profile: Optional[Dict[str, Any]] = None,
               accounting: Optional[Dict[str, Any]] = None,
               extras: Optional[Dict[str, Dict[str, Any]]] = None
               ) -> RunRecord:
        """Persist one run; returns its record.  Idempotent: recording
        a bit-identical run rewrites the same directory."""
        run_id = manifest.get("run_id") or manifest_run_id(manifest)
        record = write_run_dir(self._run_dir(run_id),
                               dict(manifest, run_id=run_id),
                               metrics, profile, accounting, extras)
        self._index_add(record.manifest)
        return record

    @staticmethod
    def _index_line(manifest: Dict[str, Any]) -> Dict[str, Any]:
        line: Dict[str, Any] = {
            "fingerprint": fingerprint_of_manifest(manifest),
            "run_id": manifest.get("run_id") or manifest_run_id(manifest),
        }
        if manifest.get("fault"):
            # injected runs never answer clean requests; mark them so
            # index readers can skip without loading the manifest
            line["fault"] = True
        return line

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
        returns the number of entries.  Atomic (tmp + rename): readers
        never observe a truncated index."""
        lines = []
        if os.path.isdir(self.runs_dir):
            for run_id in sorted(os.listdir(self.runs_dir)):
                manifest_path = os.path.join(self.runs_dir, run_id,
                                             "manifest.json")
                try:
                    manifest = load_manifest(manifest_path)
                except (OSError, ValueError, json.JSONDecodeError):
                    continue
                lines.append(canonical_json(self._index_line(manifest)))
        os.makedirs(self.root, exist_ok=True)
        tmp = f"{self.index_path}.tmp.{os.getpid()}"
        with open(tmp, "w") as fh:
            fh.write("".join(line + "\n" for line in lines))
        os.replace(tmp, self.index_path)
        return len(lines)

    def load_index(self) -> Optional[Dict[str, str]]:
        """``fingerprint -> run_id`` from ``index.jsonl``, skipping
        fault-injected entries (last entry wins on duplicates).
        Returns ``None`` when no index exists -- callers then fall back
        to a full manifest scan."""
        if not os.path.exists(self.index_path):
            return None
        mapping: Dict[str, str] = {}
        with open(self.index_path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn tail write: ignore, stay usable
                fingerprint = entry.get("fingerprint")
                run_id = entry.get("run_id")
                if not fingerprint or not run_id:
                    continue
                if entry.get("fault"):
                    continue  # injected run: never answers clean requests
                mapping[fingerprint] = run_id
        return mapping

    def record_artifacts(self, artifacts: "RunArtifacts") -> RunRecord:
        return self.record(artifacts.manifest, artifacts.metrics,
                           artifacts.profile, artifacts.accounting,
                           artifacts.extras or None)

    # -- reading -------------------------------------------------------------

    def list_runs(self) -> List[RunRecord]:
        """All recorded runs, oldest first."""
        if not os.path.isdir(self.runs_dir):
            return []
        records = []
        for run_id in sorted(os.listdir(self.runs_dir)):
            manifest_path = os.path.join(self._run_dir(run_id),
                                         "manifest.json")
            if os.path.exists(manifest_path):
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
    result: Any  # CycleResult (PartialResult for a salvaged run)
    #: ``xmt-accounting/1`` payload when cycle accounting was enabled
    accounting: Optional[Dict[str, Any]] = None
    #: extra artifacts recorded as ``<name>.json`` (``lifecycle``,
    #: ``power``, ...); never part of the manifest / run identity
    extras: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def as_record(self) -> RunRecord:
        return RunRecord(run_id=self.manifest["run_id"],
                         manifest=self.manifest,
                         _metrics=self.metrics, _profile=self.profile,
                         _accounting=self.accounting,
                         _lifecycle=self.extras.get("lifecycle"))


SCHEMA_POWER = "xmt-power/1"


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
        "schema": SCHEMA_POWER,
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
    summary.  :func:`instrumented_run` ends here and so does
    ``xmtsim``, so a run recorded by either has the same ``run_id``.
    """
    from repro.sim.observability.lifecycle import export_accounting
    from repro.sim.observability.metrics import export_metrics

    obs = machine.obs
    return RunArtifacts(
        manifest=build_manifest(
            machine.program, machine.config, cycles=result.cycles,
            instructions=result.instructions, wall_seconds=wall_seconds,
            **manifest_fields),
        metrics=export_metrics(machine) if obs.metrics is not None else None,
        profile=(obs.profiler.to_data()
                 if obs.profiler is not None else None),
        result=result,
        accounting=(export_accounting(machine, obs.accounting,
                                      cycles=result.cycles)
                    if obs.accounting is not None else None),
        extras=({"lifecycle": obs.lifecycle.to_data()}
                if obs.lifecycle is not None else {}))


def instrumented_run(program, config, *, source: Optional[str] = None,
                     program_path: Optional[str] = None,
                     seed: Optional[int] = None,
                     label: Optional[str] = None,
                     max_cycles: Optional[int] = None,
                     wall_limit_s: Optional[float] = None,
                     max_events: Optional[int] = None,
                     inputs: Optional[Dict[str, Any]] = None,
                     extra: Optional[Dict[str, Any]] = None,
                     telemetry=None, accounting: bool = False,
                     recorder=None, power=None) -> RunArtifacts:
    """Run ``program`` under ``config`` with metrics + profiler attached
    and fold the outcome into ledger-ready artifacts.

    The workhorse behind ``xmt-compare sweep``/``check`` and the
    campaign engine: one call per grid point, each returning a
    manifest/metrics/profile bundle that :meth:`Ledger.record_artifacts`
    persists.  ``wall_limit_s``/``max_events`` are enforced by the
    watchdog (raising ``SimulationBudgetExceeded``), giving campaign
    workers hard per-run budgets.  ``telemetry`` takes an un-attached
    :class:`~repro.sim.observability.telemetry.TelemetrySampler`: it is
    armed on the machine for the duration of the run and emits its
    final frame even when the run dies on a budget -- the caller owns
    (and closes) its sinks.

    ``accounting=True`` arms a
    :class:`~repro.sim.observability.lifecycle.CycleAccountant` (and a
    default :class:`~repro.sim.observability.lifecycle.FlightRecorder`,
    so memory stalls split by layer) and fills
    :attr:`RunArtifacts.accounting`/``extras["lifecycle"]``.  Pass
    ``recorder`` to control sampling, or alone for lifecycles without
    accounting.  ``power`` takes a
    :class:`~repro.power.dtm.PowerThermalPlugin`; its profile is
    recorded as the non-identity ``power`` artifact.
    """
    from repro.sim.machine import Simulator
    from repro.sim.observability.core import Observability
    from repro.sim.observability.lifecycle import (
        CycleAccountant, FlightRecorder)
    from repro.sim.observability.metrics import MetricsRegistry
    from repro.sim.observability.profiler import CycleProfiler

    if accounting and recorder is None:
        recorder = FlightRecorder()
    obs = Observability(metrics=MetricsRegistry(),
                        profiler=CycleProfiler(program, source=source),
                        accounting=CycleAccountant() if accounting else None,
                        lifecycle=recorder)
    sim = Simulator(program, config, observability=obs,
                    plugins=(power,) if power is not None else ())
    if telemetry is not None:
        if telemetry.eta_cycles is None:
            telemetry.eta_cycles = max_cycles
        telemetry.attach(sim.machine)
        telemetry.arm()
    start = time.perf_counter()
    try:
        result = sim.run(max_cycles=max_cycles, wall_limit_s=wall_limit_s,
                         max_events=max_events)
    finally:
        if telemetry is not None:
            telemetry.finish()
    artifacts = collect_artifacts(
        sim.machine, result, time.perf_counter() - start, source=source,
        program_path=program_path, seed=seed, label=label, inputs=inputs,
        extra=extra)
    if power is not None:
        artifacts.extras["power"] = power_profile_payload(power)
    return artifacts
