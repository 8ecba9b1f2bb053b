"""Campaign run requests: sweep grids, JSONL queues, fingerprints.

A campaign is a list of :class:`RunRequest` values -- one simulation
each, fully described by data (program path, configuration, overrides,
global-memory inputs, seed, label).  Requests come from two places:

- :func:`grid_requests` expands a sweep grid (the ``--vary`` axes of
  ``xmt-campaign``) in a stable, deterministic order, so re-invoking the same grid always yields the same requests
  in the same positions;
- :func:`load_queue` parses a JSONL queue file (one request object per
  line, ``#`` comments and blank lines ignored), the batch-submission
  format documented in MANUAL 4.9.

Each request reduces to a **fingerprint**: a truncated SHA-256 over the
identity of the simulation it asks for (program hash, source hash,
resolved config hash, seed, label, inputs).  The same fingerprint is
derivable from a recorded ledger manifest
(:func:`fingerprint_of_manifest`), which is what makes dedup-based
resume work: before spawning a worker the engine checks whether any
ledger run already answers the request.  Note the fingerprint is *not*
the ledger ``run_id`` -- run ids include the outcome (cycle counts),
which is unknowable before the run.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.sim.config import BUILTIN_CONFIGS, XMTConfig, fpga64, from_file
from repro.sim.observability.artifacts import read_jsonl
from repro.sim.observability.ledger import (
    fingerprint_of_manifest,
    program_sha256,
    request_fingerprint,
    sha256_text,
)

__all__ = [
    "RunRequest", "RunBudgets", "PreparedRun",
    "grid_requests", "load_queue", "dump_queue",
    "request_fingerprint", "fingerprint_of_manifest",
]

#: request fields accepted on a queue line (anything else is an error,
#: so typos fail loudly instead of silently changing nothing)
_QUEUE_FIELDS = ("program", "label", "config", "config_file", "overrides",
                 "inputs", "seed", "max_cycles", "schema")


@dataclass
class RunRequest:
    """One simulation a campaign should perform, as pure data."""

    program: str
    label: str = ""
    #: built-in preset name (``fpga64``/``chip1024``/``tiny``); mutually
    #: exclusive with ``config_file``; ``None`` = campaign default
    config: Optional[str] = None
    config_file: Optional[str] = None
    #: config field overrides applied on top of the base preset
    overrides: Dict[str, Any] = field(default_factory=dict)
    #: global-memory initialisation, name -> value(s) (``--set``)
    inputs: Dict[str, Any] = field(default_factory=dict)
    seed: Optional[int] = None
    max_cycles: Optional[int] = None
    #: position in the campaign (stable ordering of results)
    index: int = 0

    def __post_init__(self):
        if not self.program:
            raise ValueError("run request needs a program path")
        if self.config is not None and self.config not in BUILTIN_CONFIGS:
            raise ValueError(
                f"unknown config preset {self.config!r}; choose from "
                f"{', '.join(sorted(BUILTIN_CONFIGS))}")
        if self.config is not None and self.config_file is not None:
            raise ValueError("give config or config_file, not both")

    def resolve_config(self, default: Optional[XMTConfig] = None) -> XMTConfig:
        """The fully resolved configuration this request runs under."""
        if self.config_file is not None:
            base = from_file(self.config_file)
        elif self.config is not None:
            base = BUILTIN_CONFIGS[self.config]()
        elif default is not None:
            base = default
        else:
            base = fpga64()
        if self.overrides:
            base = base.scaled(**self.overrides)
        return base

    def to_json(self) -> Dict[str, Any]:
        """Queue-line form (drops defaults and the positional index)."""
        data = asdict(self)
        data.pop("index")
        return {k: v for k, v in data.items()
                if v not in (None, {}, "")}


def grid_requests(program: str,
                  axes: Sequence[Tuple[str, Sequence[Any]]],
                  *,
                  config: Optional[str] = None,
                  config_file: Optional[str] = None,
                  inputs: Optional[Dict[str, Any]] = None,
                  seed: Optional[int] = None,
                  max_cycles: Optional[int] = None) -> List[RunRequest]:
    """Expand a sweep grid into requests, in stable cartesian order.

    Labels are the ``field=value`` coordinates joined with commas; a
    label is part of the fingerprint, so grid campaigns dedup against
    every grid run ever recorded under the same labels.  An empty grid
    is a single unlabelled run of the program (the product of no axes
    is one empty point).
    """
    requests: List[RunRequest] = []
    names = [name for name, _ in axes]
    for index, point in enumerate(
            itertools.product(*(values for _, values in axes))):
        overrides = dict(zip(names, point))
        label = ",".join(f"{k}={v}" for k, v in overrides.items())
        requests.append(RunRequest(
            program=program, label=label, config=config,
            config_file=config_file, overrides=overrides,
            inputs=dict(inputs or {}), seed=seed,
            max_cycles=max_cycles, index=index))
    return requests


def load_queue(path: str) -> List[RunRequest]:
    """Parse a JSONL queue file into requests.

    Program paths are resolved relative to the current directory first,
    then relative to the queue file's own directory, so a queue can be
    submitted from anywhere in the tree.
    """
    queue_dir = os.path.dirname(os.path.abspath(path))
    requests: List[RunRequest] = []
    for lineno, data in read_jsonl(path, strict=True, numbered=True):
        unknown = sorted(set(data) - set(_QUEUE_FIELDS))
        if unknown:
            raise ValueError(
                f"{path}:{lineno}: unknown field(s) "
                f"{', '.join(unknown)}")
        data.pop("schema", None)
        if "program" not in data:
            raise ValueError(f"{path}:{lineno}: missing 'program'")
        program = data.pop("program")
        if not os.path.exists(program):
            candidate = os.path.join(queue_dir, program)
            if os.path.exists(candidate):
                program = candidate
        try:
            request = RunRequest(program=program,
                                 index=len(requests), **data)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}:{lineno}: {exc}")
        requests.append(request)
    if not requests:
        raise ValueError(f"{path}: queue contains no run requests")
    return requests


def dump_queue(requests: Sequence[RunRequest], path: str) -> None:
    """Write requests back out as a JSONL queue file."""
    with open(path, "w") as fh:
        for request in requests:
            fh.write(json.dumps(request.to_json(), sort_keys=True) + "\n")


# -- fingerprints: request_fingerprint / fingerprint_of_manifest live in
# -- repro.sim.observability.ledger (the ledger maintains index.jsonl of
# -- (fingerprint, run_id) pairs on record) and are re-exported above


@dataclass
class RunBudgets:
    """Per-run limits a worker enforces via the watchdog."""

    max_cycles: Optional[int] = None
    wall_limit_s: Optional[float] = None
    max_events: Optional[int] = None


@dataclass
class PreparedRun:
    """A request joined with its loaded program and resolved config.

    Built once in the supervisor (compile/assemble happens exactly once
    per distinct program path); workers inherit it by fork, so nothing
    here needs to pickle.
    """

    request: RunRequest
    program: Any
    source: Optional[str]
    config: XMTConfig
    fingerprint: str

    @classmethod
    def prepare(cls, request: RunRequest, program, source: Optional[str],
                default_config: Optional[XMTConfig] = None) -> "PreparedRun":
        config = request.resolve_config(default_config)
        from repro.sim.observability.ledger import config_fingerprint
        fingerprint = request_fingerprint(
            program_sha=program_sha256(program),
            source_sha=sha256_text(source) if source is not None else None,
            config_sha=config_fingerprint(config)["config_sha256"],
            seed=request.seed,
            label=request.label,
            inputs=request.inputs)
        return cls(request=request, program=program, source=source,
                   config=config, fingerprint=fingerprint)
