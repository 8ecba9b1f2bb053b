"""Every on-disk format of the toolchain, behind one module.

What a study touches is what the tools write: run directories, exports,
JSON Lines streams, reports.  :data:`ARTIFACTS` is the one table of
them, and the functions below are the only code that turns artifact
bytes into dicts (:func:`load_artifact`, :func:`read_jsonl`,
:class:`JsonlTail`) or publishes a file another process polls
(:func:`atomic_write`).  A damaged file never reaches a reader as a
``KeyError``, an ``AttributeError`` or a bare ``JSONDecodeError``: it is
one :class:`SchemaError` that starts with the path and names the schema
or the key at fault.  Only reading validates; writers stamp
:func:`schema_of` and serialize with :func:`artifact_json` (whole
files) or their own ``json.dumps`` (the per-event streams).
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, NamedTuple, Optional, Tuple


class SchemaError(ValueError):
    """An artifact is not what its reader understands; the message
    starts with the file (or the payload's role) and names the schema
    expected and found, or the missing key."""


class Artifact(NamedTuple):
    """One row of :data:`ARTIFACTS`."""

    #: the ``schema`` field of the file, or of every line of the stream
    #: (``None``: unversioned lines)
    schema: Optional[str]
    #: file name inside a run directory (``None``: lives elsewhere)
    file: Optional[str] = None
    #: one JSON object per line, appended live; else one per file
    jsonl: bool = False
    #: top-level keys in-tree readers subscript: a file without one is
    #: rejected on load instead of raising ``KeyError`` in a renderer
    required: Tuple[str, ...] = ()


ARTIFACTS: Dict[str, Artifact] = {
    # a run directory: xmtsim --out DIR, <ledger>/runs/<run_id>/, a
    # committed baseline
    "manifest": Artifact("xmtsim-run/1", "manifest.json",
                         required=("cycles", "config", "program")),
    "metrics": Artifact("xmtsim-metrics/1", "metrics.json",
                        required=("counters", "stats", "scheduler",
                                  "gauges", "histograms")),
    "profile": Artifact("xmt-prof/1", "profile.json",
                        required=("total_cycles", "total_issues",
                                  "total_stalls", "lines", "spawn_sites",
                                  "stall_causes")),
    "accounting": Artifact("xmt-accounting/1", "accounting.json",
                           required=("cycles", "n_processors",
                                     "total_cycles", "exact", "machine")),
    "lifecycle": Artifact("xmt-lifecycle/1", "lifecycle.json"),
    "power": Artifact("xmt-power/1", "power.json"),
    # streams, written while the run or the campaign is going (a run's
    # own streams into its directory: xmtsim --out)
    "lifecycle-stream": Artifact("xmt-lifecycle/1", "lifecycle.jsonl",
                                 jsonl=True),
    "telemetry": Artifact("xmtsim-telemetry/1", "telemetry.jsonl",
                          jsonl=True),
    "campaign-telemetry": Artifact("xmt-campaign-telemetry/1", jsonl=True),
    "campaign-request": Artifact("xmt-campaign-request/1", jsonl=True),
    "fuzz-outcome": Artifact("xmtc-fuzz-outcome/1", jsonl=True),
    "events": Artifact(None, "events.jsonl", jsonl=True),
    "ledger-index": Artifact(None, jsonl=True),
    "campaign-attempts": Artifact(None, jsonl=True),
    # whole files outside run directories
    "campaign-summary": Artifact("xmt-campaign-summary/1"),
    "fuzz-summary": Artifact("xmtc-fuzz-summary/1"),
    # what the report commands print under --format json
    "comparison": Artifact("xmt-compare/1"),
    "explain": Artifact("xmt-explain/1"),
    "top-report": Artifact("xmt-top-report/2"),
}

#: first word of a checkpoint file's header line (``checkpoint.save``);
#: the one format that is not JSON -- a pickle follows the header
CHECKPOINT_MAGIC = "xmtsim-checkpoint/1"

#: the whole files a run directory holds next to its manifest, by
#: artifact name (what a ledger entry records)
RUN_PAYLOADS = tuple(name for name, row in ARTIFACTS.items()
                     if row.file and not row.jsonl and name != "manifest")


def schema_of(name: str) -> Optional[str]:
    """The schema id writers of artifact ``name`` stamp."""
    return ARTIFACTS[name].schema


def run_file(run_dir: str, name: str) -> str:
    """Where artifact ``name`` lives inside ``run_dir``."""
    return os.path.join(run_dir, ARTIFACTS[name].file)


# -- writing ------------------------------------------------------------------


def canonical_json(payload: Any) -> str:
    """Deterministic JSON: every content hash, every index line."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def artifact_json(payload: Any) -> str:
    """The on-disk text of every whole-file artifact (the goldens
    under ``tests/golden/observability`` pin it byte for byte)."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def atomic_write(path: str, text: str) -> None:
    """Publish ``text`` at ``path``: a reader sees the previous file or
    all of the new one, never a prefix (tmp + fsync + rename)."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


# -- reading whole files ------------------------------------------------------


def check_artifact(payload: Any, name: str, where: str) -> Dict[str, Any]:
    """``payload`` if it is a ``name`` artifact, else :class:`SchemaError`
    (``where``: the path it was read from, or its role in the call)."""
    row = ARTIFACTS[name]
    found = (payload.get("schema") if isinstance(payload, dict)
             else type(payload))
    if found != row.schema:
        raise SchemaError(f"{where}: expected schema {row.schema!r}, "
                          f"found {found!r}")
    missing = [key for key in row.required if key not in payload]
    if missing:
        raise SchemaError(f"{where}: {row.schema} artifact without its "
                          f"required key(s) {', '.join(missing)}")
    return payload


def load_artifact(path: str, name: str) -> Dict[str, Any]:
    """Read the whole-file artifact ``name`` from ``path``.

    ``OSError`` if it cannot be read, :class:`SchemaError` if it is not
    JSON (or was cut short), not an object, carries another schema or
    lacks a required key.
    """
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise SchemaError(
            f"{path}: expected schema {schema_of(name)!r}, found no "
            f"complete JSON ({exc})") from None
    return check_artifact(payload, name, path)


# -- reading JSON Lines -------------------------------------------------------


class JsonlTail:
    """Incremental JSON Lines parser for a growing file.

    The one torn-tail rule: bytes after the last newline are held back
    until their newline arrives, and a complete line that is not a JSON
    object (a writer killed mid-line, then restarted) is skipped --
    unless ``strict``, where it is a :class:`SchemaError` starting
    ``where:lineno:``.  Blank lines and ``#`` comments never count.
    """

    def __init__(self, where: str = "<stream>", *, strict: bool = False):
        self.where = where
        self.strict = strict
        self.lineno = 0
        self._held = b""

    def feed(self, chunk: bytes, *, numbered: bool = False) -> List[Any]:
        """The records ``chunk`` completes, in order (``(lineno,
        record)`` pairs if ``numbered``)."""
        *lines, self._held = (self._held + chunk).split(b"\n")
        records: List[Any] = []
        for line in lines:
            self.lineno += 1
            line = line.strip()
            if not line or line.startswith(b"#"):
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError(f"expected an object, got "
                                     f"{type(record).__name__}")
            except ValueError as exc:
                if self.strict:
                    raise SchemaError(f"{self.where}:{self.lineno}: bad "
                                      f"JSON line: {exc}") from None
                continue
            records.append((self.lineno, record) if numbered else record)
        return records


def read_jsonl(path: str, *, strict: bool = False,
               numbered: bool = False) -> List[Any]:
    """Every record of a JSON Lines file, in order; a torn last line (or
    any unparseable one) is skipped unless ``strict``."""
    with open(path, "rb") as fh:
        # nothing follows: what a tail would hold back is the last line
        return JsonlTail(path, strict=strict).feed(fh.read() + b"\n",
                                                   numbered=numbered)
