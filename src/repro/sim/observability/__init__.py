"""End-to-end observability for the cycle-accurate simulator.

The cooperating pieces:

- :mod:`~repro.sim.observability.events` -- structured span tracing of
  the package life cycle and spawn regions, streamed as JSON Lines in
  bounded memory, and :func:`chrome_trace`, the Chrome trace-event
  (Perfetto-loadable) export of those records;
- :mod:`~repro.sim.observability.metrics` -- counters, queue-occupancy
  gauges and memory-latency histograms with a JSON export;
- :mod:`~repro.sim.observability.profiler` -- per-instruction cycle and
  stall attribution folded into a per-XMTC-source-line hotspot report;
- :mod:`~repro.sim.observability.lifecycle` -- the request flight
  recorder (per-hop timestamps and queue depths for every memory
  ``Package``, ``xmt-lifecycle/1``) and top-down cycle accounting
  (every TCU cycle attributed to one stall category,
  ``xmt-accounting/1``);
- :mod:`~repro.sim.observability.explain` -- the ``xmt-explain``
  report of one run: the top-down tree, hop latency distributions and
  contention hot spots; and the one report renderer
  (:func:`render_report`, :func:`render_table`) every report below
  prints through -- a report is its JSON payload, and text and
  markdown are one layout of it;
- :mod:`~repro.sim.observability.ledger` -- versioned run manifests
  (``xmtsim-run/1``) bundled with metrics/profile exports in a
  content-addressed run ledger (``xmtsim --ledger``), and the run
  directory one run writes (``xmtsim --out``);
- :mod:`~repro.sim.observability.compare` -- the one diff of two runs
  over the ledger: the ``xmt-compare/1`` report of metric/profile/
  spawn/layer/hop deltas and the ``xmt-compare check`` gate;
- :mod:`~repro.sim.observability.telemetry` /
  :mod:`~repro.sim.observability.aggregate` -- live progress frames
  from a running simulation (an activity plug-in writing JSONL sinks)
  and the one ``xmt-top`` view over the streams (per-run rows plus a
  campaign's outcome counts and percentiles);
- :mod:`~repro.sim.observability.artifacts` -- the one table of every
  file the above write (name, schema id, file name, whole-file or
  JSONL, required keys) and the only readers of them:
  :func:`load_artifact`, :func:`read_jsonl`, :class:`JsonlTail`.

Everything that watches a live machine's events is a consumer
subscribed on the one ``machine.obs`` attach point
(:class:`Observability`; the probe vocabulary is :data:`PROBES`); the
telemetry sampler, which samples at an interval instead, is an
activity plug-in.  The ledger, compare, explain and aggregate layers
operate on the exported artifacts.
"""

from repro.sim.observability.artifacts import (
    ARTIFACTS,
    JsonlTail,
    SchemaError,
    artifact_json,
    load_artifact,
    read_jsonl,
    schema_of,
)

from repro.sim.observability.compare import (
    GateFailure,
    check_regressions,
    compare_runs,
    diff_accounting,
    diff_profiles,
    diff_spawn_regions,
    flatten_metrics,
    render_comparison,
    responsible_layer,
    run_marks,
)
from repro.sim.observability.aggregate import (
    TopSummary,
    fold_stream,
    render_top,
    top_report,
)
from repro.sim.observability.core import PROBES, Observability
from repro.sim.observability.events import (
    EventStream,
    SpanEvent,
    chrome_trace,
)
from repro.sim.observability.explain import (
    build_explain,
    render_explain,
    render_report,
    render_table,
)
from repro.sim.observability.ledger import (
    Ledger,
    RunArtifacts,
    RunRecord,
    build_manifest,
    collect_artifacts,
    instrumented_run,
    load_run,
    write_run_dir,
)
from repro.sim.observability.lifecycle import (
    CycleAccountant,
    FlightRecorder,
    export_accounting,
    hop_percentiles,
)
from repro.sim.observability.metrics import (
    Gauge,
    Histogram,
    MetricsRegistry,
    export_metrics,
)
from repro.sim.observability.profiler import CycleProfiler, render_profile
from repro.sim.observability.telemetry import (
    JsonlSink,
    TelemetrySampler,
)

__all__ = [
    "Observability",
    "PROBES",
    "EventStream",
    "SpanEvent",
    "chrome_trace",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "export_metrics",
    "CycleProfiler",
    "render_profile",
    "ARTIFACTS",
    "JsonlTail",
    "SchemaError",
    "artifact_json",
    "load_artifact",
    "read_jsonl",
    "schema_of",
    "Ledger",
    "RunArtifacts",
    "RunRecord",
    "build_manifest",
    "collect_artifacts",
    "instrumented_run",
    "load_run",
    "write_run_dir",
    "GateFailure",
    "check_regressions",
    "compare_runs",
    "diff_profiles",
    "diff_spawn_regions",
    "flatten_metrics",
    "render_comparison",
    "run_marks",
    "TelemetrySampler",
    "JsonlSink",
    "TopSummary",
    "fold_stream",
    "render_top",
    "top_report",
    "FlightRecorder",
    "CycleAccountant",
    "export_accounting",
    "hop_percentiles",
    "diff_accounting",
    "responsible_layer",
    "build_explain",
    "render_explain",
    "render_report",
    "render_table",
]
