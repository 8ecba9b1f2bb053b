"""Aggregation and live-monitoring views over telemetry streams.

Two consumers sit on top of the JSONL streams the telemetry layer
(:mod:`~repro.sim.observability.telemetry`) and the campaign engine
write:

- **``xmt-top``** folds a stream of frames / heartbeats / engine
  records into one row per run (state, cycle, interval IPC, attempt,
  wall, ETA) -- live against a growing file (``xmt-top watch
  --follow``), or one-shot via ``xmt-top report`` on a finished stream;
- **``xmt-campaign report``** aggregates finished campaigns: outcome
  counts (exactly the ``summary.json`` counts), p50/p95 wall time and
  cycles overall and per config-override axis, and a histogram of
  attempts per run.

Both print through the one report renderer
(:func:`~repro.sim.observability.explain.render_report`): ``text``
(aligned columns), ``markdown`` (pipe tables) and ``json`` (the
schema-stamped payload).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.sim.observability.artifacts import schema_of
from repro.sim.observability.explain import (Status, Table, Title, fmt_num,
                                             render_report)


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank percentile (q in [0, 100]); None on empty input."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


# -- xmt-top: per-run state table ---------------------------------------------


@dataclass
class TopRow:
    """Folded state of one run as seen through the stream."""

    key: str
    state: str = "pending"
    attempt: int = 0
    cycle: Optional[int] = None
    instructions: Optional[int] = None
    ipc: Optional[float] = None
    wall_seconds: Optional[float] = None
    eta_seconds: Optional[float] = None
    worker_pid: Optional[int] = None
    frames: int = 0
    #: layer with the worst queue-wait p95 in the latest frame's
    #: flight-recorder ``hops`` summary (live pile-up indicator)
    hot_layer: Optional[str] = None


@dataclass
class TopSummary:
    """Everything ``xmt-top`` renders: rows plus campaign bookkeeping."""

    rows: Dict[str, TopRow] = field(default_factory=dict)
    campaign_id: str = ""
    runs_expected: Optional[int] = None
    counts: Optional[Dict[str, int]] = None
    finished: bool = False

    def row(self, key: str) -> TopRow:
        if key not in self.rows:
            self.rows[key] = TopRow(key=key)
        return self.rows[key]


def _row_key(record: Dict[str, Any]) -> str:
    label = record.get("label")
    if label:
        return str(label)
    fingerprint = record.get("fingerprint")
    if fingerprint:
        return str(fingerprint)[:8]
    return "run"


def fold_stream(records: Sequence[Dict[str, Any]],
                summary: Optional[TopSummary] = None) -> TopSummary:
    """Fold stream records into per-run rows (incremental: pass the
    previous summary back in with only the new records)."""
    summary = summary if summary is not None else TopSummary()
    for record in records:
        schema = record.get("schema")
        if schema == schema_of("telemetry"):
            row = summary.row(_row_key(record))
            row.frames += 1
            row.cycle = record.get("cycle", row.cycle)
            row.instructions = record.get("instructions", row.instructions)
            interval = record.get("interval") or {}
            if interval.get("cycles"):
                row.ipc = interval.get("ipc")
            row.wall_seconds = record.get("wall_seconds", row.wall_seconds)
            row.eta_seconds = record.get("eta_seconds")
            row.attempt = record.get("attempt") or row.attempt
            row.worker_pid = record.get("worker_pid") or row.worker_pid
            hops = record.get("hops")
            if hops:
                worst = max(hops.items(),
                            key=lambda kv: kv[1].get("p95") or 0)
                row.hot_layer = (worst[0] if (worst[1].get("p95") or 0) > 0
                                 else None)
            kind = record.get("kind")
            if kind == "final":
                row.state = "done"
                row.eta_seconds = None
            elif row.state not in ("done",) or kind in ("frame",
                                                        "heartbeat"):
                row.state = "running"
        elif schema == schema_of("campaign-telemetry"):
            kind = record.get("kind")
            if kind == "campaign-start":
                summary.campaign_id = record.get("campaign_id", "")
                summary.runs_expected = record.get("runs")
            elif kind == "campaign-end":
                summary.finished = True
                summary.counts = record.get("counts")
            elif kind == "outcome":
                row = summary.row(_row_key(record))
                row.state = record.get("status", "done")
                row.attempt = record.get("attempts") or row.attempt
                if record.get("cycles") is not None:
                    row.cycle = record.get("cycles")
                if record.get("instructions") is not None:
                    row.instructions = record.get("instructions")
                row.eta_seconds = None
        elif schema == schema_of("campaign-result"):
            row = summary.row(_row_key(record))
            row.state = record.get("status", row.state)
            row.attempt = record.get("attempts") or row.attempt
            if record.get("cycles") is not None:
                row.cycle = record.get("cycles")
            if record.get("instructions") is not None:
                row.instructions = record.get("instructions")
            row.eta_seconds = None
    return summary


_TOP_COLUMNS = ("run", "state", "att", "cycles", "instr", "ipc",
                "wall_s", "eta_s", "hot")


def _top_cells(row: Dict[str, Any]) -> List[Any]:
    return [row["key"], row["state"], row["attempt"] or "--", row["cycle"],
            row["instructions"], fmt_num(row["ipc"], ".3f"),
            fmt_num(row["wall_seconds"], ".2f"),
            fmt_num(row["eta_seconds"], ".1f"), row["hot_layer"] or "--"]


def render_top(summary: TopSummary, fmt: str = "text") -> str:
    """Render the per-run table (text | markdown | json); the campaign
    header and the state tally are terminal-only status lines."""
    return render_report({
        "schema": schema_of("top-report"),
        "campaign_id": summary.campaign_id,
        "runs_expected": summary.runs_expected,
        "finished": summary.finished,
        "counts": summary.counts,
        "rows": [vars(r) for r in summary.rows.values()],
    }, fmt, _top_parts)


def _top_parts(report: Dict[str, Any]) -> List[Any]:
    rows = report["rows"]
    parts: List[Any] = []
    if report["campaign_id"]:
        header = f"campaign {report['campaign_id']}"
        if report["runs_expected"] is not None:
            header += f": {len(rows)}/{report['runs_expected']} runs seen"
        parts.append(Status(header))
    states: Dict[str, int] = {}
    for row in rows:
        states[row["state"]] = states.get(row["state"], 0) + 1
    return parts + [
        Table(_TOP_COLUMNS, [_top_cells(row) for row in rows], align=2),
        Status("-- " + "  ".join(f"{name}: {count}" for name, count
                                 in sorted(states.items()))
               + ("  [stream ended]" if report["finished"] else ""))]


# -- xmt-campaign report: finished-campaign aggregation -----------------------


def _axis_stats(outcomes: List[Dict[str, Any]]) -> Dict[str, Any]:
    walls = [o["wall_seconds"] for o in outcomes
             if isinstance(o.get("wall_seconds"), (int, float))]
    cycles = [o["cycles"] for o in outcomes
              if isinstance(o.get("cycles"), (int, float))]
    return {
        "runs": len(outcomes),
        "wall_p50": percentile(walls, 50),
        "wall_p95": percentile(walls, 95),
        "cycles_p50": percentile(cycles, 50),
        "cycles_p95": percentile(cycles, 95),
    }


def aggregate_campaign(records: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate outcome records (from ``--results`` and/or a campaign
    telemetry stream) into one report payload.

    Outcome lines and engine ``outcome`` telemetry records carry the
    same fields; duplicates (the same run seen through both files) are
    collapsed on ``(index, fingerprint, label)``, last record wins --
    so feeding both files still reproduces the ``summary.json`` counts
    exactly.
    """
    outcomes: Dict[tuple, Dict[str, Any]] = {}
    campaign_id = ""
    for record in records:
        schema = record.get("schema")
        if schema == schema_of("campaign-result") or (
                schema == schema_of("campaign-telemetry")
                and record.get("kind") == "outcome"):
            key = (record.get("index"), record.get("fingerprint"),
                   record.get("label"))
            outcomes[key] = record
        elif schema == schema_of("campaign-telemetry") and \
                record.get("kind") == "campaign-start":
            campaign_id = record.get("campaign_id", "")

    ordered = sorted(
        outcomes.values(),
        key=lambda o: (o.get("index") is None, o.get("index") or 0))

    counts: Dict[str, int] = {}
    for outcome in ordered:
        status = outcome.get("status", "unknown")
        counts[status] = counts.get(status, 0) + 1

    # per config-override axis: field -> "field=value" -> stats
    axes: Dict[str, Dict[str, Any]] = {}
    for outcome in ordered:
        for name, value in (outcome.get("overrides") or {}).items():
            axis = axes.setdefault(name, {})
            axis.setdefault(f"{name}={value}", []).append(outcome)
    axis_stats = {
        name: {coord: _axis_stats(group)
               for coord, group in sorted(axis.items())}
        for name, axis in sorted(axes.items())}

    retry_hist: Dict[str, int] = {}
    for outcome in ordered:
        attempts_n = outcome.get("attempts")
        if attempts_n is not None:
            key = str(attempts_n)
            retry_hist[key] = retry_hist.get(key, 0) + 1

    return {
        "schema": schema_of("campaign-report"),
        "campaign_id": campaign_id,
        "runs": len(ordered),
        "counts": counts,
        "overall": _axis_stats(list(ordered)),
        "axes": axis_stats,
        "retry_histogram": retry_hist,
    }


def render_campaign_report(report: Dict[str, Any],
                           fmt: str = "text") -> str:
    """Render an aggregated campaign report (text | markdown | json)."""
    return render_report(report, fmt, _campaign_parts)


def _campaign_parts(report: Dict[str, Any]) -> List[Any]:
    def stats_cells(coord: str, stats: Dict[str, Any]) -> List[Any]:
        return [coord, stats["runs"],
                fmt_num(stats["wall_p50"], ".3f"),
                fmt_num(stats["wall_p95"], ".3f"),
                fmt_num(stats["cycles_p50"], ".0f"),
                fmt_num(stats["cycles_p95"], ".0f")]

    rows = [stats_cells("(all)", report["overall"])]
    for name in sorted(report["axes"]):
        for coord, stats in report["axes"][name].items():
            rows.append(stats_cells(coord, stats))
    counts_line = "  ".join(f"{name}: {count}" for name, count
                            in sorted(report["counts"].items()))
    retry_line = "  ".join(
        f"{attempts}x: {count}" for attempts, count
        in sorted(report["retry_histogram"].items(),
                  key=lambda kv: int(kv[0])))
    parts: List[Any] = [
        Title("campaign report", report["campaign_id"]),
        f"{report['runs']} runs -- {counts_line}", "",
        Table(["axis", "runs", "wall p50", "wall p95", "cyc p50", "cyc p95"],
              rows, align=1)]
    if retry_line:
        parts += ["", f"attempts histogram: {retry_line}"]
    return parts
