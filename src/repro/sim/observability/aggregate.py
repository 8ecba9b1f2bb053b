"""``xmt-top``: the one view over telemetry streams.

The telemetry layer (:mod:`~repro.sim.observability.telemetry`) and the
campaign engine write JSONL streams; :func:`fold_stream` reads them,
once, into one row per run (state, cycle, interval IPC, attempt, wall,
ETA, run id) -- live against a growing file (``xmt-top watch
--follow``), or one-shot via ``xmt-top report`` on a finished stream.
A campaign stream's ``outcome`` records add the campaign's section:
outcome counts (exactly the ``summary.json`` counts, also for a
campaign killed before its ``campaign-end`` record), p50/p95 wall time
and cycles overall and per config-override axis, and a histogram of
attempts per run.

The report prints through the one report renderer
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


# -- folding the stream -------------------------------------------------------


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
    #: from the run's ``outcome`` record: the ledger run id, and the
    #: request's position in the campaign (``vs first`` compares every
    #: row's cycles with request 0's)
    run_id: str = ""
    index: Optional[int] = None


@dataclass
class TopSummary:
    """Everything ``xmt-top`` renders: rows plus campaign bookkeeping."""

    rows: Dict[str, TopRow] = field(default_factory=dict)
    campaign_id: str = ""
    runs_expected: Optional[int] = None
    finished: bool = False
    #: request index -> that run's ``outcome`` record (campaign
    #: streams); two identical requests are two runs, so only a
    #: repeated record of the same run collapses
    outcomes: Dict[Any, Dict[str, Any]] = field(default_factory=dict)

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
            elif kind == "outcome":
                index = record.get("index")
                summary.outcomes[index if index is not None else (
                    record.get("fingerprint"), record.get("label"))] = record
                key = _row_key(record)
                if summary.rows.get(key) and \
                        summary.rows[key].index not in (None, index):
                    key = f"{key}#{index}"  # same label, another run
                row = summary.row(key)
                row.state = record.get("status", "done")
                row.attempt = record.get("attempts") or row.attempt
                if record.get("cycles") is not None:
                    row.cycle = record.get("cycles")
                if record.get("instructions") is not None:
                    row.instructions = record.get("instructions")
                row.run_id = record.get("run_id") or row.run_id
                row.index = record.get("index")
                row.eta_seconds = None
    return summary


# -- the report ---------------------------------------------------------------


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


def top_report(summary: TopSummary) -> Dict[str, Any]:
    """The ``xmt-top-report/2`` payload: the per-run rows (each with
    ``rel``, its relative cycle delta against request 0), and, from the
    ``outcome`` records, the outcome counts, the overall and per
    config-override axis percentiles and the attempts histogram."""
    first = next((row.cycle for row in summary.rows.values()
                  if row.index == 0), None)
    rows = []
    for row in summary.rows.values():
        rel = (None if not first or row.cycle is None
               else (row.cycle - first) / first)
        rows.append(dict(vars(row), rel=rel))

    outcomes = list(summary.outcomes.values())
    counts: Dict[str, int] = {}
    retry_hist: Dict[str, int] = {}
    # per config-override axis: field -> "field=value" -> outcomes
    axes: Dict[str, Dict[str, List[Dict[str, Any]]]] = {}
    for outcome in outcomes:
        status = outcome.get("status", "unknown")
        counts[status] = counts.get(status, 0) + 1
        if outcome.get("attempts") is not None:
            key = str(outcome["attempts"])
            retry_hist[key] = retry_hist.get(key, 0) + 1
        for name, value in (outcome.get("overrides") or {}).items():
            axes.setdefault(name, {}).setdefault(
                f"{name}={value}", []).append(outcome)
    return {
        "schema": schema_of("top-report"),
        "campaign_id": summary.campaign_id,
        "runs_expected": summary.runs_expected,
        "finished": summary.finished,
        "rows": rows,
        "counts": counts,
        "overall": _axis_stats(outcomes),
        "axes": {name: {coord: _axis_stats(group)
                        for coord, group in sorted(axis.items())}
                 for name, axis in sorted(axes.items())},
        "retry_histogram": retry_hist,
    }


def render_top(summary: TopSummary, fmt: str = "text",
               live: bool = False) -> str:
    """Render :func:`top_report` (text | markdown | json); the campaign
    header and the state tally are terminal-only status lines.  ``live``
    (the ``xmt-top watch`` redraw) keeps the run table to its live
    columns and leaves out the campaign section."""
    return render_report(top_report(summary), fmt,
                         lambda report: _top_parts(report, live))


_TOP_COLUMNS = ("run", "state", "att", "cycles", "vs first", "instr", "ipc",
                "wall_s", "eta_s", "hot", "run id")
#: the columns only the offline report shows
_REPORT_COLUMNS = ("vs first", "run id")


def _top_cells(row: Dict[str, Any]) -> List[Any]:
    vs_first = ("first" if row["index"] == 0 and row["rel"] is not None
                else fmt_num(row["rel"], "+.1%"))
    return [row["key"], row["state"], row["attempt"] or "--", row["cycle"],
            vs_first, row["instructions"], fmt_num(row["ipc"], ".3f"),
            fmt_num(row["wall_seconds"], ".2f"),
            fmt_num(row["eta_seconds"], ".1f"), row["hot_layer"] or "--",
            row["run_id"] or "--"]


def _top_parts(report: Dict[str, Any], live: bool) -> List[Any]:
    rows = report["rows"]
    columns = [name for name in _TOP_COLUMNS
               if not (live and name in _REPORT_COLUMNS)]
    parts: List[Any] = []
    if report["campaign_id"]:
        header = f"campaign {report['campaign_id']}"
        if report["runs_expected"] is not None:
            header += f": {len(rows)}/{report['runs_expected']} runs seen"
        parts.append(Status(header))
    states: Dict[str, int] = {}
    for row in rows:
        states[row["state"]] = states.get(row["state"], 0) + 1
    parts += [
        Table(columns, [[cell for name, cell
                         in zip(_TOP_COLUMNS, _top_cells(row))
                         if name in columns] for row in rows], align=2),
        Status("-- " + "  ".join(f"{name}: {count}" for name, count
                                 in sorted(states.items()))
               + ("  [stream ended]" if report["finished"] else ""))]
    if report["counts"] and not live:
        parts += _campaign_parts(report)
    return parts


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
        "", Title("campaign report", report["campaign_id"]),
        f"{report['overall']['runs']} runs -- {counts_line}", "",
        Table(["axis", "runs", "wall p50", "wall p95", "cyc p50", "cyc p95"],
              rows, align=1)]
    if retry_line:
        parts += ["", f"attempts histogram: {retry_line}"]
    return parts
