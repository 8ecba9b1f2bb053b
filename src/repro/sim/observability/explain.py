"""The bottleneck report over one run's accounting + lifecycle exports,
and the one renderer every report goes through.

``xmt-explain`` turns one run's ``xmt-accounting/1`` +
``xmt-lifecycle/1`` payloads into the report every architectural study
starts from -- the top-down cycle tree, per-hop latency distributions
and contention hot spots.  Two runs are diffed by ``xmt-compare diff``
(:mod:`~repro.sim.observability.compare`), whose layer-attribution
table names the memory layer responsible for a cycle regression.

Everything here works on the exported dict payloads (not live
simulator objects) so reports can be rebuilt from a ledger long after
the run.  A report *is* its payload: :func:`render_report` prints it as
JSON, or lays it out as lines and :class:`Table` s that :func:`render_table`
writes as aligned text or markdown -- for the comparison and ``xmt-top``
reports too.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence

from repro.sim.observability.artifacts import artifact_json, schema_of
from repro.sim.observability.lifecycle import HOP_LAYER, hop_percentiles


# -- single-run report -------------------------------------------------------

def build_explain(accounting: Dict[str, Any],
                  lifecycle: Optional[Dict[str, Any]] = None,
                  metrics: Optional[Dict[str, Any]] = None,
                  manifest: Optional[Dict[str, Any]] = None,
                  top: int = 8) -> Dict[str, Any]:
    """Assemble the single-run bottleneck report (``xmt-explain/1``)."""
    total = accounting["total_cycles"] or 1
    flat = accounting["machine"]["flat"]
    topdown = [{"category": cat, "cycles": cyc,
                "share": round(100.0 * cyc / total, 2)}
               for cat, cyc in sorted(flat.items(), key=lambda kv: -kv[1])]
    hops = hop_percentiles(lifecycle.get("hops", {})) if lifecycle else {}
    contention: Dict[str, Any] = {}
    if lifecycle:
        contention["cache_modules"] = lifecycle.get("hot_modules", [])[:top]
        contention["send_ports"] = lifecycle.get("hot_ports", [])[:top]
    if metrics:
        gauges = metrics.get("gauges", {})
        icn = {name: g.get("max", 0) for name, g in gauges.items()
               if name.startswith("icn.")}
        if icn:
            contention["icn_high_water"] = icn
    run: Dict[str, Any] = {"cycles": accounting["cycles"],
                           "n_processors": accounting["n_processors"],
                           "exact": accounting["exact"]}
    if manifest:
        for key in ("run_id", "label", "config"):
            if manifest.get(key) is not None:
                run[key] = manifest[key]
    return {
        "schema": schema_of("explain"),
        "kind": "report",
        "run": run,
        "topdown": topdown,
        "tree": accounting["machine"]["tree"],
        "spawn_regions": accounting.get("spawn_regions", []),
        "hops": hops,
        "contention": contention,
        "bottleneck": _bottleneck(topdown, hops),
    }


def _bottleneck(topdown: List[Dict[str, Any]],
                hops: Dict[str, Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    stalls = [row for row in topdown if row["category"] != "retiring"
              and row["cycles"] > 0]
    if not stalls:
        return None
    worst = stalls[0]
    out = {"category": worst["category"], "share": worst["share"]}
    if worst["category"].startswith("mem.") and hops:
        layer = worst["category"][4:]
        layer_hops = [(name, row) for name, row in hops.items()
                      if HOP_LAYER.get(name) == layer]
        if layer_hops:
            name, row = max(layer_hops,
                            key=lambda kv: kv[1]["mean"] * kv[1]["count"])
            out["dominant_hop"] = {"hop": name, "mean": row["mean"],
                                   "p95": row["p95"], "count": row["count"]}
    return out


# -- the one report renderer ---------------------------------------------------

class Table(NamedTuple):
    """One table of a report.  A titled table is a section: a blank
    line, the title (a ``###`` heading in markdown), the rows indented."""

    headers: Sequence[str]
    rows: Sequence[Sequence[Any]]
    title: str = ""
    #: leading left-justified columns (``None``: all); see render_table
    align: Optional[int] = None
    rule: bool = False


class Title(NamedTuple):
    """A report's first line; in markdown a ``##`` heading with ``code``
    (an id) in backticks, then a blank line."""

    text: str
    code: str = ""


class Status(str):
    """A line only the terminal view prints: markdown leaves it out."""


def fmt_num(value: Any, spec: str = "") -> str:
    """A report cell: ``--`` for a missing value, a float through
    ``spec`` (default: at most three decimals, trailing zeros dropped),
    anything else -- integers, text -- as ``str`` gives it."""
    if value is None:
        return "--"
    if not isinstance(value, float):
        return str(value)
    if spec:
        return format(value, spec)
    return f"{value:.3f}".rstrip("0").rstrip(".")


def render_table(headers: Sequence[str], rows: Sequence[Sequence[Any]],
                 fmt: str = "text", *, align: Optional[int] = None,
                 indent: str = "", rule: bool = False) -> List[str]:
    """The lines of one report table; every cell goes through
    :func:`fmt_num`.

    ``markdown`` is a pipe table (a ``|`` inside a cell escaped);
    anything else is columns padded to their widest cell: the first
    ``align`` left-justified and the rest right-justified (``None``: all
    left), each line behind ``indent``, with a dashed ``rule`` under the
    header on request.
    """
    table = [[fmt_num(cell) for cell in row] for row in (headers, *rows)]
    if fmt == "markdown":
        lines = ["| " + " | ".join(cell.replace("|", "\\|") for cell in row)
                 + " |" for row in table]
        lines.insert(1, "|" + "---|" * len(headers))
        return lines
    widths = [max(len(row[i]) for row in table)
              for i in range(len(headers))]
    left = len(headers) if align is None else align
    lines = [indent + "  ".join(
        cell.ljust(widths[i]) if i < left else cell.rjust(widths[i])
        for i, cell in enumerate(row)) for row in table]
    if rule:
        lines.insert(1, indent + "  ".join("-" * w for w in widths))
    return lines


def render_report(payload: Dict[str, Any], fmt: str,
                  layout: Callable[[Dict[str, Any]], List[Any]]) -> str:
    """Print a report: ``json`` is the payload itself; ``text`` and
    ``markdown`` both render the one list ``layout(payload)`` returns --
    plain lines, a :class:`Title`, :class:`Status` lines and
    :class:`Table` s.  Any other format is a ``ValueError``."""
    if fmt == "json":
        return artifact_json(payload)[:-1]  # print() adds the newline
    if fmt not in ("text", "markdown"):
        raise ValueError(f"unknown report format {fmt!r}")
    markdown = fmt == "markdown"
    lines: List[str] = []
    for part in layout(payload):
        if isinstance(part, Table):
            if part.title:
                lines += ["", f"### {part.title}" if markdown else part.title]
            lines += render_table(part.headers, part.rows, fmt,
                                  align=part.align, rule=part.rule,
                                  indent="  " if part.title else "")
        elif isinstance(part, Title):
            if markdown:
                code = f" `{part.code}`" if part.code else ""
                lines += [f"## {part.text}{code}", ""]
            else:
                lines.append(f"{part.text} {part.code}".rstrip())
        elif not (markdown and isinstance(part, Status)):
            lines.append(part)
    return "\n".join(lines)


def render_explain(report: Dict[str, Any], fmt: str = "text",
                   top: int = 8) -> str:
    """Render a :func:`build_explain` report."""
    return render_report(report, fmt, lambda r: _report_parts(r, top))


def _report_parts(report: Dict[str, Any], top: int) -> List[Any]:
    run = report["run"]
    head = "xmt-explain"
    if run.get("label"):
        head += f": {run['label']}"
    if run.get("run_id"):
        head += f" ({run['run_id'][:12]})"
    parts: List[Any] = [
        Title(head),
        f"cycles: {run['cycles']}  processors: {run['n_processors']}  "
        f"accounting: {'exact' if run['exact'] else 'INEXACT'}",
        Table(["category", "cycles", "share"],
              [[row["category"], row["cycles"], f"{row['share']:.1f}%"]
               for row in report["topdown"]],
              "top-down cycle accounting (% of all processor cycles)")]
    hops = report.get("hops")
    if hops:
        parts.append(Table(
            ["hop", "layer", "count", "mean", "p50", "p95", "max"],
            [[name, HOP_LAYER.get(name, "-"), row["count"], row["mean"],
              row["p50"], row["p95"], row["max"]]
             for name, row in sorted(hops.items())],
            "hop latencies (cycles)"))
    contention = report.get("contention") or {}
    where = [[f"cache module {row['module']:02d}", row["requests"],
              row["wait_cycles"], row["mean_wait"]]
             for row in (contention.get("cache_modules") or [])[:top]]
    where += [["master port" if row["cluster"] < 0
               else f"send port c{row['cluster']:02d}", row["requests"],
               row["wait_cycles"], row["mean_wait"]]
              for row in (contention.get("send_ports") or [])[:top]]
    if where:
        parts.append(Table(["where", "requests", "wait_cycles", "mean"],
                           where, "contention hot spots"))
    bottleneck = report.get("bottleneck")
    if bottleneck:
        text = (f"bottleneck: {bottleneck['category']} -- "
                f"{bottleneck['share']:.1f}% of all cycles")
        hop = bottleneck.get("dominant_hop")
        if hop:
            text += (f"; dominant hop {hop['hop']} (mean "
                     f"{fmt_num(hop['mean'])}, p95 {fmt_num(hop['p95'])})")
        parts += ["", text]
    return parts

