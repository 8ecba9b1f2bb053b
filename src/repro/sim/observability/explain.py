"""Bottleneck reports over accounting + lifecycle exports.

``xmt-explain`` turns one run's ``xmt-accounting/1`` +
``xmt-lifecycle/1`` payloads into the report every architectural study
starts from -- the top-down cycle tree, per-hop latency distributions
and contention hot spots -- and diffs two runs into a layer-attribution
table that names the memory layer responsible for a cycle regression.
The same :func:`diff_accounting` rows feed ``xmt-compare diff``.

Everything here works on the exported dict payloads (not live
simulator objects) so reports can be rebuilt from a ledger long after
the run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.sim.observability.artifacts import schema_of
from repro.sim.observability.lifecycle import HOP_LAYER, hop_percentiles

#: categories that are *spent well* or derived idle -- never named as
#: the layer responsible for a regression
_NOT_RESPONSIBLE = ("retiring",)


@dataclass
class AccountingDelta:
    """One top-down category compared across two runs (cycles are
    machine-wide sums over all processors)."""
    category: str
    cycles_a: int
    cycles_b: int
    delta: int
    pct: Optional[float]  # relative change; None when a is 0

    def to_dict(self) -> Dict[str, Any]:
        return {"category": self.category, "cycles_a": self.cycles_a,
                "cycles_b": self.cycles_b, "delta": self.delta,
                "pct": self.pct}


def diff_accounting(a: Dict[str, Any],
                    b: Dict[str, Any]) -> List[AccountingDelta]:
    """Per-category deltas between two accounting exports, largest
    absolute movement first."""
    flat_a = a.get("machine", {}).get("flat", {})
    flat_b = b.get("machine", {}).get("flat", {})
    rows = []
    for cat in sorted(set(flat_a) | set(flat_b)):
        ca = flat_a.get(cat, 0)
        cb = flat_b.get(cat, 0)
        if not ca and not cb:
            continue
        pct = round(100.0 * (cb - ca) / ca, 2) if ca else None
        rows.append(AccountingDelta(cat, ca, cb, cb - ca, pct))
    rows.sort(key=lambda r: -abs(r.delta))
    return rows


def responsible_layer(rows: List[AccountingDelta]) -> Optional[Dict[str, Any]]:
    """The category that grew the most -- the *layer* a regression is
    charged to.  ``None`` when nothing grew."""
    grew = [r for r in rows
            if r.delta > 0 and r.category not in _NOT_RESPONSIBLE]
    if not grew:
        return None
    worst = max(grew, key=lambda r: r.delta)
    total_growth = sum(r.delta for r in grew)
    return {"category": worst.category, "delta": worst.delta,
            "share": round(100.0 * worst.delta / total_growth, 1)
            if total_growth else 0.0}


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


# -- two-run diff ------------------------------------------------------------

def explain_diff(bundle_a: Dict[str, Any], bundle_b: Dict[str, Any],
                 top: int = 12) -> Dict[str, Any]:
    """Diff two run bundles (``{"accounting", "lifecycle", "manifest"}``)
    into the layer-attribution report."""
    acct_a = bundle_a["accounting"]
    acct_b = bundle_b["accounting"]
    rows = diff_accounting(acct_a, acct_b)
    hop_deltas: List[Dict[str, Any]] = []
    hops_a = hop_percentiles((bundle_a.get("lifecycle") or {}).get("hops", {}))
    hops_b = hop_percentiles((bundle_b.get("lifecycle") or {}).get("hops", {}))
    for name in sorted(set(hops_a) | set(hops_b)):
        ra = hops_a.get(name)
        rb = hops_b.get(name)
        hop_deltas.append({
            "hop": name, "layer": HOP_LAYER.get(name, "?"),
            "mean_a": ra["mean"] if ra else None,
            "mean_b": rb["mean"] if rb else None,
            "p95_a": ra["p95"] if ra else None,
            "p95_b": rb["p95"] if rb else None,
        })

    def _run(bundle, acct):
        run = {"cycles": acct["cycles"]}
        manifest = bundle.get("manifest") or {}
        for key in ("run_id", "label"):
            if manifest.get(key) is not None:
                run[key] = manifest[key]
        return run

    cyc_a = acct_a["cycles"]
    cyc_b = acct_b["cycles"]
    return {
        "schema": schema_of("explain"),
        "kind": "diff",
        "run_a": _run(bundle_a, acct_a),
        "run_b": _run(bundle_b, acct_b),
        "cycles_delta": cyc_b - cyc_a,
        "cycles_pct": round(100.0 * (cyc_b - cyc_a) / cyc_a, 2)
        if cyc_a else None,
        "layer_table": [r.to_dict() for r in rows[:top]],
        "responsible": responsible_layer(rows),
        "hop_deltas": hop_deltas,
    }


# -- renderers ---------------------------------------------------------------

def render_explain(report: Dict[str, Any], fmt: str = "text",
                   top: int = 8) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True)
    if report.get("kind") == "diff":
        return _render_diff(report, fmt)
    return _render_report(report, fmt, top)


def _num(v) -> str:
    return "-" if v is None else (f"{v:g}" if isinstance(v, float) else str(v))


def render_table(headers: Sequence[str], rows: Sequence[Sequence[str]],
                 fmt: str = "text", *, align: Optional[int] = None,
                 indent: str = "", rule: bool = False) -> List[str]:
    """The lines of one report table, for every renderer that has one.

    ``markdown`` is a pipe table; anything else is columns padded to
    their widest cell: the first ``align`` left-justified and the rest
    right-justified (``None``: all left), each line behind ``indent``,
    with a dashed ``rule`` under the header on request.
    """
    if fmt == "markdown":
        return ["| " + " | ".join(headers) + " |",
                "|" + "---|" * len(headers),
                *("| " + " | ".join(row) + " |" for row in rows)]
    table = [headers, *rows]
    widths = [max(len(row[i]) for row in table)
              for i in range(len(headers))]
    left = len(headers) if align is None else align
    lines = [indent + "  ".join(
        cell.ljust(widths[i]) if i < left else cell.rjust(widths[i])
        for i, cell in enumerate(row)) for row in table]
    if rule:
        lines.insert(1, indent + "  ".join("-" * w for w in widths))
    return lines


def _section(title: str, headers: Sequence[str],
             rows: Sequence[Sequence[str]], fmt: str) -> List[str]:
    """One titled table of an explain report, after a blank line."""
    return ["", f"### {title}" if fmt == "markdown" else title,
            *render_table(headers, rows, fmt, indent="  ")]


def _render_report(report: Dict[str, Any], fmt: str, top: int) -> str:
    run = report["run"]
    head = "xmt-explain"
    if run.get("label"):
        head += f": {run['label']}"
    if run.get("run_id"):
        head += f" ({run['run_id'][:12]})"
    lines = [f"## {head}", ""] if fmt == "markdown" else [head]
    lines.append(f"cycles: {run['cycles']}  processors: "
                 f"{run['n_processors']}  accounting: "
                 f"{'exact' if run['exact'] else 'INEXACT'}")
    lines += _section(
        "top-down cycle accounting (% of all processor cycles)",
        ["category", "cycles", "share"],
        [[row["category"], str(row["cycles"]), f"{row['share']:.1f}%"]
         for row in report["topdown"][:max(top, len(report["topdown"]))]],
        fmt)
    hops = report.get("hops")
    if hops:
        lines += _section(
            "hop latencies (cycles)",
            ["hop", "layer", "count", "mean", "p50", "p95", "max"],
            [[name, HOP_LAYER.get(name, "-"), str(row["count"]),
              _num(row["mean"]), _num(row["p50"]), _num(row["p95"]),
              _num(row["max"])]
             for name, row in sorted(hops.items())],
            fmt)
    contention = report.get("contention") or {}
    mods = contention.get("cache_modules")
    ports = contention.get("send_ports")
    if mods or ports:
        rows = []
        for row in (mods or [])[:top]:
            rows.append([f"cache module {row['module']:02d}",
                         str(row["requests"]), str(row["wait_cycles"]),
                         _num(row["mean_wait"])])
        for row in (ports or [])[:top]:
            name = ("master port" if row["cluster"] < 0
                    else f"send port c{row['cluster']:02d}")
            rows.append([name, str(row["requests"]),
                         str(row["wait_cycles"]), _num(row["mean_wait"])])
        lines += _section("contention hot spots",
                          ["where", "requests", "wait_cycles", "mean"],
                          rows, fmt)
    bottleneck = report.get("bottleneck")
    if bottleneck:
        lines.append("")
        text = (f"bottleneck: {bottleneck['category']} -- "
                f"{bottleneck['share']:.1f}% of all cycles")
        hop = bottleneck.get("dominant_hop")
        if hop:
            text += (f"; dominant hop {hop['hop']} "
                     f"(mean {_num(hop['mean'])}, p95 {_num(hop['p95'])})")
        lines.append(text)
    return "\n".join(lines)


def _render_diff(report: Dict[str, Any], fmt: str) -> str:
    a = report["run_a"]
    b = report["run_b"]
    name_a = a.get("label") or a.get("run_id", "run A")[:12]
    name_b = b.get("label") or b.get("run_id", "run B")[:12]
    head = f"xmt-explain diff: {name_a} -> {name_b}"
    lines = [f"## {head}", ""] if fmt == "markdown" else [head]
    pct = report.get("cycles_pct")
    lines.append(f"cycles: {a['cycles']} -> {b['cycles']} "
                 f"({report['cycles_delta']:+d}"
                 + (f", {pct:+.2f}%" if pct is not None else "") + ")")
    lines += _section(
        "layer attribution (machine-wide cycles by category)",
        ["category", name_a, name_b, "delta", "pct"],
        [[r["category"], str(r["cycles_a"]), str(r["cycles_b"]),
          f"{r['delta']:+d}",
          "-" if r["pct"] is None else f"{r['pct']:+.1f}%"]
         for r in report["layer_table"]],
        fmt)
    responsible = report.get("responsible")
    if responsible:
        lines.append("")
        lines.append(f"layer responsible: {responsible['category']} "
                     f"({responsible['delta']:+d} cycles, "
                     f"{responsible['share']:.1f}% of the growth)")
    hop_deltas = [h for h in report.get("hop_deltas", [])
                  if h["mean_a"] is not None and h["mean_b"] is not None
                  and h["mean_a"] != h["mean_b"]]
    if hop_deltas:
        lines += _section(
            "hop latency movement (mean cycles)",
            ["hop", "layer", name_a, name_b],
            [[h["hop"], h["layer"], _num(h["mean_a"]), _num(h["mean_b"])]
             for h in hop_deltas],
            fmt)
    return "\n".join(lines)
