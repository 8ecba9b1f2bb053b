"""Differential observability: diff two (or N) recorded runs.

A ledger full of manifests answers "what ran"; this module answers the
architectural question -- *what changed*.  :func:`compare_runs` takes
two :class:`~repro.sim.observability.ledger.RunRecord` objects and
returns the ``xmt-compare/1`` report (what ``--format json`` prints)
with five delta layers:

- **metric deltas** over the flattened ``xmtsim-metrics/1`` scalar
  space (counters, stats, scheduler bookkeeping, gauge high-water
  marks, histogram counts/means), filtered by a relative threshold;
- **per-XMTC-line profile deltas** from the ``xmt-prof/1`` payloads:
  every source line classified ``regressed`` / ``improved`` / ``new``
  / ``vanished`` and ranked by attributed-cycle delta;
- **spawn-region rollup deltas** (total cycles per spawn site);
- **layer attribution** from the ``xmt-accounting/1`` payloads (when
  both runs recorded top-down accounting): per-category cycle deltas
  and the memory layer named responsible for a cycle regression;
- **hop latency movement** from the ``xmt-lifecycle/1`` payloads (when
  both runs ran the flight recorder): per-hop mean and p95 latency.

:func:`render_comparison` prints it as text (terminal), Markdown (PRs,
EXPERIMENTS.md) or JSON (tooling).
:func:`check_regressions` implements the CI gate semantics of
``xmt-compare check``: lower-is-better gate metrics (cycles by default)
may not exceed the baseline by more than the threshold.  Schema fields
are verified up front so a payload from a different toolchain era fails
with a named schema error, not a ``KeyError`` three stack frames deep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.sim.observability.artifacts import check_artifact, schema_of
from repro.sim.observability.explain import (Table, Title, fmt_num,
                                             render_report)
from repro.sim.observability.ledger import RunRecord
from repro.sim.observability.lifecycle import HOP_LAYER, hop_percentiles
from repro.sim.observability.profiler import source_line

# -- flattening -------------------------------------------------------------


def flatten_metrics(payload: Dict[str, Any]) -> Dict[str, float]:
    """Fold a metrics payload into one flat ``name -> scalar`` space.

    Gauges contribute their high-water mark (the instantaneous value at
    halt is always 0 for queues); histograms contribute sample count
    and mean.  Host-dependent scheduler numbers stay in -- the
    threshold filter and the gate-metric whitelist decide relevance.
    """
    check_artifact(payload, "metrics", "metrics payload")
    flat: Dict[str, float] = {}
    for name, value in payload["counters"].items():
        flat[f"counter.{name}"] = value
    for name, value in payload["stats"].items():
        flat[f"stats.{name}"] = value
    for name, value in payload["scheduler"].items():
        if isinstance(value, (int, float)):
            flat[f"scheduler.{name}"] = value
    for name, gauge in payload["gauges"].items():
        flat[f"gauge.{name}.max"] = gauge["max"]
    for name, hist in payload["histograms"].items():
        flat[f"hist.{name}.count"] = hist["count"]
        flat[f"hist.{name}.mean"] = hist["mean"]
    return flat


def _rel(a: float, b: float) -> Optional[float]:
    if a == 0:
        return None if b == 0 else float("inf")
    return (b - a) / abs(a)


def diff_scalars(a: Dict[str, float], b: Dict[str, float],
                 threshold: float) -> List[Dict[str, Any]]:
    """Deltas above ``threshold`` (relative), plus appear/vanish: rows
    of ``name``, ``a``, ``b``, ``delta``, ``rel`` and ``status``
    (changed | new | vanished), biggest relative movers first."""
    deltas: List[Dict[str, Any]] = []
    for name in sorted(set(a) | set(b)):
        if name not in a or name not in b:
            deltas.append({"name": name, "a": a.get(name), "b": b.get(name),
                           "delta": None, "rel": None,
                           "status": "new" if name in b else "vanished"})
            continue
        va, vb = a[name], b[name]
        if va == vb:
            continue
        rel = _rel(va, vb)
        if rel is not None and rel != float("inf") \
                and abs(rel) < threshold:
            continue
        deltas.append({"name": name, "a": va, "b": vb, "delta": vb - va,
                       "rel": rel, "status": "changed"})
    deltas.sort(key=lambda d: -(abs(d["rel"])
                                if d["rel"] not in (None, float("inf"))
                                else float("inf")))
    return deltas


def _profile_lines(payload: Dict[str, Any]) -> Dict[int, int]:
    return {row["line"]: row["cycles"] for row in payload["lines"]}


def diff_profiles(a: Dict[str, Any], b: Dict[str, Any],
                  threshold: float) -> List[Dict[str, Any]]:
    """Per-source-line attributed-cycle rows (``line``, ``cycles_a``,
    ``cycles_b``, ``delta``, ``status``, ``source``), biggest movers
    first.

    ``regressed`` means run B charges more issue-slot cycles to the
    line than run A did (lower is better); ``new``/``vanished`` lines
    appear in only one profile (e.g. an optimization removed the code).
    """
    check_artifact(a, "profile", "profile payload (run A)")
    check_artifact(b, "profile", "profile payload (run B)")
    lines_a, lines_b = _profile_lines(a), _profile_lines(b)
    source = b.get("source") or a.get("source")
    deltas: List[Dict[str, Any]] = []
    for line in sorted(set(lines_a) | set(lines_b)):
        ca, cb = lines_a.get(line), lines_b.get(line)
        if ca is None:
            status, ca = "new", 0
        elif cb is None:
            status, cb = "vanished", 0
        elif ca == cb or (ca and abs(cb - ca) / ca < threshold):
            continue
        else:
            status = "regressed" if cb > ca else "improved"
        deltas.append({"line": line, "cycles_a": ca, "cycles_b": cb,
                       "delta": cb - ca, "status": status,
                       "source": source_line(source, line)})
    deltas.sort(key=lambda d: -abs(d["delta"]))
    return deltas


def _spawn_rollup(payload: Dict[str, Any]) -> Dict[int, int]:
    rollup: Dict[int, int] = {}
    for region in payload.get("spawn_regions", []):
        line = region["src_line"]
        rollup[line] = rollup.get(line, 0) + region["cycles_total"]
    return rollup


def diff_spawn_regions(a: Dict[str, Any], b: Dict[str, Any]
                       ) -> List[Dict[str, Any]]:
    """Total cycles per spawn site (``src_line``, ``cycles_a``,
    ``cycles_b``, ``delta``) where they moved, biggest first."""
    ra, rb = _spawn_rollup(a), _spawn_rollup(b)
    deltas = [{"src_line": line, "cycles_a": ra.get(line, 0),
               "cycles_b": rb.get(line, 0),
               "delta": rb.get(line, 0) - ra.get(line, 0)}
              for line in sorted(set(ra) | set(rb))]
    deltas = [d for d in deltas if d["delta"]]
    deltas.sort(key=lambda d: -abs(d["delta"]))
    return deltas


#: categories that are *spent well* or derived idle -- never named as
#: the layer responsible for a regression
_NOT_RESPONSIBLE = ("retiring",)


def diff_accounting(a: Dict[str, Any],
                    b: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Per-category rows (``category``, ``cycles_a``, ``cycles_b``,
    ``delta``, ``pct`` -- the relative change, ``None`` when a is 0) of
    two accounting exports, largest absolute movement first.  Cycles
    are machine-wide sums over all processors."""
    flat_a = a.get("machine", {}).get("flat", {})
    flat_b = b.get("machine", {}).get("flat", {})
    rows = []
    for cat in sorted(set(flat_a) | set(flat_b)):
        ca = flat_a.get(cat, 0)
        cb = flat_b.get(cat, 0)
        if not ca and not cb:
            continue
        rows.append({"category": cat, "cycles_a": ca, "cycles_b": cb,
                     "delta": cb - ca,
                     "pct": round(100.0 * (cb - ca) / ca, 2) if ca else None})
    rows.sort(key=lambda r: -abs(r["delta"]))
    return rows


def responsible_layer(rows: List[Dict[str, Any]]
                      ) -> Optional[Dict[str, Any]]:
    """The category that grew the most -- the *layer* a regression is
    charged to.  ``None`` when nothing grew."""
    grew = [r for r in rows
            if r["delta"] > 0 and r["category"] not in _NOT_RESPONSIBLE]
    if not grew:
        return None
    worst = max(grew, key=lambda r: r["delta"])
    total_growth = sum(r["delta"] for r in grew)
    return {"category": worst["category"], "delta": worst["delta"],
            "share": round(100.0 * worst["delta"] / total_growth, 1)
            if total_growth else 0.0}


def diff_hops(a: Dict[str, Any], b: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One row per hop in either lifecycle export (``hop``, ``layer``,
    ``mean_a``, ``mean_b``, ``p95_a``, ``p95_b``; ``None`` where a run
    has no sample of the hop), in hop-name order."""
    hops_a = hop_percentiles(a.get("hops", {}))
    hops_b = hop_percentiles(b.get("hops", {}))
    rows = []
    for name in sorted(set(hops_a) | set(hops_b)):
        ra, rb = hops_a.get(name), hops_b.get(name)
        rows.append({"hop": name, "layer": HOP_LAYER.get(name, "?"),
                     "mean_a": ra["mean"] if ra else None,
                     "mean_b": rb["mean"] if rb else None,
                     "p95_a": ra["p95"] if ra else None,
                     "p95_b": rb["p95"] if rb else None})
    return rows


# -- the comparison report ---------------------------------------------------


def _run(manifest: Dict[str, Any]) -> Dict[str, Any]:
    run = {"run_id": manifest.get("run_id"), "label": manifest.get("label"),
           "cycles": manifest["cycles"]}
    if manifest.get("ended"):
        run["ended"] = manifest["ended"]
    return run


def run_marks(run: Dict[str, Any]) -> str:
    """What sets a run apart from a completed one, as the text after
    its name: `` [stalled]`` or `` [budget]`` for a run the watchdog or
    a budget stopped (``ended``); empty for a completed run.  ``run`` is
    a manifest or a :func:`_run`."""
    return f" [{run['ended']}]" if run.get("ended") else ""


def compare_runs(a: RunRecord, b: RunRecord,
                 threshold: float = 0.05) -> Dict[str, Any]:
    """Diff two run records (A is the baseline) into the
    ``xmt-compare/1`` report.

    Metric, profile, accounting and hop layers appear only when both
    runs recorded the corresponding payload; the manifests alone still
    yield the cycle headline and the config diff.
    """
    check_artifact(a.manifest, "manifest", "manifest (run A)")
    check_artifact(b.manifest, "manifest", "manifest (run B)")
    cycles_a, cycles_b = a.manifest["cycles"], b.manifest["cycles"]
    config_a, config_b = a.manifest["config"], b.manifest["config"]
    report: Dict[str, Any] = {
        "schema": schema_of("comparison"),
        "threshold": threshold,
        "run_a": _run(a.manifest),
        "run_b": _run(b.manifest),
        "cycles": {"a": cycles_a, "b": cycles_b,
                   "delta": cycles_b - cycles_a,
                   "rel": _rel(cycles_a, cycles_b)},
        "config_changes": [
            {"field": key, "a": config_a.get(key), "b": config_b.get(key)}
            for key in sorted(set(config_a) | set(config_b))
            if config_a.get(key) != config_b.get(key)],
        "metric_deltas": [], "line_deltas": [], "spawn_deltas": [],
        "accounting_deltas": [], "responsible": None, "hop_deltas": [],
    }
    metrics_a, metrics_b = a.payload("metrics"), b.payload("metrics")
    if metrics_a is not None and metrics_b is not None:
        report["metric_deltas"] = diff_scalars(
            flatten_metrics(metrics_a), flatten_metrics(metrics_b),
            threshold)
        report["spawn_deltas"] = diff_spawn_regions(metrics_a, metrics_b)
    profile_a, profile_b = a.payload("profile"), b.payload("profile")
    if profile_a is not None and profile_b is not None:
        report["line_deltas"] = diff_profiles(profile_a, profile_b,
                                              threshold)
    acct_a, acct_b = a.payload("accounting"), b.payload("accounting")
    if acct_a is not None and acct_b is not None:
        rows = report["accounting_deltas"] = diff_accounting(acct_a, acct_b)
        report["responsible"] = responsible_layer(rows)
    life_a, life_b = a.payload("lifecycle"), b.payload("lifecycle")
    if life_a is not None and life_b is not None:
        report["hop_deltas"] = diff_hops(life_a, life_b)
    return report


def render_comparison(comparison: Dict[str, Any], fmt: str = "text",
                      top: int = 20) -> str:
    """Render a :func:`compare_runs` report, ``top`` rows per table."""
    return render_report(comparison, fmt,
                         lambda c: _comparison_parts(c, top))


def _name(run: Dict[str, Any]) -> str:
    label = run.get("label")
    return (f"{run.get('run_id') or '?'}" + (f" ({label})" if label else "")
            + run_marks(run))


def _comparison_parts(c: Dict[str, Any], top: int) -> List[Any]:
    cycles = c["cycles"]
    parts: List[Any] = [
        Title(f"xmt-compare: {_name(c['run_a'])} -> {_name(c['run_b'])}"),
        f"cycles: {cycles['a']} -> {cycles['b']} "
        f"({fmt_num(cycles['rel'], '+.1%')}, "
        f"threshold {100 * c['threshold']:.1f}%)"]

    def section(title, headers, rows, align=1):
        parts.append(Table(headers, rows[:top], title, align))
        if len(rows) > top:  # (a line right under a pipe table joins it)
            parts.extend(
                ["", f"... {len(rows) - top} more row(s); --top raises"])

    if c["config_changes"]:
        section("config changes", ["field", "A", "B"],
                [[d["field"], d["a"], d["b"]] for d in c["config_changes"]])
    if c["metric_deltas"]:
        section("metrics", ["metric", "A", "B", "delta", "rel"],
                [[d["name"], d["a"], d["b"], d["delta"],
                  fmt_num(d["rel"], "+.1%")] for d in c["metric_deltas"]])
    else:
        parts += ["", "no metric deltas above threshold"]
    if c["line_deltas"]:
        section("XMTC lines (attributed issue-slot cycles)",
                ["line", "status", "A", "B", "delta", "source"],
                [[d["line"] if d["line"] > 0 else "--", d["status"],
                  d["cycles_a"], d["cycles_b"], f"{d['delta']:+d}",
                  d["source"]] for d in c["line_deltas"]], align=None)
    if c["spawn_deltas"]:
        section("spawn regions (total cycles)", ["line", "A", "B", "delta"],
                [[d["src_line"], d["cycles_a"], d["cycles_b"],
                  f"{d['delta']:+d}"] for d in c["spawn_deltas"]])
    moved = [d for d in c["accounting_deltas"] if d["delta"]]
    if moved:
        section("layer attribution (top-down cycles by category)",
                ["category", "A", "B", "delta", "pct"],
                [[d["category"], d["cycles_a"], d["cycles_b"],
                  f"{d['delta']:+d}",
                  None if d["pct"] is None else f"{d['pct']:+.1f}%"]
                 for d in moved])
    responsible = c["responsible"]
    if responsible:
        parts += ["", f"layer responsible: {responsible['category']} "
                      f"({responsible['delta']:+d} cycles, "
                      f"{responsible['share']:.1f}% of the growth)"]
    hops = [[d["hop"], d["layer"], d["mean_a"], d["mean_b"]]
            for d in c["hop_deltas"]
            if None not in (d["mean_a"], d["mean_b"])
            and d["mean_a"] != d["mean_b"]]
    if hops:
        section("hop latency movement (mean cycles)",
                ["hop", "layer", "A", "B"], hops, align=2)
    return parts


# -- CI gate semantics -------------------------------------------------------

#: gate metrics where a higher run-B value is a regression
DEFAULT_GATE_METRICS = ("cycles",)


@dataclass
class GateFailure:
    metric: str
    baseline: float
    fresh: float
    rel: Optional[float]
    threshold: float

    def format(self) -> str:
        return (f"REGRESSION {self.metric}: {fmt_num(self.baseline)} -> "
                f"{fmt_num(self.fresh)} ({fmt_num(self.rel, '+.1%')} > "
                f"+{100 * self.threshold:.1f}% allowed)")


def _gate_space(record: RunRecord) -> Dict[str, float]:
    metrics = record.payload("metrics")
    flat = flatten_metrics(metrics) if metrics is not None else {}
    flat["cycles"] = record.cycles
    return flat


def check_regressions(a: RunRecord, b: RunRecord,
                      metrics: Sequence[str] = DEFAULT_GATE_METRICS,
                      threshold: float = 0.05) -> List[GateFailure]:
    """The ``xmt-compare check`` gate: lower-is-better metrics of run B
    may not exceed run A by more than ``threshold`` (relative).

    ``metrics`` names ``cycles`` (the manifest cycle count) or any name
    from either run's flattened metric space (``stats.*``,
    ``counter.*``, ``hist.*``, ...).  A name in neither run is a
    ``KeyError`` -- a misspelled gate must not pass; missing from one
    run is a failure (the payload shape changed).
    """
    flat_a, flat_b = _gate_space(a), _gate_space(b)
    failures: List[GateFailure] = []
    for name in metrics:
        base, fresh = flat_a.get(name), flat_b.get(name)
        if base is None and fresh is None:
            raise KeyError(f"{name}: not a metric of either run")
        if base is None or fresh is None:
            failures.append(GateFailure(
                name, float("nan") if base is None else base,
                float("nan") if fresh is None else fresh, None, threshold))
        elif fresh > base * (1 + threshold):
            failures.append(GateFailure(name, base, fresh,
                                        _rel(base, fresh), threshold))
    return failures

