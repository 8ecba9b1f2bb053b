"""Differential observability: diff two (or N) recorded runs.

A ledger full of manifests answers "what ran"; this module answers the
architectural question -- *what changed*.  :func:`compare_runs` takes
two :class:`~repro.sim.observability.ledger.RunRecord` objects and
produces a :class:`RunComparison` with three delta layers:

- **metric deltas** over the flattened ``xmtsim-metrics/1`` scalar
  space (counters, stats, scheduler bookkeeping, gauge high-water
  marks, histogram counts/means), filtered by a relative threshold;
- **per-XMTC-line profile deltas** from the ``xmt-prof/1`` payloads:
  every source line classified ``regressed`` / ``improved`` / ``new``
  / ``vanished`` and ranked by attributed-cycle delta;
- **spawn-region rollup deltas** (total cycles per spawn site);
- **layer attribution** from the ``xmt-accounting/1`` payloads (when
  both runs recorded top-down accounting): per-category cycle deltas
  and the memory layer named responsible for a cycle regression.

Renderers emit text (terminal), Markdown (PRs, EXPERIMENTS.md) and
JSON (tooling).  :func:`check_regressions` implements the CI gate
semantics of ``xmt-compare check``: lower-is-better gate metrics
(cycles by default) may not exceed the baseline by more than the
threshold.  Schema fields are verified up front so a payload from a
different toolchain era fails with a named schema error, not a
``KeyError`` three stack frames deep.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.sim.observability.artifacts import check_artifact, schema_of
from repro.sim.observability.explain import (AccountingDelta,
                                             diff_accounting,
                                             render_table,
                                             responsible_layer)
from repro.sim.observability.ledger import RunRecord

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


@dataclass
class MetricDelta:
    """One scalar metric compared across two runs."""

    name: str
    a: Optional[float]
    b: Optional[float]
    delta: Optional[float]
    rel: Optional[float]          # None when a == b == 0
    status: str                   # changed | new | vanished

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "a": self.a, "b": self.b,
                "delta": self.delta, "rel": self.rel,
                "status": self.status}


def diff_scalars(a: Dict[str, float], b: Dict[str, float],
                 threshold: float) -> List[MetricDelta]:
    """Deltas above ``threshold`` (relative), plus appear/vanish."""
    deltas: List[MetricDelta] = []
    for name in sorted(set(a) | set(b)):
        if name not in a:
            deltas.append(MetricDelta(name, None, b[name], None, None,
                                      "new"))
            continue
        if name not in b:
            deltas.append(MetricDelta(name, a[name], None, None, None,
                                      "vanished"))
            continue
        va, vb = a[name], b[name]
        if va == vb:
            continue
        rel = _rel(va, vb)
        if rel is not None and rel != float("inf") \
                and abs(rel) < threshold:
            continue
        deltas.append(MetricDelta(name, va, vb, vb - va, rel, "changed"))
    deltas.sort(key=lambda d: -(abs(d.rel)
                                if d.rel not in (None, float("inf"))
                                else float("inf")))
    return deltas


@dataclass
class LineDelta:
    """Attributed cycles of one XMTC source line across two runs."""

    line: int
    cycles_a: int
    cycles_b: int
    delta: int
    status: str                   # regressed | improved | new | vanished
    source: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {"line": self.line, "cycles_a": self.cycles_a,
                "cycles_b": self.cycles_b, "delta": self.delta,
                "status": self.status, "source": self.source}


def _profile_lines(payload: Dict[str, Any]) -> Dict[int, int]:
    return {row["line"]: row["cycles"] for row in payload["lines"]}


def _quote(source: Optional[str], line: int) -> str:
    if not source or line <= 0:
        return ""
    lines = source.splitlines()
    return lines[line - 1].strip() if 1 <= line <= len(lines) else ""


def diff_profiles(a: Dict[str, Any], b: Dict[str, Any],
                  threshold: float) -> List[LineDelta]:
    """Per-source-line attributed-cycle deltas, biggest movers first.

    ``regressed`` means run B charges more issue-slot cycles to the
    line than run A did (lower is better); ``new``/``vanished`` lines
    appear in only one profile (e.g. an optimization removed the code).
    """
    check_artifact(a, "profile", "profile payload (run A)")
    check_artifact(b, "profile", "profile payload (run B)")
    lines_a, lines_b = _profile_lines(a), _profile_lines(b)
    source = b.get("source") or a.get("source")
    deltas: List[LineDelta] = []
    for line in sorted(set(lines_a) | set(lines_b)):
        ca, cb = lines_a.get(line), lines_b.get(line)
        if ca is None:
            deltas.append(LineDelta(line, 0, cb, cb, "new",
                                    _quote(source, line)))
            continue
        if cb is None:
            deltas.append(LineDelta(line, ca, 0, -ca, "vanished",
                                    _quote(source, line)))
            continue
        if ca == cb or (ca and abs(cb - ca) / ca < threshold):
            continue
        status = "regressed" if cb > ca else "improved"
        deltas.append(LineDelta(line, ca, cb, cb - ca, status,
                                _quote(source, line)))
    deltas.sort(key=lambda d: -abs(d.delta))
    return deltas


@dataclass
class SpawnDelta:
    """Total cycles spent in one spawn region across two runs."""

    src_line: int
    cycles_a: int
    cycles_b: int
    delta: int

    def to_dict(self) -> Dict[str, Any]:
        return {"src_line": self.src_line, "cycles_a": self.cycles_a,
                "cycles_b": self.cycles_b, "delta": self.delta}


def _spawn_rollup(payload: Dict[str, Any]) -> Dict[int, int]:
    rollup: Dict[int, int] = {}
    for region in payload.get("spawn_regions", []):
        line = region["src_line"]
        rollup[line] = rollup.get(line, 0) + region["cycles_total"]
    return rollup


def diff_spawn_regions(a: Dict[str, Any], b: Dict[str, Any]
                       ) -> List[SpawnDelta]:
    ra, rb = _spawn_rollup(a), _spawn_rollup(b)
    deltas = [SpawnDelta(line, ra.get(line, 0), rb.get(line, 0),
                         rb.get(line, 0) - ra.get(line, 0))
              for line in sorted(set(ra) | set(rb))]
    deltas = [d for d in deltas if d.delta]
    deltas.sort(key=lambda d: -abs(d.delta))
    return deltas


# -- the comparison object ---------------------------------------------------


@dataclass
class RunComparison:
    """Everything that differs between run A (baseline) and run B."""

    run_a: Dict[str, Any]         # manifests
    run_b: Dict[str, Any]
    threshold: float
    metric_deltas: List[MetricDelta] = field(default_factory=list)
    line_deltas: List[LineDelta] = field(default_factory=list)
    spawn_deltas: List[SpawnDelta] = field(default_factory=list)
    accounting_deltas: List[AccountingDelta] = field(default_factory=list)

    @property
    def cycles_a(self) -> int:
        return self.run_a["cycles"]

    @property
    def cycles_b(self) -> int:
        return self.run_b["cycles"]

    @property
    def cycles_rel(self) -> Optional[float]:
        return _rel(self.cycles_a, self.cycles_b)

    def responsible(self) -> Optional[Dict[str, Any]]:
        """The top-down category a cycle regression is charged to, or
        ``None`` when accounting is absent or nothing grew."""
        if not self.accounting_deltas:
            return None
        return responsible_layer(self.accounting_deltas)

    def config_changes(self) -> List[Tuple[str, Any, Any]]:
        """Config fields that differ between the two manifests."""
        ca, cb = self.run_a["config"], self.run_b["config"]
        return [(key, ca.get(key), cb.get(key))
                for key in sorted(set(ca) | set(cb))
                if ca.get(key) != cb.get(key)]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": schema_of("comparison"),
            "threshold": self.threshold,
            "run_a": {"run_id": self.run_a.get("run_id"),
                      "label": self.run_a.get("label"),
                      "cycles": self.cycles_a},
            "run_b": {"run_id": self.run_b.get("run_id"),
                      "label": self.run_b.get("label"),
                      "cycles": self.cycles_b},
            "cycles": {"a": self.cycles_a, "b": self.cycles_b,
                       "delta": self.cycles_b - self.cycles_a,
                       "rel": self.cycles_rel},
            "config_changes": [
                {"field": k, "a": a, "b": b}
                for k, a, b in self.config_changes()],
            "metric_deltas": [d.to_dict() for d in self.metric_deltas],
            "line_deltas": [d.to_dict() for d in self.line_deltas],
            "spawn_deltas": [d.to_dict() for d in self.spawn_deltas],
            "accounting_deltas": [d.to_dict()
                                  for d in self.accounting_deltas],
            "responsible": self.responsible(),
        }

    # -- renderers -----------------------------------------------------------

    def render(self, fmt: str = "text", top: int = 20) -> str:
        if fmt == "json":
            return json.dumps(self.to_dict(), indent=2, sort_keys=True)
        if fmt == "markdown":
            return self._render_markdown(top)
        if fmt == "text":
            return self._render_text(top)
        raise ValueError(f"unknown comparison format {fmt!r}")

    def _headline(self) -> str:
        rel = self.cycles_rel
        pct = (f"{100 * rel:+.1f}%" if rel not in (None, float("inf"))
               else "n/a")
        return (f"cycles: {self.cycles_a} -> {self.cycles_b} "
                f"({pct}, threshold {100 * self.threshold:.1f}%)")

    def _render_text(self, top: int) -> str:
        out = [f"run A: {_describe(self.run_a)}",
               f"run B: {_describe(self.run_b)}"]
        changes = self.config_changes()
        if changes:
            out.append("config changes: " + ", ".join(
                f"{k}: {a} -> {b}" for k, a, b in changes))
        out.append(self._headline())
        if self.metric_deltas:
            out.append("")
            out.append(f"{'metric':<36} {'A':>12} {'B':>12} "
                       f"{'delta':>12} {'rel':>8}")
            for d in self.metric_deltas[:top]:
                out.append(f"{d.name:<36} {_num(d.a):>12} {_num(d.b):>12} "
                           f"{_num(d.delta):>12} {_pct(d.rel):>8}")
            if len(self.metric_deltas) > top:
                out.append(f"  ... ({len(self.metric_deltas) - top} more "
                           f"metric delta(s); --top raises)")
        else:
            out.append("no metric deltas above threshold")
        if self.line_deltas:
            out.append("")
            out.append(f"{'line':>5} {'status':<9} {'A cyc':>10} "
                       f"{'B cyc':>10} {'delta':>10}  source")
            for d in self.line_deltas[:top]:
                where = f"{d.line:>5}" if d.line > 0 else "   --"
                out.append(f"{where} {d.status:<9} {d.cycles_a:>10} "
                           f"{d.cycles_b:>10} {d.delta:>+10}  "
                           f"{('| ' + d.source) if d.source else ''}")
        if self.spawn_deltas:
            out.append("")
            out.append("spawn regions (total cycles):")
            for d in self.spawn_deltas[:top]:
                out.append(f"  line {d.src_line}: {d.cycles_a} -> "
                           f"{d.cycles_b} ({d.delta:+d})")
        if self.accounting_deltas:
            out.append("")
            out.append("layer attribution (top-down cycles by category):")
            out.append(f"  {'category':<24} {'A':>12} {'B':>12} "
                       f"{'delta':>12}")
            for d in self.accounting_deltas[:top]:
                if not d.delta:
                    continue
                out.append(f"  {d.category:<24} {d.cycles_a:>12} "
                           f"{d.cycles_b:>12} {d.delta:>+12}")
            responsible = self.responsible()
            if responsible:
                out.append(f"  layer responsible: "
                           f"{responsible['category']} "
                           f"({responsible['delta']:+d} cycles, "
                           f"{responsible['share']:.1f}% of the growth)")
        return "\n".join(out)

    def _render_markdown(self, top: int) -> str:
        out = [f"### `{self.run_a.get('label') or self.run_a['run_id']}` "
               f"vs `{self.run_b.get('label') or self.run_b['run_id']}`",
               "", self._headline(), ""]
        changes = self.config_changes()
        if changes:
            out += render_table(
                ["config field", "A", "B"],
                [[f"`{k}`", str(a), str(b)] for k, a, b in changes],
                "markdown") + [""]
        if self.metric_deltas:
            out += render_table(
                ["metric", "A", "B", "delta", "rel"],
                [[f"`{d.name}`", _num(d.a), _num(d.b), _num(d.delta),
                  _pct(d.rel)] for d in self.metric_deltas[:top]],
                "markdown") + [""]
        if self.line_deltas:
            out += render_table(
                ["line", "status", "A cycles", "B cycles", "delta"],
                [[str(d.line), d.status, str(d.cycles_a), str(d.cycles_b),
                  f"{d.delta:+d}"] for d in self.line_deltas[:top]],
                "markdown") + [""]
        if self.accounting_deltas:
            out += render_table(
                ["category", "A cycles", "B cycles", "delta"],
                [[f"`{d.category}`", str(d.cycles_a), str(d.cycles_b),
                  f"{d.delta:+d}"]
                 for d in self.accounting_deltas[:top] if d.delta],
                "markdown")
            responsible = self.responsible()
            if responsible:
                out += ["", f"layer responsible: "
                            f"`{responsible['category']}` "
                            f"({responsible['delta']:+d} cycles, "
                            f"{responsible['share']:.1f}% of the growth)"]
        return "\n".join(out)


def _describe(manifest: Dict[str, Any]) -> str:
    cfg = manifest.get("config", {})
    label = manifest.get("label")
    return (f"{manifest.get('run_id', '?')}"
            f"{' (' + label + ')' if label else ''} "
            f"[{cfg.get('name', '?')}, {manifest['cycles']} cycles, "
            f"program {manifest['program']['sha256'][:10]}]")


def _num(value: Optional[float]) -> str:
    if value is None:
        return "--"
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.3f}"
    return str(int(value))


def _pct(rel: Optional[float]) -> str:
    if rel is None:
        return "--"
    if rel == float("inf"):
        return "+inf"
    return f"{100 * rel:+.1f}%"


def compare_runs(a: RunRecord, b: RunRecord,
                 threshold: float = 0.05) -> RunComparison:
    """Diff two run records (A is the baseline).

    Metric and profile layers appear only when both runs recorded the
    corresponding payload; the manifests alone still yield the cycle
    headline and the config diff.
    """
    check_artifact(a.manifest, "manifest", "manifest (run A)")
    check_artifact(b.manifest, "manifest", "manifest (run B)")
    comparison = RunComparison(run_a=a.manifest, run_b=b.manifest,
                               threshold=threshold)
    metrics_a, metrics_b = a.payload("metrics"), b.payload("metrics")
    if metrics_a is not None and metrics_b is not None:
        comparison.metric_deltas = diff_scalars(
            flatten_metrics(metrics_a), flatten_metrics(metrics_b),
            threshold)
        comparison.spawn_deltas = diff_spawn_regions(metrics_a, metrics_b)
    profile_a, profile_b = a.payload("profile"), b.payload("profile")
    if profile_a is not None and profile_b is not None:
        comparison.line_deltas = diff_profiles(profile_a, profile_b,
                                               threshold)
    acct_a, acct_b = a.payload("accounting"), b.payload("accounting")
    if acct_a is not None and acct_b is not None:
        comparison.accounting_deltas = diff_accounting(acct_a, acct_b)
    return comparison


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
        return (f"REGRESSION {self.metric}: {_num(self.baseline)} -> "
                f"{_num(self.fresh)} ({_pct(self.rel)} > "
                f"+{100 * self.threshold:.1f}% allowed)")


def check_regressions(comparison: RunComparison,
                      metrics: Sequence[str] = DEFAULT_GATE_METRICS,
                      threshold: Optional[float] = None
                      ) -> List[GateFailure]:
    """The ``xmt-compare check`` gate: lower-is-better metrics of run B
    may not exceed run A by more than ``threshold`` (relative).

    ``metrics`` names ``cycles`` (the manifest cycle count) or any name
    from the flattened metric space (``stats.*``, ``counter.*``,
    ``hist.*``, ...).  A gate metric missing from both runs is ignored;
    missing from one run is a failure (the payload shape changed).
    """
    limit = comparison.threshold if threshold is None else threshold
    flat_a = flatten_metrics_of(comparison.run_a, comparison)
    flat_b = flatten_metrics_of(comparison.run_b, comparison)
    failures: List[GateFailure] = []
    for name in metrics:
        if name == "cycles":
            base, fresh = comparison.cycles_a, comparison.cycles_b
        else:
            base, fresh = flat_a.get(name), flat_b.get(name)
            if base is None and fresh is None:
                continue
            if base is None or fresh is None:
                failures.append(GateFailure(name, base if base is not None
                                            else float("nan"),
                                            fresh if fresh is not None
                                            else float("nan"),
                                            None, limit))
                continue
        if fresh > base * (1 + limit):
            failures.append(GateFailure(name, base, fresh,
                                        _rel(base, fresh), limit))
    return failures


def flatten_metrics_of(manifest: Dict[str, Any],
                       comparison: RunComparison) -> Dict[str, float]:
    """Reconstruct one run's flat metric space from a comparison.

    The comparison only stores *deltas*; for gate metrics we need the
    per-run values, so rebuild them from the stored delta rows (equal
    values never produce a row, which is fine -- equal can't regress).
    """
    flat: Dict[str, float] = {}
    side = "a" if manifest is comparison.run_a else "b"
    for d in comparison.metric_deltas:
        value = d.a if side == "a" else d.b
        if value is not None:
            flat[d.name] = value
    return flat


# -- sweeps ------------------------------------------------------------------


def render_sweep_table(records: Sequence[RunRecord],
                       varied: Sequence[str],
                       fmt: str = "text") -> str:
    """Comparison table for a config sweep (first record = baseline).

    One row per run: the varied config fields, the cycle count, and the
    relative cycle delta against the first row.
    """
    if not records:
        return "no runs"
    if fmt == "json":
        return json.dumps({
            "schema": schema_of("comparison"),
            "varied": list(varied),
            "rows": [{
                "run_id": r.run_id,
                "label": r.manifest.get("label"),
                **{k: r.config_value(k) for k in varied},
                "cycles": r.cycles,
                "rel": _rel(records[0].cycles, r.cycles),
            } for r in records],
        }, indent=2, sort_keys=True)
    base = records[0].cycles
    headers = [*varied, "cycles", "vs base", "run id"]
    rows = []
    for r in records:
        rel = _rel(base, r.cycles)
        rows.append([str(r.config_value(k)) for k in varied]
                    + [str(r.cycles), _pct(rel) if r is not records[0]
                       else "base", r.run_id])
    return "\n".join(render_table(headers, rows, fmt, rule=True))
