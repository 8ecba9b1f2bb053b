"""Every report renderer, byte for byte.

The files under ``tests/golden/reports/`` pin what the report renderers
print -- ``render_profile``, ``render_explain``, ``render_comparison``
and ``render_top`` -- in each format they have (text, markdown,
json).  All but the profile go through
``render_report``: the json is the report's payload, and text and
markdown are one layout of it, so both show the same tables with the
same rows (checked for every report below).  The inputs are the two
committed baseline programs, each run on ``tiny`` and again with a slow
DRAM (so every comparison table has rows; ``sweep`` is the ``xmt-top``
report of the two as a ``dram_latency`` grid campaign's outcomes), and
the hand-written campaign stream of ``test_telemetry.TestAggregation``
(whole, and cut before its ``campaign-end`` record).  A refactor of the
table rendering must reproduce them exactly.

Regenerate (only when a report's wording is meant to change)::

    PYTHONPATH=src python tests/test_report_goldens.py
"""

from __future__ import annotations

import json
import os

import pytest

from repro.sim.config import tiny
from repro.sim.observability import (
    build_explain,
    compare_runs,
    explain,
    fold_stream,
    instrumented_run,
    render_comparison,
    render_explain,
    render_profile,
    render_top,
    schema_of,
)
from repro.xmtc.compiler import compile_source

import test_telemetry

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden", "reports")
PROGRAMS = ("vecadd", "compact")
FORMATS = {"text": "txt", "markdown": "md", "json": "json"}

STREAM = test_telemetry.TestAggregation.STREAM

#: report kind -> fmt -> text, for the campaign-stream view: the
#: finished campaign, and the same campaign killed before its
#: ``campaign-end`` record (its counts come from the ``outcome`` records)
STREAM_REPORTS = {
    "top": lambda fmt: render_top(fold_stream(STREAM), fmt),
    "campaign-report": lambda fmt: render_top(fold_stream(STREAM[:-1]),
                                              fmt),
}


def _bundle(artifacts) -> dict:
    return {"accounting": artifacts.accounting,
            "lifecycle": artifacts.extras["lifecycle"],
            "metrics": artifacts.metrics, "manifest": artifacts.manifest}


def program_runs(name: str) -> tuple:
    """One baseline program's run on ``tiny`` and on a slow DRAM."""
    path = os.path.join(ROOT, "benchmarks", "baselines", name, "program.c")
    with open(path) as fh:
        source = fh.read()
    program = compile_source(source)
    return tuple(
        instrumented_run(program, tiny(**overrides), source=source,
                         label=label, accounting=True)
        for label, overrides in ((name, {}),
                                 (f"{name}-slow", {"dram_latency": 60})))


def program_renderers(fast, slow) -> dict:
    """Report kind -> fmt -> text, for the reports over two runs."""
    comparison = compare_runs(fast.as_record(), slow.as_record())
    grid = fold_stream([{
        "schema": schema_of("campaign-telemetry"), "kind": "outcome",
        "index": index, "label": f"dram_latency={latency}",
        "status": "ok", "attempts": 1, "run_id": run.manifest["run_id"],
        "cycles": run.manifest["cycles"],
        "instructions": run.manifest["instructions"],
        "overrides": {"dram_latency": latency}}
        for index, (latency, run) in enumerate(((6, fast), (60, slow)))])
    return {
        "explain": lambda fmt: render_explain(
            build_explain(**_bundle(fast)), fmt),
        "compare": lambda fmt: render_comparison(comparison, fmt),
        "sweep": lambda fmt: render_top(grid, fmt),
    }


def program_reports(name: str) -> dict:
    """Golden file name -> text for one baseline program."""
    fast, slow = program_runs(name)
    reports = {f"{name}.profile.txt": render_profile(fast.profile, top=5)}
    for kind, render in program_renderers(fast, slow).items():
        for fmt, ext in FORMATS.items():
            reports[f"{name}.{kind}.{ext}"] = render(fmt)
    return reports


def stream_reports() -> dict:
    """Golden file name -> text for the campaign-stream views."""
    return {f"{kind}.{ext}": render(fmt)
            for kind, render in STREAM_REPORTS.items()
            for fmt, ext in FORMATS.items()}


@pytest.mark.parametrize("build", [stream_reports,
                                   *(lambda name=name: program_reports(name)
                                     for name in PROGRAMS)],
                         ids=["stream", *PROGRAMS])
def test_reports_match_golden_bytes(build):
    for filename, text in build().items():
        with open(os.path.join(GOLDEN, filename)) as fh:
            assert text + "\n" == fh.read(), \
                f"{filename} drifted from its golden"


@pytest.fixture(scope="module")
def every_report():
    """Report kind -> fmt -> text, for all five reports."""
    return {**program_renderers(*program_runs("vecadd")), **STREAM_REPORTS}


def _tables(monkeypatch, render, fmt: str):
    """What ``render(fmt)`` prints, and the (headers, rows, lines) of
    every table the one table writer wrote for it."""
    tables = []
    write = explain.render_table

    def recording(headers, rows, fmt="text", **options):
        lines = write(headers, rows, fmt, **options)
        tables.append((list(headers), [list(row) for row in rows], lines))
        return lines

    monkeypatch.setattr(explain, "render_table", recording)
    text = render(fmt)
    monkeypatch.setattr(explain, "render_table", write)
    return text, tables


@pytest.mark.parametrize("fmt", ["text", "markdown", "json", "html"])
@pytest.mark.parametrize("kind", ["compare", "sweep", "explain", "top",
                                  "campaign-report"])
def test_every_report_in_every_format(every_report, monkeypatch, kind, fmt):
    render = every_report[kind]
    if fmt == "html":
        with pytest.raises(ValueError, match="'html'"):
            render(fmt)
        return
    text, tables = _tables(monkeypatch, render, fmt)
    if fmt == "json":
        assert json.loads(text)["schema"].startswith("xmt-")
        return
    assert tables, f"{kind} printed no table"
    for _, _, lines in tables:
        assert "\n".join(lines) in text
    if fmt == "markdown":
        assert sum(line.startswith("|---") for line in text.splitlines()) \
            == len(tables)
        _, in_text = _tables(monkeypatch, render, "text")
        assert [table[:2] for table in in_text] == \
            [table[:2] for table in tables]


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    everything = stream_reports()
    for program_name in PROGRAMS:
        everything.update(program_reports(program_name))
    for filename, text in everything.items():
        with open(os.path.join(GOLDEN, filename), "w") as fh:
            fh.write(text + "\n")
    print(f"wrote {len(everything)} golden report(s) to {GOLDEN}")
