"""Every report renderer, byte for byte.

The files under ``tests/golden/reports/`` pin what the report renderers
print -- ``render_profile``, ``render_explain`` (report and diff),
``RunComparison.render``, ``render_sweep_table``, ``render_top`` and
``render_campaign_report`` -- in each format they have (text, markdown,
json).  The inputs are the two committed baseline programs, each run on
``tiny`` and again with a slow DRAM (so every comparison table has
rows), and the hand-written campaign stream of
``test_telemetry.TestAggregation``.  A refactor of the table rendering
must reproduce them exactly.

Regenerate (only when a report's wording is meant to change)::

    PYTHONPATH=src python tests/test_report_goldens.py
"""

from __future__ import annotations

import os

import pytest

from repro.sim.config import tiny
from repro.sim.observability import (
    aggregate_campaign,
    build_explain,
    compare_runs,
    explain_diff,
    fold_stream,
    instrumented_run,
    render_campaign_report,
    render_explain,
    render_profile,
    render_sweep_table,
    render_top,
)
from repro.xmtc.compiler import compile_source

import test_telemetry

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden", "reports")
PROGRAMS = ("vecadd", "compact")
FORMATS = {"text": "txt", "markdown": "md", "json": "json"}

STREAM = test_telemetry.TestAggregation.STREAM


def _bundle(artifacts) -> dict:
    return {"accounting": artifacts.accounting,
            "lifecycle": artifacts.extras["lifecycle"],
            "metrics": artifacts.metrics, "manifest": artifacts.manifest}


def program_reports(name: str) -> dict:
    """Golden file name -> text for one baseline program."""
    path = os.path.join(ROOT, "benchmarks", "baselines", name, "program.c")
    with open(path) as fh:
        source = fh.read()
    program = compile_source(source)
    fast, slow = (
        instrumented_run(program, tiny(**overrides), source=source,
                         label=label, accounting=True)
        for label, overrides in ((name, {}),
                                 (f"{name}-slow", {"dram_latency": 60})))
    comparison = compare_runs(fast.as_record(), slow.as_record())
    records = [fast.as_record(), slow.as_record()]
    reports = {f"{name}.profile.txt": render_profile(fast.profile, top=5)}
    for fmt, ext in FORMATS.items():
        reports.update({
            f"{name}.explain.{ext}": render_explain(
                build_explain(**_bundle(fast)), fmt),
            f"{name}.explain-diff.{ext}": render_explain(
                explain_diff(_bundle(fast), _bundle(slow)), fmt),
            f"{name}.compare.{ext}": comparison.render(fmt),
            f"{name}.sweep.{ext}": render_sweep_table(
                records, ["dram_latency"], fmt),
        })
    return reports


def stream_reports() -> dict:
    """Golden file name -> text for the campaign-stream views."""
    reports = {}
    for fmt, ext in FORMATS.items():
        reports[f"top.{ext}"] = render_top(
            fold_stream(STREAM), fmt)
        reports[f"campaign-report.{ext}"] = render_campaign_report(
            aggregate_campaign(STREAM), fmt)
    return reports


@pytest.mark.parametrize("build", [stream_reports,
                                   *(lambda name=name: program_reports(name)
                                     for name in PROGRAMS)],
                         ids=["stream", *PROGRAMS])
def test_reports_match_golden_bytes(build):
    for filename, text in build().items():
        with open(os.path.join(GOLDEN, filename)) as fh:
            assert text + "\n" == fh.read(), \
                f"{filename} drifted from its golden"


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    everything = stream_reports()
    for program_name in PROGRAMS:
        everything.update(program_reports(program_name))
    for filename, text in everything.items():
        with open(os.path.join(GOLDEN, filename), "w") as fh:
            fh.write(text + "\n")
    print(f"wrote {len(everything)} golden report(s) to {GOLDEN}")
