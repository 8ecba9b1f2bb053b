"""The artifact table, row by row.

``repro.sim.observability.artifacts`` owns every on-disk format; this
module holds it to that.  One observed run, one campaign and one fuzz
sweep are driven through the in-tree writers (``written``), and then
for every row of :data:`ARTIFACTS`: what the writer wrote loads through
the one reader, every way a whole file can be damaged is a
:class:`SchemaError` that starts with the path, and a stream parses the
same whether read whole, torn, or fed to :class:`JsonlTail` in pieces
split at any byte.  The last test keeps the formats where they are: no
schema id and no ``json.load(s)`` under ``src/repro`` outside the
module.
"""

from __future__ import annotations

import glob
import os
import re

import pytest

from repro.power.dtm import PowerThermalPlugin
from repro.sim.campaign import RunRequest, dump_queue
from repro.sim.config import tiny
from repro.sim.observability import (
    ARTIFACTS,
    JsonlTail,
    Ledger,
    SchemaError,
    artifact_json,
    build_explain,
    compare_runs,
    fold_stream,
    instrumented_run,
    load_artifact,
    load_run,
    read_jsonl,
    render_comparison,
    render_explain,
    render_top,
)
from repro.toolchain import cli
from repro.xmtc.compiler import compile_source
from repro.xmtc.fuzz.harness import run_campaign as run_fuzz_campaign

from test_cli_exit_codes import CORRUPTIONS, GOOD_C

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WHOLE = [name for name, row in ARTIFACTS.items() if not row.jsonl]
STREAMS = [name for name, row in ARTIFACTS.items() if row.jsonl]


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """Artifact name -> a file of it, written by the code that writes
    it for users."""
    root = tmp_path_factory.mktemp("artifacts")
    at = lambda name: str(root / name)  # noqa: E731
    (root / "good.c").write_text(GOOD_C)

    # one observed run: its directory, with the three live streams
    assert cli.xmtsim_main(
        [at("good.c"), "--config", "tiny", "--ledger", at("ledger"),
         "--out", at("run"), "--observe",
         "metrics,profile,accounting,lifecycle,events,telemetry",
         "--telemetry-every", "50"]) == 0
    ledger = Ledger(at("ledger"))
    run, = ledger.list_runs()
    paths = {name: os.path.join(at("run"), ARTIFACTS[name].file)
             for name in ("manifest", "metrics", "profile", "accounting",
                          "lifecycle", "lifecycle-stream", "telemetry",
                          "events")}
    paths["ledger-index"] = ledger.index_path
    program = compile_source(GOOD_C)
    powered = ledger.record_artifacts(instrumented_run(
        program, tiny(), source=GOOD_C, label="powered",
        power=PowerThermalPlugin(interval_cycles=50)))
    paths["power"] = os.path.join(powered.path, ARTIFACTS["power"].file)

    # one campaign: its streams, its summary, a queue to feed another
    assert cli.xmt_campaign_main(
        [at("good.c"), "--config", "tiny", "--vary", "dram_latency=6,30",
         "--serial", "--quiet", "--ledger", at("campaign-ledger"),
         "--telemetry-out", at("ct.jsonl")]) == 0
    campaign_dir, = glob.glob(at("campaign-ledger/campaigns/*"))
    paths.update({
        "campaign-telemetry": at("ct.jsonl"),
        "campaign-attempts": os.path.join(campaign_dir, "attempts.jsonl"),
        "campaign-summary": os.path.join(campaign_dir, "summary.json"),
        "campaign-request": at("queue.jsonl"),
    })
    request = RunRequest(program=at("good.c"), config="tiny", label="q")
    dump_queue([request], paths["campaign-request"])

    paths["fuzz-outcome"] = at("fuzz.jsonl")
    summary = run_fuzz_campaign([0, 1], jsonl_path=paths["fuzz-outcome"],
                                differential=False)

    # the reports, as --format json prints them
    records = read_jsonl(paths["campaign-telemetry"])
    recorded = load_run(run.path)
    reports = {
        "fuzz-summary": artifact_json(summary),
        "comparison": render_comparison(compare_runs(recorded, powered),
                                        "json"),
        "explain": render_explain(build_explain(
            recorded.payload("accounting"),
            lifecycle=recorded.payload("lifecycle")), "json"),
        "top-report": render_top(fold_stream(records), "json"),
    }
    for name, text in reports.items():
        paths[name] = at(f"{name}.json")
        with open(paths[name], "w") as fh:
            fh.write(text)
    return paths


def test_every_row_has_a_writer(written):
    assert set(written) == set(ARTIFACTS)


@pytest.mark.parametrize("name", WHOLE)
def test_whole_file_round_trips(written, name):
    row = ARTIFACTS[name]
    payload = load_artifact(written[name], name)
    assert payload["schema"] == row.schema
    assert all(key in payload for key in row.required)
    if row.file:  # a run directory names the file and fixes its bytes
        assert os.path.basename(written[name]) == row.file
        with open(written[name]) as fh:
            assert artifact_json(payload) == fh.read()


@pytest.mark.parametrize("name", STREAMS)
def test_stream_round_trips(written, name):
    records = read_jsonl(written[name], strict=True)
    assert records
    if ARTIFACTS[name].file:  # a run's own stream, in its directory
        assert os.path.basename(written[name]) == ARTIFACTS[name].file
    schemas = {record.get("schema") for record in records}
    if name == "campaign-telemetry":  # worker frames ride along
        assert schemas == {ARTIFACTS[name].schema,
                           ARTIFACTS["telemetry"].schema}
    elif name != "campaign-request":  # its schema field is optional
        assert schemas == {ARTIFACTS[name].schema}


@pytest.mark.parametrize("name,corruption", [
    (name, corruption) for name in WHOLE for corruption in CORRUPTIONS
    # without a required key, a schema-only file is a valid artifact
    if corruption != "schema-only" or ARTIFACTS[name].required])
def test_damaged_file_is_a_schema_error_naming_the_path(
        written, tmp_path, name, corruption):
    row = ARTIFACTS[name]
    with open(written[name]) as fh:
        good = fh.read()
    path = str(tmp_path / f"{name}.json")
    with open(path, "w") as fh:
        fh.write(CORRUPTIONS[corruption](good, row.schema))
    with pytest.raises(SchemaError) as caught:
        load_artifact(path, name)
    message = str(caught.value)
    assert message.startswith(f"{path}: ")
    assert (row.required[0] if corruption == "schema-only"
            else row.schema) in message


def _head(path: str, limit: int = 3000) -> bytes:
    """The first whole lines of a stream, about ``limit`` bytes."""
    with open(path, "rb") as fh:
        data = fh.read()
    return data[:data.index(b"\n", min(limit, len(data) - 1)) + 1]


@pytest.mark.parametrize("name", STREAMS)
def test_tail_split_at_every_byte_agrees_with_read_jsonl(
        written, tmp_path, name):
    data = _head(written[name])
    path = tmp_path / "head.jsonl"
    path.write_bytes(data)
    whole = read_jsonl(str(path))
    assert whole
    for cut in range(len(data) + 1):
        tail = JsonlTail()
        assert tail.feed(data[:cut]) + tail.feed(data[cut:]) == whole, cut
    tail = JsonlTail()
    assert [record for byte in data
            for record in tail.feed(bytes([byte]))] == whole


@pytest.mark.parametrize("name", STREAMS)
def test_torn_last_line(written, tmp_path, name):
    data = _head(written[name])
    whole = JsonlTail().feed(data)
    path = tmp_path / "torn.jsonl"
    path.write_bytes(data[:-10])  # the writer died inside its last line
    assert read_jsonl(str(path)) == whole[:-1]
    lineno = data.count(b"\n")
    with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}:"
                                          f"{lineno}: bad JSON line"):
        read_jsonl(str(path), strict=True)
    # an unterminated last line that is whole counts
    path.write_bytes(data[:-1])
    assert read_jsonl(str(path), strict=True) == whole


def test_formats_live_in_the_artifacts_module_only():
    """No schema id and no JSON parsing outside ``artifacts.py``
    (``config.from_file`` reads a user's configuration, not an
    artifact)."""
    schema_id = re.compile(r"""["'][a-z][a-z0-9-]*/\d+["']""")
    json_read = re.compile(r"\bjson\.loads?\(")
    allowed_reads = {"sim/observability/artifacts.py": 2, "sim/config.py": 1}
    package = os.path.join(ROOT, "src", "repro")
    strays = []
    for path in glob.glob(os.path.join(package, "**", "*.py"),
                          recursive=True):
        where = os.path.relpath(path, package)
        with open(path) as fh:
            text = fh.read()
        if where != "sim/observability/artifacts.py":
            strays += [(where, found) for found in schema_id.findall(text)]
        reads = len(json_read.findall(text))
        if reads != allowed_reads.get(where, 0):
            strays.append((where, f"{reads} json.load(s) call(s)"))
    assert not strays
