"""Self-tests of the benchmark, at ``--smoke`` sizes.

    python -m pytest benchmarks/xmt_bench/tests -q

They check the benchmark's contract (names, units, bounds, exit
codes), that its checker can fail, and ``compare.py``'s verdicts --
not the toolchain, which ``tests/`` covers.
"""

import io
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

import compare
import run
import spec

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


@pytest.fixture(scope="module")
def contract():
    with open(spec.CONTRACT_PATH) as fh:
        return json.load(fh)


def smoke(workload, seed=0, trace=False):
    return run.Run(workload, seed, smoke=True).execute(
        seconds=0, rounds=1, trace=trace)


# --------------------------------------------------------------------------- the contract

def test_benchmark_json_is_generated_from_spec(contract):
    assert contract == spec.contract()


def test_names_units_directions_bounds(contract):
    names = [row["name"] for key in ("workloads", "end_to_end", "per_layer")
             for row in contract[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert [w["name"] for w in contract["workloads"]] == list(spec.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in contract["workloads"])
    for row in contract["end_to_end"]:
        assert set(row) == {"name", "unit", "better", "bound"}
        assert row["better"] in ("lower", "higher")
        assert 0 < row["bound"] <= 0.25
    setup = next(r for r in contract["end_to_end"] if r["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(r["bound"] for r in contract["end_to_end"])
    assert 1 <= len(contract["per_layer"]) <= 128
    for row in contract["per_layer"]:
        assert set(row) == {"name", "unit", "better"}
    # every end-to-end metric compare.py judges has unit, direction, bound
    for unit, better, bound in spec.bounds().values():
        assert unit and better in ("lower", "higher") and 0 <= bound <= 0.25


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(workload, contract):
    result = smoke(workload)
    assert result["correct"] and result["failed"] == 0
    line = json.loads(run.contract_line(result))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    wanted = {row["name"]: row["unit"] for row in contract["end_to_end"]}
    assert {n: m["unit"] for n, m in line["metrics"].items()} == wanted
    assert all(m["value"] > 0 for m in line["metrics"].values())
    # the per-workload metrics are there too, each with its unit
    for metric, (unit, _, _, members) in spec.DETAIL.items():
        assert (metric in result["metrics"]) == (workload in members)
        if workload in members:
            assert result["metrics"][metric]["unit"] == unit


@pytest.mark.parametrize("workload", ["serial_chip1024", "compile_corpus",
                                      "kernels_observed_fpga64"])
def test_traced_run_reports_every_per_layer_metric(workload, contract,
                                                   monkeypatch):
    monkeypatch.setattr(run, "TRACE_BASELINE_ROUNDS", 1)
    monkeypatch.setattr(run, "TRACE_SAMPLED_ROUNDS", 1)
    result = smoke(workload, trace=True)
    assert result["correct"], result["failures"]
    line = json.loads(run.contract_line(result))
    wanted = {row["name"]: row["unit"] for row in contract["per_layer"]}
    assert {n: m["unit"] for n, m in line["metrics"].items()} == wanted
    metrics = {n: m["value"] for n, m in line["metrics"].items()}
    cycle_layers = [layer + ".calls" for layer in spec.CYCLE_ENGINE_LAYERS]
    if workload == "compile_corpus":
        assert not any(metrics[name] for name in cycle_layers)
        assert metrics["xmtc.parser.self_s"] > 0
        assert metrics["isa.decode.uops"] \
            == metrics["isa.assembler.instructions"] > 0
    else:
        assert all(metrics[name] for name in cycle_layers)
        assert metrics["sim.machine.cycles"] > 0
        assert metrics["sim.engine.events"] > 0
    observed = workload == "kernels_observed_fpga64"
    assert (metrics["sim.observability.lifecycle.on_ratio"] > 0) == observed
    assert (metrics["sim.observability.artifact_bytes"] > 0) == observed
    assert result["spans"], "spans are kept and handed to --json"


def test_seed_changes_inputs_but_not_metric_names():
    first, second = smoke("kernels_functional", 0), smoke("kernels_functional", 1)
    assert set(first["metrics"]) == set(second["metrics"])
    assert first["counts"] != second["counts"]
    assert first["counts"] == smoke("kernels_functional", 0)["counts"]


# --------------------------------------------------------------------------- the checker can fail

def test_wrong_reference_raises_failed_share():
    bench = run.Run("kernels_functional", 0, smoke=True)
    bench.workload.prepare()
    reduction = bench.workload.progs[1]
    assert reduction.name == "reduction"
    reduction.expected += 1
    bench.absorb(bench.workload.warm_up())
    metrics = bench.end_to_end(0.1, bench.measure(seconds=0, rounds=1))
    assert len(bench.failures) == 2            # warm-up and the timed round
    assert all("reduction" in failure for failure in bench.failures)
    assert metrics["failed_share"]["value"] == 2 / bench.attempted


def test_nondeterministic_counts_are_a_failure():
    bench = run.Run("kernels_functional", 0, smoke=True)
    bench.workload.prepare()
    bench.absorb(bench.workload.warm_up())
    rnd = bench.workload.round(1)
    rnd.counts["instructions"] += 1
    bench.absorb(rnd)
    assert len(bench.failures) == 1
    assert "counts changed" in bench.failures[0]


def test_exits_nonzero_where_there_is_nothing_to_measure(tmp_path):
    shutil.copy(spec.CONTRACT_PATH, tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks" / "xmt_bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__",
                                                  ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "benchmarks/xmt_bench/run.py", "--workload",
         "compile_corpus", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


# --------------------------------------------------------------------------- compare.py

def test_verdicts_on_synthetic_runs():
    steady = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    assert compare.verdict(steady, steady[::-1], "lower", 0.10) == "unchanged"
    assert compare.verdict(steady, [x * 1.2 for x in steady],
                           "lower", 0.10) == "regressed"
    assert compare.verdict(steady, [x * 0.8 for x in steady],
                           "lower", 0.10) == "improved"
    # direction: more kips is better
    assert compare.verdict(steady, [x * 0.8 for x in steady],
                           "higher", 0.10) == "regressed"
    assert compare.verdict(steady, [x * 1.2 for x in steady],
                           "higher", 0.10) == "improved"
    # a gain needs ten pairs, however large it looks
    assert compare.verdict(steady[:3], [0.5, 0.5, 0.5],
                           "lower", 0.10) == "unchanged"
    # parent noisier than the bound: cannot say "unchanged" ...
    noisy = [1.0, 1.4, 0.7, 1.3, 0.8, 1.0, 1.5, 0.6, 1.1, 0.9]
    assert compare.verdict(noisy, noisy[::-1], "lower", 0.10) == "unresolved"
    # ... unless every run of the change beats every run of the parent
    assert compare.verdict(noisy, [0.3] * 10, "lower", 0.10) == "improved"
    # one pair: the spread comes from the rounds inside A's run
    assert compare.verdict([1.0], [1.05], "lower", 0.10,
                           a_rounds=[0.7, 1.0, 1.3, 1.0]) == "unresolved"
    assert compare.verdict([1.0], [1.05], "lower", 0.10,
                           a_rounds=[0.99, 1.0, 1.01, 1.0]) == "unchanged"
    # failed_share: any rise
    assert compare.verdict([0.0], [0.01], "lower", 0.0) == "regressed"
    assert compare.verdict([0.0], [0.0], "lower", 0.0) == "unchanged"


def _document(host_s, failed_share=0.0, cycles=100):
    def metric(value, unit):
        return {"value": value, "unit": unit, "samples": [value] * 3}
    return {"kernels_fpga64": ({
        "host_s": metric(host_s, "s"),
        "setup_s": metric(1.0, "s"),
        "peak_rss_mb": metric(40.0, "MB"),
        "sim_kips": metric(100 / host_s, "kips"),
        "failed_share": metric(failed_share, "ratio"),
    }, {"cycles": cycles})}


def test_compare_report_and_exit_status():
    out = io.StringIO()
    assert compare.compare([(_document(1.0), _document(1.02))], out) == 0
    assert "regressed" not in out.getvalue()
    assert "(base A = 1 s)" in out.getvalue()
    assert out.getvalue().rstrip().endswith("none")

    out = io.StringIO()
    assert compare.compare([(_document(1.0), _document(1.5, cycles=90))],
                           out) == 1
    report = out.getvalue()
    assert report.count("regressed") == 2       # host_s and sim_kips
    assert "cycles: A 100 -> B 90" in report

    out = io.StringIO()
    assert compare.compare(
        [(_document(1.0), _document(1.0, failed_share=0.1))], out) == 1


def test_trajectory_entry_has_both_tables():
    metrics = {"host_s": {"value": 1.5, "unit": "s"}}
    layers = {"sim.tcu.self_s": {"value": 0.5, "unit": "s"}}
    entry = run.trajectory_entry({"seed": 3, "workloads": {
        "kernels_fpga64": {"untraced": {"metrics": metrics},
                           "traced": {"metrics": layers}}}})
    assert entry["end_to_end"] == {"kernels_fpga64": {"host_s": 1.5}}
    assert entry["per_layer"] == {"kernels_fpga64": {"sim.tcu.self_s": 0.5}}
    assert entry["seed"] == 3 and entry["nproc"] and entry["python"]
    json.dumps(entry)
