"""The benchmark's contract: workload names, metric names, units,
directions and regression bounds.

This module is the single source of the tables; the root
``BENCHMARK.json`` is ``python benchmarks/xmt_bench/spec.py`` written to
a file, and a self-test keeps the two equal.  ``compare.py`` reads the
bounds back from ``BENCHMARK.json`` so that a later correction of that
file is honoured without touching code.
"""

from __future__ import annotations

import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(BENCH_DIR))
SRC_DIR = os.path.join(REPO_ROOT, "src")
CONTRACT_PATH = os.path.join(REPO_ROOT, "BENCHMARK.json")
#: scratch space for ledger exports; inside the checkout, git-ignored
WORK_DIR = os.path.join(BENCH_DIR, ".work")

RUN_SECONDS = 10
#: how far a traced run's time accounting may be off before it fails
EXACTNESS_TOLERANCE = 0.05

#: name -> why it exists (one line each; the README has the long form)
WORKLOADS = {
    "par_mem_chip1024":
        "Table I parallel/memory on 1024 TCUs: TCUs park on loads while "
        "ICN/cache/DRAM work; sleep/wake ticking must show here",
    "par_comp_chip1024":
        "Table I parallel/compute on 1024 TCUs: TCUs retire every cycle, "
        "memory idles; superops show here, idle-skipping must not",
    "serial_chip1024":
        "Table I serial rows on 1024 TCUs: only the Master TCU runs, so "
        "host time is the engine's per-cycle fixed cost on an idle machine",
    "kernels_fpga64":
        "the user path compile_and_run over the ten shipped kernels on "
        "fpga64: the mix a researcher actually runs, every result checked",
    "kernels_functional":
        "the same ten kernels at 8x work through FunctionalSimulator: "
        "bypasses engine/tcu/icn/cache/dram, only decode+semantics work",
    "compile_corpus":
        "compile_source over kernels, microbenchmarks, litmus files and "
        "fuzz programs: bypasses the simulator, every compiler stage works",
    "kernels_observed_fpga64":
        "six kernels under metrics+profiler+flight recorder+accountant "
        "and ledger export, paired with a plain run: observation cost",
}

#: end-to-end metrics every workload reports (the driver's contract
#: wants each one on each workload and never 0).  Times are calibrated
#: seconds (calibration.py).  The bounds are a little over twice the
#: widest spread of ten run medians seen on the sandbox (README,
#: Steadiness).
#: name -> (unit, better, bound)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "host_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.10),
}

#: end-to-end metrics that exist only on some workloads.  They are
#: printed, written to ``--json`` and judged by ``compare.py`` with
#: these bounds, but cannot be listed in ``BENCHMARK.json`` because a
#: workload that does not simulate has no kips to report.
#: name -> (unit, better, bound, workloads)
_SIMULATING = ("par_mem_chip1024", "par_comp_chip1024", "serial_chip1024",
               "kernels_fpga64", "kernels_functional")
_CYCLE_MODE = _SIMULATING[:4]
DETAIL = {
    "sim_kips": ("kips", "higher", 0.25, _SIMULATING),
    "host_us_per_cycle": ("us", "lower", 0.25, _CYCLE_MODE),
    "compile_ms_per_program": ("ms", "lower", 0.25, ("compile_corpus",)),
    "obs_overhead_ratio": ("ratio", "lower", 0.15,
                           ("kernels_observed_fpga64",)),
    "export_s": ("s", "lower", 0.25, ("kernels_observed_fpga64",)),
    # any rise is a regression: compare.py treats it as absolute
    "failed_share": ("ratio", "lower", 0.0, tuple(WORKLOADS)),
}

COMPILE_LAYERS = ("xmtc.parser", "xmtc.outline", "xmtc.semantic",
                  "xmtc.lowering", "xmtc.optimizer", "xmtc.codegen",
                  "xmtc.postpass", "isa.assembler", "isa.decode")
SIM_LAYERS = ("sim.engine", "sim.tcu", "sim.mtcu", "sim.cluster", "sim.icn",
              "sim.cache", "sim.dram", "sim.machine", "sim.fabric",
              "sim.functional", "isa.semantics", "sim.observability",
              "sim.other")
#: the layers a cycle-engine change can move (acceptance: none of them
#: shows on kernels_functional or compile_corpus)
CYCLE_ENGINE_LAYERS = SIM_LAYERS[:9]
OBS_CONSUMERS = ("metrics", "profiler", "lifecycle", "accounting", "events",
                 "telemetry")

#: exact simulated work, read from result.stats / the scheduler:
#: per-layer metric name -> counter key in a round's ``counts``
SIM_COUNTS = {
    "sim.machine.cycles": "cycles",
    "sim.machine.instructions": "instructions",
    "sim.engine.events": "events",
    "sim.icn.packages": "icn.send",
    "sim.cache.hits": "cache.hit",
    "sim.cache.misses": "cache.miss",
    "sim.cache.mshr_merges": "cache.mshr_merge",
    "sim.dram.reads": "dram.read",
    "sim.tcu.stall_memory_cycles": "tcu.stall.memory",
    "sim.tcu.stall_fu_cycles": "tcu.stall.fu",
    "sim.cluster.mdu_ops": "cluster.mdu_ops",
}
COMPILE_COUNTS = ("xmtc.parser.source_lines", "xmtc.lowering.ir_instrs",
                  "xmtc.optimizer.ir_instrs",
                  "xmtc.optimizer.nonblocking_stores",
                  "xmtc.codegen.asm_lines", "isa.assembler.instructions",
                  "isa.decode.uops", "xmtc.analysis.diagnostics")
EXPORT_SPANS = ("export_metrics_s", "profile_export_s", "export_accounting_s",
                "lifecycle_export_s", "ledger_record_s")


def end_to_end_units():
    return {name: row[0] for name, row in {**END_TO_END, **DETAIL}.items()}


def per_layer():
    """name -> (unit, better) for every ``--trace 1`` metric."""
    out = {"trace_overhead_ratio": ("ratio", "lower")}
    for layer in COMPILE_LAYERS:
        out[layer + ".self_s"] = ("s", "lower")
    out["xmtc.analysis.lint_s"] = ("s", "lower")
    for name in COMPILE_COUNTS:
        out[name] = ("count", "lower")
    for layer in SIM_LAYERS:
        out[layer + ".self_s"] = ("s", "lower")
        out[layer + ".calls"] = ("count", "lower")
    out["sim.machine.build_s"] = ("s", "lower")
    out["sim.machine.run_s"] = ("s", "lower")
    for name in SIM_COUNTS:
        out[name] = ("count", "lower")
    out["sim.engine.host_us_per_event"] = ("us", "lower")
    for consumer in OBS_CONSUMERS:
        out[f"sim.observability.{consumer}.on_ratio"] = ("ratio", "lower")
    for span in EXPORT_SPANS:
        out["sim.observability." + span] = ("s", "lower")
    # not a "count": manifests carry wall-clock digits, so the size
    # wobbles by a byte and compare.py must not treat it as exact
    out["sim.observability.artifact_bytes"] = ("bytes", "lower")
    return out


def contract():
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "benchmarks/xmt_bench/run.py"],
        "paths": ["benchmarks/xmt_bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, (unit, better, bound) in END_TO_END.items()],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, (unit, better) in per_layer().items()],
    }


def bounds():
    """(metric -> (unit, better, bound)) for every end-to-end metric:
    the universal ones as ``BENCHMARK.json`` states them, then the
    per-workload ones from :data:`DETAIL`."""
    with open(CONTRACT_PATH) as fh:
        doc = json.load(fh)
    out = {m["name"]: (m["unit"], m["better"], m["bound"])
           for m in doc["end_to_end"]}
    for name, (unit, better, bound, _) in DETAIL.items():
        out[name] = (unit, better, bound)
    return out


if __name__ == "__main__":
    json.dump(contract(), sys.stdout, indent=2)
    sys.stdout.write("\n")
