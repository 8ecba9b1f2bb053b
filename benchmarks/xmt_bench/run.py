#!/usr/bin/env python3
"""xmt_bench: the repo's host-performance benchmark.

    python3 benchmarks/xmt_bench/run.py                      # all workloads
    python3 benchmarks/xmt_bench/run.py --workload NAME --seed N \\
            --seconds S --trace 0|1                          # the driver's form

One workload runs in this process: closed loop, one thread, a fresh
``Simulator`` (cold modelled caches) per program per round.  Without
``--workload`` every workload runs in its own fresh interpreter, one
after the other, so peak memory does not leak between them.  Every
metric is printed by name with its unit; the last line of standard
output is the machine-readable result.  Exit status is 1 when any
operation failed, 2 when the benchmark could not run at all.

The timing model is unvalidated against XMT hardware, so no accuracy
figure is reported: simulated counts are compared only with themselves.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()       # set-up is timed from here, imports included

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import nullcontext

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import calibration
import spec

SCHEMA = "xmt-bench/1"
#: input generation + precompilation is repeated so ``setup_s`` is a
#: median, not one sample
PREP_REPEATS = 3
MIN_ROUNDS = 3
#: traced run: untraced baseline, sampled and cProfile round counts
TRACE_BASELINE_ROUNDS = 2
TRACE_SAMPLED_ROUNDS = 3
TRACE_CALL_ROUNDS = 2


def summarize(samples, unit):
    return {"value": statistics.median(samples), "unit": unit,
            "min": min(samples), "max": max(samples), "n": len(samples),
            "samples": list(samples)}


class Run:
    """One workload's run: set-up, rounds, checks, metrics."""

    def __init__(self, name: str, seed: int, smoke: bool):
        sys.path.insert(0, spec.SRC_DIR)
        import tracing
        import workloads

        self.tracing = tracing
        self.tracer = tracing.Tracer(enabled=False)
        self.workload = workloads.WORKLOADS[name](seed, smoke, self.tracer)
        self.import_s = time.perf_counter() - _T0
        self.attempted = 0
        self.failures = []
        self.reference = None       # the exact counts every round must repeat

    # -- rounds ----------------------------------------------------------------

    def absorb(self, rnd):
        """Fold one round's operations into the totals, including the
        determinism check: the simulator and compiler are deterministic,
        so a round whose exact counts differ from the first is wrong."""
        self.attempted += rnd.ops + 1
        self.failures += rnd.failures
        if self.reference is None:
            self.reference, self.asm_crc = rnd.counts, rnd.asm_crc
        elif rnd.asm_crc != self.asm_crc:
            self.failures.append("compiled assembly changed between rounds")
        elif rnd.counts != self.reference:
            drift = {key: (self.reference[key], rnd.counts[key])
                     for key in set(self.reference) | set(rnd.counts)
                     if self.reference[key] != rnd.counts[key]}
            self.failures.append(f"simulated counts changed between rounds: "
                                 f"{drift}")
        return rnd

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    def set_up(self) -> float:
        """Calibrated set-up seconds: imports, the median of a few
        input generations + precompilations, and the warm-up round."""
        spins = [calibration.spin_seconds()]
        prep = []
        for _ in range(PREP_REPEATS):
            gc.collect()
            start = time.perf_counter()
            self.workload.prepare()
            prep.append(time.perf_counter() - start)
        spins.append(calibration.spin_seconds())
        gc.collect()
        start = time.perf_counter()
        self.absorb(self.workload.warm_up())
        warm_s = time.perf_counter() - start
        spins.append(calibration.spin_seconds())
        return ((self.import_s + statistics.median(prep) + warm_s)
                * calibration.REFERENCE_S / statistics.mean(spins))

    def timed_round(self, index: int, sampler=None):
        """(round, wall seconds, scale) of one round with the stopwatch
        on; ``wall * scale`` is its calibrated ``host_s``."""
        def work():
            with sampler or nullcontext():
                return self.workload.round(index)

        gc.collect()
        rnd, wall, scale = calibration.timed(work)
        self.absorb(rnd)
        return rnd, wall, scale

    def measure(self, seconds: float, rounds: int):
        """Timed rounds for ``seconds`` (at least MIN_ROUNDS), or exactly
        ``rounds`` of them."""
        timed = []
        began = time.perf_counter()

        def more() -> bool:
            if rounds:
                return len(timed) < rounds
            return (len(timed) < MIN_ROUNDS
                    or time.perf_counter() - began < seconds)

        while more():
            timed.append(self.timed_round(len(timed) + 1))
        return timed

    # -- metrics ---------------------------------------------------------------

    def end_to_end(self, setup_s: float, timed):
        name = self.workload.name
        samples = {"host_s": [wall * scale for _, wall, scale in timed],
                   "wall_s": [wall for _, wall, _ in timed]}
        for metric, (_, _, _, members) in spec.DETAIL.items():
            if name in members and metric != "failed_share":
                samples[metric] = [self.detail(metric, rnd, wall * scale, scale)
                                   for rnd, wall, scale in timed]
        units = {**spec.end_to_end_units(), "wall_s": "s"}
        metrics = {m: summarize(v, units[m]) for m, v in samples.items()}
        metrics["setup_s"] = summarize([setup_s], "s")
        metrics["peak_rss_mb"] = summarize(
            [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024], "MB")
        metrics["failed_share"] = summarize(
            [len(self.failures) / self.attempted], "ratio")
        return metrics

    @staticmethod
    def detail(metric: str, rnd, host_s: float, scale: float) -> float:
        if metric == "sim_kips":
            return rnd.counts["instructions"] / host_s / 1e3
        if metric == "host_us_per_cycle":
            return host_s / rnd.counts["cycles"] * 1e6
        if metric == "compile_ms_per_program":
            return host_s / rnd.ops * 1e3
        if metric == "obs_overhead_ratio":
            return rnd.parts["observed_s"] / rnd.parts["plain_s"]
        return rnd.parts[metric] * scale

    def per_layer(self):
        """The traced run: an untraced baseline, sampled rounds with
        spans on, cProfile rounds for call counts, then the workload's
        own layer probes; with the exactness checks."""
        workload, tracer = self.workload, self.tracer
        host_s = statistics.median(
            wall * scale for _, wall, scale in
            (self.timed_round(i + 1) for i in range(TRACE_BASELINE_ROUNDS)))

        tracer.enabled = True
        sampler = self.tracing.Sampler()
        sampled_wall, sampled, spans = 0.0, [], Counter()
        for index in range(TRACE_SAMPLED_ROUNDS):
            since = len(tracer.spans)
            _, wall, scale = self.timed_round(index + 1, sampler)
            sampled_wall += wall
            sampled.append(wall * scale)
            for name, seconds in tracer.self_seconds(since).items():
                spans[name] += seconds * scale / TRACE_SAMPLED_ROUNDS
        tracer.enabled = False
        # a layer's self time is its share of the samples x the untraced
        # host_s; the check is that the sampler accounted for all of the
        # time it watched, so no layer's share hides lost ticks
        covered = sum(sampler.seconds.values())
        # (smoke rounds last milliseconds: the 2 ms tail after the last
        # tick of each is not small against them)
        self.check(workload.smoke or abs(covered - sampled_wall)
                   <= spec.EXACTNESS_TOLERANCE * sampled_wall,
                   f"sampled layer seconds sum to {covered:.3f} of the "
                   f"{sampled_wall:.3f} s sampled: more than 5 % apart")
        layer_s = {layer: seconds / covered * host_s
                   for layer, seconds in sampler.seconds.items()}

        calls = []
        for _ in range(TRACE_CALL_ROUNDS):
            gc.collect()
            rnd, layer_calls = self.tracing.count_calls(
                lambda: workload.round(1))
            self.absorb(rnd)
            calls.append(layer_calls)
        self.check(all(c == calls[0] for c in calls),
                   "cProfile call counts differ between traced rounds")

        out = dict.fromkeys(spec.per_layer(), 0)
        out["trace_overhead_ratio"] = statistics.median(sampled) / host_s
        for layer in spec.COMPILE_LAYERS + spec.SIM_LAYERS:
            out[layer + ".self_s"] = layer_s.get(layer, 0.0)
        for layer in spec.SIM_LAYERS:
            out[layer + ".calls"] = calls[0].get(layer, 0)
        out["sim.machine.build_s"] = spans["sim.machine.build"]
        out["sim.machine.run_s"] = spans["sim.machine.run"]
        for metric, key in spec.SIM_COUNTS.items():
            out[metric] = self.reference[key]
        if self.reference["events"]:
            out["sim.engine.host_us_per_event"] = (
                out["sim.engine.self_s"] / self.reference["events"] * 1e6)
        tracer.enabled = True
        out.update(workload.probe_layers(self.check, host_s))
        tracer.enabled = False
        return out, tracer.spans

    # -- the whole run ---------------------------------------------------------

    def execute(self, seconds: float, rounds: int, trace: bool):
        try:
            setup_s = self.set_up()
            if trace:
                metrics, spans = self.per_layer()
                units = spec.per_layer()
                metrics = {name: {"value": value, "unit": units[name][0]}
                           for name, value in metrics.items()}
            else:
                metrics = self.end_to_end(setup_s,
                                          self.measure(seconds, rounds))
                spans = []
        finally:
            self.workload.close()
        return {
            "workload": self.workload.name,
            "trace": int(trace),
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": self.failures[:20],
            "metrics": metrics,
            "counts": dict(self.reference),
            "spans": spans,
        }


# --------------------------------------------------------------------------- reporting

def print_table(result) -> None:
    print(f"== {result['workload']} "
          f"({'traced' if result['trace'] else 'untraced'}): "
          f"{result['attempted']} operations, {result['failed']} failed")
    for name, m in result["metrics"].items():
        shown = (f"{m['value']:>14d}" if isinstance(m["value"], int)
                 else f"{m['value']:>14.6g}")
        line = f"  {name:<44} {shown} {m['unit']}"
        if m.get("n", 1) > 1:
            line += f"   (min {m['min']:.6g}, max {m['max']:.6g}, n={m['n']})"
        print(line)
    for failure in result["failures"]:
        print(f"  FAILED {failure}")


def contract_line(result) -> str:
    """The driver's result: exactly the contract's metrics for this
    trace mode, as measured."""
    wanted = spec.per_layer() if result["trace"] else spec.END_TO_END
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name]["value"],
                           "unit": result["metrics"][name]["unit"]}
                    for name in wanted},
    })


def git_revision():
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=spec.BENCH_DIR,
                             capture_output=True, text=True, timeout=10)
        dirty = subprocess.run(["git", "status", "--porcelain"],
                               cwd=spec.BENCH_DIR, capture_output=True,
                               text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None, None
    if rev.returncode != 0:
        return None, None
    return rev.stdout.strip(), bool(dirty.stdout.strip())


def trajectory_entry(document):
    rev, dirty = git_revision()
    entry = {"schema": "xmt-bench-trajectory/1", "rev": rev, "dirty": dirty,
             "unix_time": round(time.time()), "nproc": os.cpu_count(),
             "python": platform.python_version(), "seed": document["seed"],
             "end_to_end": {}, "per_layer": {}}
    for name, runs in document["workloads"].items():
        for key, table in (("untraced", "end_to_end"),
                           ("traced", "per_layer")):
            if key in runs:
                entry[table][name] = {
                    metric: m["value"]
                    for metric, m in runs[key]["metrics"].items()}
    return entry


def run_all(args) -> int:
    """Every workload, each in a fresh interpreter, one at a time."""
    os.makedirs(spec.WORK_DIR, exist_ok=True)
    document = {"schema": SCHEMA, "seed": args.seed, "smoke": args.smoke,
                "workloads": {}}
    status = 0
    for name in spec.WORKLOADS:
        for trace in ((0, 1) if args.trace else (0,)):
            out = os.path.join(spec.WORK_DIR, f"result-{os.getpid()}.json")
            command = [sys.executable, os.path.abspath(__file__),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace),
                       "--json", out]
            if args.rounds:
                command += ["--rounds", str(args.rounds)]
            if args.smoke:
                command.append("--smoke")
            child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            # the child's table, without its machine-readable last line
            sys.stdout.write(child.stdout[:child.stdout.rstrip("\n")
                                          .rfind("\n") + 1])
            sys.stdout.flush()
            status = max(status, child.returncode)
            if os.path.exists(out):
                with open(out) as fh:
                    document["workloads"].setdefault(name, {}).update(
                        json.load(fh)["workloads"][name])
                os.remove(out)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(document, fh, indent=1)
            fh.write("\n")
    if args.append_trajectory:
        with open(os.path.join(spec.BENCH_DIR, "trajectory.jsonl"), "a") as fh:
            fh.write(json.dumps(trajectory_entry(document), sort_keys=True)
                     + "\n")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(spec.WORKLOADS),
                        help="run one workload in this process "
                             "(default: all, one interpreter each)")
    parser.add_argument("--seed", type=int, default=0,
                        help="added to every input generator's seed")
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                        help="measure timed rounds for this long")
    parser.add_argument("--rounds", type=int, default=0,
                        help="measure exactly N timed rounds instead")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer metrics")
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (self-tests)")
    parser.add_argument("--json", metavar="OUT",
                        help="write the full result document here")
    parser.add_argument("--append-trajectory", action="store_true",
                        help="with all workloads: append one line for this "
                             "revision to trajectory.jsonl")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(spec.SRC_DIR, "repro")):
        print(f"xmt_bench: nothing to measure: {spec.SRC_DIR}/repro is "
              f"missing", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    if args.append_trajectory:
        parser.error("--append-trajectory needs all workloads "
                     "(omit --workload)")

    result = Run(args.workload, args.seed, args.smoke).execute(
        args.seconds, args.rounds, bool(args.trace))
    print_table(result)
    if args.json:
        key = "traced" if args.trace else "untraced"
        with open(args.json, "w") as fh:   # spans are written here, once
            json.dump({"schema": SCHEMA, "seed": args.seed,
                       "smoke": args.smoke,
                       "workloads": {args.workload: {key: result}}}, fh)
            fh.write("\n")
    print(contract_line(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
