"""Command-line entry points: ``xmtcc`` (compiler), ``xmtsim``
(simulator) -- the two tools of the paper's title -- plus ``xmtc-lint``
(static analyzer), ``xmt-prof`` (profile reports), ``xmt-compare``
(experiment ledger diffs) and ``xmt-campaign`` (fault-tolerant
multi-run campaigns), as executables.

    xmtcc program.c -o program.s [-O2] [--cluster 4] [--no-prefetch] ...
    xmtsim program.s [--config fpga64] [--mode cycle|functional]
           [--set A 1,2,3] [--print-global B] [--stats] [--trace ...]
           [--ledger DIR]
    xmtc-lint program.c [--json] [--dynamic] [--check-shipped]
    xmt-prof report profile.json [--top 30]
    xmt-explain {report,diff} ... [--format text|markdown|json]
    xmt-compare {list,diff,sweep,check} ... [--ledger DIR]
    xmt-campaign program.c --vary f=v1,v2 --workers 4 --ledger DIR
    xmt-campaign --queue runs.jsonl --workers 4 --ledger DIR

``xmtsim`` accepts either assembly (``.s``) or XMTC source (anything
else), compiling the latter on the fly, so the two-step and one-step
workflows both work.  ``xmtc-lint`` runs the spawn-region race detector
and the memory-model linter (see MANUAL.md section 7) over XMTC
sources; ``--dynamic`` re-checks each program at runtime with the
functional simulator's race sanitizer.  ``xmt-compare`` diffs runs
recorded with ``--ledger``, sweeps config grids and gates CI against
committed baselines (MANUAL.md section 4.7).  ``xmt-campaign`` shards a
sweep grid or a JSONL queue of run requests across supervised worker
processes with retry/backoff, ledger dedup (resume-after-kill) and
typed per-run outcomes (MANUAL.md section 4.9).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.isa.assembler import assemble
from repro.isa.program import Program
from repro.sim.config import XMTConfig, chip1024, fpga64, tiny
from repro.sim.functional import FunctionalSimulator, SimulationError
from repro.sim.machine import Machine, Simulator
from repro.sim.resilience import (
    FaultInjector,
    SimulationBudgetExceeded,
    SimulationStalled,
    parse_fault_spec,
    run_campaign,
    run_resilient,
)
from repro.sim.trace import Trace
from repro.xmtc.compiler import CompileOptions, compile_to_asm
from repro.xmtc.errors import CompileError

_CONFIGS = {"fpga64": fpga64, "chip1024": chip1024, "tiny": tiny}


def _compile_options(args) -> CompileOptions:
    return CompileOptions(
        opt_level=args.opt_level,
        cluster_factor=args.cluster,
        outline=not args.no_outline,
        memory_fences=not args.no_fences,
        nonblocking_stores=not args.no_nonblocking,
        prefetch=not args.no_prefetch,
        ro_cache=args.ro_cache,
        parallel_calls=args.parallel_calls,
    )


def _add_compile_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-O", dest="opt_level", type=int, default=2,
                        choices=(0, 1, 2), help="optimization level")
    parser.add_argument("--cluster", type=int, default=1, metavar="K",
                        help="virtual-thread clustering factor")
    parser.add_argument("--no-outline", action="store_true",
                        help="skip the outlining pre-pass")
    parser.add_argument("--no-fences", action="store_true",
                        help="UNSAFE: skip memory-model fences")
    parser.add_argument("--no-nonblocking", action="store_true",
                        help="keep parallel stores blocking")
    parser.add_argument("--no-prefetch", action="store_true",
                        help="skip prefetch insertion")
    parser.add_argument("--ro-cache", action="store_true",
                        help="route provably read-only loads through the "
                             "cluster read-only caches")
    parser.add_argument("--parallel-calls", action="store_true",
                        help="enable function calls (and atomic malloc) "
                             "inside spawn blocks via per-TCU stacks")


def xmtcc_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="xmtcc", description="XMTC optimizing compiler")
    parser.add_argument("source", help="XMTC source file")
    parser.add_argument("-o", "--output", default=None,
                        help="output assembly file (default: stdout)")
    _add_compile_flags(parser)
    parser.add_argument("--dump-ir", action="store_true",
                        help="dump the optimized IR to stderr")
    args = parser.parse_args(argv)

    try:
        with open(args.source) as fh:
            source = fh.read()
    except OSError as exc:
        print(f"xmtcc: {exc}", file=sys.stderr)
        return 2
    options = _compile_options(args)
    options.keep_intermediates = args.dump_ir
    try:
        result = compile_to_asm(source, options)
    except CompileError as exc:
        print(f"xmtcc: error: {exc}", file=sys.stderr)
        return 1
    if args.dump_ir:
        print(result.ir.dump(), file=sys.stderr)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(result.asm_text)
    else:
        sys.stdout.write(result.asm_text)
    return 0


def xmtc_lint_main(argv: Optional[List[str]] = None) -> int:
    """``xmtc-lint``: static race detector + memory-model linter.

    Exit codes: 0 = no error-severity findings, 1 = errors found,
    2 = cannot read or compile an input.
    """
    import json as _json

    from repro.xmtc.analysis.diagnostics import has_errors
    from repro.xmtc.analysis.linter import (
        check_shipped,
        lint_dynamic,
        lint_source,
    )

    parser = argparse.ArgumentParser(
        prog="xmtc-lint",
        description="XMTC static analyzer: spawn-region race detector and "
                    "memory-model linter")
    parser.add_argument("sources", nargs="*",
                        help="XMTC source files to lint")
    parser.add_argument("--json", action="store_true",
                        help="emit diagnostics as JSON")
    parser.add_argument("--dynamic", action="store_true",
                        help="also run each program under the functional "
                             "simulator's race sanitizer")
    parser.add_argument("--check-shipped", action="store_true",
                        help="lint the shipped workloads (CI mode): litmus "
                             "programs must be flagged, everything else "
                             "must be error-free")
    parser.add_argument("--examples", default=None, metavar="DIR",
                        help="with --check-shipped: also lint the SOURCE "
                             "programs of the example scripts in DIR")
    parser.add_argument("--litmus", default=None, metavar="DIR",
                        help="with --check-shipped: verify the annotated "
                             "litmus corpus in DIR against its "
                             "xmtc-lint-expect comments")
    parser.add_argument("--quiet", action="store_true",
                        help="print only error-severity findings")
    _add_compile_flags(parser)
    args = parser.parse_args(argv)

    if args.check_shipped:
        from repro.xmtc.analysis.linter import collect_example_sources

        for flag, value in (("--examples", args.examples),
                            ("--litmus", args.litmus)):
            if value and not os.path.isdir(value):
                print(f"xmtc-lint: {flag}: not a directory: {value}",
                      file=sys.stderr)
                return 2
        extra = (collect_example_sources(args.examples)
                 if args.examples else ())
        ok, lines = check_shipped(extra, litmus_dir=args.litmus)
        print("\n".join(lines))
        return 0 if ok else 1
    if not args.sources:
        parser.error("no input files (or use --check-shipped)")

    options = _compile_options(args)
    all_diags = []
    for path in args.sources:
        try:
            with open(path) as fh:
                source = fh.read()
        except OSError as exc:
            print(f"xmtc-lint: {exc}", file=sys.stderr)
            return 2
        try:
            diags = lint_source(source, options, filename=path)
            if args.dynamic:
                dyn, _san = lint_dynamic(source, options, filename=path)
                diags = diags + dyn
        except CompileError as exc:
            print(f"xmtc-lint: error: {path}: {exc}", file=sys.stderr)
            return 2
        all_diags.extend(diags)

    if args.json:
        payload = {
            "diagnostics": [d.to_json() for d in all_diags],
            "errors": sum(d.severity == "error" for d in all_diags),
            "warnings": sum(d.severity == "warning" for d in all_diags),
            "notes": sum(d.severity == "note" for d in all_diags),
        }
        print(_json.dumps(payload, indent=2))
    else:
        shown = [d for d in all_diags
                 if not args.quiet or d.severity == "error"]
        for d in shown:
            print(d.format())
        n_err = sum(d.severity == "error" for d in all_diags)
        n_warn = sum(d.severity == "warning" for d in all_diags)
        print(f"xmtc-lint: {n_err} error(s), {n_warn} warning(s) in "
              f"{len(args.sources)} file(s)")
    return 1 if has_errors(all_diags) else 0


def _parse_seed_spec(spec: str) -> List[int]:
    """``"0..63"`` (inclusive range), ``"128"`` (count from 0), or a
    comma list ``"3,17,99"``."""
    spec = spec.strip()
    if ".." in spec:
        lo_text, hi_text = spec.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
        if hi < lo:
            raise ValueError(f"empty seed range {spec!r}")
        return list(range(lo, hi + 1))
    if "," in spec:
        return [int(tok) for tok in spec.split(",") if tok.strip()]
    count = int(spec)
    if count <= 0:
        raise ValueError(f"seed count must be positive, got {spec!r}")
    return list(range(count))


def xmtc_fuzz_main(argv: Optional[List[str]] = None) -> int:
    """``xmtc-fuzz``: analysis soundness fuzzing over generated XMTC.

    Runs every seed's program through the static analyses, the dynamic
    race sanitizer, and the functional-vs-cycle-accurate differential,
    classifying each static verdict as TP/FP/FN/TN against the
    generator's planted ground truth.

    Exit codes: 0 = sound and FP rate within threshold, 1 = any FN /
    harness bug / FP rate above threshold, 2 = bad usage.
    """
    from repro.xmtc.fuzz.harness import run_campaign

    parser = argparse.ArgumentParser(
        prog="xmtc-fuzz",
        description="differential soundness fuzzer for the XMTC race "
                    "detector and memory-model linter")
    parser.add_argument("--seeds", default="0..63", metavar="SPEC",
                        help="seed range 'LO..HI' (inclusive), count 'N', "
                             "or comma list (default 0..63)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="stream per-seed outcomes to this JSONL file")
    parser.add_argument("--fp-threshold", type=float, default=0.10,
                        metavar="RATE",
                        help="maximum tolerated false-positive rate over "
                             "clean-labeled programs (default 0.10)")
    parser.add_argument("--no-differential", action="store_true",
                        help="skip the functional-vs-cycle-accurate oracle "
                             "(faster; race verdicts unaffected)")
    parser.add_argument("--emit-failing", default=None, metavar="DIR",
                        help="write the XMTC source of every FN/FP/bug "
                             "seed into DIR for triage")
    parser.add_argument("--quiet", action="store_true",
                        help="print only the summary")
    args = parser.parse_args(argv)

    try:
        seeds = _parse_seed_spec(args.seeds)
    except ValueError as exc:
        print(f"xmtc-fuzz: --seeds: {exc}", file=sys.stderr)
        return 2
    if args.emit_failing:
        os.makedirs(args.emit_failing, exist_ok=True)

    def note(outcome):
        interesting = outcome.verdict in ("fn", "fp", "bug")
        if not args.quiet or interesting:
            extra = f" [{outcome.error}]" if outcome.error else ""
            print(f"seed {outcome.seed:>6}: {outcome.verdict.upper():<3} "
                  f"planted={outcome.planted or '-':<18} "
                  f"static={','.join(outcome.static_checks) or '-'} "
                  f"dynamic={','.join(outcome.dynamic_races) or '-'}"
                  f"{extra}")
        if interesting and args.emit_failing:
            from repro.xmtc.fuzz.generator import generate

            path = os.path.join(args.emit_failing,
                                f"seed-{outcome.seed}.c")
            with open(path, "w") as fh:
                fh.write(generate(outcome.seed).source)

    summary = run_campaign(seeds, jsonl_path=args.out,
                           fp_threshold=args.fp_threshold,
                           differential=not args.no_differential,
                           on_outcome=note)
    counts = summary["counts"]
    print(f"xmtc-fuzz: {summary['seeds']} seeds: "
          f"tp: {counts['tp']}  tn: {counts['tn']}  "
          f"fp: {counts['fp']}  fn: {counts['fn']}  "
          f"bug: {counts['bug']}  unsound: {summary['unsound']}  "
          f"fp-rate: {summary['fp_rate']:.2%} "
          f"(threshold {summary['fp_threshold']:.2%})")
    print("xmtc-fuzz: " + ("SOUND" if summary["ok"] else "UNSOUND/FAILED"))
    return 0 if summary["ok"] else 1


def _parse_values(text: str):
    out = []
    for token in text.split(","):
        token = token.strip()
        out.append(float(token) if "." in token else int(token, 0))
    return out


def _load_program(path: str, options: CompileOptions):
    """Read and assemble/compile one program file.

    Returns ``(program, xmtc_source_or_None)``; raises ``OSError`` on
    read failures and ``CompileError`` on bad input.
    """
    with open(path) as fh:
        text = fh.read()
    if path.endswith((".s", ".asm")):
        program: Program = assemble(text)
        program.parallel_calls = options.parallel_calls
        return program, None
    from repro.xmtc.compiler import compile_source

    return compile_source(text, options), text


def _write_observability(args, obs, machine) -> int:
    """Write --trace-out/--metrics-out/--profile/--accounting-out/
    --lifecycle-out/--explain outputs; 0 on success."""
    import json as _json

    from repro.sim.observability import render_profile, write_metrics

    try:
        if args.trace_out:
            if obs.events.streaming:
                # jsonl streams incrementally during the run (bounded
                # memory); all that remains is flushing the sink
                obs.events.close()
                print(f"xmtsim: streamed {obs.events.emitted} jsonl "
                      f"events to {args.trace_out}", file=sys.stderr)
            else:
                obs.events.write(args.trace_out, args.trace_format)
                print(f"xmtsim: wrote {args.trace_format} trace to "
                      f"{args.trace_out}", file=sys.stderr)
        if args.metrics_out:
            with open(args.metrics_out, "w") as fh:
                write_metrics(machine, fh)
            print(f"xmtsim: wrote metrics to {args.metrics_out}",
                  file=sys.stderr)
        data = obs.profiler.to_data() if obs.profiler is not None else None
        if args.profile_out:
            with open(args.profile_out, "w") as fh:
                _json.dump(data, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"xmtsim: wrote profile to {args.profile_out}",
                  file=sys.stderr)
        if args.profile:
            print(render_profile(data), file=sys.stderr)
        accounting = None
        if getattr(obs, "accounting", None) is not None:
            from repro.sim.observability import export_accounting

            accounting = export_accounting(machine, obs.accounting)
            if args.accounting_out:
                from repro.sim.observability import write_accounting

                with open(args.accounting_out, "w") as fh:
                    write_accounting(accounting, fh)
                print(f"xmtsim: wrote cycle accounting to "
                      f"{args.accounting_out}", file=sys.stderr)
        recorder = getattr(obs, "lifecycle", None)
        if recorder is not None:
            recorder.close()
            if args.lifecycle_out:
                print(f"xmtsim: streamed {recorder.sampled} request "
                      f"lifecycle(s) to {args.lifecycle_out} "
                      f"({recorder.completed} completed)",
                      file=sys.stderr)
        if args.explain and accounting is not None:
            from repro.sim.observability import (
                build_explain,
                export_metrics,
                render_explain,
            )

            metrics_data = (export_metrics(machine)
                            if obs.metrics is not None else None)
            report = build_explain(
                accounting,
                lifecycle=(recorder.to_data()
                           if recorder is not None else None),
                metrics=metrics_data)
            print(render_explain(report), file=sys.stderr)
    except OSError as exc:
        print(f"xmtsim: {exc}", file=sys.stderr)
        return 2
    return 0


def xmtsim_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="xmtsim", description="cycle-accurate XMT simulator")
    parser.add_argument("program",
                        help="assembly (.s/.asm) or XMTC source file")
    parser.add_argument("--config", default="fpga64",
                        choices=sorted(_CONFIGS),
                        help="machine configuration")
    parser.add_argument("--config-file", default=None, metavar="PATH",
                        help="JSON configuration file (fields of XMTConfig; "
                             "optional 'base' key names a built-in config); "
                             "overrides --config")
    parser.add_argument("--mode", default="cycle",
                        choices=("cycle", "functional", "sampled"),
                        help="simulation mode ('sampled' = phase sampling: "
                             "cycle-accurate warm-up per spawn site, "
                             "functional fast-forward thereafter)")
    parser.add_argument("--max-cycles", type=int, default=None)
    parser.add_argument("--set", nargs=2, action="append", default=[],
                        metavar=("GLOBAL", "VALUES"),
                        help="write comma-separated values into a global "
                             "before the run (repeatable)")
    parser.add_argument("--print-global", action="append", default=[],
                        metavar="GLOBAL",
                        help="print a global after the run (repeatable)")
    parser.add_argument("--stats", action="store_true",
                        help="dump simulation statistics")
    parser.add_argument("--trace", default=None,
                        choices=("functional", "cycle"),
                        help="print an execution trace")
    parser.add_argument("--trace-limit", type=int, default=200)
    parser.add_argument("--sanitize", action="store_true",
                        help="functional mode: track per-address "
                             "writer/reader thread ids inside spawn "
                             "regions and report dynamic races")
    obsgroup = parser.add_argument_group(
        "observability (cycle mode)",
        "structured span traces, metrics export and the source-level "
        "cycle profiler (see MANUAL.md section 4.6)")
    obsgroup.add_argument("--trace-out", default=None, metavar="PATH",
                          help="write the structured span-event stream "
                               "(instruction issues, ICN transits, cache "
                               "accesses, DRAM reads, memory round-trips, "
                               "spawn regions) to PATH")
    obsgroup.add_argument("--trace-format", default="jsonl",
                          choices=("jsonl", "chrome"),
                          help="--trace-out format: 'jsonl' = one event "
                               "per line; 'chrome' = Chrome trace-event "
                               "JSON (load in Perfetto / chrome://tracing)")
    obsgroup.add_argument("--metrics-out", default=None, metavar="PATH",
                          help="write counters, queue-occupancy gauges, "
                               "memory-latency histograms and spawn-region "
                               "rollups to PATH as JSON")
    obsgroup.add_argument("--profile", action="store_true",
                          help="attribute every issue and stall cycle to "
                               "its XMTC source line and print the "
                               "hotspot report")
    obsgroup.add_argument("--profile-out", default=None, metavar="PATH",
                          help="write the raw profile to PATH as JSON "
                               "(render later with 'xmt-prof report')")
    obsgroup.add_argument("--accounting-out", default=None, metavar="PATH",
                          help="write top-down cycle accounting (every "
                               "TCU cycle attributed to retiring / "
                               "frontend / scoreboard / FU / memory-by-"
                               "layer / sync-join) to PATH as JSON; "
                               "render with 'xmt-explain report'")
    obsgroup.add_argument("--lifecycle-out", default=None, metavar="PATH",
                          help="stream sampled memory-request lifecycles "
                               "(per-hop timestamps and queue depths, "
                               "TCU -> cluster -> ICN -> cache -> DRAM "
                               "and back) to PATH as JSONL")
    obsgroup.add_argument("--lifecycle-sample", type=int, default=1,
                          metavar="N",
                          help="record every Nth request lifecycle "
                               "(default 1 = all; raises are cheaper "
                               "on saturating workloads)")
    obsgroup.add_argument("--explain", action="store_true",
                          help="print the xmt-explain bottleneck report "
                               "(top-down tree, hop latencies, "
                               "contention hot spots) after the run")
    obsgroup.add_argument("--telemetry-out", default=None, metavar="PATH",
                          help="stream live progress frames (cycle, "
                               "retired instructions, interval IPC, queue "
                               "occupancy, active spawns, ETA) to PATH as "
                               "JSONL; watch with 'xmt-top watch --follow'")
    obsgroup.add_argument("--telemetry-every", type=int, default=2000,
                          metavar="CYCLES",
                          help="telemetry frame interval in cycles "
                               "(default 2000)")
    obsgroup.add_argument("--telemetry-socket", default=None, metavar="PATH",
                          help="additionally publish frames on a Unix-"
                               "domain socket at PATH ('xmt-top watch "
                               "--socket' subscribes live); slow "
                               "subscribers get frames dropped, the "
                               "simulation never blocks")
    obsgroup.add_argument("--ledger", default=None, metavar="DIR",
                          help="record this run (manifest + metrics + "
                               "profile) into the experiment ledger at "
                               "DIR; diff runs later with xmt-compare")
    obsgroup.add_argument("--run-label", default=None, metavar="TEXT",
                          help="human-readable label stored in the run "
                               "manifest (shown by xmt-compare list)")
    resilience = parser.add_argument_group(
        "resilience (cycle mode)",
        "watchdog, fault injection and checkpoint-based recovery; "
        "exit codes: 3 = stalled/deadlocked, 4 = budget exceeded, "
        "5 = recovery retries exhausted")
    resilience.add_argument("--watchdog", type=int, default=None,
                            metavar="CYCLES",
                            help="deadlock watchdog interval in cycles "
                                 "(0 disables; default from the config)")
    resilience.add_argument("--wall-limit", type=float, default=None,
                            metavar="SECONDS",
                            help="abort if the run exceeds this much host "
                                 "wall-clock time")
    resilience.add_argument("--event-budget", type=int, default=None,
                            metavar="N",
                            help="abort after N scheduler events")
    resilience.add_argument("--inject", action="append", default=[],
                            metavar="SITE@CYCLE[:SEED]",
                            help="inject one transient fault (repeatable); "
                                 "sites: tcu.reg cache.line icn.drop "
                                 "icn.dup icn.delay dram.stall")
    resilience.add_argument("--campaign", type=int, default=None,
                            metavar="N",
                            help="run a seeded campaign of N single-fault "
                                 "injection runs and print the report")
    resilience.add_argument("--campaign-seed", type=int, default=12345,
                            metavar="SEED",
                            help="campaign plan seed (same seed -> same "
                                 "report)")
    resilience.add_argument("--checkpoint-every", type=int, default=0,
                            metavar="CYCLES",
                            help="run under auto-recovery, checkpointing "
                                 "every CYCLES cycles")
    resilience.add_argument("--max-retries", type=int, default=None,
                            metavar="N",
                            help="rollback-and-retry budget (default 3); "
                                 "giving it enables auto-recovery even "
                                 "without --checkpoint-every (rollback "
                                 "to the start of the run)")
    _add_compile_flags(parser)
    args = parser.parse_args(argv)

    try:
        program, xmtc_source = _load_program(args.program,
                                             _compile_options(args))
    except OSError as exc:
        print(f"xmtsim: {exc}", file=sys.stderr)
        return 2
    except CompileError as exc:
        print(f"xmtsim: compile error: {exc}", file=sys.stderr)
        return 1

    for name, values in args.set:
        try:
            program.write_global(name, _parse_values(values))
        except KeyError:
            print(f"xmtsim: no such global {name!r}", file=sys.stderr)
            return 2

    if args.config_file:
        from repro.sim.config import from_file

        try:
            machine_config = from_file(args.config_file)
        except (OSError, ValueError) as exc:
            print(f"xmtsim: bad configuration file: {exc}", file=sys.stderr)
            return 2
    else:
        machine_config = _CONFIGS[args.config]()
    config_label = args.config_file or args.config
    if args.watchdog is not None:
        machine_config.watchdog_cycles = args.watchdog

    plugins = []
    if args.inject:
        try:
            specs = [parse_fault_spec(text) for text in args.inject]
        except ValueError as exc:
            print(f"xmtsim: {exc}", file=sys.stderr)
            return 2
        plugins.append(FaultInjector(specs))

    if args.campaign is not None:
        if args.mode != "cycle":
            print("xmtsim: --campaign requires --mode cycle", file=sys.stderr)
            return 2
        campaign_ledger = None
        if args.ledger:
            from repro.sim.observability import Ledger

            campaign_ledger = Ledger(args.ledger)
        report = run_campaign(lambda: Machine(program, machine_config),
                              args.campaign, seed=args.campaign_seed,
                              max_cycles=args.max_cycles,
                              ledger=campaign_ledger)
        print(report.format())
        if campaign_ledger is not None:
            print(f"xmtsim: recorded golden + {args.campaign} injected "
                  f"run(s) in ledger {args.ledger}", file=sys.stderr)
        return 0

    trace = None
    if args.trace:
        trace = Trace(level=args.trace, limit=args.trace_limit,
                      sink=lambda line: print(line, file=sys.stderr))

    observability = None
    want_profile = args.profile or args.profile_out is not None
    want_accounting = args.explain or args.accounting_out is not None
    want_recorder = args.lifecycle_out is not None or want_accounting
    if (args.trace_out or args.metrics_out or want_profile or args.ledger
            or want_recorder):
        if args.mode != "cycle":
            print("xmtsim: --trace-out/--metrics-out/--profile/--ledger/"
                  "--accounting-out/--lifecycle-out/--explain require "
                  "--mode cycle", file=sys.stderr)
            return 2
        from repro.sim.observability import (
            CycleAccountant,
            CycleProfiler,
            EventStream,
            FlightRecorder,
            MetricsRegistry,
            Observability,
        )

        events = None
        if args.trace_out:
            if args.trace_format == "jsonl":
                # incremental sink: O(ring buffer) memory on long runs
                try:
                    events = EventStream(retain=False,
                                         stream_to=args.trace_out)
                except OSError as exc:
                    print(f"xmtsim: {exc}", file=sys.stderr)
                    return 2
            else:
                events = EventStream()
        recorder = None
        if want_recorder:
            recorder = FlightRecorder(
                sample_every=max(1, args.lifecycle_sample))
            if args.lifecycle_out:
                try:
                    recorder.stream_to(args.lifecycle_out)
                except OSError as exc:
                    print(f"xmtsim: {exc}", file=sys.stderr)
                    return 2
        observability = Observability(
            events=events,
            metrics=(MetricsRegistry()
                     if args.metrics_out or args.ledger else None),
            profiler=(CycleProfiler(program, source=xmtc_source)
                      if want_profile or args.ledger else None),
            accounting=CycleAccountant() if want_accounting else None,
            lifecycle=recorder)

    telemetry = None
    if args.telemetry_out or args.telemetry_socket:
        if args.mode != "cycle":
            print("xmtsim: --telemetry-out/--telemetry-socket require "
                  "--mode cycle", file=sys.stderr)
            return 2
        from repro.sim.observability.telemetry import (
            JsonlSink,
            SocketPublisher,
            TelemetrySampler,
        )

        sinks = []
        try:
            if args.telemetry_out:
                sinks.append(JsonlSink(args.telemetry_out))
            if args.telemetry_socket:
                sinks.append(SocketPublisher(args.telemetry_socket))
        except OSError as exc:
            print(f"xmtsim: {exc}", file=sys.stderr)
            return 2
        telemetry = TelemetrySampler(
            every_cycles=args.telemetry_every, sinks=sinks,
            eta_cycles=args.max_cycles,
            meta={"label": args.run_label or None,
                  "program": os.path.basename(args.program)})
        if observability is None:
            # a bare facade lets the sampler report active spawn
            # regions and diagnostic dumps embed the last frame
            from repro.sim.observability import Observability

            observability = Observability()

    sanitizer = None
    if args.sanitize:
        if args.mode != "functional":
            print("xmtsim: --sanitize requires --mode functional",
                  file=sys.stderr)
            return 2
        from repro.sim.plugins import RaceSanitizer

        sanitizer = RaceSanitizer()

    try:
        if args.mode == "functional":
            result = FunctionalSimulator(program, sanitizer=sanitizer).run()
            sys.stdout.write(result.output)
            print(f"[functional] {result.instructions} instructions",
                  file=sys.stderr)
            if sanitizer is not None:
                print(sanitizer.report(program), file=sys.stderr)
            memory = result.memory
        elif args.mode == "sampled":
            from repro.sim.sampling import PhaseSampler, SampledSimulator

            sampler = PhaseSampler()
            sim = SampledSimulator(program, machine_config,
                                   sampler=sampler, trace=trace)
            result = sim.run(max_cycles=args.max_cycles)
            sys.stdout.write(result.output)
            print(f"[{config_label}, sampled] ~{result.cycles} cycles "
                  f"(estimated)", file=sys.stderr)
            print(sampler.report(), file=sys.stderr)
            memory = result.memory
            if args.stats:
                print(result.stats.report(), file=sys.stderr)
        else:
            import time as _time

            sim = Simulator(program, machine_config, plugins=plugins,
                            trace=trace, observability=observability)
            run_started = _time.perf_counter()
            final_machine = sim.machine
            if telemetry is not None:
                telemetry.attach(sim.machine)
                telemetry.arm()
            if args.checkpoint_every > 0 or args.max_retries is not None:
                # rollback builds a *new* machine from the checkpoint;
                # checkpoints strip observability, so re-attach it (the
                # fault plug-ins stay detached on purpose: planned
                # faults are transient and must not replay)
                obs_facade = sim.machine.obs

                def _reattach(machine):
                    machine.obs = obs_facade
                    obs_facade.attach(machine)
                    if telemetry is not None:
                        # checkpoints strip sampler events too: bind to
                        # the restored machine and restart the interval
                        telemetry.attach(machine)
                        telemetry.arm()

                report = run_resilient(
                    sim.machine,
                    checkpoint_every=args.checkpoint_every,
                    max_retries=(3 if args.max_retries is None
                                 else args.max_retries),
                    max_cycles=args.max_cycles,
                    wall_limit_s=args.wall_limit,
                    max_events=args.event_budget,
                    reattach=_reattach if obs_facade is not None else None)
                print(report.format(), file=sys.stderr)
                if report.machine is not None:
                    final_machine = report.machine
                if not report.completed:
                    partial = report.partial()
                    print(f"xmtsim: {partial.format()}", file=sys.stderr)
                    sys.stdout.write(partial.output)
                    if observability is not None:
                        _write_observability(args, observability,
                                             final_machine)
                    return 5
                result = report.result
            else:
                result = sim.run(max_cycles=args.max_cycles,
                                 wall_limit_s=args.wall_limit,
                                 max_events=args.event_budget)
            run_wall = _time.perf_counter() - run_started
            sys.stdout.write(result.output)
            print(f"[{config_label}] {result.cycles} cycles, "
                  f"{result.instructions} instructions", file=sys.stderr)
            memory = result.memory
            if args.stats:
                print(result.stats.report(), file=sys.stderr)
            if observability is not None:
                code = _write_observability(args, observability,
                                            final_machine)
                if code:
                    return code
            if args.ledger:
                from repro.sim.observability import (
                    Ledger,
                    build_manifest,
                    export_metrics,
                )

                manifest = build_manifest(
                    program, final_machine.config, cycles=result.cycles,
                    instructions=result.instructions,
                    wall_seconds=run_wall, source=xmtc_source,
                    program_path=args.program, label=args.run_label)
                accounting_payload = None
                if observability.accounting is not None:
                    from repro.sim.observability import export_accounting

                    accounting_payload = export_accounting(
                        final_machine, observability.accounting,
                        cycles=result.cycles)
                extras = None
                if observability.lifecycle is not None:
                    extras = {"lifecycle":
                              observability.lifecycle.to_data()}
                try:
                    record = Ledger(args.ledger).record(
                        manifest, export_metrics(final_machine),
                        observability.profiler.to_data(),
                        accounting=accounting_payload, extras=extras)
                except OSError as exc:
                    print(f"xmtsim: {exc}", file=sys.stderr)
                    return 2
                print(f"xmtsim: recorded run {record.run_id} in ledger "
                      f"{args.ledger}", file=sys.stderr)
    except SimulationStalled as exc:
        print(f"xmtsim: stalled: {exc}", file=sys.stderr)
        if exc.dump is not None:
            print(exc.dump.format(), file=sys.stderr)
        return 3
    except SimulationBudgetExceeded as exc:
        print(f"xmtsim: budget exceeded: {exc}", file=sys.stderr)
        if exc.dump is not None:
            print(exc.dump.summary(), file=sys.stderr)
        return 4
    except SimulationError as exc:
        print(f"xmtsim: runtime error: {exc}", file=sys.stderr)
        return 1
    finally:
        if telemetry is not None:
            # close() emits the closing "final" frame even when the run
            # ended in an exception: the stream records where it died
            telemetry.close()
            targets = [t for t in (args.telemetry_out,
                                   args.telemetry_socket) if t]
            dropped = sum(getattr(s, "dropped", 0) for s in telemetry.sinks)
            note = (f"xmtsim: telemetry: {telemetry.emitted} frame(s) to "
                    f"{', '.join(targets)}")
            if dropped:
                note += f" ({dropped} dropped for slow subscribers)"
            print(note, file=sys.stderr)

    for name in args.print_global:
        try:
            values = program.read_global(name, memory)
        except KeyError:
            print(f"xmtsim: no such global {name!r}", file=sys.stderr)
            return 2
        print(f"{name} = {values}")
    return 0


def _parse_config_value(token: str):
    """One sweep/override value: int, float, bool or bare string."""
    token = token.strip()
    if token.lower() in ("true", "false"):
        return token.lower() == "true"
    try:
        return int(token, 0)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        return token


def _parse_vary(specs: List[str]):
    """``--vary field=v1,v2,...`` specs -> ordered (field, values) list."""
    axes = []
    for spec in specs:
        field, eq, values = spec.partition("=")
        field = field.strip()
        if not eq or not field or not values.strip():
            raise ValueError(f"--vary expects FIELD=V1,V2,...; got {spec!r}")
        axes.append((field, [_parse_config_value(v)
                             for v in values.split(",")]))
    return axes


def _grid(axes):
    """Cartesian product of the vary axes as override dicts, in order."""
    points = [{}]
    for field, values in axes:
        points = [dict(point, **{field: value})
                  for point in points for value in values]
    return points


def _apply_globals(program, sets) -> None:
    for name, values in sets:
        try:
            program.write_global(name, _parse_values(values))
        except KeyError:
            raise ValueError(f"no such global {name!r}") from None


def _compare_base_config(args, baseline_manifest=None):
    """Resolve the config for a fresh xmt-compare run.

    Explicit ``--config``/``--config-file`` wins; otherwise ``check``
    reruns under the baseline's recorded (fully resolved) config so the
    comparison isolates the toolchain change from any config drift.
    """
    if args.config_file:
        from repro.sim.config import from_file

        return from_file(args.config_file)
    if args.config is not None:
        return _CONFIGS[args.config]()
    if baseline_manifest is not None:
        cfg = XMTConfig().scaled(**baseline_manifest["config"])
        cfg.validate()
        return cfg
    return _CONFIGS["fpga64"]()


def _resolve_run(token: str, ledger_dir: Optional[str]):
    """A diff operand: a run directory / manifest path, or a run-id
    (prefix) looked up in ``--ledger``."""
    from repro.sim.observability import Ledger, load_run

    if os.path.exists(token):
        return load_run(token)
    if ledger_dir is None:
        raise ValueError(f"{token!r} is not a path; pass --ledger DIR "
                         f"to resolve run ids")
    return Ledger(ledger_dir).load(token)


def xmt_compare_main(argv: Optional[List[str]] = None) -> int:
    """``xmt-compare``: diff, sweep and gate ledger-recorded runs.

    Exit codes: 0 = ok, 1 = regression past threshold (``check``),
    2 = bad input (unreadable files, unknown runs, schema mismatch).
    """
    from repro.sim.observability import Ledger, compare_runs
    from repro.sim.observability.compare import SchemaError

    parser = argparse.ArgumentParser(
        prog="xmt-compare",
        description="differential observability over the xmtsim "
                    "experiment ledger (see MANUAL.md section 4.7)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_compile=False):
        p.add_argument("--ledger", default=None, metavar="DIR",
                       help="experiment ledger directory")
        p.add_argument("--threshold", type=float, default=0.05,
                       metavar="REL",
                       help="relative delta below which a metric counts "
                            "as unchanged (default 0.05 = 5%%)")
        p.add_argument("--format", default="text",
                       choices=("text", "json", "markdown"),
                       help="report format")
        p.add_argument("--top", type=int, default=20, metavar="N",
                       help="rows per report section")
        if with_compile:
            p.add_argument("--config", default=None,
                           choices=sorted(_CONFIGS),
                           help="machine configuration for fresh runs")
            p.add_argument("--config-file", default=None, metavar="PATH",
                           help="JSON configuration file (overrides "
                                "--config)")
            p.add_argument("--max-cycles", type=int, default=None)
            p.add_argument("--set", nargs=2, action="append", default=[],
                           metavar=("GLOBAL", "VALUES"),
                           help="write comma-separated values into a "
                                "global before every run (repeatable)")
            _add_compile_flags(p)

    p_list = sub.add_parser("list", help="list the runs in a ledger")
    p_list.add_argument("--ledger", required=True, metavar="DIR")

    p_diff = sub.add_parser(
        "diff", help="diff two recorded runs (A = baseline)")
    p_diff.add_argument("run_a", help="run id/prefix (with --ledger) or "
                                      "path to a run dir/manifest.json")
    p_diff.add_argument("run_b", help="second run (see run_a)")
    add_common(p_diff)

    p_sweep = sub.add_parser(
        "sweep", help="fan one program across a config grid, record "
                      "every run, and print the comparison table")
    p_sweep.add_argument("program",
                         help="assembly (.s/.asm) or XMTC source file")
    p_sweep.add_argument("--vary", action="append", default=[],
                         metavar="FIELD=V1,V2,...", required=True,
                         help="sweep an XMTConfig field over values "
                              "(repeatable; repeats form the cartesian "
                              "product)")
    p_sweep.add_argument("--workers", type=int, default=1, metavar="N",
                         help="shard the sweep across N supervised "
                              "worker processes via the campaign engine "
                              "(default 1 = in-process)")
    add_common(p_sweep, with_compile=True)

    p_check = sub.add_parser(
        "check", help="run a program fresh and gate it against a "
                      "committed baseline run (CI perf-regression gate)")
    p_check.add_argument("program",
                         help="assembly (.s/.asm) or XMTC source file")
    p_check.add_argument("--baseline", required=True, metavar="PATH",
                         help="baseline run directory (or its "
                              "manifest.json)")
    p_check.add_argument("--metric", action="append", default=[],
                         metavar="NAME",
                         help="additional lower-is-better gate metric "
                              "from the flattened metric space (e.g. "
                              "stats.icn.packages); cycles is always "
                              "gated")
    p_check.add_argument("--update-baseline", action="store_true",
                         help="rewrite the baseline directory from the "
                              "fresh run instead of gating")
    p_check.add_argument("--recorder", action="store_true",
                         help="run the fresh program with the flight "
                              "recorder and cycle accounting enabled "
                              "(proves the zero-overhead invariant under "
                              "the gate; the comparison gains the layer-"
                              "attribution table when the baseline also "
                              "recorded accounting)")
    add_common(p_check, with_compile=True)

    args = parser.parse_args(argv)

    try:
        if args.command == "list":
            records = Ledger(args.ledger).list_runs()
            if not records:
                print(f"xmt-compare: no runs in {args.ledger}")
                return 0
            print(f"{'run id':<14} {'config':<10} {'cycles':>10}  "
                  f"{'program':<12} label")
            for r in records:
                fault = r.manifest.get("fault")
                marker = (f"  [injected {fault['site']}@{fault['cycle']}"
                          f" -> {fault.get('outcome', '?')}]"
                          if fault else "")
                print(f"{r.run_id:<14} "
                      f"{str(r.config_value('name')):<10} "
                      f"{r.cycles:>10}  "
                      f"{r.manifest['program']['sha256'][:10]:<12} "
                      f"{r.manifest.get('label') or ''}{marker}")
            return 0

        if args.command == "diff":
            rec_a = _resolve_run(args.run_a, args.ledger)
            rec_b = _resolve_run(args.run_b, args.ledger)
            comparison = compare_runs(rec_a, rec_b,
                                      threshold=args.threshold)
            print(comparison.render(args.format, top=args.top))
            return 0

        if args.command == "sweep":
            return _compare_sweep(args)

        return _compare_check(args)
    except BrokenPipeError:
        # stdout closed early (e.g. piped into head) -- not an error
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    except (OSError, KeyError, ValueError, CompileError) as exc:
        # SchemaError is a ValueError: bad payloads land here too
        kind = "schema error" if isinstance(exc, SchemaError) else "error"
        message = (exc.args[0] if isinstance(exc, (KeyError, ValueError))
                   and exc.args else exc)
        print(f"xmt-compare: {kind}: {message}", file=sys.stderr)
        return 2


def _compare_sweep(args) -> int:
    """Thin client of the campaign engine: expand the grid, run it
    (in-process by default, supervised workers with ``--workers N``)
    and render the comparison table."""
    from repro.sim.campaign import CampaignEngine, grid_requests
    from repro.sim.observability import Ledger, render_sweep_table

    axes = _parse_vary(args.vary)
    inputs = {name: _parse_values(values) for name, values in args.set}
    requests = grid_requests(args.program, axes, inputs=inputs,
                             max_cycles=args.max_cycles)
    ledger = Ledger(args.ledger) if args.ledger else None

    def note(outcome):
        if outcome.status in ("ok", "cached"):
            suffix = " (cached)" if outcome.status == "cached" else ""
            print(f"xmt-compare: {outcome.label}: {outcome.cycles} cycles "
                  f"({outcome.run_id}){suffix}", file=sys.stderr)
        else:
            print(f"xmt-compare: {outcome.label}: {outcome.status}: "
                  f"{outcome.error_type}: {outcome.error}", file=sys.stderr)

    engine = CampaignEngine(
        requests, ledger=ledger, base_config=_compare_base_config(args),
        compile_options=_compile_options(args),
        workers=args.workers, serial=args.workers <= 1,
        max_retries=0, max_cycles=args.max_cycles, on_outcome=note)
    result = engine.run()
    bad = [o for o in result.outcomes if o.status not in ("ok", "cached")]
    if bad:
        raise ValueError(
            f"{len(bad)} of {len(result.outcomes)} sweep run(s) failed: "
            + "; ".join(f"{o.label}: {o.error_type}: {o.error}"
                        for o in bad))
    records = [o.record for o in result.outcomes]
    print(render_sweep_table(records, [field for field, _ in axes],
                             fmt=args.format))
    if args.ledger:
        print(f"xmt-compare: {len(records)} run(s) recorded in "
              f"{args.ledger}; diff any pair with "
              f"'xmt-compare diff ID ID --ledger {args.ledger}'",
              file=sys.stderr)
    return 0


def _compare_check(args) -> int:
    from repro.sim.observability import (
        Ledger,
        check_regressions,
        compare_runs,
        instrumented_run,
        load_run,
        write_run_dir,
    )

    # the baseline operand is a run directory unless it names the
    # manifest file itself (a not-yet-existing directory stays a
    # directory so --update-baseline can create it)
    if args.baseline.endswith(".json"):
        baseline_dir = os.path.dirname(args.baseline) or "."
        manifest_path = args.baseline
    else:
        baseline_dir = args.baseline
        manifest_path = os.path.join(args.baseline, "manifest.json")
    baseline = None
    if os.path.exists(manifest_path) or not args.update_baseline:
        baseline = load_run(args.baseline)
    program, source = _load_program(args.program, _compile_options(args))
    _apply_globals(program, args.set)
    config = _compare_base_config(
        args, baseline.manifest if baseline is not None else None)
    artifacts = instrumented_run(
        program, config, source=source, program_path=args.program,
        label="baseline" if args.update_baseline else "fresh",
        max_cycles=args.max_cycles,
        accounting=getattr(args, "recorder", False))
    fresh = artifacts.as_record()
    if args.update_baseline:
        write_run_dir(baseline_dir, artifacts.manifest, artifacts.metrics,
                      artifacts.profile,
                      accounting=artifacts.accounting,
                      extras=artifacts.extras or None)
        print(f"xmt-compare: baseline {baseline_dir} updated "
              f"({fresh.cycles} cycles, run {fresh.run_id})")
        return 0
    if args.ledger:
        Ledger(args.ledger).record_artifacts(artifacts)
    if (fresh.manifest["program"]["sha256"]
            != baseline.manifest["program"]["sha256"]):
        print("xmt-compare: warning: program differs from the baseline "
              "run (stale baseline? rerun with --update-baseline)",
              file=sys.stderr)
    comparison = compare_runs(baseline, fresh, threshold=args.threshold)
    print(comparison.render(args.format, top=args.top))
    failures = check_regressions(comparison,
                                 metrics=["cycles"] + args.metric)
    if failures:
        for failure in failures:
            print(f"xmt-compare: {failure.format()}", file=sys.stderr)
        return 1
    print(f"xmt-compare: OK within +{100 * args.threshold:.1f}% "
          f"of baseline {baseline.run_id}", file=sys.stderr)
    return 0


def xmt_campaign_main(argv: Optional[List[str]] = None) -> int:
    """``xmt-campaign``: fault-tolerant multi-run campaigns.

    Exit codes: 0 = every run ok or cached, 5 = campaign completed but
    some runs ended failed/timeout/gave-up (partial results; the report
    names each), 2 = bad input (unreadable program/queue, bad grid).

    ``xmt-campaign report`` is a separate subcommand: it aggregates a
    finished campaign's ``--results``/``--telemetry-out`` streams and
    ``attempts.jsonl`` into outcome counts, per-axis percentiles and
    retry histograms.
    """
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "report":
        return _campaign_report_main(argv[1:])

    from repro.sim.campaign import (
        CampaignEngine,
        ChaosMonkey,
        grid_requests,
        load_queue,
    )
    from repro.sim.observability import Ledger

    parser = argparse.ArgumentParser(
        prog="xmt-campaign",
        description="fault-tolerant campaign engine: shard a sweep grid "
                    "or a JSONL run queue across supervised worker "
                    "processes with retry/backoff, ledger dedup and "
                    "typed per-run outcomes (MANUAL.md section 4.9)")
    parser.add_argument("program", nargs="?", default=None,
                        help="assembly (.s/.asm) or XMTC source file "
                             "(grid mode; omit with --queue)")
    parser.add_argument("--queue", default=None, metavar="FILE",
                        help="JSONL queue of run requests (one JSON "
                             "object per line; see MANUAL 4.9)")
    parser.add_argument("--vary", action="append", default=[],
                        metavar="FIELD=V1,V2,...",
                        help="sweep an XMTConfig field over values "
                             "(repeatable; repeats form the cartesian "
                             "product)")
    parser.add_argument("--config", default=None, choices=sorted(_CONFIGS),
                        help="base machine configuration (default fpga64)")
    parser.add_argument("--config-file", default=None, metavar="PATH",
                        help="JSON configuration file (overrides --config)")
    parser.add_argument("--set", nargs=2, action="append", default=[],
                        metavar=("GLOBAL", "VALUES"),
                        help="write comma-separated values into a global "
                             "before every run (repeatable; recorded in "
                             "the manifest, so it is part of the dedup "
                             "identity)")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed recorded in every run manifest")
    parser.add_argument("--max-cycles", type=int, default=None)
    parser.add_argument("--workers", type=int, default=2, metavar="N",
                        help="worker processes (default 2; 1 = serial "
                             "in-process execution)")
    parser.add_argument("--serial", action="store_true",
                        help="force serial in-process execution")
    parser.add_argument("--max-retries", type=int, default=2, metavar="N",
                        help="reschedule a failed/dead run up to N times "
                             "with exponential backoff (default 2)")
    parser.add_argument("--backoff", type=float, default=0.25,
                        metavar="SECONDS",
                        help="base retry backoff; doubles per attempt "
                             "(default 0.25)")
    parser.add_argument("--wall-budget", type=float, default=None,
                        metavar="SECONDS",
                        help="per-run host wall-clock budget, enforced "
                             "in-worker by the watchdog")
    parser.add_argument("--event-budget", type=int, default=None,
                        metavar="N",
                        help="per-run scheduler-event budget")
    parser.add_argument("--attempt-deadline", type=float, default=None,
                        metavar="SECONDS",
                        help="supervisor-side hard deadline per attempt; "
                             "a worker alive past it is SIGKILLed "
                             "(default: 3x --wall-budget + 10 when a "
                             "wall budget is set, else none)")
    parser.add_argument("--ledger", default=None, metavar="DIR",
                        help="record every completed run here AND dedup "
                             "against it first -- re-invoking a killed "
                             "campaign resumes where it died")
    parser.add_argument("--results", default=None, metavar="PATH",
                        help="stream typed per-run outcomes to PATH as "
                             "JSONL while the campaign runs")
    parser.add_argument("--telemetry-out", default=None, metavar="PATH",
                        help="multiplex worker telemetry frames and "
                             "engine records (campaign-start, outcomes, "
                             "stall warnings, campaign-end) into one "
                             "JSONL stream at PATH; watch it live with "
                             "'xmt-top watch --follow', aggregate it "
                             "with 'xmt-campaign report'")
    parser.add_argument("--telemetry-every", type=int, default=2000,
                        metavar="CYCLES",
                        help="worker telemetry frame interval in cycles "
                             "(default 2000)")
    parser.add_argument("--stall-warn", type=float, default=None,
                        metavar="SECONDS",
                        help="flag a worker that emits no telemetry "
                             "frame for this long (heartbeat-gap in "
                             "attempts.jsonl, stall-warning in the "
                             "stream); enables worker telemetry even "
                             "without --telemetry-out")
    parser.add_argument("--stall-kill", type=float, default=None,
                        metavar="SECONDS",
                        help="SIGKILL a worker silent for this long -- "
                             "a hung worker dies early instead of "
                             "burning its whole --attempt-deadline; "
                             "classified as a diagnosed timeout "
                             "(WorkerStalled)")
    parser.add_argument("--chaos-kill", type=int, default=0, metavar="N",
                        help="chaos mode: SIGKILL up to N workers "
                             "mid-run (never a run's last allowed "
                             "attempt, so healthy campaigns still "
                             "complete)")
    parser.add_argument("--chaos-seed", type=int, default=0, metavar="SEED",
                        help="chaos RNG seed (same seed -> same kills)")
    parser.add_argument("--sanitize", action="store_true",
                        help="additionally run each program under the "
                             "dynamic race sanitizer and record its "
                             "findings in the result payload/manifest")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the per-run progress lines")
    _add_compile_flags(parser)
    args = parser.parse_args(argv)

    if (args.program is None) == (args.queue is None):
        print("xmt-campaign: give a program (grid mode) or --queue FILE, "
              "not both", file=sys.stderr)
        return 2
    if args.queue is not None and args.vary:
        print("xmt-campaign: --vary only applies to grid mode",
              file=sys.stderr)
        return 2

    try:
        inputs = {name: _parse_values(values) for name, values in args.set}
        if args.queue is not None:
            requests = load_queue(args.queue)
            if inputs:
                for request in requests:
                    request.inputs = dict(inputs, **request.inputs)
        else:
            requests = grid_requests(
                args.program, _parse_vary(args.vary), inputs=inputs,
                seed=args.seed, max_cycles=args.max_cycles)

        base_config = None
        if args.config_file:
            from repro.sim.config import from_file

            base_config = from_file(args.config_file)
        elif args.config is not None:
            base_config = _CONFIGS[args.config]()

        chaos = (ChaosMonkey(kills=args.chaos_kill, seed=args.chaos_seed)
                 if args.chaos_kill > 0 else None)

        def note(outcome):
            if args.quiet:
                return
            if outcome.status in ("ok", "cached"):
                tag = " (cached)" if outcome.status == "cached" else ""
                attempts = (f" [attempt {outcome.attempts}]"
                            if outcome.attempts > 1 else "")
                races = ""
                if outcome.sanitizer and not outcome.sanitizer.get("clean"):
                    kinds = ",".join(outcome.sanitizer.get("kinds", []))
                    races = (f" RACES: {outcome.sanitizer.get('races')}"
                             f" [{kinds}]")
                print(f"xmt-campaign: {outcome.label or outcome.index}: "
                      f"{outcome.cycles} cycles ({outcome.run_id})"
                      f"{tag}{attempts}{races}", file=sys.stderr)
            else:
                print(f"xmt-campaign: {outcome.label or outcome.index}: "
                      f"{outcome.status} after {outcome.attempts} "
                      f"attempt{'s' if outcome.attempts != 1 else ''}: "
                      f"{outcome.error_type}: {outcome.error}",
                      file=sys.stderr)

        engine = CampaignEngine(
            requests,
            ledger=Ledger(args.ledger) if args.ledger else None,
            results_path=args.results,
            base_config=base_config,
            compile_options=_compile_options(args),
            workers=args.workers,
            serial=args.serial,
            max_retries=args.max_retries,
            backoff_s=args.backoff,
            wall_budget_s=args.wall_budget,
            event_budget=args.event_budget,
            max_cycles=args.max_cycles,
            attempt_deadline_s=args.attempt_deadline,
            sanitize=args.sanitize,
            chaos=chaos,
            on_outcome=note,
            telemetry_path=args.telemetry_out,
            telemetry_every=args.telemetry_every,
            stall_warn_s=args.stall_warn,
            stall_kill_s=args.stall_kill)
        result = engine.run()
    except (OSError, ValueError, CompileError) as exc:
        print(f"xmt-campaign: error: {exc}", file=sys.stderr)
        return 2

    print(result.format())
    if args.results:
        print(f"xmt-campaign: streamed {len(result.outcomes)} outcome(s) "
              f"to {args.results}", file=sys.stderr)
    if args.telemetry_out:
        print(f"xmt-campaign: telemetry stream at {args.telemetry_out} "
              f"(xmt-top report / xmt-campaign report)", file=sys.stderr)
    return result.exit_code()


def _campaign_report_main(argv: List[str]) -> int:
    """``xmt-campaign report``: aggregate a finished campaign."""
    from repro.sim.observability.aggregate import (
        aggregate_campaign,
        render_campaign_report,
    )
    from repro.sim.observability.telemetry import read_stream

    parser = argparse.ArgumentParser(
        prog="xmt-campaign report",
        description="aggregate campaign outcome/telemetry streams into "
                    "outcome counts, p50/p95 wall time and cycles per "
                    "config axis, and retry/backoff histograms")
    parser.add_argument("--results", default=None, metavar="PATH",
                        help="outcome JSONL written by --results")
    parser.add_argument("--telemetry", default=None, metavar="PATH",
                        help="stream written by --telemetry-out (its "
                             "'outcome' records carry the same fields; "
                             "giving both files never double-counts)")
    parser.add_argument("--attempts", default=None, metavar="PATH",
                        help="attempts.jsonl from the campaign ledger "
                             "directory (adds backoff and heartbeat-gap "
                             "histograms)")
    parser.add_argument("--format", default="text",
                        choices=("text", "markdown", "json"))
    args = parser.parse_args(argv)

    if not args.results and not args.telemetry:
        print("xmt-campaign report: give --results and/or --telemetry",
              file=sys.stderr)
        return 2
    try:
        records: List[dict] = []
        for path in (args.results, args.telemetry):
            if path:
                records += read_stream(path)
        attempts = read_stream(args.attempts) if args.attempts else None
    except OSError as exc:
        print(f"xmt-campaign report: {exc}", file=sys.stderr)
        return 2
    report = aggregate_campaign(records, attempts)
    if not report["runs"]:
        print("xmt-campaign report: no outcome records found",
              file=sys.stderr)
        return 2
    print(render_campaign_report(report, args.format))
    return 0


def xmt_top_main(argv: Optional[List[str]] = None) -> int:
    """``xmt-top``: live monitor over telemetry streams.

    ``watch`` tails a growing JSONL stream (``--follow``) or subscribes
    to a ``--telemetry-socket`` publisher and redraws a per-run table;
    ``report`` renders the same table once from a finished stream.
    Exit codes: 0 = ok, 2 = unreadable stream / unreachable socket.
    """
    from repro.sim.observability.aggregate import fold_stream, render_top
    from repro.sim.observability.telemetry import read_stream

    parser = argparse.ArgumentParser(
        prog="xmt-top",
        description="live per-run progress monitor for xmtsim and "
                    "xmt-campaign telemetry streams (MANUAL.md "
                    "section 4.10)")
    sub = parser.add_subparsers(dest="command", required=True)
    report = sub.add_parser(
        "report", help="one-shot table from a telemetry stream")
    report.add_argument("stream",
                        help="JSONL written by xmtsim/xmt-campaign "
                             "--telemetry-out")
    report.add_argument("--format", default="text",
                        choices=("text", "markdown", "json"))
    watch = sub.add_parser(
        "watch", help="follow a stream live and redraw the table")
    source = watch.add_mutually_exclusive_group(required=True)
    source.add_argument("--follow", default=None, metavar="PATH",
                        help="tail a growing telemetry JSONL file")
    source.add_argument("--socket", default=None, metavar="PATH",
                        help="subscribe to an xmtsim --telemetry-socket "
                             "publisher")
    watch.add_argument("--interval", type=float, default=0.5,
                       metavar="SECONDS",
                       help="redraw interval (default 0.5)")
    watch.add_argument("--max-updates", type=int, default=None,
                       metavar="N",
                       help="stop after N redraws (default: until the "
                            "stream ends)")
    watch.add_argument("--plain", action="store_true",
                       help="append snapshots instead of clearing the "
                            "screen (no ANSI; for logs and tests)")
    args = parser.parse_args(argv)

    if args.command == "report":
        try:
            records = read_stream(args.stream)
        except OSError as exc:
            print(f"xmt-top: {exc}", file=sys.stderr)
            return 2
        if not records:
            print(f"xmt-top: {args.stream}: no telemetry records",
                  file=sys.stderr)
            return 2
        print(render_top(fold_stream(records), args.format))
        return 0
    return _top_watch(args)


def _top_watch(args) -> int:
    import json as _json
    import socket as _socket
    import time as _time

    from repro.sim.observability.aggregate import (
        TopSummary,
        fold_stream,
        render_top,
    )

    summary = TopSummary()
    updates = 0

    def redraw() -> None:
        nonlocal updates
        updates += 1
        text = render_top(summary, "text")
        if args.plain:
            print(text)
            print("", flush=True)
        else:
            sys.stdout.write("\x1b[2J\x1b[H" + text + "\n")
            sys.stdout.flush()

    def fold_lines(lines) -> None:
        records = []
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                record = _json.loads(line)
            except _json.JSONDecodeError:
                continue  # torn line from a killed writer
            if isinstance(record, dict):
                records.append(record)
        fold_stream(records, summary)

    def done() -> bool:
        if summary.finished:
            return True
        if args.max_updates is not None and updates >= args.max_updates:
            return True
        terminal = ("done", "ok", "cached", "failed", "timeout", "gave-up")
        return bool(summary.rows) and all(
            row.state in terminal for row in summary.rows.values())

    try:
        if args.socket:
            sock = _socket.socket(_socket.AF_UNIX, _socket.SOCK_STREAM)
            try:
                sock.connect(args.socket)
            except OSError as exc:
                print(f"xmt-top: {args.socket}: {exc}", file=sys.stderr)
                return 2
            sock.settimeout(args.interval)
            buffer = b""
            with sock:
                while True:
                    closed = False
                    try:
                        data = sock.recv(65536)
                        closed = data == b""
                    except _socket.timeout:
                        data = b""
                    if data:
                        buffer += data
                        lines = buffer.split(b"\n")
                        buffer = lines.pop()
                        fold_lines(line.decode("utf-8", "replace")
                                   for line in lines)
                    redraw()
                    if closed or done():
                        return 0
        else:
            deadline = _time.monotonic() + 10.0
            while not os.path.exists(args.follow):
                if _time.monotonic() >= deadline:
                    print(f"xmt-top: {args.follow}: no such stream",
                          file=sys.stderr)
                    return 2
                _time.sleep(min(args.interval, 0.1))
            buffer = ""
            with open(args.follow) as fh:
                while True:
                    data = fh.read()
                    if data:
                        buffer += data
                        lines = buffer.split("\n")
                        buffer = lines.pop()
                        fold_lines(lines)
                    redraw()
                    if done():
                        return 0
                    _time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def xmt_prof_main(argv: Optional[List[str]] = None) -> int:
    """``xmt-prof``: inspect profiles written by ``xmtsim --profile-out``.

    Exit codes: 0 = report printed, 2 = unreadable or not a profile.
    """
    from repro.sim.observability import load_profile, render_profile

    parser = argparse.ArgumentParser(
        prog="xmt-prof",
        description="render xmtsim cycle profiles (gprof-style, per "
                    "XMTC source line)")
    sub = parser.add_subparsers(dest="command", required=True)
    report = sub.add_parser(
        "report", help="print the hotspot report for a profile JSON")
    report.add_argument("profile", help="JSON written by --profile-out")
    report.add_argument("--top", type=int, default=20, metavar="N",
                        help="show the N hottest source lines")
    report.add_argument("--source", default=None, metavar="FILE",
                        help="XMTC source to quote (overrides the text "
                             "embedded in the profile)")
    args = parser.parse_args(argv)

    try:
        data = load_profile(args.profile)
    except (OSError, ValueError) as exc:
        # ValueError covers both a wrong schema and malformed JSON
        print(f"xmt-prof: {exc}", file=sys.stderr)
        return 2
    source = None
    if args.source:
        try:
            with open(args.source) as fh:
                source = fh.read()
        except OSError as exc:
            print(f"xmt-prof: {exc}", file=sys.stderr)
            return 2
    print(render_profile(data, source=source, top=args.top))
    return 0
