"""Command-line entry points: ``xmtcc`` (compiler), ``xmtsim``
(simulator) -- the two tools of the paper's title -- plus ``xmtc-lint``
(static analyzer), ``xmtc-fuzz`` (analysis soundness fuzzing),
``xmt-prof`` (profile reports), ``xmt-explain`` (cycle-accounting
reports), ``xmt-compare`` (experiment ledger diffs), ``xmt-campaign``
(fault-tolerant multi-run campaigns) and ``xmt-top`` (live telemetry
monitor), as executables.

    xmtcc program.c -o program.s [-O2] [--cluster 4] [--no-prefetch] ...
    xmtsim program.s [--config fpga64] [--mode cycle|functional]
           [--set A 1,2,3] [--print-global B] [--stats] [--trace ...]
           [--out RUN [--observe metrics,profile,...]] [--ledger DIR]
    xmtc-lint program.c [--json] [--dynamic] [--check-shipped]
    xmt-prof {report,chrome} RUN [--top 30]
    xmt-explain report RUN [--assert-exact] [--format text|markdown|json]
    xmt-compare {list,diff,check} ... [--ledger DIR]
    xmt-campaign program.c --vary f=v1,v2 --workers 4 --ledger DIR
    xmt-campaign --queue runs.jsonl --workers 4 --ledger DIR
    xmt-top {report,watch} ... [--format text|markdown|json]

Every command is a ``build_parser`` function and a handler run by
:func:`_run`, the only place where rejected input becomes ``<prog>:
error: <message naming the flag>`` and an exit code; handlers raise
instead of printing and returning.  Options several commands share are
defined once (the ``_add_*_options`` functions) and resolved once
(:func:`_load_run`).

``xmtsim`` accepts either assembly (``.s``) or XMTC source (anything
else), compiling the latter on the fly, so the two-step and one-step
workflows both work.  ``xmtc-lint`` runs the spawn-region race detector
and the memory-model linter (see MANUAL.md section 7) over XMTC
sources; ``--dynamic`` re-checks each program at runtime with the
functional simulator's race sanitizer.  ``xmt-compare`` diffs runs
recorded with ``--ledger`` and gates CI against committed baselines
(MANUAL.md section 4.7).  ``xmt-campaign`` -- the one way to run many
simulations -- shards a config grid (``--vary``) or a JSONL queue of
run requests across supervised worker processes with retries, ledger
dedup (resume-after-kill) and typed per-run outcomes, streamed into
``--telemetry-out``; ``xmt-top report`` renders that stream (MANUAL.md
sections 4.9, 4.10).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional

from repro.sim.config import BUILTIN_CONFIGS, XMTConfig, fpga64, from_file
from repro.sim.functional import FunctionalSimulator, SimulationError
from repro.sim.observability import (
    ARTIFACTS,
    FlightRecorder,
    JsonlTail,
    Ledger,
    build_explain,
    chrome_trace,
    check_regressions,
    compare_runs,
    instrumented_run,
    load_artifact,
    load_run,
    read_jsonl,
    render_comparison,
    render_explain,
    render_profile,
    run_marks,
    write_run_dir,
)
from repro.sim.observability.aggregate import (
    TopSummary,
    fold_stream,
    render_top,
)
from repro.sim.observability.artifacts import run_file
from repro.sim.observability.ledger import OBSERVABLE
from repro.sim.observability.telemetry import JsonlSink, TelemetrySampler
from repro.sim.plugins import RaceSanitizer
from repro.sim.resilience import SimulationBudgetExceeded, SimulationStalled
from repro.sim.stats import Stats
from repro.sim.trace import Trace
from repro.toolchain.driver import apply_inputs, load_program
from repro.xmtc.compiler import CompileOptions, compile_to_asm
from repro.xmtc.errors import CompileError

# -- the skeleton --------------------------------------------------------------


class CliError(Exception):
    """Input the command rejects; the message names the flag at fault.

    ``code`` is the exit code (2 = bad input unless the command
    documents another), ``kind`` the word after the program name.
    """

    def __init__(self, message: str, code: int = 2, kind: str = "error"):
        super().__init__(message)
        self.code = code
        self.kind = kind


def _message(exc: BaseException) -> str:
    # str(KeyError) is the repr of its argument: quotes around a sentence
    return str(exc.args[0]) if isinstance(exc, KeyError) and exc.args \
        else str(exc)


@contextmanager
def _flag(name: str, *rejections: type):
    """What the enclosed statements reject is reported under ``name``."""
    try:
        yield
    except BrokenPipeError:
        raise  # stdout went away; no flag's fault
    except (rejections or (OSError, ValueError, KeyError)) as exc:
        raise CliError(f"{name}: {_message(exc)}") from exc


def _at_least(least: int, flag: str, value: Optional[int]) -> Optional[int]:
    """``value`` (``None``: not given), unless it is a number the code
    below would quietly read as "off" (a negative interval, a
    clustering factor of 0, a budget of no cycles)."""
    if value is not None and value < least:
        raise CliError(f"{flag}: must be at least {least}, got {value}")
    return value


def _above_zero(flag: str, value: Optional[float]) -> Optional[float]:
    """``value`` (``None``: not given), unless it is a duration of zero
    or less -- a limit every run would trip on its first check."""
    if value is not None and value <= 0:
        raise CliError(f"{flag}: must be greater than 0, got {value:g}")
    return value


def _run(build_parser: Callable[[], argparse.ArgumentParser],
         handler: Callable[[argparse.Namespace], int],
         argv: Optional[List[str]], compile_error_exit: int = 2) -> int:
    """Parse, call the handler, turn rejected input into one stderr line.

    Every layer below reports input it cannot accept as ``OSError``,
    ``ValueError`` (configurations, queue lines, schemas)
    or ``KeyError`` (unknown globals, run ids), so those are exit 2
    here, like an argument argparse rejects (``--help`` returns 0); a
    ``CompileError`` exits with the command's documented code.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse printed the usage and why
        return exc.code
    try:
        return handler(args)
    except BrokenPipeError:
        # stdout closed early (e.g. piped into head) -- not an error
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    except (CliError, CompileError, OSError, ValueError, KeyError) as exc:
        if isinstance(exc, CliError):
            kind, code = exc.kind, exc.code
        elif isinstance(exc, CompileError):
            kind, code = "compile error", compile_error_exit
        else:
            kind, code = "error", 2
        print(f"{parser.prog}: {kind}: {_message(exc)}", file=sys.stderr)
        return code


# -- option groups, each defined once ---------------------------------------------


def _add_compile_options(parser) -> None:
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


def _compile_options(args) -> CompileOptions:
    return CompileOptions(
        opt_level=args.opt_level,
        cluster_factor=_at_least(1, "--cluster", args.cluster),
        outline=not args.no_outline,
        memory_fences=not args.no_fences,
        nonblocking_stores=not args.no_nonblocking,
        prefetch=not args.no_prefetch,
        ro_cache=args.ro_cache,
        parallel_calls=args.parallel_calls,
    )


def _add_run_options(parser, *, config_help: str, set_help: str,
                     program_help: str = "assembly (.s/.asm) or XMTC "
                                         "source file",
                     program_nargs: Optional[str] = None,
                     config_default: Optional[str] = None,
                     config_file_help: str = "JSON configuration file "
                                             "(overrides --config)") -> None:
    """What every run-a-program command takes: the program, its machine
    configuration, a cycle budget, ``--set`` inputs and the compile
    flags.  Only the wording (and xmtsim's ``--config`` default) differs
    per command; :func:`_load_run` resolves them."""
    parser.add_argument("program", nargs=program_nargs, help=program_help)
    parser.add_argument("--config", default=config_default,
                        choices=sorted(BUILTIN_CONFIGS), help=config_help)
    parser.add_argument("--config-file", default=None, metavar="PATH",
                        help=config_file_help)
    parser.add_argument("--max-cycles", type=int, default=None)
    parser.add_argument("--set", nargs=2, action="append", default=[],
                        metavar=("GLOBAL", "VALUES"), help=set_help)
    _add_compile_options(parser)


def _add_report_options(parser, *, format_help: Optional[str] = None,
                        top: Optional[int] = None,
                        top_help: Optional[str] = None,
                        ledger_help: Optional[str] = None,
                        out: bool = False) -> None:
    """``--format`` and, where the report has them, ``--top`` (default
    ``top``), ``--ledger`` and ``--out``."""
    parser.add_argument("--format", default="text",
                        choices=("text", "markdown", "json"),
                        help=format_help)
    if top is not None:
        parser.add_argument("--top", type=int, default=top, metavar="N",
                            help=top_help)
    if ledger_help is not None:
        parser.add_argument("--ledger", default=None, metavar="DIR",
                            help=ledger_help)
    if out:
        parser.add_argument("--out", default=None, metavar="FILE",
                            help="also write the report to FILE")


# -- resolving them ------------------------------------------------------------------


def _parse_values(text: str) -> List[Any]:
    """``--set`` values: comma-separated ints (any base prefix) and
    floats."""
    values = [_parse_config_value(token) for token in text.split(",")]
    for value in values:
        if isinstance(value, (bool, str)):
            raise ValueError(f"{value!r} is not a number")
    return values


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
            raise CliError(f"--vary expects FIELD=V1,V2,...; got {spec!r}")
        axes.append((field, [_parse_config_value(v)
                             for v in values.split(",")]))
        for value in axes[-1][1]:
            with _flag(f"--vary {field}"):
                XMTConfig().scaled(**{field: value})
    return axes


def _load_run(args, default_config: Callable[[], XMTConfig] = fpga64,
              *, load: bool = True):
    """Resolve the options of :func:`_add_run_options` into ``(program,
    xmtc_source_or_None, config, inputs)``.

    ``--config-file`` wins over ``--config``, which wins over
    ``default_config``.  With ``load`` the program file is assembled or
    compiled here and the ``--set`` inputs are written into its memory
    map; the campaign engine loads programs itself (one queue names
    many), so its clients pass ``load=False`` and hand ``inputs`` on.
    """
    _at_least(1, "--max-cycles", args.max_cycles)
    inputs = {}
    for name, text in args.set:
        with _flag(f"--set {name}"):
            inputs[name] = _parse_values(text)
    if args.config_file:
        with _flag("--config-file"):
            config = from_file(args.config_file)
    elif args.config is not None:
        config = BUILTIN_CONFIGS[args.config]()
    else:
        config = default_config()
    program = source = None
    if load:
        program, source = load_program(args.program, _compile_options(args))
        with _flag("--set"):
            apply_inputs(program, inputs)
    return program, source, config, inputs


def _write_text(flag: str, path: str, text: str) -> None:
    with _flag(flag, OSError):
        with open(path, "w") as fh:
            fh.write(text)


def _resolve_run(token: str, ledger_dir: Optional[str]):
    """A run operand of ``xmt-compare diff`` / ``xmt-explain``: a run
    directory or manifest path, or a run-id (prefix) looked up in
    ``--ledger``."""
    if os.path.exists(token):
        return load_run(token)
    if ledger_dir is None:
        raise CliError(f"{token!r} is not a path; pass --ledger DIR "
                       f"to resolve run ids")
    return Ledger(ledger_dir).load(token)


def _progress_printer(prog: str, quiet: bool = False):
    """The per-run progress line of ``xmt-campaign`` (the campaign
    engine's ``on_outcome`` callback)."""
    def note(outcome) -> None:
        if quiet:
            return
        name = outcome.label or outcome.index
        if outcome.status in ("ok", "cached"):
            tag = " (cached)" if outcome.status == "cached" else ""
            attempts = (f" [attempt {outcome.attempts}]"
                        if outcome.attempts > 1 else "")
            races = ""
            if outcome.sanitizer and not outcome.sanitizer.get("clean"):
                kinds = ",".join(outcome.sanitizer.get("kinds", []))
                races = (f" RACES: {outcome.sanitizer.get('races')}"
                         f" [{kinds}]")
            print(f"{prog}: {name}: {outcome.cycles} cycles "
                  f"({outcome.run_id}){tag}{attempts}{races}",
                  file=sys.stderr)
        else:
            print(f"{prog}: {name}: {outcome.status} after "
                  f"{outcome.attempts} "
                  f"attempt{'s' if outcome.attempts != 1 else ''}: "
                  f"{outcome.error_type}: {outcome.error}", file=sys.stderr)
    return note


# -- xmtcc ---------------------------------------------------------------------------


def _xmtcc_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xmtcc", description="XMTC optimizing compiler")
    parser.add_argument("source", help="XMTC source file")
    parser.add_argument("-o", "--output", default=None,
                        help="output assembly file (default: stdout)")
    _add_compile_options(parser)
    parser.add_argument("--dump-ir", action="store_true",
                        help="dump the optimized IR to stderr")
    return parser


def _xmtcc(args) -> int:
    with open(args.source) as fh:
        source = fh.read()
    options = _compile_options(args)
    options.keep_intermediates = args.dump_ir
    result = compile_to_asm(source, options)
    if args.dump_ir:
        print(result.ir.dump(), file=sys.stderr)
    if args.output:
        _write_text("-o", args.output, result.asm_text)
    else:
        sys.stdout.write(result.asm_text)
    return 0


def xmtcc_main(argv: Optional[List[str]] = None) -> int:
    """``xmtcc``: the XMTC optimizing compiler.

    Exit codes: 0 = assembly written, 1 = compile error, 2 = cannot
    read the source or write the output.
    """
    return _run(_xmtcc_parser, _xmtcc, argv, compile_error_exit=1)


# -- xmtc-lint -----------------------------------------------------------------------


def _lint_parser() -> argparse.ArgumentParser:
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
    _add_compile_options(parser)
    return parser


def _lint(args) -> int:
    from repro.xmtc.analysis.diagnostics import has_errors
    from repro.xmtc.analysis.linter import (
        check_shipped,
        collect_example_sources,
        lint_dynamic,
        lint_source,
    )

    if args.check_shipped:
        for flag, value in (("--examples", args.examples),
                            ("--litmus", args.litmus)):
            if value and not os.path.isdir(value):
                raise CliError(f"{flag}: not a directory: {value}")
        extra = (collect_example_sources(args.examples)
                 if args.examples else ())
        ok, lines = check_shipped(extra, litmus_dir=args.litmus)
        print("\n".join(lines))
        return 0 if ok else 1
    if not args.sources:
        raise CliError("no input files (or use --check-shipped)")

    options = _compile_options(args)
    all_diags = []
    for path in args.sources:
        with open(path) as fh:
            source = fh.read()
        try:
            all_diags += lint_source(source, options, filename=path)
            if args.dynamic:
                all_diags += lint_dynamic(source, options, filename=path)[0]
        except CompileError as exc:
            raise CliError(f"{path}: {exc}", kind="compile error") from exc

    n_err = sum(d.severity == "error" for d in all_diags)
    n_warn = sum(d.severity == "warning" for d in all_diags)
    if args.json:
        payload = {
            "diagnostics": [d.to_json() for d in all_diags],
            "errors": n_err,
            "warnings": n_warn,
            "notes": sum(d.severity == "note" for d in all_diags),
        }
        print(json.dumps(payload, indent=2))
    else:
        for d in all_diags:
            if not args.quiet or d.severity == "error":
                print(d.format())
        print(f"xmtc-lint: {n_err} error(s), {n_warn} warning(s) in "
              f"{len(args.sources)} file(s)")
    return 1 if has_errors(all_diags) else 0


def xmtc_lint_main(argv: Optional[List[str]] = None) -> int:
    """``xmtc-lint``: static race detector + memory-model linter.

    Exit codes: 0 = no error-severity findings, 1 = errors found,
    2 = cannot read or compile an input.
    """
    return _run(_lint_parser, _lint, argv)


# -- xmtc-fuzz -----------------------------------------------------------------------


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


def _fuzz_parser() -> argparse.ArgumentParser:
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
    return parser


def _fuzz(args) -> int:
    from repro.xmtc.fuzz.generator import generate
    from repro.xmtc.fuzz.harness import run_campaign as run_fuzz_campaign

    with _flag("--seeds"):
        seeds = _parse_seed_spec(args.seeds)
    if args.emit_failing:
        with _flag("--emit-failing", OSError):
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
            _write_text("--emit-failing",
                        os.path.join(args.emit_failing,
                                     f"seed-{outcome.seed}.c"),
                        generate(outcome.seed).source)

    with _flag("--out", OSError):
        summary = run_fuzz_campaign(
            seeds, jsonl_path=args.out, fp_threshold=args.fp_threshold,
            differential=not args.no_differential, on_outcome=note)
    counts = summary["counts"]
    print(f"xmtc-fuzz: {summary['seeds']} seeds: "
          f"tp: {counts['tp']}  tn: {counts['tn']}  "
          f"fp: {counts['fp']}  fn: {counts['fn']}  "
          f"bug: {counts['bug']}  unsound: {summary['unsound']}  "
          f"fp-rate: {summary['fp_rate']:.2%} "
          f"(threshold {summary['fp_threshold']:.2%})")
    print("xmtc-fuzz: " + ("SOUND" if summary["ok"] else "UNSOUND/FAILED"))
    return 0 if summary["ok"] else 1


def xmtc_fuzz_main(argv: Optional[List[str]] = None) -> int:
    """``xmtc-fuzz``: analysis soundness fuzzing over generated XMTC.

    Runs every seed's program through the static analyses, the dynamic
    race sanitizer, and the differential (plain vs sanitized functional,
    functional vs cycle-accurate), classifying each static verdict as TP/FP/FN/TN against the
    generator's planted ground truth.

    Exit codes: 0 = sound and FP rate within threshold, 1 = any FN /
    harness bug / FP rate above threshold, 2 = bad usage.
    """
    return _run(_fuzz_parser, _fuzz, argv)


# -- xmtsim --------------------------------------------------------------------------


def _xmtsim_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xmtsim", description="cycle-accurate XMT simulator")
    _add_run_options(
        parser, config_default="fpga64", config_help="machine configuration",
        config_file_help="JSON configuration file (fields of XMTConfig; "
                         "optional 'base' key names a built-in config); "
                         "overrides --config",
        set_help="write comma-separated values into a global before the "
                 "run (repeatable)")
    parser.add_argument("--mode", default="cycle",
                        choices=("cycle", "functional"),
                        help="simulation mode")
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
        "one directory per run: the manifest, the artifacts --observe "
        "collects and the live streams; the source-level cycle profiler "
        "and the bottleneck report (see MANUAL.md section 4.6)")
    obsgroup.add_argument("--out", default=None, metavar="DIR",
                          help="write this run's directory (new or empty): "
                               "manifest.json, the files --observe "
                               "collects, its streams written live")
    obsgroup.add_argument("--observe", default=None, metavar="LIST",
                          help=f"artifacts to collect: {_OBSERVABLE} "
                               "(default metrics,profile; the streams "
                               "events and telemetry need --out)")
    obsgroup.add_argument("--profile", action="store_true",
                          help="attribute every issue and stall cycle to "
                               "its XMTC source line and print the "
                               "hotspot report")
    obsgroup.add_argument("--lifecycle-sample", type=int, default=1,
                          metavar="N",
                          help="record every Nth request lifecycle "
                               "(default 1 = all; raises are cheaper "
                               "on saturating workloads)")
    obsgroup.add_argument("--explain", action="store_true",
                          help="print the xmt-explain bottleneck report "
                               "(top-down tree, hop latencies, "
                               "contention hot spots) after the run")
    obsgroup.add_argument("--telemetry-every", type=int, default=2000,
                          metavar="CYCLES",
                          help="interval in cycles of the telemetry.jsonl "
                               "progress frames (default 2000)")
    obsgroup.add_argument("--ledger", default=None, metavar="DIR",
                          help="record this run (manifest + what "
                               "--observe collects) into the experiment "
                               "ledger at DIR; diff runs with xmt-compare")
    obsgroup.add_argument("--run-label", default=None, metavar="TEXT",
                          help="human-readable label stored in the run "
                               "manifest (shown by xmt-compare list)")
    resilience = parser.add_argument_group(
        "resilience (cycle mode)",
        "watchdog and budgets; exit codes: "
        "3 = stalled/deadlocked, 4 = budget exceeded")
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
    return parser


#: what ``xmtsim --observe`` can name: the artifacts of a run directory
#: besides its manifest (``lifecycle`` is the summary and, with --out,
#: the stream of sampled requests; the last two are streams only)
_OBSERVABLE = ",".join((*OBSERVABLE, "telemetry"))


def _observed(args) -> List[str]:
    """The artifacts this run collects: ``--observe`` (``metrics,profile``
    when the run is written at all), plus what ``--profile`` and
    ``--explain`` print."""
    names = [name.strip() for name in (args.observe or "").split(",")
             if name.strip()]
    if args.observe is None and (args.out or args.ledger):
        names = ["metrics", "profile"]
    for name in names:
        stream = name in ("events", "telemetry")
        if name not in _OBSERVABLE.split(","):
            raise CliError(f"--observe: unknown artifact {name!r} "
                           f"(choose from {_OBSERVABLE})")
        if not args.out and (stream or not args.ledger):
            raise CliError(f"--observe {name}: nowhere to write it; give "
                           f"--out DIR{'' if stream else ' or --ledger DIR'}")
    return names + ["profile"] * args.profile + ["accounting"] * args.explain


def _simulate_cycle(args, observed, program, source, config, inputs, trace):
    """The cycle-accurate run of ``xmtsim``, observed (``observed``:
    :func:`_observed`) or not; returns the final memory image."""
    telemetry = recorder = None
    if args.out:
        if os.path.isfile(args.out) or (os.path.isdir(args.out)
                                        and os.listdir(args.out)):
            raise CliError(f"--out: {args.out} is not a new or empty "
                           f"directory; a run directory holds one run")
        with _flag("--out", OSError):
            os.makedirs(args.out, exist_ok=True)
            if "telemetry" in observed:
                telemetry = TelemetrySampler(
                    every_cycles=args.telemetry_every,
                    sinks=[JsonlSink(run_file(args.out, "telemetry"))],
                    meta={"label": args.run_label or None,
                          "program": os.path.basename(args.program)})
    if "lifecycle" in observed or "accounting" in observed:
        # accounting splits memory stalls by layer with the recorder
        recorder = FlightRecorder(sample_every=max(1, args.lifecycle_sample))
    try:
        artifacts = instrumented_run(
            program, config,
            observe=[name for name in observed if name != "telemetry"],
            out=args.out, source=source, program_path=args.program,
            label=args.run_label, max_cycles=args.max_cycles,
            wall_limit_s=args.wall_limit, max_events=args.event_budget,
            inputs=inputs or None, telemetry=telemetry,
            recorder=recorder, trace=trace)
    finally:
        if telemetry is not None:
            # the closing "final" frame is written even when the run
            # ended in an exception: the stream records where it died
            telemetry.close()
    result = artifacts.result
    sys.stdout.write(result.output)
    print(f"[{args.config_file or args.config}] {result.cycles} cycles, "
          f"{result.instructions} instructions", file=sys.stderr)
    if args.stats:
        print(result.stats.report(), file=sys.stderr)
    if args.profile:
        print(render_profile(artifacts.profile), file=sys.stderr)
    if args.explain:
        payloads = artifacts.payloads()
        print(render_explain(build_explain(
            **{name: payloads.get(name) for name in _EXPLAINED})),
            file=sys.stderr)
    if args.out:
        print(f"xmtsim: wrote run {artifacts.manifest['run_id']} to "
              f"{args.out}", file=sys.stderr)
    if args.ledger:
        record = Ledger(args.ledger).record_artifacts(artifacts)
        print(f"xmtsim: recorded run {record.run_id} in ledger "
              f"{args.ledger}", file=sys.stderr)
    return result.memory


def _xmtsim(args) -> int:
    cycle_only = [flag for flag, given in (
        ("--out", args.out), ("--observe", args.observe is not None),
        ("--profile", args.profile), ("--explain", args.explain),
        ("--wall-limit", args.wall_limit is not None),
        ("--event-budget", args.event_budget is not None),
        ("--ledger", args.ledger)) if given]
    if cycle_only and args.mode != "cycle":
        raise CliError(f"{'/'.join(cycle_only)} require --mode cycle")
    for flag, given in (("--trace cycle", args.trace == "cycle"),
                        ("--max-cycles", args.max_cycles is not None),
                        ("--watchdog", args.watchdog is not None)):
        if given and args.mode == "functional":  # it has no clock
            raise CliError(f"{flag} cannot be used with --mode functional")
    if args.sanitize and args.mode != "functional":
        raise CliError("--sanitize requires --mode functional")
    _at_least(1, "--telemetry-every", args.telemetry_every)
    _at_least(1, "--event-budget", args.event_budget)
    _above_zero("--wall-limit", args.wall_limit)
    observed = _observed(args)

    program, source, config, inputs = _load_run(args)
    if args.watchdog is not None:
        config.watchdog_cycles = args.watchdog

    trace = None
    if args.trace:
        trace = Trace(level=args.trace, limit=args.trace_limit,
                      sink=lambda line: print(line, file=sys.stderr))
    try:
        if args.mode == "functional":
            sanitizer = None
            if args.sanitize:
                sanitizer = RaceSanitizer()
            result = FunctionalSimulator(
                program, stack_top=config.stack_top, sanitizer=sanitizer,
                on_instruction=None if trace is None else trace.executed
            ).run()
            sys.stdout.write(result.output)
            print(f"[functional] {result.instructions} instructions",
                  file=sys.stderr)
            if args.stats:
                stats = Stats()
                stats.merge_instruction_counts(result.instruction_counts)
                print(stats.report(), file=sys.stderr)
            if sanitizer is not None:
                print(sanitizer.report(program), file=sys.stderr)
            memory = result.memory
        else:
            memory = _simulate_cycle(args, observed, program, source,
                                     config, inputs, trace)
    except (SimulationStalled, SimulationBudgetExceeded) as exc:
        stalled = isinstance(exc, SimulationStalled)
        print(f"xmtsim: {'stalled' if stalled else 'budget exceeded'}: "
              f"{exc}", file=sys.stderr)
        if exc.dump is not None:
            print(exc.dump.format() if stalled else exc.dump.summary(),
                  file=sys.stderr)
        if args.out:  # instrumented_run wrote the manifest alone
            print(f"xmtsim: wrote partial run {load_run(args.out).run_id} "
                  f"to {args.out}", file=sys.stderr)
        return 3 if stalled else 4
    except SimulationError as exc:
        raise CliError(str(exc), code=1, kind="runtime error") from exc

    for name in args.print_global:
        with _flag(f"--print-global {name}", KeyError):
            print(f"{name} = {program.read_global(name, memory)}")
    return 0


def xmtsim_main(argv: Optional[List[str]] = None) -> int:
    """``xmtsim``: the cycle-accurate (or functional) simulator.

    Exit codes: 0 = ran to completion, 1 = compile or runtime error,
    2 = bad input, 3 = stalled/deadlocked, 4 = budget exceeded.
    """
    return _run(_xmtsim_parser, _xmtsim, argv, compile_error_exit=1)


# -- xmt-prof ------------------------------------------------------------------------


def _prof_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xmt-prof",
        description="render xmtsim cycle profiles (gprof-style, per "
                    "XMTC source line) and export a run's event stream")
    sub = parser.add_subparsers(dest="command", required=True)
    report = sub.add_parser(
        "report", help="print the hotspot report for a profile JSON")
    report.add_argument("profile", help="run directory (xmtsim --out) or "
                                        "its profile.json")
    report.add_argument("--top", type=int, default=20, metavar="N",
                        help="show the N hottest source lines")
    report.add_argument("--source", default=None, metavar="FILE",
                        help="XMTC source to quote (overrides the text "
                             "embedded in the profile)")
    chrome = sub.add_parser(
        "chrome", help="print a run's events.jsonl as Chrome trace-event "
                       "JSON (load in Perfetto / chrome://tracing)")
    chrome.add_argument("run", help="run directory written by 'xmtsim "
                                    "--out DIR --observe events'")
    return parser


def _prof(args) -> int:
    if args.command == "chrome":
        events = read_jsonl(run_file(args.run, "events"))
        print(json.dumps(chrome_trace(events)))
        return 0
    path = args.profile
    if os.path.isdir(path):  # a run directory
        path = run_file(path, "profile")
    data = load_artifact(path, "profile")
    source = None
    if args.source:
        with _flag("--source", OSError):
            with open(args.source) as fh:
                source = fh.read()
    print(render_profile(data, source=source, top=args.top))
    return 0


def xmt_prof_main(argv: Optional[List[str]] = None) -> int:
    """``xmt-prof``: inspect the profile of a run directory written by
    ``xmtsim --out`` (or its ``profile.json``), and export its event
    stream as a Chrome trace.

    Exit codes: 0 = report printed, 2 = unreadable or not a profile.
    """
    return _run(_prof_parser, _prof, argv)


# -- xmt-explain ---------------------------------------------------------------------


def _explain_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xmt-explain",
        description="top-down bottleneck reports over recorded runs: "
                    "cycle accounting tree, hop latency histograms and "
                    "contention hot spots (diff two runs with xmt-compare "
                    "diff)")
    sub = parser.add_subparsers(dest="command", required=True)
    p_report = sub.add_parser(
        "report", help="explain one run: top-down tree, hop latencies, "
                       "contention")
    p_report.add_argument("run", help="run dir, manifest.json, "
                                      "accounting.json, or run id")
    p_report.add_argument("--assert-exact", action="store_true",
                          help="CI gate: fail unless every processor "
                               "cycle is attributed exactly once and "
                               "totals match the run cycle count")
    _add_report_options(
        p_report, format_help="report format", top=8,
        top_help="rows per report section (default 8)",
        ledger_help="resolve run-id operands in this ledger", out=True)
    return parser


#: the artifacts of a run a report explains: :func:`build_explain`'s
#: keywords, next to ``manifest``
_EXPLAINED = ("accounting", "lifecycle", "metrics")


def _explain_bundle(token: str, ledger_dir: Optional[str]) -> Dict[str, Any]:
    """Resolve one run operand into ``{"accounting", "lifecycle",
    "metrics", "manifest"}`` (accounting required, the rest optional).
    Besides what :func:`_resolve_run` takes, the operand may be a bare
    ``accounting.json`` file."""
    if os.path.isfile(token) \
            and not token.endswith(ARTIFACTS["manifest"].file):
        return {"accounting": load_artifact(token, "accounting")}
    record = _resolve_run(token, ledger_dir)
    bundle = {name: record.payload(name) for name in _EXPLAINED}
    if bundle["accounting"] is None:
        raise CliError(
            f"{token}: run has no accounting.json -- record it with "
            f"'xmtsim --out DIR --observe accounting' (or --explain) or "
            f"'xmt-compare check --recorder --ledger'")
    return dict(bundle, manifest=record.manifest)


def _check_exact(bundle: Dict[str, Any]) -> List[str]:
    """The ``--assert-exact`` invariants; returns failure messages."""
    acct = bundle["accounting"]
    problems: List[str] = []
    if not acct.get("exact"):
        problems.append("accounting marked inexact by the exporter")
    flat_total = sum(acct["machine"]["flat"].values())
    if flat_total != acct["total_cycles"]:
        problems.append(
            f"category cycles sum to {flat_total}, expected "
            f"total_cycles {acct['total_cycles']}")
    expected = acct["cycles"] * acct["n_processors"]
    if acct["total_cycles"] != expected:
        problems.append(
            f"total_cycles {acct['total_cycles']} != cycles x "
            f"n_processors ({acct['cycles']} x {acct['n_processors']} "
            f"= {expected})")
    manifest = bundle.get("manifest")
    if manifest is not None and manifest.get("cycles") != acct["cycles"]:
        problems.append(
            f"accounted cycles {acct['cycles']} != manifest cycles "
            f"{manifest.get('cycles')}")
    return problems


def _explain(args) -> int:
    bundle = _explain_bundle(args.run, args.ledger)
    text = render_explain(build_explain(**bundle, top=args.top),
                          args.format, top=args.top)
    print(text)
    if args.out:
        _write_text("--out", args.out, text + "\n")

    if args.assert_exact:
        problems = _check_exact(bundle)
        if problems:
            for problem in problems:
                print(f"xmt-explain: INEXACT: {problem}", file=sys.stderr)
            return 1
        acct = bundle["accounting"]
        print(f"xmt-explain: exact: {acct['total_cycles']} attributed "
              f"cycles == {acct['cycles']} cycles x "
              f"{acct['n_processors']} processors", file=sys.stderr)
    return 0


def xmt_explain_main(argv: Optional[List[str]] = None) -> int:
    """``xmt-explain``: bottleneck reports over recorded runs.

    ``RUN`` is a run directory (``xmtsim --out``, or a ledger's), a
    ``manifest.json`` path, a bare ``accounting.json`` file, or -- with
    ``--ledger DIR`` -- a run id prefix.  ``report`` renders one
    run's top-down cycle tree, per-hop latency distributions and
    contention hot spots; two runs are diffed by ``xmt-compare diff``.

    ``--assert-exact`` is the CI contract: exit nonzero unless the
    accounting is exhaustive and exclusive -- every per-TCU cycle
    attributed to exactly one category, the category total equal to
    ``cycles x n_processors``, and (when a manifest is present) the
    accounted cycle count equal to the manifest's run cycle count.

    Exit codes: 0 = ok, 1 = --assert-exact violated, 2 = bad input.
    """
    return _run(_explain_parser, _explain, argv)


# -- xmt-compare ---------------------------------------------------------------------


def _compare_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xmt-compare",
        description="differential observability over the xmtsim "
                    "experiment ledger (see MANUAL.md section 4.7)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        _add_report_options(p, format_help="report format", top=20,
                            top_help="rows per report section",
                            ledger_help="experiment ledger directory")
        p.add_argument("--threshold", type=float, default=0.05,
                       metavar="REL",
                       help="relative delta below which a metric counts "
                            "as unchanged (default 0.05 = 5%%)")

    p_list = sub.add_parser("list", help="list the runs in a ledger")
    p_list.add_argument("--ledger", required=True, metavar="DIR")

    p_diff = sub.add_parser(
        "diff", help="diff two recorded runs (A = baseline)")
    p_diff.add_argument("run_a", help="run id/prefix (with --ledger) or "
                                      "path to a run dir/manifest.json")
    p_diff.add_argument("run_b", help="second run (see run_a)")
    add_common(p_diff)

    p_check = sub.add_parser(
        "check", help="run a program fresh and gate it against a "
                      "committed baseline run (CI perf-regression gate)")
    p_check.add_argument("--baseline", required=True, metavar="PATH",
                         help="baseline run directory (or its "
                              "manifest.json)")
    p_check.add_argument("--metric", action="append", default=[],
                         metavar="NAME",
                         help="additional lower-is-better gate metric "
                              "from the flattened metric space (e.g. "
                              "stats.icn.send); cycles is always "
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
    _add_run_options(
        p_check, config_help="machine configuration for fresh runs",
        set_help="write comma-separated values into a global before "
                 "every run (repeatable)")
    add_common(p_check)
    return parser


def _compare_list(args) -> int:
    records = Ledger(args.ledger).list_runs()
    if not records:
        print(f"xmt-compare: no runs in {args.ledger}")
        return 0
    print(f"{'run id':<14} {'config':<10} {'cycles':>10}  "
          f"{'program':<12} label")
    for r in records:
        print(f"{r.run_id:<14} "
              f"{str(r.config_value('name')):<10} "
              f"{r.cycles:>10}  "
              f"{r.manifest['program']['sha256'][:10]:<12} "
              f"{r.manifest.get('label') or ''}{run_marks(r.manifest)}")
    return 0


def _compare_diff(args) -> int:
    comparison = compare_runs(_resolve_run(args.run_a, args.ledger),
                              _resolve_run(args.run_b, args.ledger),
                              threshold=args.threshold)
    print(render_comparison(comparison, args.format, top=args.top))
    return 0


def _compare_check(args) -> int:
    # the baseline operand is a run directory unless it names the
    # manifest file itself (a not-yet-existing directory stays a
    # directory so --update-baseline can create it)
    if args.baseline.endswith(".json"):
        baseline_dir = os.path.dirname(args.baseline) or "."
        manifest_path = args.baseline
    else:
        baseline_dir = args.baseline
        manifest_path = os.path.join(args.baseline,
                                     ARTIFACTS["manifest"].file)
    baseline = None
    if os.path.exists(manifest_path) or not args.update_baseline:
        baseline = load_run(args.baseline)
        marks = run_marks(baseline.manifest)
        if marks and not args.update_baseline:
            # a stopped run's cycles gate nothing
            raise CliError(f"--baseline: {args.baseline} is run "
                           f"{baseline.run_id}{marks}, not a completed "
                           f"clean run; rewrite it with --update-baseline")

    def recorded_config() -> XMTConfig:
        # without --config/--config-file, rerun under the baseline's
        # recorded (fully resolved) config, so the comparison isolates
        # the toolchain change from any config drift
        if baseline is None:
            return fpga64()
        config = XMTConfig().scaled(**baseline.manifest["config"])
        config.validate()
        return config

    program, source, config, inputs = _load_run(args, recorded_config)
    artifacts = instrumented_run(
        program, config, source=source, program_path=args.program,
        label="baseline" if args.update_baseline else "fresh",
        max_cycles=args.max_cycles, inputs=inputs or None,
        accounting=args.recorder)
    fresh = artifacts.as_record()
    if args.update_baseline:
        write_run_dir(baseline_dir, artifacts.manifest, artifacts.payloads())
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
    try:
        failures = check_regressions(baseline, fresh,
                                     ["cycles"] + args.metric,
                                     threshold=args.threshold)
    except KeyError as exc:
        raise CliError(f"--metric {_message(exc)}") from exc
    print(render_comparison(comparison, args.format, top=args.top))
    if failures:
        for failure in failures:
            print(f"xmt-compare: {failure.format()}", file=sys.stderr)
        return 1
    print(f"xmt-compare: OK within +{100 * args.threshold:.1f}% "
          f"of baseline {baseline.run_id}", file=sys.stderr)
    return 0


_COMPARE = {"list": _compare_list, "diff": _compare_diff,
            "check": _compare_check}


def xmt_compare_main(argv: Optional[List[str]] = None) -> int:
    """``xmt-compare``: diff and gate ledger-recorded runs.

    Exit codes: 0 = ok, 1 = regression past threshold (``check``),
    2 = bad input (unreadable files, unknown runs, schema mismatch).
    """
    return _run(_compare_parser, lambda args: _COMPARE[args.command](args),
                argv)


# -- xmt-campaign --------------------------------------------------------------------


def _campaign_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xmt-campaign",
        description="fault-tolerant campaign engine: shard a sweep grid "
                    "or a JSONL run queue across supervised worker "
                    "processes with retries, ledger dedup and "
                    "typed per-run outcomes (MANUAL.md section 4.9)")
    _add_run_options(
        parser, program_nargs="?",
        program_help="assembly (.s/.asm) or XMTC source file (grid mode; "
                     "omit with --queue)",
        config_help="base machine configuration (default fpga64)",
        set_help="write comma-separated values into a global before every "
                 "run (repeatable; recorded in the manifest, so it is part "
                 "of the dedup identity)")
    parser.add_argument("--vary", action="append", default=[],
                        metavar="FIELD=V1,V2,...",
                        help="sweep an XMTConfig field over values "
                             "(repeatable; repeats form the cartesian "
                             "product)")
    parser.add_argument("--telemetry-out", default=None, metavar="PATH",
                        help="multiplex worker telemetry frames and engine "
                             "records (campaign-start, outcomes, "
                             "campaign-end) into one JSONL stream at PATH; "
                             "watch it live with 'xmt-top watch --follow', "
                             "report on it with 'xmt-top report'")
    parser.add_argument("--telemetry-every", type=int, default=2000,
                        metavar="CYCLES",
                        help="worker telemetry frame interval in cycles "
                             "(default 2000)")
    parser.add_argument("--queue", default=None, metavar="FILE",
                        help="JSONL queue of run requests (one JSON "
                             "object per line; see MANUAL 4.9)")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed recorded in every run manifest")
    parser.add_argument("--workers", type=int, default=2, metavar="N",
                        help="supervised worker processes (default 2; "
                             "1 is still one forked worker -- only "
                             "--serial runs in-process)")
    parser.add_argument("--serial", action="store_true",
                        help="run every attempt in-process, one at a "
                             "time (no fork, so no --attempt-deadline "
                             "kill)")
    parser.add_argument("--max-retries", type=int, default=2, metavar="N",
                        help="requeue a failed/dead run up to N times, "
                             "behind whatever is already waiting "
                             "(default 2)")
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
    parser.add_argument("--sanitize", action="store_true",
                        help="additionally run each program under the "
                             "dynamic race sanitizer and record its "
                             "findings in the result payload/manifest")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the per-run progress lines")
    return parser


def _campaign(args) -> int:
    from repro.sim.campaign import CampaignEngine, grid_requests, load_queue

    if (args.program is None) == (args.queue is None):
        raise CliError("give a program (grid mode) or --queue FILE, "
                       "not both")
    if args.queue is not None and args.vary:
        raise CliError("--vary only applies to grid mode")
    # a deadline already passed would SIGKILL every worker on spawn
    _above_zero("--attempt-deadline", args.attempt_deadline)
    _above_zero("--wall-budget", args.wall_budget)
    _at_least(1, "--event-budget", args.event_budget)

    _, _, config, inputs = _load_run(args, load=False)
    if args.queue is not None:
        with _flag("--queue"):
            requests = load_queue(args.queue)
        for request in requests:
            request.inputs = dict(inputs, **request.inputs)
    else:
        requests = grid_requests(
            args.program, _parse_vary(args.vary), inputs=inputs,
            seed=args.seed, max_cycles=args.max_cycles)
    engine = CampaignEngine(
        requests,
        ledger=Ledger(args.ledger) if args.ledger else None,
        base_config=config,
        compile_options=_compile_options(args),
        workers=_at_least(1, "--workers", args.workers),
        serial=args.serial,
        max_retries=_at_least(0, "--max-retries", args.max_retries),
        wall_budget_s=args.wall_budget,
        event_budget=args.event_budget,
        max_cycles=args.max_cycles,
        attempt_deadline_s=args.attempt_deadline,
        sanitize=args.sanitize,
        on_outcome=_progress_printer("xmt-campaign", args.quiet),
        telemetry_path=args.telemetry_out,
        telemetry_every=_at_least(1, "--telemetry-every",
                                  args.telemetry_every))
    result = engine.run()

    print(result.format())
    if args.telemetry_out:
        print(f"xmt-campaign: telemetry stream at {args.telemetry_out} "
              f"(xmt-top report)", file=sys.stderr)
    return result.exit_code()


def xmt_campaign_main(argv: Optional[List[str]] = None) -> int:
    """``xmt-campaign``: fault-tolerant multi-run campaigns.

    Exit codes: 0 = every run ok or cached, 5 = campaign completed but
    some runs ended failed/timeout/gave-up (partial results; the report
    names each), 2 = bad input (unreadable program/queue, bad grid).
    ``xmt-top report`` renders its ``--telemetry-out`` stream.
    """
    return _run(_campaign_parser, _campaign, argv)


# -- xmt-top -------------------------------------------------------------------------


def _top_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xmt-top",
        description="live per-run progress monitor for xmtsim and "
                    "xmt-campaign telemetry streams (MANUAL.md "
                    "section 4.10)")
    sub = parser.add_subparsers(dest="command", required=True)
    report = sub.add_parser(
        "report", help="one-shot table from a telemetry stream")
    report.add_argument("stream",
                        help="JSONL written by xmtsim (telemetry.jsonl of "
                             "an --out directory) or by xmt-campaign "
                             "--telemetry-out")
    _add_report_options(report)
    watch = sub.add_parser(
        "watch", help="follow a stream live and redraw the table")
    watch.add_argument("--follow", required=True, metavar="PATH",
                       help="tail a growing telemetry JSONL file")
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
    return parser


def _top(args) -> int:
    if args.command == "watch":
        return _top_watch(args)
    records = read_jsonl(args.stream)
    if not records:
        raise CliError(f"{args.stream}: no telemetry records")
    print(render_top(fold_stream(records), args.format))
    return 0


def _top_watch(args) -> int:
    summary = TopSummary()
    updates = 0

    def redraw() -> None:
        nonlocal updates
        updates += 1
        text = render_top(summary, "text", live=True)
        if args.plain:
            print(text)
            print("", flush=True)
        else:
            sys.stdout.write("\x1b[2J\x1b[H" + text + "\n")
            sys.stdout.flush()

    def done() -> bool:
        if summary.finished:
            return True
        if args.max_updates is not None and updates >= args.max_updates:
            return True
        terminal = ("done", "ok", "cached", "failed", "timeout", "gave-up")
        return bool(summary.rows) and all(
            row.state in terminal for row in summary.rows.values())

    try:
        # a stream that is missing or holds no record yet has no run to
        # show: wait (10 s at most) until its first record is folded
        deadline = time.monotonic() + 10.0
        while not os.path.exists(args.follow):
            if time.monotonic() >= deadline:
                raise CliError(f"--follow {args.follow}: no such stream")
            time.sleep(min(args.interval, 0.1))
        tail = JsonlTail()
        with open(args.follow, "rb") as fh:
            while True:
                records = tail.feed(fh.read())
                fold_stream(records, summary)
                if records or updates:
                    redraw()
                    if done():
                        return 0
                elif time.monotonic() >= deadline:
                    raise CliError(f"--follow {args.follow}: no telemetry "
                                   f"records")
                time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def xmt_top_main(argv: Optional[List[str]] = None) -> int:
    """``xmt-top``: live monitor over telemetry streams.

    ``watch`` tails a growing JSONL stream (``--follow``) and redraws a
    per-run table; ``report`` renders the same report once from a
    finished stream (with a campaign's outcome counts, per-axis
    percentiles and attempts histogram when the stream holds them).
    Exit codes: 0 = ok, 2 = unreadable stream.
    """
    return _run(_top_parser, _top, argv)
