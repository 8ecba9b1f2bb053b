"""Every exit code the nine commands document, in one table.

One row per (command, argv, exit code, stderr substring): xmtcc 0/1/2,
xmtsim 0-4, xmtc-lint 0/1/2, xmtc-fuzz 0/1/2, xmt-compare 0/1/2,
xmt-campaign 0/2/5, xmt-top 0/2, xmt-prof 0/2, xmt-explain 0/1/2 (the
codes the ``*_main`` docstrings and MANUAL 4.13 list).  The rows marked
``was-traceback`` died with a Python traceback before the commands
shared one error funnel; every exit-2 row must name the flag or file
at fault on one closing ``<prog>: error: ...`` line.

A second table holds the malformed-artifact rows: every whole-file
artifact a command reads, damaged five ways, is exit 2 and one
``<prog>: error: <path>: ...`` line naming the schema or the missing
key (``AttributeError`` tracebacks, ``error: Expecting value ...`` and
``error: total_cycles`` before all readers became one).
"""

from __future__ import annotations

import json
import os
import shutil

import pytest

from repro.sim.observability import ARTIFACTS
from repro.toolchain import cli

GOOD_C = """
int A[8];
int B[8];
int main() {
    spawn(0, 7) { B[$] = A[$] + 1; }
    printf("%d\\n", B[3]);
    return 0;
}
"""

RACY_C = """
int x;
int main() {
    spawn(0, 7) { x = $; }
    return 0;
}
"""

BAD_C = "int main() { return $; }"

SPIN_S = """
    .text
main:
spin:
    j spin
    halt
"""

SPAWN_S = """
    .data
A:  .space 64
    .text
main:
    li   $t0, 0
    li   $t1, 15
    spawn $t0, $t1
vt:
    getvt $k0
    chkid $k0
    la   $t2, A
    slli $t3, $k0, 2
    add  $t2, $t2, $t3
    lw   $t4, 0($t2)
    addi $t4, $t4, 1
    sw   $t4, 0($t2)
    j    vt
    join
    halt
"""

#: jumps through a register holding no text address
CRASH_S = """
    .text
main:
    li $t0, 77777
    jr $t0
    halt
"""


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Input files plus one recorded run's artifacts, built once."""
    root = tmp_path_factory.mktemp("cli")
    paths = {"dir": str(root), "missing": str(root / "nope" / "x")}
    for name, text in (("good.c", GOOD_C), ("racy.c", RACY_C),
                       ("bad.c", BAD_C), ("spin.s", SPIN_S),
                       ("spawn.s", SPAWN_S), ("crash.s", CRASH_S),
                       ("typed.json", '{"n_clusters": "four"}'),
                       ("slow.json", '{"base": "tiny", "dram_latency": 60}'),
                       ("sets96.json", '{"base": "fpga64", "cache_sets": 96}'),
                       ("msets48.json",
                        '{"base": "fpga64", "master_cache_sets": 48}'),
                       ("not-a-profile.json", '{"schema": "other/1"}'),
                       ("deep.c", "int main() { return "
                        + "(" * 1000 + "1" + ")" * 1000 + "; }"),
                       ("huge.c", "int A[100000000000];\n"
                                  "int main() { return 0; }"),
                       ("lowstack.json",
                        '{"base": "tiny", "stack_top": 69632}')):
        (root / name).write_text(text)
        paths[name.split(".")[0].replace("-", "_")] = str(root / name)
    run = root / "run"
    paths.update(ledger=str(root / "ledger"), run=str(run),
                 profile=str(run / "profile.json"),
                 stream=str(run / "telemetry.jsonl"),
                 baseline=str(root / "base"),
                 accounting=str(run / "accounting.json"),
                 inexact=str(root / "inexact.json"),
                 partial=str(root / "partial"))
    assert cli.xmtsim_main(
        [paths["good"], "--config", "tiny", "--ledger", paths["ledger"],
         "--out", paths["run"], "--observe",
         "metrics,profile,accounting,telemetry",
         "--telemetry-every", "50"]) == 0
    assert cli.xmt_compare_main(
        ["check", paths["good"], "--config", "tiny", "--baseline",
         paths["baseline"], "--update-baseline"]) == 0
    # a run the watchdog stopped: a 5-cycle window is shorter than a
    # load's round trip
    assert cli.xmtsim_main(
        [paths["spawn"], "--config", "tiny", "--watchdog", "5",
         "--out", paths["partial"]]) == 3
    with open(paths["accounting"]) as fh:
        accounting = json.load(fh)
    with open(paths["inexact"], "w") as fh:
        json.dump(dict(accounting, exact=False), fh)
    # one campaign's stream, then every stream with a torn tail: the
    # writer was killed in the middle of its last line
    campaign = {"campaign_stream": str(root / "ct.jsonl")}
    assert cli.xmt_campaign_main(
        [paths["good"], "--config", "tiny", "--serial", "--quiet",
         "--ledger", str(root / "campaign-ledger"),
         "--telemetry-out", campaign["campaign_stream"]]) == 0
    (root / "queue.jsonl").write_text(
        json.dumps({"program": paths["good"], "config": "tiny"}) + "\n")
    campaign["queue"] = str(root / "queue.jsonl")
    for name, path in dict(campaign, stream=paths["stream"]).items():
        paths[f"torn_{name}"] = str(root / f"torn-{name}.jsonl")
        with open(path) as fh, open(paths[f"torn_{name}"], "w") as torn:
            torn.write(fh.read() + '{"schema": "xmt')
    return paths


TINY = ["--config", "tiny"]

ROWS = [
    # id, command, argv ({name} = a workspace path), exit code, stderr needle
    ("xmtcc-0", "xmtcc_main", ["{good}"], 0, ""),
    ("xmtcc-1-compile-error", "xmtcc_main", ["{bad}"], 1,
     "xmtcc: compile error:"),
    ("xmtcc-1-deep-nesting-was-traceback", "xmtcc_main", ["{deep}"], 1,
     "xmtcc: compile error: nesting deeper than 100 levels (line 1:"),
    ("xmtcc-1-huge-array-was-assembler-error", "xmtcc_main", ["{huge}"], 1,
     "xmtcc: compile error: array 'A': 400000000000 bytes do not fit the "
     "32-bit address space (line 1:5)"),
    ("xmtcc-2-missing-source", "xmtcc_main", ["{missing}.c"], 2,
     "xmtcc: error: "),
    ("xmtcc-2-output-dir-was-traceback", "xmtcc_main",
     ["{good}", "-o", "{missing}.s"], 2, "xmtcc: error: -o: [Errno 2]"),

    ("xmtcc-2-cluster-below-one-was-ignored", "xmtcc_main",
     ["{good}", "--cluster", "0"], 2,
     "xmtcc: error: --cluster: must be at least 1, got 0"),

    ("xmtsim-0", "xmtsim_main", ["{good}", *TINY], 0, "cycles"),
    # functional mode used to drop these four flags silently (exit 0)
    ("xmtsim-0-functional-trace", "xmtsim_main",
     ["{spawn}", "--mode", "functional", "--trace", "functional"], 0,
     "[    3] getvt $k0\n[    4] chkid $k0\n"),
    ("xmtsim-0-functional-trace-limit", "xmtsim_main",
     ["{spawn}", "--mode", "functional", "--trace", "functional",
      "--trace-limit", "3"], 0,
     "[    2] spawn $t0, $t1\n... trace truncated: limit=3 reached"),
    ("xmtsim-0-functional-stats", "xmtsim_main",
     ["{spawn}", "--mode", "functional", "--stats"], 0,
     "instructions.getvt  17\ninstructions.halt   1\n"
     "instructions.j      16\n"),
    ("xmtsim-2-functional-trace-cycle", "xmtsim_main",
     ["{spawn}", "--mode", "functional", "--trace", "cycle"], 2,
     "xmtsim: error: --trace cycle cannot be used with --mode functional"),
    ("xmtsim-2-functional-max-cycles", "xmtsim_main",
     ["{spawn}", "--mode", "functional", "--max-cycles", "5"], 2,
     "xmtsim: error: --max-cycles cannot be used with --mode functional"),
    ("xmtsim-1-compile-error", "xmtsim_main", ["{bad}", *TINY], 1,
     "xmtsim: compile error:"),
    ("xmtsim-1-runtime-error", "xmtsim_main",
     ["{crash}", *TINY, "--mode", "functional"], 1,
     "xmtsim: runtime error:"),
    # globals reaching into the Master stack were silently overwritten
    *[(f"xmtsim-2-data-reaches-stack-{mode}", "xmtsim_main",
       ["{good}", "--config-file", "{lowstack}", "--mode", mode], 2,
       "xmtsim: error: data segment ends at 0x1040, above stack_top "
       "0x11000 minus the 0x10000-byte minimum serial stack; the largest "
       "global is 'A' (32 bytes)") for mode in ("cycle", "functional")],
    ("xmtsim-2-missing-program", "xmtsim_main", ["{missing}.s"], 2,
     "xmtsim: error: "),
    ("xmtsim-2-set-not-a-number-was-traceback", "xmtsim_main",
     ["{good}", *TINY, "--set", "A", "1,x"], 2,
     "xmtsim: error: --set A: 'x' is not a number"),
    ("xmtsim-2-set-overflow-was-traceback", "xmtsim_main",
     ["{good}", *TINY, "--set", "A", "1,2,3,4,5,6,7,8,9,10"], 2,
     "overflows global 'A' (8 words)"),
    ("xmtsim-2-set-unknown-global", "xmtsim_main",
     ["{good}", *TINY, "--set", "nope", "1"], 2,
     "xmtsim: error: --set: no such global 'nope'"),
    ("xmtsim-2-config-file-type-was-traceback", "xmtsim_main",
     ["{good}", "--config-file", "{typed}"], 2,
     "xmtsim: error: --config-file: configuration field 'n_clusters'"),
    # a set count that is no power of two failed inside the machine's
    # construction without the field's name, and passed functional mode
    *[(f"xmtsim-2-{field}-not-power-of-two-{mode}", "xmtsim_main",
       ["{good}", "--config-file", f"{{{path}}}", "--mode", mode], 2,
       f"xmtsim: error: --config-file: {field} must be a power of two")
      for field, path in (("cache_sets", "sets96"),
                          ("master_cache_sets", "msets48"))
      for mode in ("cycle", "functional")],
    ("xmtsim-2-print-unknown-global", "xmtsim_main",
     ["{good}", *TINY, "--print-global", "Q"], 2,
     "--print-global Q: no such global 'Q'"),
    ("xmtsim-2-cycle-only-flag", "xmtsim_main",
     ["{good}", "--mode", "functional", "--ledger", "{dir}/l2"], 2,
     "--ledger require --mode cycle"),
    # the resilience flags outside cycle mode used to be dropped (exit 0)
    *[(f"xmtsim-2-functional-{flag[2:]}-was-ignored", "xmtsim_main",
       ["{good}", *TINY, "--mode", "functional", flag, value], 2,
       f"xmtsim: error: {flag} require --mode cycle")
      for flag, value in (("--wall-limit", "5"), ("--event-budget", "100"))],
    ("xmtsim-2-functional-watchdog-was-ignored", "xmtsim_main",
     ["{good}", *TINY, "--mode", "functional", "--watchdog", "1500"], 2,
     "xmtsim: error: --watchdog cannot be used with --mode functional"),
    ("xmtsim-2-sampled-mode-is-gone", "xmtsim_main",
     ["{good}", *TINY, "--mode", "sampled"], 2,
     "argument --mode: invalid choice: 'sampled' "
     "(choose from 'cycle', 'functional')"),
    ("xmtsim-2-campaign-is-gone", "xmtsim_main",
     ["{good}", *TINY, "--campaign", "3"], 2,
     "error: unrecognized arguments: --campaign 3"),
    ("xmtsim-2-inject-is-gone", "xmtsim_main",
     ["{good}", *TINY, "--inject", "icn.drop@38"], 2,
     "error: unrecognized arguments: --inject icn.drop@38"),
    ("xmtsim-2-sanitize-needs-functional", "xmtsim_main",
     ["{good}", *TINY, "--sanitize"], 2,
     "--sanitize requires --mode functional"),
    ("xmtsim-2-unwritable-output", "xmtsim_main",
     ["{good}", *TINY, "--out", "{good}/run"], 2,
     "xmtsim: error: --out: [Errno 20]"),
    # a run directory never mixes two runs
    ("xmtsim-2-out-not-empty", "xmtsim_main",
     ["{good}", *TINY, "--out", "{run}"], 2,
     "xmtsim: error: --out: {run} is not a new or empty directory; a run "
     "directory holds one run"),
    ("xmtsim-2-out-is-a-file", "xmtsim_main",
     ["{good}", *TINY, "--out", "{good}"], 2,
     "xmtsim: error: --out: {good} is not a new or empty directory"),
    ("xmtsim-2-observe-unknown", "xmtsim_main",
     ["{good}", *TINY, "--out", "{dir}/never", "--observe",
      "metrics,trace"], 2,
     "xmtsim: error: --observe: unknown artifact 'trace' (choose from "
     "metrics,profile,accounting,lifecycle,events,telemetry)"),
    *[(f"xmtsim-2-observe-{name}-without-out", "xmtsim_main",
       ["{good}", *TINY, "--ledger", "{dir}/never", "--observe", name], 2,
       f"xmtsim: error: --observe {name}: nowhere to write it; give "
       f"--out DIR") for name in ("events", "telemetry")],
    ("xmtsim-2-observe-without-out-or-ledger", "xmtsim_main",
     ["{good}", *TINY, "--observe", "metrics"], 2,
     "xmtsim: error: --observe metrics: nowhere to write it; give "
     "--out DIR or --ledger DIR"),
    ("xmtsim-2-functional-out", "xmtsim_main",
     ["{good}", *TINY, "--mode", "functional", "--out", "{dir}/never"], 2,
     "xmtsim: error: --out require --mode cycle"),
    # a frame interval below 1 used to be read as 1 (a frame per cycle)
    *[(f"xmtsim-2-telemetry-every-{value}-was-one", "xmtsim_main",
       ["{good}", *TINY, "--out", "{dir}/never", "--observe", "telemetry",
        "--telemetry-every", value], 2,
       f"xmtsim: error: --telemetry-every: must be at least 1, got {value}")
      for value in ("0", "-5")],
    # a budget of no cycles tripped at cycle -1 (exit 4); the other
    # budgets of zero or less were ignored (exit 0)
    *[(f"xmtsim-2-{flag[2:]}-{value}-was-{was}", "xmtsim_main",
       ["{good}", *TINY, flag, value], 2,
       f"xmtsim: error: {flag}: must be {bound}, got {value}")
      for flag, value, was, bound in (
          ("--max-cycles", "-1", "a-budget-trip", "at least 1"),
          ("--max-cycles", "0", "a-budget-trip", "at least 1"),
          ("--event-budget", "0", "ignored", "at least 1"),
          ("--event-budget", "-5", "ignored", "at least 1"),
          ("--wall-limit", "0", "ignored", "greater than 0"),
          ("--wall-limit", "-1", "ignored", "greater than 0"))],
    ("xmtsim-3-stalled", "xmtsim_main",
     ["{spawn}", *TINY, "--watchdog", "5"], 3,
     "xmtsim: stalled:"),
    ("xmtsim-4-budget", "xmtsim_main",
     ["{spin}", *TINY, "--max-cycles", "2000"], 4,
     "xmtsim: budget exceeded:"),
    # a budget below the 2048-event check interval was never checked
    ("xmtsim-4-event-budget-below-check-interval-was-ignored",
     "xmtsim_main", ["{good}", *TINY, "--event-budget", "100"], 4,
     "xmtsim: budget exceeded: event budget exceeded: 100 events"),

    ("lint-0", "xmtc_lint_main", ["{good}"], 0, ""),
    ("lint-1-race", "xmtc_lint_main", ["{racy}"], 1, ""),
    ("lint-2-missing-source", "xmtc_lint_main", ["{missing}.c"], 2,
     "xmtc-lint: error: "),
    ("lint-2-compile-error", "xmtc_lint_main", ["{bad}"], 2,
     "xmtc-lint: compile error: "),
    ("lint-2-no-inputs", "xmtc_lint_main", [], 2, "no input files"),

    ("fuzz-0", "xmtc_fuzz_main",
     ["--seeds", "0..1", "--no-differential", "--quiet"], 0, ""),
    ("fuzz-1-over-threshold", "xmtc_fuzz_main",
     ["--seeds", "0..1", "--no-differential", "--quiet",
      "--fp-threshold", "-1"], 1, ""),
    ("fuzz-2-bad-seeds", "xmtc_fuzz_main", ["--seeds", "nope"], 2,
     "xmtc-fuzz: error: --seeds:"),
    ("fuzz-2-out-dir-was-traceback", "xmtc_fuzz_main",
     ["--seeds", "1", "--out", "{missing}.jsonl"], 2,
     "xmtc-fuzz: error: --out: [Errno 2]"),

    ("compare-0-list", "xmt_compare_main", ["list", "--ledger", "{ledger}"],
     0, ""),
    ("compare-0-check", "xmt_compare_main",
     ["check", "{good}", "--baseline", "{baseline}", "--threshold", "0"], 0,
     "OK within"),
    ("compare-1-regression", "xmt_compare_main",
     ["check", "{good}", "--baseline", "{baseline}", "--config-file",
      "{slow}"], 1, "REGRESSION cycles"),
    ("compare-2-unknown-run", "xmt_compare_main",
     ["diff", "nope", "alsonope", "--ledger", "{ledger}"], 2,
     "xmt-compare: error: "),
    ("compare-2-run-id-without-ledger", "xmt_compare_main",
     ["diff", "nope", "alsonope"], 2, "pass --ledger DIR"),
    ("compare-2-set-names-the-flag", "xmt_compare_main",
     ["check", "{good}", "--baseline", "{baseline}", "--set", "A",
      "1,x"], 2, "xmt-compare: error: --set A: 'x' is not a number"),
    ("compare-2-max-cycles-0-was-a-budget-trip", "xmt_compare_main",
     ["check", "{good}", "--baseline", "{baseline}", "--max-cycles", "0"],
     2, "xmt-compare: error: --max-cycles: must be at least 1, got 0"),
    # a stopped baseline's cycles gated the fresh run ("OK within",
    # exit 0)
    ("compare-2-partial-baseline", "xmt_compare_main",
     ["check", "{spawn}", "--baseline", "{partial}"], 2,
     "[stalled], not a completed clean run; rewrite it with "
     "--update-baseline"),
    # a misspelled gate metric used to gate nothing ("OK", exit 0)
    ("compare-2-unknown-metric-was-ignored", "xmt_compare_main",
     ["check", "{good}", "--baseline", "{baseline}", "--threshold", "0",
      "--metric", "stats.icn.pakages_typo"], 2,
     "xmt-compare: error: --metric stats.icn.pakages_typo: not a metric "
     "of either run"),

    ("campaign-0", "xmt_campaign_main",
     ["{good}", *TINY, "--serial", "--quiet"], 0, ""),
    ("campaign-5-partial", "xmt_campaign_main",
     ["{spin}", *TINY, "--serial", "--quiet", "--max-cycles", "500",
      "--max-retries", "0"], 5, ""),
    ("campaign-2-negative-retries-was-zero", "xmt_campaign_main",
     ["{good}", *TINY, "--serial", "--quiet", "--max-retries", "-1"], 2,
     "xmt-campaign: error: --max-retries: must be at least 0, got -1"),
    ("campaign-2-telemetry-every-was-clamped-to-one", "xmt_campaign_main",
     ["{good}", *TINY, "--serial", "--quiet", "--telemetry-every", "0"], 2,
     "xmt-campaign: error: --telemetry-every: must be at least 1, got 0"),
    ("campaign-2-workers-was-clamped-to-one", "xmt_campaign_main",
     ["{good}", *TINY, "--quiet", "--workers", "0"], 2,
     "xmt-campaign: error: --workers: must be at least 1, got 0"),
    ("campaign-2-deadline-already-passed", "xmt_campaign_main",
     ["{good}", *TINY, "--quiet", "--attempt-deadline", "-1"], 2,
     "xmt-campaign: error: --attempt-deadline: must be greater than 0, "
     "got -1"),
    # three retries of a budget tripped at cycle -1, then a timeout
    # (exit 5); the other budgets of zero or less were ignored (exit 0)
    *[(f"campaign-2-{flag[2:]}-{value}-was-{was}", "xmt_campaign_main",
       ["{good}", *TINY, "--serial", "--quiet", flag, value], 2,
       f"xmt-campaign: error: {flag}: must be {bound}, got {value}")
      for flag, value, was, bound in (
          ("--max-cycles", "-1", "a-timeout", "at least 1"),
          ("--event-budget", "0", "ignored", "at least 1"),
          ("--wall-budget", "0", "ignored", "greater than 0"),
          ("--wall-budget", "-2", "ignored", "greater than 0"))],
    ("campaign-2-vary-type", "xmt_campaign_main",
     ["{good}", *TINY, "--vary", "icn_period=fast"], 2,
     "--vary icn_period: configuration field 'icn_period' takes int"),
    # 'report' is no subcommand: xmt-top report renders a campaign
    ("campaign-2-report-is-a-missing-program", "xmt_campaign_main",
     ["report"], 2, "xmt-campaign: error: "),
    ("campaign-2-program-or-queue", "xmt_campaign_main", [], 2,
     "xmt-campaign: error: give a program"),
    ("campaign-2-set-names-the-flag", "xmt_campaign_main",
     ["{good}", "--set", "A", "1,x"], 2,
     "xmt-campaign: error: --set A: 'x' is not a number"),
    ("campaign-2-missing-queue", "xmt_campaign_main",
     ["--queue", "{missing}.jsonl"], 2, "xmt-campaign: error: --queue:"),
    ("campaign-2-torn-queue-names-the-line", "xmt_campaign_main",
     ["--queue", "{torn_queue}"], 2,
     "xmt-campaign: error: --queue: {torn_queue}:2: bad JSON line"),
    # a campaign's report: xmt-top report over its stream
    ("campaign-report-0-torn-tails", "xmt_top_main",
     ["report", "{torn_campaign_stream}"], 0, ""),

    ("top-0", "xmt_top_main", ["report", "{stream}"], 0, ""),
    ("top-0-torn-tail", "xmt_top_main", ["report", "{torn_stream}"], 0, ""),
    ("top-2-missing-stream", "xmt_top_main", ["report", "{missing}.jsonl"],
     2, "xmt-top: error: "),

    ("prof-0", "xmt_prof_main", ["report", "{profile}"], 0, ""),
    ("prof-2-not-a-profile", "xmt_prof_main",
     ["report", "{not_a_profile}"], 2,
     "xmt-prof: error: {not_a_profile}: expected schema 'xmt-prof/1'"),

    ("explain-0", "xmt_explain_main",
     ["report", "{accounting}", "--assert-exact"], 0, "xmt-explain: exact:"),
    ("explain-1-inexact", "xmt_explain_main",
     ["report", "{inexact}", "--assert-exact"], 1, "xmt-explain: INEXACT:"),
    ("explain-2-not-accounting", "xmt_explain_main",
     ["report", "{typed}"], 2, "xmt-explain: error: "),
    ("explain-2-unwritable-out", "xmt_explain_main",
     ["report", "{accounting}", "--out", "{missing}.txt"], 2,
     "xmt-explain: error: --out: [Errno 2]"),
    # two runs are diffed by xmt-compare diff
    ("explain-2-diff-is-gone", "xmt_explain_main",
     ["diff", "{run}", "{run}"], 2,
     "argument command: invalid choice: 'diff' (choose from 'report')"),
]


@pytest.mark.parametrize("command,argv,code,needle",
                         [row[1:] for row in ROWS],
                         ids=[row[0] for row in ROWS])
def test_exit_code(ws, capsys, command, argv, code, needle):
    got = getattr(cli, command)([arg.format(**ws) for arg in argv])
    captured = capsys.readouterr()
    needle = needle.format(**ws)
    assert got == code, captured.err
    assert needle in captured.err
    assert "Traceback" not in captured.err + captured.out
    if code == 2:
        # rejected input is one line, the last thing the command says
        assert needle in captured.err.splitlines()[-1]


def test_every_documented_code_has_a_row():
    documented = {
        "xmtcc_main": {0, 1, 2}, "xmtsim_main": {0, 1, 2, 3, 4},
        "xmtc_lint_main": {0, 1, 2}, "xmtc_fuzz_main": {0, 1, 2},
        "xmt_compare_main": {0, 1, 2}, "xmt_campaign_main": {0, 2, 5},
        "xmt_top_main": {0, 2}, "xmt_prof_main": {0, 2},
        "xmt_explain_main": {0, 1, 2},
    }
    covered = {}
    for _, command, _, code, _ in ROWS:
        covered.setdefault(command, set()).add(code)
    assert covered == documented


#: what can happen to a whole-file artifact: (its text, its schema id)
#: -> the damaged text
CORRUPTIONS = {
    "not-json": lambda good, schema: "this is not JSON\n",
    "list": lambda good, schema: "[1, 2, 3]\n",
    "wrong-schema": lambda good, schema: json.dumps(
        dict(json.loads(good), schema="other/9")),
    "schema-only": lambda good, schema: json.dumps({"schema": schema}),
    "truncated": lambda good, schema: good[:len(good) // 2],
}

#: id, command, the artifact that is damaged, the run directory it is
#: damaged in (``None``: a file read on its own), argv ({damaged} = the
#: damaged export, or the copy of the run directory that holds it)
READERS = [
    ("prof-report", "xmt_prof_main", "profile", None, ["report", "{damaged}"]),
    ("explain-report", "xmt_explain_main", "accounting", None,
     ["report", "{damaged}"]),
    ("compare-diff-accounting", "xmt_compare_main", "accounting", "run",
     ["diff", "{run}", "{damaged}"]),
    ("compare-diff", "xmt_compare_main", "manifest", "baseline",
     ["diff", "{baseline}", "{damaged}"]),
    ("compare-check-baseline", "xmt_compare_main", "manifest", "baseline",
     ["check", "{good}", "--baseline", "{damaged}"]),
    ("run-dir-metrics-alone", "xmt_compare_main", "metrics", "baseline",
     ["diff", "{damaged}", "{baseline}"]),
]


@pytest.mark.parametrize("corruption", CORRUPTIONS)
@pytest.mark.parametrize("command,name,run_dir,argv",
                         [row[1:] for row in READERS],
                         ids=[row[0] for row in READERS])
def test_malformed_artifact(ws, tmp_path, capsys, command, name, run_dir,
                            argv, corruption):
    row = ARTIFACTS[name]
    if run_dir is None:
        bad = path = str(tmp_path / row.file)
        shutil.copy(ws[name], path)
    else:
        bad = str(tmp_path / "run")
        shutil.copytree(ws[run_dir], bad)
        path = os.path.join(bad, row.file)
    with open(path) as fh:
        good = fh.read()
    with open(path, "w") as fh:
        fh.write(CORRUPTIONS[corruption](good, row.schema))

    got = getattr(cli, command)([arg.format(damaged=bad, **ws) for arg in argv])
    captured = capsys.readouterr()
    assert got == 2, captured.err
    assert "Traceback" not in captured.err + captured.out
    prog = command[:-len("_main")].replace("_", "-")
    last = captured.err.splitlines()[-1]
    assert last.startswith(f"{prog}: error: {path}: "), last
    assert (row.required[0] if corruption == "schema-only"
            else row.schema) in last
