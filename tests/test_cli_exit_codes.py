"""Every exit code the nine commands document, in one table.

One row per (command, argv, exit code, stderr substring): xmtcc 0/1/2,
xmtsim 0-5, xmtc-lint 0/1/2, xmtc-fuzz 0/1/2, xmt-compare 0/1/2,
xmt-campaign 0/2/5, xmt-top 0/2, xmt-prof 0/2, xmt-explain 0/1/2 (the
codes the ``*_main`` docstrings and MANUAL 4.13 list).  The rows marked
``was-traceback`` died with a Python traceback before the commands
shared one error funnel; every exit-2 row must name the flag or file
at fault on one closing ``<prog>: error: ...`` line.
"""

from __future__ import annotations

import json

import pytest

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
                       ("not-a-profile.json", '{"schema": "other/1"}')):
        (root / name).write_text(text)
        paths[name.split(".")[0].replace("-", "_")] = str(root / name)
    paths.update(ledger=str(root / "ledger"), profile=str(root / "p.json"),
                 stream=str(root / "t.jsonl"), baseline=str(root / "base"),
                 accounting=str(root / "a.json"),
                 inexact=str(root / "inexact.json"))
    assert cli.xmtsim_main(
        [paths["good"], "--config", "tiny", "--ledger", paths["ledger"],
         "--profile-out", paths["profile"], "--telemetry-out",
         paths["stream"], "--telemetry-every", "50",
         "--accounting-out", paths["accounting"]]) == 0
    assert cli.xmt_compare_main(
        ["check", paths["good"], "--config", "tiny", "--baseline",
         paths["baseline"], "--update-baseline"]) == 0
    with open(paths["accounting"]) as fh:
        accounting = json.load(fh)
    with open(paths["inexact"], "w") as fh:
        json.dump(dict(accounting, exact=False), fh)
    return paths


TINY = ["--config", "tiny"]

ROWS = [
    # id, command, argv ({name} = a workspace path), exit code, stderr needle
    ("xmtcc-0", "xmtcc_main", ["{good}"], 0, ""),
    ("xmtcc-1-compile-error", "xmtcc_main", ["{bad}"], 1,
     "xmtcc: compile error:"),
    ("xmtcc-2-missing-source", "xmtcc_main", ["{missing}.c"], 2,
     "xmtcc: error: "),
    ("xmtcc-2-output-dir-was-traceback", "xmtcc_main",
     ["{good}", "-o", "{missing}.s"], 2, "xmtcc: error: -o: [Errno 2]"),

    ("xmtsim-0", "xmtsim_main", ["{good}", *TINY], 0, "cycles"),
    ("xmtsim-1-compile-error", "xmtsim_main", ["{bad}", *TINY], 1,
     "xmtsim: compile error:"),
    ("xmtsim-1-runtime-error", "xmtsim_main",
     ["{crash}", *TINY, "--mode", "functional"], 1,
     "xmtsim: runtime error:"),
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
    ("xmtsim-2-print-unknown-global", "xmtsim_main",
     ["{good}", *TINY, "--print-global", "Q"], 2,
     "--print-global Q: no such global 'Q'"),
    ("xmtsim-2-bad-fault-spec", "xmtsim_main",
     ["{good}", *TINY, "--inject", "bogus"], 2, "xmtsim: error: --inject:"),
    ("xmtsim-2-cycle-only-flag", "xmtsim_main",
     ["{good}", "--mode", "functional", "--ledger", "{dir}/l2"], 2,
     "--ledger require --mode cycle"),
    ("xmtsim-2-sanitize-needs-functional", "xmtsim_main",
     ["{good}", *TINY, "--sanitize"], 2,
     "--sanitize requires --mode functional"),
    ("xmtsim-2-unwritable-output", "xmtsim_main",
     ["{good}", *TINY, "--metrics-out", "{missing}.json"], 2,
     "xmtsim: error: --metrics-out: [Errno 2]"),
    ("xmtsim-3-stalled", "xmtsim_main",
     ["{spawn}", *TINY, "--watchdog", "500", "--inject", "icn.drop@38"], 3,
     "xmtsim: stalled:"),
    ("xmtsim-4-budget", "xmtsim_main",
     ["{spin}", *TINY, "--max-cycles", "2000"], 4,
     "xmtsim: budget exceeded:"),
    ("xmtsim-5-partial", "xmtsim_main",
     ["{spin}", *TINY, "--max-cycles", "2000", "--max-retries", "0"], 5,
     "xmtsim: recovery failed: partial result:"),

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
     ["sweep", "{good}", "--vary", "dram_latency=6,30", "--set", "A",
      "1,x"], 2, "xmt-compare: error: --set A: 'x' is not a number"),
    ("compare-2-vary-type", "xmt_compare_main",
     ["sweep", "{good}", *TINY, "--vary", "icn_period=fast"], 2,
     "--vary icn_period: configuration field 'icn_period' takes int"),

    ("campaign-0", "xmt_campaign_main",
     ["{good}", *TINY, "--serial", "--quiet"], 0, ""),
    ("campaign-5-partial", "xmt_campaign_main",
     ["{spin}", *TINY, "--serial", "--quiet", "--max-cycles", "500",
      "--max-retries", "0"], 5, ""),
    ("campaign-2-program-or-queue", "xmt_campaign_main", [], 2,
     "xmt-campaign: error: give a program"),
    ("campaign-2-set-names-the-flag", "xmt_campaign_main",
     ["{good}", "--set", "A", "1,x"], 2,
     "xmt-campaign: error: --set A: 'x' is not a number"),
    ("campaign-2-missing-queue", "xmt_campaign_main",
     ["--queue", "{missing}.jsonl"], 2, "xmt-campaign: error: --queue:"),
    ("campaign-report-2-no-inputs", "xmt_campaign_main", ["report"], 2,
     "xmt-campaign report: error: give --results"),

    ("top-0", "xmt_top_main", ["report", "{stream}"], 0, ""),
    ("top-2-missing-stream", "xmt_top_main", ["report", "{missing}.jsonl"],
     2, "xmt-top: error: "),

    ("prof-0", "xmt_prof_main", ["report", "{profile}"], 0, ""),
    ("prof-2-not-a-profile", "xmt_prof_main",
     ["report", "{not_a_profile}"], 2, "not an xmt-prof profile"),

    ("explain-0", "xmt_explain_main",
     ["report", "{accounting}", "--assert-exact"], 0, "xmt-explain: exact:"),
    ("explain-1-inexact", "xmt_explain_main",
     ["report", "{inexact}", "--assert-exact"], 1, "xmt-explain: INEXACT:"),
    ("explain-2-not-accounting", "xmt_explain_main",
     ["report", "{typed}"], 2, "xmt-explain: error: "),
    ("explain-2-unwritable-out", "xmt_explain_main",
     ["report", "{accounting}", "--out", "{missing}.txt"], 2,
     "xmt-explain: error: --out: [Errno 2]"),
]


@pytest.mark.parametrize("command,argv,code,needle",
                         [row[1:] for row in ROWS],
                         ids=[row[0] for row in ROWS])
def test_exit_code(ws, capsys, command, argv, code, needle):
    got = getattr(cli, command)([arg.format(**ws) for arg in argv])
    captured = capsys.readouterr()
    assert got == code, captured.err
    assert needle in captured.err
    assert "Traceback" not in captured.err + captured.out
    if code == 2:
        # rejected input is one line, the last thing the command says
        assert needle in captured.err.splitlines()[-1]


def test_every_documented_code_has_a_row():
    documented = {
        "xmtcc_main": {0, 1, 2}, "xmtsim_main": {0, 1, 2, 3, 4, 5},
        "xmtc_lint_main": {0, 1, 2}, "xmtc_fuzz_main": {0, 1, 2},
        "xmt_compare_main": {0, 1, 2}, "xmt_campaign_main": {0, 2, 5},
        "xmt_top_main": {0, 2}, "xmt_prof_main": {0, 2},
        "xmt_explain_main": {0, 1, 2},
    }
    covered = {}
    for _, command, _, code, _ in ROWS:
        covered.setdefault(command, set()).add(code)
    assert covered == documented
