"""The fuzzing subsystem: seed-deterministic program generation with
ground-truth labels, the three-oracle soundness harness, the
``xmtc-fuzz`` CLI, and the before/after precision fixtures for the two
analysis upgrades (affine index disjointness, interprocedural spawn
summaries) that this fuzzer validated."""

import json

import pytest

from repro.toolchain.cli import _parse_seed_spec, xmtc_fuzz_main
from repro.xmtc.analysis.races import check_races
from repro.xmtc.analysis.summaries import compute_summaries
from repro.xmtc.compiler import CompileOptions, compile_to_asm
from repro.xmtc.fuzz import generate, run_campaign, run_seed

SMOKE_SEEDS = range(0, 64)


def _race_diags(source, **opts):
    options = CompileOptions(keep_intermediates=True, **opts)
    unit = compile_to_asm(source, options).ir
    summaries = compute_summaries(unit)
    return check_races(unit, summaries, "<test>")


# ------------------------------------------------------------- generator

class TestGenerator:
    def test_same_seed_same_program(self):
        for seed in (0, 1, 17, 42):
            a, b = generate(seed), generate(seed)
            assert a.source == b.source
            assert a.planted == b.planted
            assert a.expected_checks == b.expected_checks

    def test_seed_parity_controls_labels(self):
        for seed in range(32):
            program = generate(seed)
            if seed % 2 == 0:
                assert program.planted is None
                assert program.expected_checks == []
            else:
                assert program.planted is not None
                assert program.expected_checks

    def test_sources_differ_across_seeds(self):
        sources = {generate(seed).source for seed in range(16)}
        assert len(sources) > 8  # templates vary, not one fixed program

    def test_planted_programs_compile(self):
        from repro.xmtc.compiler import compile_source

        for seed in range(1, 16, 2):
            program = generate(seed)
            compile_source(program.source, program.compile_options())


# --------------------------------------------------------------- harness

class TestHarness:
    def test_planted_seed_classified_tp(self):
        # seed 1 plants psm-store-mix (a write-write race)
        outcome = run_seed(1)
        assert outcome.planted is not None
        assert outcome.verdict == "tp"
        assert not outcome.unsound

    def test_clean_seed_classified_tn(self):
        outcome = run_seed(0)
        assert outcome.planted is None
        assert outcome.verdict == "tn"
        assert outcome.static_checks == []
        assert outcome.dynamic_races == []
        assert outcome.differential_ok is True

    def test_plain_functional_run_is_held_to_the_sanitized_one(
            self, monkeypatch):
        """The plain functional run (translated blocks; a sanitizer's run
        steps every memory op) must leave the sanitized run's result on
        every seed, racy ones included; a divergence is a bug."""
        from repro.sim.functional import FunctionalSimulator

        racy = run_seed(1)
        assert racy.dynamic_races and racy.differential_ok is True
        run = FunctionalSimulator.run

        def skewed(self):
            result = run(self)
            if self.sanitizer is None:
                result.output += "!"
            return result

        monkeypatch.setattr(FunctionalSimulator, "run", skewed)
        outcome = run_seed(0)
        assert outcome.verdict == "bug"
        assert outcome.error == "plain and sanitized functional runs diverge"

    def test_campaign_sound_over_smoke_seeds(self):
        """The committed gate: no false negative, no harness bug, an FP
        rate within 0.10.  A failure names every seed that is neither
        tp nor tn, with its verdict."""
        off = []

        def note(outcome):
            if outcome.verdict not in ("tp", "tn"):
                off.append(f"seed {outcome.seed}: {outcome.verdict}")

        summary = run_campaign(SMOKE_SEEDS, on_outcome=note)
        why = f"{summary}; {', '.join(off) or 'every seed tp or tn'}"
        assert summary["ok"], why
        assert summary["counts"]["fn"] == 0, why
        assert summary["counts"]["bug"] == 0, why
        assert summary["unsound"] == 0, why
        assert summary["fp_rate"] <= 0.10, why
        assert summary["seeds"] == len(SMOKE_SEEDS)

    def test_campaign_streams_jsonl(self, tmp_path):
        path = tmp_path / "outcomes.jsonl"
        summary = run_campaign(range(6), jsonl_path=str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 6
        for line in lines:
            record = json.loads(line)
            assert record["schema"] == "xmtc-fuzz-outcome/1"
            assert record["verdict"] in ("tp", "fn", "fp", "tn", "bug")
        assert summary["schema"] == "xmtc-fuzz-summary/1"

    def test_fp_threshold_fails_campaign(self):
        # with a -1 threshold even a zero FP rate must not pass unless
        # there genuinely are no clean programs... so instead check the
        # comparison direction: fp_rate 0.0 <= 0.0 passes
        summary = run_campaign(range(4), fp_threshold=0.0)
        assert summary["fp_rate"] == 0.0
        assert summary["ok"]


# -------------------------------------- precision upgrade A: affine index

AFFINE_GUARD_SRC = """
int sc = 0;
int main() {
    spawn(0, 7) {
        if ($ + 1 == 3) { sc = 9; }
    }
    printf("%d\\n", sc);
    return 0;
}
"""

OVERLAP_SRC = """
int A[12];
int main() {
    spawn(0, 7) {
        A[$] = $;
        A[$ + 1] = $ * 3;
    }
    printf("%d\\n", A[4]);
    return 0;
}
"""

STRIDE_SRC = """
int A[18];
int main() {
    spawn(0, 7) {
        A[2 * $] = $;
        A[2 * $ + 1] = $ * 7;
    }
    printf("%d\\n", A[4]);
    return 0;
}
"""


class TestAffineUpgrade:
    def test_affine_guard_was_fp_now_clean(self):
        # the $+1 == 3 guard singles out one thread; a flag-only
        # detector cannot see through the affine comparison
        current = _race_diags(AFFINE_GUARD_SRC)
        assert current == []

    def test_neighbor_overlap_was_fn_now_flagged(self):
        # $ and $+1 both look "private" to the flag heuristic, but the
        # affine forms overlap (delta 1, stride 1) -- a soundness hole
        # the fuzzer exposed
        current = _race_diags(OVERLAP_SRC)
        assert any(d.check == "race.write-write" for d in current)

    def test_stride_pair_clean_in_both(self):
        assert not any(d.check.startswith("race.")
                       for d in _race_diags(STRIDE_SRC))


# ----------------------------- precision upgrade B: interprocedural calls

CALL_PRIVATE_SRC = """
int arr[12];
void put(int i, int v) { arr[i] = v; }
int main() {
    spawn(0, 7) {
        put($ + 1, $ * 2);
    }
    printf("%d\\n", arr[3]);
    return 0;
}
"""

CALL_UNIFORM_SRC = """
int arr[8];
void put(int i, int v) { arr[i] = v; }
int main() {
    spawn(0, 7) {
        put(3, $);
    }
    printf("%d\\n", arr[3]);
    return 0;
}
"""


class TestInterproceduralUpgrade:
    def test_private_callee_index_was_fp_now_clean(self):
        current = _race_diags(CALL_PRIVATE_SRC, parallel_calls=True)
        assert not any(d.check == "race.call-effect" for d in current)

    def test_uniform_callee_index_still_flagged(self):
        # composing the summary must not lose the conflict when the
        # caller passes a uniform argument
        current = _race_diags(CALL_UNIFORM_SRC, parallel_calls=True)
        assert any(d.check == "race.call-effect" for d in current)


# ------------------------------------------------------------------- CLI

class TestSeedSpec:
    def test_range(self):
        assert _parse_seed_spec("0..3") == [0, 1, 2, 3]

    def test_list(self):
        assert _parse_seed_spec("5,1,9") == [5, 1, 9]

    def test_count(self):
        assert _parse_seed_spec("4") == [0, 1, 2, 3]

    def test_bad_spec_raises(self):
        with pytest.raises(ValueError):
            _parse_seed_spec("abc")
        with pytest.raises(ValueError):
            _parse_seed_spec("9..1")


class TestFuzzCLI:
    def test_sound_run_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "fz.jsonl"
        rc = xmtc_fuzz_main(["--seeds", "0..7", "--quiet",
                             "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 0
        assert "SOUND" in captured.out
        assert len(out.read_text().splitlines()) == 8

    def test_bad_seed_spec_exits_two(self, capsys):
        assert xmtc_fuzz_main(["--seeds", "nope"]) == 2

    def test_emit_failing_writes_nothing_when_sound(self, tmp_path):
        failing = tmp_path / "failing"
        rc = xmtc_fuzz_main(["--seeds", "0..3", "--quiet",
                             "--emit-failing", str(failing)])
        assert rc == 0
        assert not failing.exists() or not list(failing.iterdir())
