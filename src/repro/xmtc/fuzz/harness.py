"""Differential soundness harness over generated XMTC programs.

For each seed, :func:`run_seed` pushes the generated program through
three oracles:

1. **static** -- ``lint_source`` (race detector + memory-model linter);
2. **dynamic** -- the functional simulator with the
   :class:`~repro.sim.plugins.RaceSanitizer` attached, giving a runtime
   race witness;
3. **differential** -- the plain functional run (translated blocks, no
   sanitizer) must leave exactly the sanitized run's result, racy or
   not; and functional vs cycle-accurate output (dynamically clean
   programs must agree; racy programs may legitimately diverge between
   engines and are skipped).

The static verdict is then classified against the generator's planted
label and the dynamic witness:

========  =======================================================
verdict   meaning
========  =======================================================
``tp``    planted, and the static analyses flagged it
``fn``    planted, static came back clean -- **unsound** when the
          sanitizer also witnessed the race at runtime
``fp``    clean by construction, but statically flagged
``tn``    clean by construction and statically clean
``bug``   the harness itself is broken for this seed: a
          clean-labeled program raced dynamically (generator bug),
          the plain and sanitized functional runs diverged, the
          engines diverged on a clean program, or a stage threw
========  =======================================================

:func:`run_campaign` streams one JSON object per seed to JSONL and
fails (``ok=False``) on any FN, any ``bug``, or an FP rate above the
threshold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.sim.observability.artifacts import schema_of
from repro.xmtc.fuzz.generator import GeneratedProgram, generate

#: static findings that count as "flagged" for the race/memory verdict
_RELEVANT_PREFIXES = ("race.", "mm.")


@dataclass
class FuzzOutcome:
    """Per-seed oracle results and the classified verdict."""

    seed: int
    verdict: str                       # tp | fn | fp | tn | bug
    planted: Optional[str] = None
    unsound: bool = False              # static clean AND dynamic race
    static_checks: List[str] = field(default_factory=list)
    dynamic_races: List[str] = field(default_factory=list)
    differential_ok: Optional[bool] = None   # None = skipped
    features: List[str] = field(default_factory=list)
    error: str = ""

    def to_json(self) -> dict:
        return {
            "schema": schema_of("fuzz-outcome"),
            "seed": self.seed,
            "verdict": self.verdict,
            "planted": self.planted,
            "unsound": self.unsound,
            "static": self.static_checks,
            "dynamic": self.dynamic_races,
            "differential_ok": self.differential_ok,
            "features": self.features,
            "error": self.error,
        }


def _static_checks(program: GeneratedProgram) -> List[str]:
    from repro.xmtc.analysis.linter import lint_source

    diags = lint_source(program.source, program.compile_options(),
                        filename=f"seed-{program.seed}")
    return sorted({d.check for d in diags
                   if d.severity in ("error", "warning")
                   and d.check.startswith(_RELEVANT_PREFIXES)})


def _dynamic_races(program: GeneratedProgram,
                   max_instructions: int) -> tuple:
    """Run under the functional simulator with the sanitizer attached
    (which steps every memory op); returns ``(race kinds, result,
    compiled program)``."""
    from repro.sim.functional import FunctionalSimulator
    from repro.sim.plugins import RaceSanitizer
    from repro.xmtc.compiler import compile_source

    compiled = compile_source(program.source, program.compile_options())
    sanitizer = RaceSanitizer()
    result = FunctionalSimulator(compiled,
                                 max_instructions=max_instructions,
                                 sanitizer=sanitizer).run()
    kinds = sorted({r.kind for r in sanitizer.races})
    return kinds, result, compiled


def _cycle_output(program: GeneratedProgram, max_cycles: int) -> str:
    from repro.sim.config import tiny
    from repro.sim.machine import Simulator
    from repro.xmtc.compiler import compile_source

    compiled = compile_source(program.source, program.compile_options())
    result = Simulator(compiled, tiny()).run(max_cycles=max_cycles)
    return result.output


def run_seed(seed: int, differential: bool = True,
             max_instructions: int = 2_000_000,
             max_cycles: int = 5_000_000) -> FuzzOutcome:
    """Generate, run all three oracles, classify.  Never raises: stage
    failures come back as ``verdict="bug"`` with the error attached."""
    program = generate(seed)
    out = FuzzOutcome(seed=seed, verdict="bug", planted=program.planted,
                      features=list(program.features))
    try:
        out.static_checks = _static_checks(program)
    except Exception as exc:  # compile or analysis crash
        out.error = f"static oracle failed: {exc}"
        return out
    try:
        out.dynamic_races, sanitized, compiled = _dynamic_races(
            program, max_instructions)
    except Exception as exc:
        out.error = f"dynamic oracle failed: {exc}"
        return out

    flagged = bool(out.static_checks)
    if program.planted is not None:
        out.verdict = "tp" if flagged else "fn"
        out.unsound = not flagged and bool(out.dynamic_races)
        if out.verdict == "fn" and program.dynamic_witness \
                and not out.dynamic_races:
            # the plant promised a runtime witness and delivered none:
            # the generator's ground truth is broken, not the analyses
            out.verdict = "bug"
            out.error = (f"plant {program.planted} produced no dynamic "
                         f"witness")
            return out
    else:
        if out.dynamic_races:
            out.verdict = "bug"
            out.error = "clean-labeled program raced dynamically"
            return out
        out.verdict = "fp" if flagged else "tn"

    if not differential:
        return out
    # a serialized run is deterministic: its translated blocks must
    # leave what the sanitized run's stepped memory ops left, races or not
    from repro.sim.functional import FunctionalSimulator
    try:
        plain = FunctionalSimulator(
            compiled, max_instructions=max_instructions).run()
    except Exception as exc:
        out.verdict = "bug"
        out.error = f"plain functional run failed: {exc}"
        return out
    out.differential_ok = plain == sanitized
    if not out.differential_ok:
        out.verdict = "bug"
        out.error = "plain and sanitized functional runs diverge"
        return out
    # engines must agree whenever the program is dynamically race-free
    if not out.dynamic_races:
        try:
            cycle_output = _cycle_output(program, max_cycles)
        except Exception as exc:
            out.verdict = "bug"
            out.error = f"cycle-accurate oracle failed: {exc}"
            return out
        out.differential_ok = cycle_output == sanitized.output
        if not out.differential_ok:
            out.verdict = "bug"
            out.error = "functional and cycle-accurate outputs diverge"
    return out


def run_campaign(seeds: Sequence[int], jsonl_path: Optional[str] = None,
                 fp_threshold: float = 0.10, differential: bool = True,
                 on_outcome: Optional[Callable[[FuzzOutcome], None]] = None
                 ) -> dict:
    """Run every seed, stream outcomes, and summarize.

    Returns a summary dict with per-verdict counts, the FP rate over
    clean-labeled programs, and ``ok``: True iff there were no FN
    verdicts, no bugs, and the FP rate stayed at or under
    ``fp_threshold``.
    """
    counts = {"tp": 0, "fn": 0, "fp": 0, "tn": 0, "bug": 0}
    unsound = 0
    outcomes: List[FuzzOutcome] = []
    stream = open(jsonl_path, "w") if jsonl_path else None
    try:
        for seed in seeds:
            outcome = run_seed(seed, differential=differential)
            outcomes.append(outcome)
            counts[outcome.verdict] += 1
            unsound += outcome.unsound
            if stream is not None:
                stream.write(json.dumps(outcome.to_json(),
                                        sort_keys=True) + "\n")
                stream.flush()
            if on_outcome is not None:
                on_outcome(outcome)
    finally:
        if stream is not None:
            stream.close()
    clean_total = counts["fp"] + counts["tn"]
    fp_rate = counts["fp"] / clean_total if clean_total else 0.0
    summary = {
        "schema": schema_of("fuzz-summary"),
        "seeds": len(outcomes),
        "counts": counts,
        "unsound": unsound,
        "fp_rate": round(fp_rate, 4),
        "fp_threshold": fp_threshold,
        "ok": (counts["fn"] == 0 and counts["bug"] == 0
               and fp_rate <= fp_threshold),
    }
    return summary
