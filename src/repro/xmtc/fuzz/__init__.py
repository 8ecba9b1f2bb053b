"""Random XMTC program generation and analysis soundness fuzzing.

:mod:`repro.xmtc.fuzz.generator` emits seed-deterministic random XMTC
programs with a ground-truth label: the generator knows, by
construction, whether it planted a race (or memory-model violation) and
which check ids should fire.  :mod:`repro.xmtc.fuzz.harness` runs each
program through three oracles -- the static analyses, the dynamic
:class:`~repro.sim.plugins.RaceSanitizer`, and the differential
(plain vs sanitized functional, functional vs cycle-accurate) -- and
classifies every static verdict as TP/FP/FN/TN against the planted label
plus the dynamic witness.  The ``xmtc-fuzz`` CLI streams per-seed outcomes to
JSONL and exits nonzero on any unsoundness.
"""

from repro.xmtc.fuzz.generator import GeneratedProgram, generate
from repro.xmtc.fuzz.harness import FuzzOutcome, run_campaign, run_seed

__all__ = [
    "GeneratedProgram",
    "generate",
    "FuzzOutcome",
    "run_seed",
    "run_campaign",
]
