#!/usr/bin/env python3
"""Judge a change against its parent from ``run.py --json`` documents.

    python3 benchmarks/xmt_bench/compare.py A.json B.json [A2.json B2.json ...]

Each ``A``/``B`` pair is one run of the parent and one of the change
taken back to back (alternate which goes first).  For every pairing of
end-to-end metric and workload the verdict is

- ``regressed``  -- B's median is worse than A's by more than the bound
  ``BENCHMARK.json`` fixes for the metric (``failed_share``: any rise);
- ``unresolved`` -- the parent's own run-to-run spread (interquartile
  range of A) is wider than the bound, and not every B run beats every
  A run, so neither "unchanged" nor "improved" can be said;
- ``improved``   -- at least ten pairs, B wins nine tenths of them (ties
  count for neither side) and the medians differ by more than A's
  interquartile range;
- ``unchanged``  -- otherwise.

One row per workload, every ratio printed with its base.  Simulated
counts that differ between A and B are listed separately: they mean the
timing model or the compiler's output changed, which is never folded
into a speed-up.  Exit status 1 on any ``regressed``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import spec

MIN_PAIRS_FOR_GAIN = 10


def iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(a, b, better: str, bound: float, a_rounds=()):
    """Verdict for one (metric, workload) from per-run values ``a`` and
    ``b`` (paired by position).  With a single pair the parent's spread
    is taken from ``a_rounds``, the per-round samples inside A's run."""
    sign = 1 if better == "lower" else -1       # >0 means B is worse
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse_by = sign * (med_b - med_a)
    if bound == 0:                              # absolute: failed_share
        return "regressed" if worse_by > 0 else "unchanged"
    if worse_by > bound * abs(med_a):
        return "regressed"
    spread = iqr(a) if len(a) > 1 else iqr(list(a_rounds))
    all_better = max(sign * x for x in b) < min(sign * x for x in a)
    if spread > bound * abs(med_a) and not all_better:
        return "unresolved"
    wins = sum(1 for x, y in zip(a, b) if sign * (y - x) < 0)
    if (len(a) >= MIN_PAIRS_FOR_GAIN and wins >= 0.9 * len(a)
            and -worse_by > spread):
        return "improved"
    return "unchanged"


def load(path):
    """workload -> (metric -> summary, counts) for one document."""
    with open(path) as fh:
        document = json.load(fh)
    out = {}
    for name, runs in document["workloads"].items():
        counts = {}
        if "untraced" in runs:
            counts.update(runs["untraced"]["counts"])
        if "traced" in runs:        # exact per-layer counts, calls included
            counts.update({metric: m["value"]
                           for metric, m in runs["traced"]["metrics"].items()
                           if m["unit"] == "count"})
        out[name] = (runs.get("untraced", {}).get("metrics", {}), counts)
    return out


def compare(pairs, out=sys.stdout) -> int:
    """Print the report for ``[(A document, B document), ...]``;
    returns the exit status."""
    bounds = spec.bounds()
    regressions = 0
    print(f"{len(pairs)} pair(s); ratio = B median / A median", file=out)
    workloads = [w for w in spec.WORKLOADS
                 if all(w in a and w in b for a, b in pairs)]
    for metric, (unit, better, bound) in bounds.items():
        rows = []
        for workload in workloads:
            if not all(metric in doc[workload][0]
                       for pair in pairs for doc in pair):
                continue
            a = [pair[0][workload][0][metric]["value"] for pair in pairs]
            b = [pair[1][workload][0][metric]["value"] for pair in pairs]
            rounds = pairs[0][0][workload][0][metric].get("samples", ())
            result = verdict(a, b, better, bound, rounds)
            regressions += result == "regressed"
            med_a, med_b = statistics.median(a), statistics.median(b)
            ratio = f"{med_b / med_a:.3f}" if med_a else "  n/a"
            rows.append(f"  {workload:<26} A {med_a:>11.5g}  B {med_b:>11.5g} "
                        f"{unit:<5} ratio {ratio} (base A = {med_a:.5g} "
                        f"{unit})  {result}")
        if rows:
            print(f"{metric} [{better} is better, bound "
                  f"{'any rise' if bound == 0 else format(bound, '.0%')}]",
                  file=out)
            print("\n".join(rows), file=out)
    drift = []
    for workload in workloads:
        first = pairs[0][0][workload][1]
        for a, b in pairs:
            for key in sorted(set(first) | set(b[workload][1])):
                if (a[workload][1].get(key) != first.get(key)
                        or b[workload][1].get(key) != first.get(key)):
                    drift.append(f"  {workload:<26} {key}: "
                                 f"A {a[workload][1].get(key)} -> "
                                 f"B {b[workload][1].get(key)}")
    print("simulated-count drift (timing model or compiler output changed):",
          file=out)
    print("\n".join(sorted(set(drift))) or "  none", file=out)
    return 1 if regressions else 0


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) < 2 or len(paths) % 2:
        print(__doc__, file=sys.stderr)
        return 2
    documents = [load(path) for path in paths]
    return compare(list(zip(documents[0::2], documents[1::2])))


if __name__ == "__main__":
    sys.exit(main())
