"""Benchmark-harness helpers.

Every benchmark regenerates one table/figure row from the paper (see
DESIGN.md's per-experiment index).  Besides the pytest-benchmark host
timing, each test appends its reproduced rows to
``benchmarks/results/<experiment>.txt`` so EXPERIMENTS.md can quote
them; rows are also echoed to stdout (visible with ``pytest -s``).
"""

from __future__ import annotations

import os
from typing import List

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


class TableWriter:
    def __init__(self, experiment: str):
        self.experiment = experiment
        self.lines: List[str] = []

    def row(self, text: str) -> None:
        self.lines.append(text)
        print(text)

    def header(self, text: str) -> None:
        self.row(text)
        self.row("-" * len(text))

    def flush(self) -> None:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        path = os.path.join(RESULTS_DIR, f"{self.experiment}.txt")
        with open(path, "w") as fh:
            fh.write("\n".join(self.lines) + "\n")


@pytest.fixture
def table(request):
    writer = TableWriter(request.node.name.replace("/", "_"))
    yield writer
    writer.flush()


def once(benchmark, fn, *args, **kwargs):
    """Run a heavy simulation exactly once under pytest-benchmark.

    Host-performance tracking lives in ``benchmarks/xmt_bench`` (its
    ``trajectory.jsonl``); these benchmarks reproduce the paper's rows.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)
