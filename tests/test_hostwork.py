"""Host work per layer, pinned: Python calls into each ``src/repro``
module for a few small warm runs.

Host seconds wobble from run to run; the number of calls a run makes
does not.  ``tests/golden/hostwork.json`` holds, per Python minor
version (the interpreter decides what is a call: 3.12 inlines
comprehensions), the calls per module of ``src/repro`` -- a module of a
sub-package counts as its directory (``sim/observability``) -- and the
simulated cycles and instructions beside them, so calls per simulated
instruction can be read off.  A change that moves a count regenerates
the golden and names the diff:
``PYTHONPATH=src python tests/test_hostwork.py``.

Each run is made twice and only the second is counted: the first pays
for decode, block formation and lazy imports, once per process.

The script mode needs no pytest (an interpreter that has none can
still write its key), so pytest is imported only inside the tests and
the runs are parametrized by :func:`pytest_generate_tests`.
"""

from __future__ import annotations

import cProfile
import json
import os
import sys
from collections import Counter

from repro.sim.config import chip1024, fpga64
from repro.sim.functional import FunctionalSimulator
from repro.sim.machine import Simulator
from repro.sim.observability.ledger import instrumented_run
from repro.sim.tcu import TCU
from repro.workloads import microbench as MB
from repro.workloads import programs as W
from repro.xmtc.compiler import compile_source

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "hostwork.json")
PKG = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src", "repro")
PYTHON = "%d.%d" % sys.version_info[:2]


def _program(source_and_inputs):
    source, inputs = source_and_inputs[:2]
    program = compile_source(source)
    for name, values in inputs.items():
        program.write_global(name, values)
    return program


def _cycle(source_and_inputs, config):
    program = _program(source_and_inputs)

    def run():
        result = Simulator(program, config()).run(max_cycles=1_000_000)
        return {"cycles": result.cycles, "instructions": result.instructions}
    return run


def _functional(source_and_inputs):
    program = _program(source_and_inputs)

    def run():
        return {"instructions": FunctionalSimulator(program).run().instructions}
    return run


def _observed(source_and_inputs, config):
    program = _program(source_and_inputs)

    def run():
        result = instrumented_run(program, config(), accounting=True,
                                  max_cycles=1_000_000).result
        return {"cycles": result.cycles, "instructions": result.instructions}
    return run


def _compile(source):
    def run():
        return {"assembled": len(compile_source(source).instructions)}
    return run


#: name -> what makes the run (outside the count)
RUNS = {
    "compute_fpga64": lambda: _cycle(MB.parallel_compute(256, 8), fpga64),
    "memory_fpga64": lambda: _cycle(MB.parallel_memory(64, 4), fpga64),
    "memory_chip1024": lambda: _cycle(
        MB.parallel_memory(256, 2, array_words=1024), chip1024),
    "reduction_functional": lambda: _functional(W.reduction(512)),
    "compile_bfs": lambda: _compile(W.bfs(32)[0]),
    "observed_bfs_fpga64": lambda: _observed(W.bfs(32), fpga64),
}


def hostwork(make) -> dict:
    """What ``make()``'s run does, and the calls of its second time per
    ``src/repro`` module."""
    run = make()
    run()
    profile = cProfile.Profile()
    row = profile.runcall(run)
    root = os.path.realpath(PKG) + os.sep
    calls = Counter()
    # per code object: ``pstats`` would keep one of the generated block
    # functions that share a name, file and line (a builtin's is a str)
    for entry in profile.getstats():
        if isinstance(entry.code, str):
            continue
        filename = os.path.realpath(entry.code.co_filename)
        if filename.startswith(root):
            parts = filename[len(root):-len(".py")].split(os.sep)
            calls["/".join(parts[:2])] += entry.callcount
    return dict(row, calls=dict(sorted(calls.items())))


def pytest_generate_tests(metafunc):
    if metafunc.function is test_host_work_per_layer:
        metafunc.parametrize("name", sorted(RUNS))


def test_host_work_per_layer(name):
    import pytest

    with open(GOLDEN) as fh:
        golden = json.load(fh)
    if PYTHON not in golden:
        pytest.skip(f"no host-work golden for Python {PYTHON}; regenerate "
                    "with `PYTHONPATH=src python tests/test_hostwork.py`")
    assert hostwork(RUNS[name]) == golden[PYTHON][name]


def test_host_work_golden_sees_one_more_call_per_tcu_tick(monkeypatch):
    """The golden bites: a ``TCU.tick`` that makes one more call into
    ``sim/tcu`` per tick moves the count by exactly the ticks made."""
    import pytest

    with open(GOLDEN) as fh:
        golden = json.load(fh)
    if PYTHON not in golden:
        pytest.skip(f"no host-work golden for Python {PYTHON}")
    ticks = [0]
    tick = TCU.tick

    def tick_and_call(self, cycle):
        ticks[0] += 1
        self._period()
        return tick(self, cycle)

    monkeypatch.setattr(TCU, "tick", tick_and_call)

    def make():
        run = RUNS["memory_fpga64"]()

        def counted():  # only the counted (second) run's ticks
            ticks[0] = 0
            return run()
        return counted

    row = hostwork(make)
    want = golden[PYTHON]["memory_fpga64"]
    assert row != want
    assert ticks[0] > 0
    assert row["calls"]["sim/tcu"] - want["calls"]["sim/tcu"] == ticks[0]


if __name__ == "__main__":
    golden = {}
    if os.path.exists(GOLDEN):
        with open(GOLDEN) as fh:
            golden = json.load(fh)
    golden[PYTHON] = {name: hostwork(make) for name, make in sorted(RUNS.items())}
    with open(GOLDEN, "w") as fh:
        fh.write(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} for Python {PYTHON}")
