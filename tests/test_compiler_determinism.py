"""Compiler determinism: identical input -> byte-identical assembly.

Reproducible builds matter for a research toolchain (the same program
must produce the same simulation numbers run-to-run and build-to-build).
"""

import pytest

from repro.xmtc.compiler import CompileOptions, compile_to_asm
from repro.workloads import programs as W


@pytest.mark.parametrize("builder,args,opts", [
    (W.bfs, (64, 3.0), {}),
    (W.fft, (32,), {}),
    (W.merge_sort, (64, 8), {"parallel_calls": True}),
    (W.max_flow, (16, 2.0), {}),
])
def test_compile_is_deterministic(builder, args, opts):
    src, _, _ = builder(*args)
    a = compile_to_asm(src, CompileOptions(**opts)).asm_text
    b = compile_to_asm(src, CompileOptions(**opts)).asm_text
    assert a == b


def test_workload_generators_are_deterministic():
    a = W.bfs(40, 3.0, seed=9)
    b = W.bfs(40, 3.0, seed=9)
    assert a == b

_COMPILE_BOTH = """
from repro.workloads import programs as W
from repro.xmtc.compiler import CompileOptions, compile_to_asm
print(compile_to_asm(W.fft(32)[0]).asm_text)
print(compile_to_asm(W.merge_sort(64, 8)[0],
                     CompileOptions(parallel_calls=True)).asm_text)
"""


def test_assembly_does_not_depend_on_hash_seed():
    """The ledger's program fingerprint is a hash of the assembly, so
    campaign dedup/resume breaks if two processes compile differently."""
    import os
    import subprocess
    import sys

    import repro

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    outputs = set()
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src_dir)
        outputs.add(subprocess.run(
            [sys.executable, "-c", _COMPILE_BOTH], env=env, check=True,
            capture_output=True, text=True).stdout)
    assert len(outputs) == 1
