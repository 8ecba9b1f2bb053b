"""The compiler's output, pinned: assembly text and assembled Program.

``tests/golden/asm.json`` holds, for every program of the corpus below,
the sha256 of the text ``compile_to_asm`` returns and of everything the
``Program`` from ``compile_source`` carries: each instruction's fields
(``line`` and ``src_line`` included), labels in binding order, the data
image, the string table, globals, spawn regions and the source text.
Any change to a compiler stage that is meant to be a pure refactor or
speed-up must leave every row alone.  Regenerate only for an intended
change of the compiler's output::

    PYTHONPATH=src python tests/test_compiler_golden.py
"""

import hashlib
import json
import os

from repro.workloads import microbench as MB
from repro.workloads import programs as W
from repro.xmtc.analysis.linter import collect_litmus_cases
from repro.xmtc.compiler import CompileOptions, compile_source, compile_to_asm
from repro.xmtc.fuzz.generator import generate

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_ASM = os.path.join(HERE, "golden", "asm.json")
LITMUS_DIR = os.path.join(os.path.dirname(HERE), "examples", "litmus")

#: the ten kernels at ``benchmarks/xmt_bench``'s ``cycle`` sizes
KERNELS = {"array_compaction": (1024,), "reduction": (1024,),
           "prefix_sum": (512,), "bfs": (128,), "connectivity": (64,),
           "matmul": (12,), "fft": (128,), "spmv": (128,),
           "list_ranking": (128,), "merge_sort": (128, 8)}

#: two kernels compiled once per option set, beside their default build
OPTION_MATRIX = {"O0": {"opt_level": 0}, "O1": {"opt_level": 1},
                 "cluster4": {"cluster_factor": 4},
                 "no_outline": {"outline": False},
                 "ro_cache": {"ro_cache": True}}
MATRIX_KERNELS = ("bfs", "matmul")


def corpus():
    """``name -> (source, CompileOptions or None)``."""
    progs = {}
    for name, size in KERNELS.items():
        options = (CompileOptions(parallel_calls=True)
                   if name == "merge_sort" else None)
        progs[name] = (getattr(W, name)(*size)[0], options)
    for name in MATRIX_KERNELS:
        for tag, fields in OPTION_MATRIX.items():
            progs[f"{name}.{tag}"] = (progs[name][0], CompileOptions(**fields))
    progs["micro.parallel_memory"] = (MB.parallel_memory(1024, 16, 16384)[0],
                                      None)
    progs["micro.parallel_compute"] = (MB.parallel_compute(2048, 40)[0], None)
    progs["micro.serial_memory"] = (MB.serial_memory(1600)[0], None)
    progs["micro.serial_compute"] = (MB.serial_compute(6000)[0], None)
    for name, source, options, _ in collect_litmus_cases(LITMUS_DIR):
        progs[f"litmus.{name}"] = (source, options)
    for seed in range(64):
        generated = generate(seed)
        progs[f"fuzz.{seed}"] = (generated.source,
                                 generated.compile_options())
    return progs


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _fields(ins) -> list:
    slots = sorted({slot for cls in type(ins).__mro__
                    for slot in getattr(cls, "__slots__", ())})
    return [type(ins).__name__] + [[slot, getattr(ins, slot)]
                                   for slot in slots]


def program_sha256(program) -> str:
    return _sha256(json.dumps({
        "instructions": [_fields(ins) for ins in program.instructions],
        "labels": list(program.labels.items()),
        "data_labels": list(program.data_labels.items()),
        "data_image": sorted(program.data_image.items()),
        "strings": program.strings,
        "globals": [[g.name, g.addr, g.n_words]
                    for g in program.globals_table.values()],
        "entry": program.entry,
        "spawn_regions": [[r.spawn_index, r.join_index]
                          for r in program.spawn_regions],
        "data_end": program.data_end,
        "greg_init": sorted(program.greg_init.items()),
        "parallel_calls": program.parallel_calls,
        "source": program.source,
    }))


def golden_rows() -> dict:
    rows = {}
    for name, (source, options) in corpus().items():
        rows[name] = {
            "asm_sha256": _sha256(compile_to_asm(source, options).asm_text),
            "program_sha256": program_sha256(compile_source(source, options)),
        }
    return rows


def test_compiler_output_matches_the_golden():
    with open(GOLDEN_ASM) as fh:
        golden = json.load(fh)
    rows = golden_rows()
    assert sorted(rows) == sorted(golden)
    changed = [name for name in rows if rows[name] != golden[name]]
    assert not changed, f"compiler output changed for {changed}"


if __name__ == "__main__":
    with open(GOLDEN_ASM, "w") as fh:
        fh.write(json.dumps(golden_rows(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_ASM}")
